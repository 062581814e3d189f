#!/usr/bin/env python3
"""rankfn benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload closure-geometry --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each pass over the workload's ops runs in
a fresh worker process (bench/worker.py), so every pass pays the cache fills
a CLI user pays; whole passes are repeated while they fit in --seconds (at
least one), and each op counts with its best pass.  Every op's output is
then checked against bench/reference.py.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with --trace 0, and with
--trace 1 the per-layer metrics of one extra traced pass.  A results file
``bench/results/BENCH_<label>.json`` records the run in full.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUPS = 2  # set-up-only processes per pass; setup_s is the fastest set-up
PROBES = 5  # interpreter / import probes per traced run


class WorkerError(RuntimeError):
    pass


def spawn(argv: list[str]):
    """Start argv with a pipe on its stdout; returns (pid, reader, t_spawn)."""
    r, w = os.pipe()
    actions = [(os.POSIX_SPAWN_DUP2, w, 1)]
    t0 = perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    os.close(w)
    return pid, os.fdopen(r, "rb"), t0


def reap(pid: int) -> tuple[int, int]:
    """Wait for pid; returns (exit code, peak RSS in KiB)."""
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss


def worker(workload: str, seed: int, tiny: bool, *extra: str) -> dict:
    """Run one worker to its end; returns its records, set-up time and RSS."""
    argv = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), *extra]
    if tiny:
        argv.append("--tiny")
    pid, stream, t0 = spawn(argv)
    records, setup, done = [], None, None
    try:
        while True:
            line = stream.readline()
            if not line:
                break
            head = json.loads(line)
            out, err = stream.read(head["out"]), stream.read(head["err"])
            if "ready" in head:
                setup = perf_counter() - t0
            elif "done" in head:
                done = head
            else:
                records.append((head, out, err))
    finally:
        stream.close()
        code, rss = reap(pid)
    if code != 0 or setup is None:
        raise WorkerError(f"worker {argv[2:]} exited with {code}")
    return {"records": records, "setup_s": setup, "rss_kib": rss, "done": done}


def probe_ms(code: str) -> float:
    """Median wall time of fresh `python -c code` processes, in ms."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append((perf_counter() - t0) * 1000)
    return statistics.median(times)


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = got.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "implementation": platform.python_implementation(), "commit": commit}


def check_all(ops: list[dict], passes: list[list]) -> tuple[int, list[str]]:
    """Check every op of every pass; identical outputs are checked once.
    Returns the number of failed op runs and one note per distinct problem,
    each starting with 'failed:' or 'wrong:'."""
    failed, notes, verdicts = 0, [], {}
    for records in passes:
        for head, out, err in records:
            key = (head["op"], head["code"], out, err)
            if key not in verdicts:
                op = ops[head["op"]]
                try:
                    checks.check(op, head["code"], out, err)
                    verdicts[key] = None
                except (checks.Failed, checks.Wrong) as exc:
                    kind = "failed" if isinstance(exc, checks.Failed) else "wrong"
                    verdicts[key] = f"{kind}: op {head['op']} {op.get('argv', 'replay')}: {exc}"
            note = verdicts[key]
            if note:
                failed += note.startswith("failed:")
                if note not in notes:
                    notes.append(note)
    return failed, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--label", help="results file label (default <workload>-s<seed>[-trace])")
    ap.add_argument("--tiny", action="store_true", help="shrink every input (self-tests)")
    args = ap.parse_args(argv)
    if not (SRC / "rankfn" / "__init__.py").is_file() or not checks.SCHEMAS.is_file():
        print(f"run.py: no rankfn sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    label = args.label or f"{args.workload}-s{args.seed}" + ("-trace" if args.trace else "")
    ops = workloads.build(args.workload, args.seed, args.tiny)

    setups, passes, pass_s, rss_kib, spent = [], [], [], [], 0.0
    while True:
        t0 = perf_counter()
        # set-ups are sampled between the passes, so that they spread over
        # the run as the passes do; each pass's own set-up counts too
        setups += [worker(args.workload, args.seed, args.tiny, "--setup-only")["setup_s"]
                   for _ in range(SETUPS)]
        got = worker(args.workload, args.seed, args.tiny)
        setups.append(got["setup_s"])
        wall = perf_counter() - t0
        spent += wall
        records = got["records"]
        if len(records) != len(ops):
            raise WorkerError(f"pass ran {len(records)} of {len(ops)} ops")
        passes.append(records)
        pass_s.append(sum(head["s"] for head, _, _ in records))
        if args.workload in workloads.IN_PROCESS:
            rss_kib.append(got["rss_kib"])
        else:
            rss_kib.extend(head["rss_kib"] for head, _, _ in records)
        if spent + wall > args.seconds:
            break
    # op_s[i] holds op i's wall time in every pass.  Contention from other
    # tenants only ever adds time, so each op counts with its best pass, and
    # set-up with its fastest process.
    op_s = [list(col) for col in zip(*[[head["s"] for head, _, _ in rs] for rs in passes])]
    best = [min(times) for times in op_s]
    run_s = sum(best)
    end_to_end = {
        "setup_s": (min(setups), "s"),
        "run_s": (run_s, "s"),
        "op_p50_ms": (statistics.median(best) * 1000, "ms"),
        "peak_rss_mib": (max(rss_kib) / 1024, "MiB"),
    }

    per_layer, absent, untraced, traced_records = {}, [], [], []
    if args.trace:
        spans = RESULTS / f"spans_{label}.bin"
        # the traced pass runs in-process; it is compared with an untraced
        # in-process pass run just before it, the same way on every workload
        untraced = worker(args.workload, args.seed, args.tiny, "--in-process")["records"]
        got = worker(args.workload, args.seed, args.tiny, "--trace", str(spans))
        traced_records = got["records"]
        summary = got["done"]["trace"]
        absent = summary["absent"]
        interp = probe_ms("pass")
        measured = dict(summary["metrics"])
        measured.update({
            "cli.interpreter_ms": interp,
            "cli.import_ms": probe_ms("import rankfn.cli") - interp,
            "cli.stdout_bytes": sum(len(out) for head, out, _ in traced_records
                                    if "argv" in ops[head["op"]]),
            "trace.overhead_s": (sum(head["s"] for head, _, _ in traced_records)
                                 - sum(head["s"] for head, _, _ in untraced)),
        })
        per_layer = {name: (measured.get(name, 0), unit) for name, unit in tracing.metric_names()}

    extra = [untraced, traced_records] if args.trace else []
    failed, notes = check_all(ops, passes + extra)
    attempted = len(ops) * (len(passes) + len(extra))
    correct = not any(n.startswith("wrong:") for n in notes)
    for note in notes:
        print(note, file=sys.stderr)
    print(f"{args.workload}: {len(ops)} ops x {len(passes)} passes; op_p50_ms over "
          f"{len(best)} ops; pass sums {[round(s, 3) for s in pass_s]}", file=sys.stderr)

    def as_json(metrics: dict) -> dict:
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": as_json(per_layer if args.trace else end_to_end)}
    record = {
        "label": label, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "machine": machine(),
        "correct": correct, "attempted": attempted, "failed": failed, "notes": notes,
        "passes": len(passes), "pass_run_s": pass_s, "setup_samples_s": setups,
        "op_s": op_s,
        "end_to_end": as_json(end_to_end), "per_layer": as_json(per_layer),
        "absent": absent,
    }
    (RESULTS / f"BENCH_{label}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
