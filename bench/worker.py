"""The process that runs the program for one pass of a workload.

    python3 bench/worker.py <workload> <seed> [--tiny] [--trace SPANS_PATH]
                            [--in-process] [--setup-only]

It imports rankfn from the checkout's ``src``, makes the workload's ops
from the seed, writes one ``ready`` record and then runs every op once,
timing each.  In-process workloads call ``rankfn.cli.main`` (stdout and
stderr captured) or the oracle's functions; cli-small-requests starts one
``python -m rankfn`` process per op and reads its peak memory from
``wait4``, unless --in-process or --trace sends its requests through
``rankfn.cli.main`` too.  Records go to stdout, each a JSON header line followed by the
op's raw stdout and stderr bytes; checking them is the parent's job, so
nothing the checks allocate shows in this process's memory.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import rankfn.cli  # noqa: E402  (the program under test, from src/)
import rankfn.oracle  # noqa: E402

import workloads  # noqa: E402


class _Sink:
    """Collects what the CLI writes, without copying it."""

    def __init__(self) -> None:
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def value(self) -> bytes:
        return "".join(self.parts).encode()


def run_in_process(op: dict) -> tuple[float, int, bytes, bytes]:
    """One op in this process.  An exception the program lets escape ends
    the op with exit code 1 and its traceback on stderr, as it would end a
    ``python -m rankfn`` process, so the checks count it as failed."""
    if "replay" in op:
        r = op["replay"]
        oracle = rankfn.oracle
        t0 = perf_counter()
        try:
            m = oracle.jordan_matrix(rankfn.core.Partition(tuple(r["parts"])), r["q"],
                                     seed=r["jseed"])
            conj = oracle.random_conjugate(m, seed=r["cseed"])
            ranks = oracle.matrix_rank_function(conj)
            rank1 = oracle.exact_rank(conj)
        except Exception:
            return perf_counter() - t0, 1, b"", traceback.format_exc().encode()
        dt = perf_counter() - t0
        out = {"ranks": ranks, "rank1": rank1, "matrix": conj.to_json()["entries"]}
        return dt, 0, json.dumps(out).encode(), b""
    out, err = _Sink(), _Sink()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    t0 = perf_counter()
    try:
        code = rankfn.cli.main(op["argv"])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code = 1
        err.write(traceback.format_exc())
    finally:
        dt = perf_counter() - t0
        sys.stdout, sys.stderr = saved
    return dt, code, out.value(), err.value()


def run_subprocess(op: dict, scratch: Path) -> tuple[float, int, bytes, bytes, int]:
    """One fresh `python -m rankfn` process; returns its peak RSS in KiB too."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = scratch / "out", scratch / "err"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o600),
               (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o600)]
    argv = [sys.executable, "-m", "rankfn", *op["argv"]]
    t0 = perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    dt = perf_counter() - t0
    return (dt, os.waitstatus_to_exitcode(status), out_path.read_bytes(),
            err_path.read_bytes(), usage.ru_maxrss)


def emit(stream, head: dict, out: bytes = b"", err: bytes = b"") -> None:
    head = dict(head, out=len(out), err=len(err))
    stream.write(json.dumps(head).encode() + b"\n")
    stream.write(out)
    stream.write(err)
    stream.flush()


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    tiny = "--tiny" in argv
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    ops = workloads.build(workload, seed, tiny)
    stream = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # stray prints must not corrupt the record stream
    emit(stream, {"ready": len(ops)})
    if "--setup-only" in argv:
        return 0
    tracer = None
    if spans_path:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    subprocesses = (workload not in workloads.IN_PROCESS and tracer is None
                    and "--in-process" not in argv)
    with tempfile.TemporaryDirectory(dir=BENCH / "results") as scratch:
        for i, op in enumerate(ops):
            gc.collect()
            if tracer is not None:
                tracer.op = i
            if subprocesses:
                dt, code, out, err, rss = run_subprocess(op, Path(scratch))
                emit(stream, {"op": i, "s": dt, "code": code, "rss_kib": rss}, out, err)
            else:
                dt, code, out, err = run_in_process(op)
                emit(stream, {"op": i, "s": dt, "code": code}, out, err)
            del out, err
    done: dict = {"done": True}
    if tracer is not None:
        done["trace"] = tracer.summary()
        tracer.write(spans_path)
    emit(stream, done)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
