#!/usr/bin/env python3
"""Steadiness check: sets of benchmark runs of the same code, compared.

    python3 bench/steady.py --runs 10 --first-seed 1001

Two sets of runs over every workload of BENCHMARK.json, at its run_seconds;
each run uses a fresh seed.  For every workload and end-to-end metric it
prints each set's median and quartiles and the spread (q3 - q1) / median,
and whether every spread stays within the metric's bound in BENCHMARK.json,
whether the two sets' medians differ by no more than the bound, either way,
and whether the share of failed ops is the same.  Spreads above a third of
the bound are flagged.  The figures also go to bench/results/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    got = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(got.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs: dict = {w: [[], []] for w in names}
    seed = args.first_seed
    for s in range(2):
        for _ in range(args.runs):
            for w in names:  # interleaved, so drift in the machine hits every workload alike
                result = one_run(w, seed, spec["run_seconds"])
                result["seed"] = seed
                runs[w][s].append(result)
                seed += 1
                print(f"set {s + 1} {w} seed {result['seed']}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)

    ok, report = True, {}
    for w in names:
        report[w] = {}
        shares = {sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in runs[w]}
        correct = all(r["correct"] for rs in runs[w] for r in rs)
        ok &= len(shares) == 1 and correct
        print(f"\n{w}: correct={correct} failed share per set={sorted(shares)}")
        for metric, bound in bounds.items():
            sets = [quartiles([r["metrics"][metric]["value"] for r in rs]) for rs in runs[w]]
            spreads = [(q3 - q1) / med for q1, med, q3 in sets]
            spread_ok = all(sp <= bound for sp in spreads)
            drift = sets[1][1] / sets[0][1] - 1
            drift_ok = abs(drift) <= bound
            ok &= spread_ok and drift_ok
            report[w][metric] = {"sets": sets, "spreads": spreads, "drift": drift, "bound": bound}
            cells = "  ".join(f"med {med:.4g} [{q1:.4g}, {q3:.4g}] spread {sp:.3f}"
                              for (q1, med, q3), sp in zip(sets, spreads))
            flag = "ok" if spread_ok and drift_ok else "OUT OF BOUND"
            target = "" if max(spreads) < bound / 3 else " (spread above bound/3)"
            print(f"  {metric:13s} bound {bound:.2f}: {cells}  drift {drift:+.3f}  {flag}{target}")
    (BENCH / "results").mkdir(exist_ok=True)
    out = BENCH / "results" / "steady.json"
    out.write_text(json.dumps({"runs": runs, "report": report, "ok": ok}, indent=1) + "\n")
    print(f"\n{'agree' if ok else 'DISAGREE'}; details in {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
