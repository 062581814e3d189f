#!/usr/bin/env python3
"""Reference figures for the known hot spots, each measured once.

    python3 bench/hotspots.py [--tier1]

Times each case as a fresh process (wall time, peak RSS from wait4) and
prints one line per case.  With --tier1 it also times the Tier-1 test suite
and reports the share taken by test_matrix_engine_agreement (needs pytest).
The figures in bench/README.md come from this script.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ONES = ",".join(["1"] * 20000)
CASES = [
    ("components --n 16 --k 4", ["-m", "rankfn", "components", "--n", "16", "--k", "4"]),
    ("enumerate_sol(20, 3)", ["-c", "from rankfn import enumerate_sol, ConvexTable; "
                              "enumerate_sol(20, 3, ConvexTable.identity(20))"]),
    ("enumerate --n 40 --k 2 --budget 10", ["-m", "rankfn", "enumerate", "--n", "40", "--k", "2",
                                            "--budget", "10"]),
    ("enumerate --n 50 --k 2 --budget 10", ["-m", "rankfn", "enumerate", "--n", "50", "--k", "2",
                                            "--budget", "10"]),
    ("rank --jp <20,000 ones>", ["-m", "rankfn", "rank", "--jp", ONES]),
]
for verb, extra in (("enumerate", ["--n", "20", "--k", "3"]),
                    ("search", ["--n", "20", "--k", "2", "--f", "square", "--g", "square",
                                "--budget", str(10**9)])):
    for workers in (1, 2):
        CASES.append((f"{verb} {' '.join(extra[:4])} --workers {workers}",
                      ["-m", "rankfn", verb, *extra, "--workers", str(workers)]))


def timed(args: list[str]) -> tuple[float, int, float]:
    """(wall seconds, exit code, peak RSS MiB of the largest process)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    null = os.open(os.devnull, os.O_WRONLY)
    actions = [(os.POSIX_SPAWN_DUP2, null, 1), (os.POSIX_SPAWN_DUP2, null, 2)]
    t0 = perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = perf_counter() - t0
    os.close(null)
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024


def tier1() -> None:
    import subprocess
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    got = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                          "-p", "no:cacheprovider", "--durations=3"],
                         cwd=ROOT, env=env, capture_output=True, text=True)
    wall = perf_counter() - t0
    tail = got.stdout.strip().splitlines()[-1]
    m = re.search(r"([\d.]+)s call\s+\S*test_matrix_engine_agreement", got.stdout)
    share = f"{float(m.group(1)):.1f} s ({float(m.group(1)) / wall:.0%})" if m else "n/a"
    print(f"Tier-1 suite: {wall:.1f} s wall, {tail}; test_matrix_engine_agreement {share}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tier1", action="store_true", help="also time the Tier-1 suite")
    args = ap.parse_args()
    for name, argv in CASES:
        wall, code, rss = timed(argv)
        print(f"{name:55s} {wall:7.2f} s  exit {code}  peak RSS {rss:6.1f} MiB", flush=True)
    if args.tier1:
        tier1()
    return 0


if __name__ == "__main__":
    sys.exit(main())
