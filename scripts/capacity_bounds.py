#!/usr/bin/env python3
"""Compare the exact capacity of each solution closure with the cheap upper
bound read off the dominating tuple (the coordinatewise least upper bound of
all solution rank matrices)."""

import argparse

from rankfn import (
    ConvexTable,
    capacity_upper_bound,
    dominating_tuple,
    enumerate_sol,
    sol_capacity,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=9)
    ap.add_argument("--k", type=int, default=2, help="matrices on the left")
    args = ap.parse_args()

    print(f"{'n':>4} {'tuples':>7} {'capacity':>9} {'bound':>7}  dominating tuple")
    for n in range(2, args.max_n + 1):
        f = ConvexTable.identity(n)
        tuples = len(enumerate_sol(n, args.k, f).lhs)
        cap = sol_capacity(n, args.k, f)
        if not tuples:
            print(f"{n:>4} {0:>7} {'-inf':>9} {'':>7}  (no solutions)")
            continue
        parts = dominating_tuple(n, args.k, f)
        desc = "  ".join(str(p) for p in parts)
        flag = " full-block" if all(len(p.parts) == 1 for p in parts) else ""
        print(f"{n:>4} {tuples:>7} {str(cap):>9} "
              f"{str(capacity_upper_bound(parts)):>7}  {desc}{flag}")


if __name__ == "__main__":
    main()
