#!/usr/bin/env python3
"""Sweep the squared-rank equation f = g = x^2 with two matrices on the left
and print every solution tuple, size by size.

At each power m the equation reads r1(m)^2 + r2(m)^2 = r(m)^2, so the rank
columns of a solution line up into Pythagorean triples (possibly degenerate
ones with a zero leg).
"""

import argparse

from rankfn import (
    EquationSpec,
    FnTable,
    check_solution,
    partition_to_rank,
    search_general,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-n", type=int, default=2)
    ap.add_argument("--max-n", type=int, default=12)
    args = ap.parse_args()

    for n in range(args.min_n, args.max_n + 1):
        spec = EquationSpec(n=n, k=2, f=FnTable.squares(n), g=FnTable.squares(n))
        sols = search_general(spec, budget=10**7)
        assert all(check_solution(spec, s) for s in sols)
        print(f"n = {n:2d}: {len(sols)} solution(s)")
        for s in sols:
            lhs = " + ".join(f"({c.nilp})" for c in s.lhs)
            print(f"    {lhs} -> ({s.rhs.nilp})")
        if sols:
            sample = sols[0]
            cols = [partition_to_rank(c.nilp).at(1) for c in sample.lhs]
            rhs1 = partition_to_rank(sample.rhs.nilp).at(1)
            print(f"    (first tuple at power 1: "
                  f"{cols[0]}^2 + {cols[1]}^2 = {rhs1}^2)")


if __name__ == "__main__":
    main()
