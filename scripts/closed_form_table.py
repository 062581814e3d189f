#!/usr/bin/env python3
"""Tabulate component counts, dimensions, and capacities for the plain-sum
equation at sizes 2k and 2k+1, next to the closed forms they should match."""

import argparse

from rankfn import ConvexTable, components_capacity, enumerate_sol, irreducible_components


def row(n, k):
    s = enumerate_sol(n, k, ConvexTable.identity(n))
    dims = [dim for _, dim in irreducible_components(s)]
    return len(s.lhs), len(dims), sorted(set(dims)), components_capacity(dims)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-k", type=int, default=5, help="largest arity to sweep")
    args = ap.parse_args()

    print(f"{'n':>4} {'k':>3} {'tuples':>7} {'comps':>6} {'dims':>14} "
          f"{'capacity':>9}  closed form")
    for k in range(1, args.max_k + 1):
        for n, comps_want, dim_want in [
            (2 * k, 1, 6 * k * k - 2 * k),
            (2 * k + 1, k, 6 * k * k + 8 * k - 2),
        ]:
            tuples, ncomp, dims, cap = row(n, k)
            ok = ncomp == comps_want and dims == [dim_want]
            print(f"{n:>4} {k:>3} {tuples:>7} {ncomp:>6} {str(dims):>14} "
                  f"{str(cap):>9}  {comps_want} x dim {dim_want} "
                  f"{'ok' if ok else 'MISMATCH'}")


if __name__ == "__main__":
    main()
