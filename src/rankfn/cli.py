"""Command-line front end: one verb per operation, JSON (or DOT) on stdout.

This module alone writes the JSON documents (their layout is published in
``docs/cli_schemas.json``); the library returns plain values.  Exit codes:
0 on success, 1 for a violated precondition (a structured error document
goes to stderr), 2 for usage errors.  Identical flags give byte-identical
output.  The exact-matrix oracle is imported only by
``oracle-verify``, the one verb that uses it.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from . import geometry
from .core import (
    MatrixClass,
    Partition,
    RankFunction,
    class_rank,
    dominates,
    partition_to_rank,
    rank_to_class,
)
from .equations import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    ConvexTable,
    EquationSpec,
    FnTable,
    SolutionTuple,
    check_search_budget,
    check_solution,
    search_general,
    solve_nilpotent,
    solve_with_stable_ranks,
)

_ERRORS = (ValueError, BudgetExceeded)

# largest n that rank, solve, solve-stable, check, dominates and the solution-set verbs accept
SIZE_CAP = 10_000


def _check_size(n: int) -> None:
    if n > SIZE_CAP:
        raise BudgetExceeded(f"size n = {n} exceeds the n <= {SIZE_CAP} cap")


def _parse_values(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.strip().split(","))
    except ValueError as exc:
        raise ValueError(f"malformed integer list: {text!r}") from exc


def _parse_table(text: str, n: int, convex: bool):
    cls = ConvexTable if convex else FnTable
    if text == "id":
        return cls.identity(n)
    if text == "square":
        return cls.squares(n)
    if text.startswith("table:"):
        return cls(_parse_values(text[len("table:"):]))
    raise ValueError(
        f"table spec must be 'id', 'square', or 'table:v0,v1,...': {text!r}")


def _spec(args, k: int) -> EquationSpec:
    f = _parse_table(args.f, args.n, convex=False)
    g = _parse_table(args.g, args.n, convex=False)
    return EquationSpec(n=args.n, k=k, f=f, g=g, include_zero=args.include_zero)


def _sized_partition(text: str, n: int) -> Partition:
    p = Partition.parse(text)
    if p.n != n:
        raise ValueError(f"partition {text!r} sums to {p.n}, expected n = {n}")
    return p


def _sized_class(text: str, n: int) -> MatrixClass:
    """'3,2:1' is nilpotent part (3,2) with stable rank 1; ':q' and plain
    part lists work too.  The class must have size n."""
    parts_text, _, q_text = text.partition(":")
    q = int(q_text) if q_text.strip() else 0
    c = MatrixClass(Partition.parse(parts_text), q)
    if c.size != n:
        raise ValueError(f"class {text!r} has size {c.size}, expected n = {n}")
    return c


def _dumps(obj) -> str:
    return json.dumps(obj) + "\n"


def _class_json(c: MatrixClass) -> dict:
    return {"nilp": list(c.nilp.parts), "q": c.q}


def _table_json(text: str, table: FnTable) -> dict:
    """Named tables print their name alone; a literal table also its values."""
    if text in ("id", "square"):
        return {"kind": text}
    return {"kind": "table", "values": list(table.values)}


def _tuple_json(t: SolutionTuple) -> dict:
    return {"lhs": [_class_json(c) for c in t.lhs], "rhs": _class_json(t.rhs)}


def _rm_json(rm: geometry.RankMatrix) -> list[list[int]]:
    return [list(r.values) for r in rm.rows]


def _cmd_rank(args) -> str:
    c = MatrixClass(Partition.parse(args.jp), args.q)
    _check_size(c.size)
    return _dumps(list(class_rank(c).values))


def _cmd_unrank(args) -> str:
    r = RankFunction(_parse_values(args.values))
    return _dumps(_class_json(rank_to_class(r)))


def _cmd_dominates(args) -> str:
    a, b = Partition.parse(args.a), Partition.parse(args.b)
    _check_size(max(a.n, b.n))
    return _dumps({"dominates": dominates(partition_to_rank(a), partition_to_rank(b))})


def _cmd_solve(args) -> str:
    _check_size(args.n)
    f = _parse_table(args.f, args.n, convex=True)
    rhs = solve_nilpotent(f, [_sized_partition(t, args.n) for t in args.jp])
    return _dumps({"rhs": None if rhs is None else list(rhs.parts)})


def _cmd_solve_stable(args) -> str:
    _check_size(args.n)
    f = _parse_table(args.f, args.n, convex=True)
    rhs = solve_with_stable_ranks(f, [_sized_class(t, args.n) for t in args.cls])
    return _dumps({"rhs": None if rhs is None else _class_json(rhs)})


def _cmd_check(args) -> str:
    _check_size(args.n)
    lhs = [_sized_class(t, args.n) for t in args.cls]
    spec = _spec(args, len(lhs))
    sol = SolutionTuple(tuple(lhs), _sized_class(args.rhs, args.n))
    return _dumps({"holds": check_solution(spec, sol)})


def _cmd_search(args) -> str:
    if args.n >= 2 and args.k >= 1:
        # refuse before any table on 0..n is built
        check_search_budget(args.n, args.k, args.budget)
    spec = _spec(args, args.k)
    sols = search_general(spec, budget=args.budget)
    return _dumps({
        "n": args.n,
        "k": args.k,
        "f": _table_json(args.f, spec.f),
        "g": _table_json(args.g, spec.g),
        "count": len(sols),
        "solutions": [_tuple_json(s) for s in sols],
    })


def _equation(args) -> tuple[int, int, ConvexTable, int]:
    """(n, k, f, budget) of a solution-set verb, its size checked first."""
    _check_size(args.n)
    return args.n, args.k, _parse_table(args.f, args.n, convex=True), args.budget


def _sol_set(args) -> geometry.SolSet:
    n, k, f, budget = _equation(args)
    return geometry.enumerate_sol(n, k, f, budget=budget)


def _cmd_enumerate(args) -> str:
    s = _sol_set(args)
    return _dumps({
        "n": s.n,
        "k": s.k,
        "f": _table_json(args.f, s.f),
        "tuples": [_tuple_json(t) for t in s.tuples],
        "rank_matrices": [_rm_json(rm) for rm in s.rank_matrices],
    })


def _cmd_components(args) -> str:
    comps = geometry.irreducible_components(_sol_set(args))
    dims = [dim for _, dim in comps]
    return _dumps({
        "count": len(comps),
        "dimensions": dims,
        "capacity": str(geometry.components_capacity(dims)),
        "irreducible": len(comps) == 1,
        "components": [
            {"max_rm": _rm_json(rm), "dimension": dim, "capacity": str(Fraction(dim, 2))}
            for rm, dim in comps],
    })


def _cmd_capacity(args) -> str:
    return _dumps({"capacity": str(geometry.sol_capacity(*_equation(args)))})


def _cmd_dominating_tuple(args) -> str:
    parts = geometry.dominating_tuple(*_equation(args))
    return _dumps({
        "partitions": [list(p.parts) for p in parts],
        "full_block": [len(p.parts) == 1 for p in parts],
        "capacity_upper_bound": str(geometry.capacity_upper_bound(parts)),
    })


def _cmd_hasse(args) -> str:
    return geometry.hasse_dot(args.n)


def _cmd_oracle_verify(args) -> str:
    from .oracle import DEFAULT_SEED, verify_class_ranks
    seed = DEFAULT_SEED if args.seed is None else args.seed
    report = verify_class_ranks(
        args.max_n, q_max=args.q_max, seeds=args.seeds, seed=seed)
    return _dumps(report)


@cache
def build_parser() -> argparse.ArgumentParser:
    """Built on the first call, then shared: parsing only reads it."""
    parser = argparse.ArgumentParser(
        prog="rankfn",
        description="Rank functions of matrix powers: conversions, equations, "
                    "solution-set geometry, exact-matrix verification.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("rank", _cmd_rank, "rank function of a class")
    p.add_argument("--jp", required=True, help="Jordan partition, e.g. 3,2,1")
    p.add_argument("--q", type=int, default=0, help="stable rank (invertible part size)")

    p = add("unrank", _cmd_unrank, "class of a rank function")
    p.add_argument("--values", required=True, help="rank sequence r(0),...,r(n)")

    p = add("dominates", _cmd_dominates, "dominance of one nilpotent class over another")
    p.add_argument("--a", required=True, help="partition of the smaller candidate")
    p.add_argument("--b", required=True, help="partition of the larger candidate")

    p = add("solve", _cmd_solve, "solve the convex-f, plain-sum equation for nilpotent B")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--f", default="id", help="id | square | table:v0,v1,...")
    p.add_argument("--jp", action="append", required=True,
                   help="left-hand partition (repeatable)")

    p = add("solve-stable", _cmd_solve_stable, "same, for classes with invertible parts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--f", default="id", help="id | square | table:v0,v1,...")
    p.add_argument("--cls", action="append", required=True,
                   help="left-hand class as parts:q, e.g. 2,1:1 (repeatable)")

    p = add("check", _cmd_check, "verify a candidate tuple against an equation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--f", default="id")
    p.add_argument("--g", default="id")
    p.add_argument("--cls", action="append", required=True, help="left-hand class (repeatable)")
    p.add_argument("--rhs", required=True, help="right-hand class")
    p.add_argument("--include-zero", action="store_true",
                   help="also require the equation at power 0")

    p = add("search", _cmd_search, "exhaustive search for general f, g")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--f", default="id")
    p.add_argument("--g", default="id")
    p.add_argument("--include-zero", action="store_true")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="candidate-tuple cap; exceeding it is an error")

    p = add("enumerate", _cmd_enumerate, "all nilpotent solutions for convex f, plain sum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--f", default="id")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="enumeration state cap; exceeding it is an error")

    for name, handler, help_text in (
            ("components", _cmd_components, "irreducible components of the solution closure"),
            ("capacity", _cmd_capacity, "linear capacity of the solution closure"),
            ("dominating-tuple", _cmd_dominating_tuple,
             "least coordinatewise upper bound and its capacity bound")):
        p = add(name, handler, help_text)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--f", default="id")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = add("hasse", _cmd_hasse, "DOT diagram of dominance on partitions of n")
    p.add_argument("--n", type=int, required=True)

    p = add("oracle-verify", _cmd_oracle_verify,
            "replay combinatorial rank functions on literal matrices")
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--q-max", type=int, default=2)
    p.add_argument("--seeds", type=int, default=5,
                   help="random conjugations per case")
    p.add_argument("--seed", type=int,
                   help="base seed (default 0)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.handler(args)
    except _ERRORS as exc:
        err = {"error": type(exc).__name__, "detail": str(exc)}
        print(json.dumps(err), file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
