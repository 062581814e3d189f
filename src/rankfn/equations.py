"""Rank function equations and their solvers.

An equation fixes integer tables f and g and asks for classes with

    f(r_{A_1}(m)) + ... + f(r_{A_k}(m)) = g(r_B(m))

at every power m in the evaluation window.  For strictly increasing convex
f with f(0) = 0 and g the identity, the left side already determines the
whole candidate sequence for B, and a solution exists iff that sequence is
a genuine rank function; this collapses to the single inequality
2 r(1) - r(2) <= n.  For arbitrary g nothing similar is available and
``search_general`` falls back to exhaustive, budgeted enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .core import (
    MatrixClass,
    Partition,
    RankFunction,
    class_rank,
    nontrivial_blocks,
    partition_count,
    partition_to_rank,
    partitions_of,
    rank_defect,
    rank_to_class,
)

__all__ = [
    "InvalidTable",
    "NotZeroAtZero",
    "NotStrictlyIncreasing",
    "NotConvex",
    "BudgetExceeded",
    "FnTable",
    "ConvexTable",
    "EquationSpec",
    "SolutionTuple",
    "check_solution",
    "solve_nilpotent",
    "solve_with_stable_ranks",
    "check_search_budget",
    "search_general",
]

# default cap on candidate tuples (search) and visited states (enumeration)
DEFAULT_BUDGET = 10**6


class InvalidTable(ValueError):
    """Table fails a declared shape constraint."""


class NotZeroAtZero(InvalidTable):
    """Convex table does not start at 0."""


class NotStrictlyIncreasing(InvalidTable):
    """Convex table is not strictly increasing."""


class NotConvex(InvalidTable):
    """Table violates v(i) + v(i+2) >= 2 v(i+1)."""


class BudgetExceeded(RuntimeError):
    """Enumeration would visit more states than the configured budget."""


@dataclass(frozen=True)
class FnTable:
    """Values of an arbitrary non-negative integer function on 0..len-1."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        values = tuple(self.values)
        if not values:
            raise InvalidTable("empty table")
        if any(type(v) is not int or v < 0 for v in values):
            raise InvalidTable(f"table entries must be non-negative integers: {values!r}")
        object.__setattr__(self, "values", values)

    def __call__(self, x: int) -> int:
        return self.values[x]

    @classmethod
    def identity(cls, n: int) -> "FnTable":
        return cls(tuple(range(n + 1)))

    @classmethod
    def squares(cls, n: int) -> "FnTable":
        return cls(tuple(i * i for i in range(n + 1)))


@dataclass(frozen=True)
class ConvexTable(FnTable):
    """Strictly increasing convex table with f(0) = 0."""

    def __post_init__(self) -> None:
        super().__post_init__()
        v = self.values
        if v[0] != 0:
            raise NotZeroAtZero(f"f(0) = {v[0]} != 0")
        if any(v[i + 1] <= v[i] for i in range(len(v) - 1)):
            raise NotStrictlyIncreasing(f"table is not strictly increasing: {v!r}")
        if any(v[i] + v[i + 2] < 2 * v[i + 1] for i in range(len(v) - 2)):
            raise NotConvex(f"table is not convex: {v!r}")


@dataclass(frozen=True)
class EquationSpec:
    """A fixed equation shape: k left-hand classes of size n, tables f and g,
    evaluated at powers 1..n (optionally also at 0).

    Powers beyond n add nothing: every rank function involved is constant
    from n on, so the m = n equation already covers the whole tail.
    """

    n: int
    k: int
    f: FnTable
    g: FnTable
    include_zero: bool = False

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"matrix size must be at least 2: n = {self.n}")
        if self.k < 1:
            raise ValueError(f"need at least one left-hand class: k = {self.k}")
        for name, table in (("f", self.f), ("g", self.g)):
            if len(table.values) < self.n + 1:
                raise InvalidTable(f"{name} table must cover 0..{self.n}")

    def points(self) -> range:
        return range(0 if self.include_zero else 1, self.n + 1)


@dataclass(frozen=True)
class SolutionTuple:
    """Candidate (A_1, ..., A_k; B): nonzero classes of one common size."""

    lhs: tuple[MatrixClass, ...]
    rhs: MatrixClass

    def __post_init__(self) -> None:
        lhs = tuple(self.lhs)
        if not lhs:
            raise ValueError("need at least one left-hand class")
        members = lhs + (self.rhs,)
        sizes = {c.size for c in members}
        if len(sizes) != 1:
            raise ValueError(f"members must share one size, got {sorted(sizes)}")
        if any(c.is_zero for c in members):
            raise ValueError("zero classes are excluded from solution tuples")
        object.__setattr__(self, "lhs", lhs)

    @property
    def size(self) -> int:
        return self.rhs.size

    @classmethod
    def from_partitions(cls, lhs: Sequence[Partition], rhs: Partition) -> "SolutionTuple":
        """All-nilpotent tuple."""
        return cls(tuple(MatrixClass(p) for p in lhs), MatrixClass(rhs))


def check_solution(spec: EquationSpec, sol: SolutionTuple) -> bool:
    """Does the tuple satisfy the equation at every evaluation power?"""
    if sol.size != spec.n:
        raise ValueError(f"size mismatch: tuple has n = {sol.size}, spec has n = {spec.n}")
    if len(sol.lhs) != spec.k:
        raise ValueError(f"arity mismatch: tuple has k = {len(sol.lhs)}, spec has k = {spec.k}")
    ranks = [class_rank(c) for c in sol.lhs]
    rb = class_rank(sol.rhs)
    return all(
        sum(spec.f(r.at(m)) for r in ranks) == spec.g(rb.at(m))
        for m in spec.points()
    )


def _solve(f: ConvexTable, ranks: Sequence[RankFunction], n: int) -> MatrixClass | None:
    """The class B of size n whose rank function is the f-sum of ranks on
    1..n, or None when that sum is not a rank function.

    Writing r(m) for the transformed sum, the candidate (n, r(1), ..., r(n))
    is automatically weakly decreasing and convex away from 0, so it is a
    rank function exactly when 2 r(1) - r(2) <= n.
    """
    if len(f.values) < n + 1:
        raise InvalidTable(f"f table must cover 0..{n}")
    values = _f_sum(n, [_f_image(f, rk.values) for rk in ranks])
    if 2 * values[1] - values[2] > n:
        return None
    assert rank_defect(values) is None, values
    return rank_to_class(RankFunction(values))


def _f_image(f: FnTable, row: tuple[int, ...]) -> tuple[int, ...]:
    """(f(r(1)), ..., f(r(n))) for a rank row r stored on 0..n."""
    return tuple(map(f.values.__getitem__, row[1:]))


def _f_sum(n: int, images: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """(n, r(1), ..., r(n)) with r(m) the sum of the rows' f-images at m:
    the rank function of B whenever B exists."""
    return (n, *map(sum, zip(*images)))


def solve_nilpotent(f: ConvexTable, lhs: Sequence[Partition]) -> Partition | None:
    """Unique nilpotent B with sum of f(r_{A_i}(m)) equal to r_B(m) on 1..n,
    or None when no such B exists.

    Takes k >= 1 partitions.  Since f(0) = 0 the tail of the f-sum vanishes,
    so a solution is always nilpotent and pins down a partition of n.
    """
    if not lhs:
        raise ValueError("need at least one left-hand partition")
    n = lhs[0].n
    if any(p.n != n for p in lhs):
        raise ValueError("left-hand partitions must share one size")
    if any(not nontrivial_blocks(p) for p in lhs):
        raise ValueError("zero classes are excluded: every partition needs a part >= 2")
    out = _solve(f, [partition_to_rank(p) for p in lhs], n)
    return None if out is None else out.nilp


def solve_with_stable_ranks(f: ConvexTable, lhs: Sequence[MatrixClass]) -> MatrixClass | None:
    """Mixed-class variant of ``solve_nilpotent``; unlike it, this takes
    k >= 2 classes.

    The solution's stable rank is the f-sum of the left-hand stable ranks
    (it appears as the tail of the assembled sequence), and its nilpotent
    part falls out of the second differences.  A stable-rank sum above n
    always fails the solvability inequality, so it needs no separate error.
    """
    if len(lhs) < 2:
        raise ValueError(f"need at least two left-hand classes: k = {len(lhs)}")
    n = lhs[0].size
    if any(c.size != n for c in lhs):
        raise ValueError("left-hand classes must share one size")
    if n < 2:
        raise ValueError(f"matrix size must be at least 2: n = {n}")
    if any(c.is_zero for c in lhs):
        raise ValueError("zero classes are excluded")
    return _solve(f, [class_rank(c) for c in lhs], n)


def check_search_budget(n: int, k: int, budget: int) -> None:
    """Refuse a search whose p(n)^(k+1) candidate tuples exceed the budget.
    Needs n >= 2 and k >= 1, but no table."""
    # p(n) >= n >= 2, so p(n)^(k+1) > budget as soon as n^(k+1) > budget,
    # which holds without forming the power once 2^(k+1) > budget
    if k + 1 >= budget.bit_length() or n ** (k + 1) > budget:
        raise BudgetExceeded(
            f"p({n})^{k + 1} >= {n}^{k + 1} candidate tuples exceed budget {budget}")
    # p is increasing, so the first m with p(m)^(k+1) > budget already
    # refuses n, and the p table need not be filled up to a huge n
    for m in range(n + 1):
        total = partition_count(m) ** (k + 1)
        if total > budget:
            below = f" >= p({m})^{k + 1}" if m < n else ""
            raise BudgetExceeded(
                f"p({n})^{k + 1}{below} = {total} candidate tuples exceed budget {budget}")


def search_general(spec: EquationSpec, budget: int = DEFAULT_BUDGET) -> list[SolutionTuple]:
    """All nontrivial nilpotent tuples satisfying the equation, by exhaustion.

    The candidate space has p(n)^(k+1) tuples and must fit inside the
    budget; exceeding it raises rather than truncating.  Candidates are taken
    in ascending order, so the output is lexicographic on the partitions.
    """
    check_search_budget(spec.n, spec.k, budget)
    cand = [p for p in partitions_of(spec.n) if nontrivial_blocks(p)]
    cand.reverse()  # ascending: no part list of n is a prefix of another
    points = list(spec.points())
    fvec = {p: tuple(spec.f(partition_to_rank(p).at(m)) for m in points) for p in cand}
    rhs_index: dict[tuple[int, ...], list[Partition]] = {}
    for b in cand:
        vec = tuple(spec.g(partition_to_rank(b).at(m)) for m in points)
        rhs_index.setdefault(vec, []).append(b)
    return [
        SolutionTuple.from_partitions(combo, b)
        for combo in product(cand, repeat=spec.k)
        for b in rhs_index.get(tuple(sum(col) for col in zip(*(fvec[p] for p in combo))), ())
    ]
