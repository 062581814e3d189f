"""Rank matrices and the geometry of plain-sum solution sets.

Stacking the rank functions of a solution tuple row by row gives its rank
matrix; the entrywise order on these matrices controls degeneration.  The
maximal matrices of a solution set correspond one to one with the
irreducible components of its closure: each component's dimension is the
sum of the orbit dimensions of its rows, and its linear capacity is half
that.  A dominating tuple bounds every solution from above coordinate by
coordinate and yields a cheap capacity upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import le
from typing import Iterator, Sequence

from .core import (
    InvalidRankFunction,
    Partition,
    RankFunction,
    _partition_tuples,
    class_rank,
    partition_to_rank,
    rank_to_partition,
)
from .equations import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    ConvexTable,
    InvalidTable,
    SolutionTuple,
    _f_image,
    _f_sum,
    solve_nilpotent,
)

__all__ = [
    "RankMatrix",
    "SolSet",
    "rank_matrix",
    "rm_leq",
    "enumerate_sol",
    "maximal_elements",
    "irreducible_components",
    "orbit_dimension",
    "component_dimension",
    "components_capacity",
    "sol_capacity",
    "dominating_tuple",
    "capacity_upper_bound",
    "hasse_dot",
]

HASSE_MAX_N = 20


@dataclass(frozen=True)
class RankMatrix:
    """Rows are the rank functions of a tuple's classes, all of one size."""

    rows: tuple[RankFunction, ...]

    def __post_init__(self) -> None:
        rows = tuple(self.rows)
        if not rows:
            raise ValueError("a rank matrix needs at least one row")
        if len({r.n for r in rows}) != 1:
            raise ValueError("rows must share one size")
        object.__setattr__(self, "rows", rows)

    @cached_property
    def flat(self) -> tuple[int, ...]:
        """The entries row by row, for the entrywise order."""
        return tuple(v for row in self.rows for v in row.values)


def rank_matrix(sol: SolutionTuple) -> RankMatrix:
    """Stack a nilpotent tuple's rank functions, left-hand rows first."""
    if any(not c.is_nilpotent for c in (*sol.lhs, sol.rhs)):
        raise ValueError("rank matrices are built from all-nilpotent tuples")
    return RankMatrix(tuple(class_rank(c) for c in (*sol.lhs, sol.rhs)))


def rm_leq(a: RankMatrix, b: RankMatrix) -> bool:
    """Entrywise order: a's tuple degenerates into b's closure."""
    # equal row counts and equal entry counts mean equal row sizes
    if len(a.rows) != len(b.rows) or len(a.flat) != len(b.flat):
        raise ValueError("rank matrices must have matching shape")
    return all(map(le, a.flat, b.flat))


@dataclass(frozen=True)
class SolSet:
    """All nontrivial nilpotent solutions for one (n, k, f).

    Stored once, as the walk's left-hand partition tuples ``lhs``; B is
    determined by them.  The solution tuples and their rank matrices are
    derived on first use, one per left-hand tuple in ``lhs`` order.  The
    rank matrices are distinct, because the rows determine the partitions.
    """

    n: int
    k: int
    f: ConvexTable
    lhs: tuple[tuple[Partition, ...], ...]

    @cached_property
    def tuples(self) -> tuple[SolutionTuple, ...]:
        return tuple(_solution(self.f, lhs) for lhs in self.lhs)

    @cached_property
    def rank_matrices(self) -> tuple[RankMatrix, ...]:
        return tuple(rank_matrix(t) for t in self.tuples)


def _solution(f: ConvexTable, lhs: tuple[Partition, ...]) -> SolutionTuple:
    """The solution tuple of a left-hand tuple that the walk kept."""
    # the walk keeps only tuples within the criterion, so B always exists
    return SolutionTuple.from_partitions(lhs, solve_nilpotent(f, lhs))


def enumerate_sol(n: int, k: int, f: ConvexTable, budget: int = DEFAULT_BUDGET) -> SolSet:
    """Enumerate every nontrivial nilpotent solution of the plain-sum
    equation with left-hand table f.

    Solvability is additive across coordinates: the tuple works iff the
    per-partition costs 2 f(r(1)) - f(r(2)) sum to at most n.  That lets
    the k-fold product be walked with pruning instead of in full: a prefix
    is extended by a partition only when its cost fits the slack, n minus
    the cost spent so far and 2 f(1) for each coordinate still to fill.
    The walk takes the candidates in ascending order, so the left-hand
    tuples come out in lexicographic order.

    The budget caps the states the walk visits: the root, every prefix and
    every full tuple.  That number is counted exactly from the cost classes
    (see ``_cost_classes``) before any partition is listed, and a request
    over the budget is refused then.
    """
    if n < 2:
        raise ValueError(f"matrix size must be at least 2: n = {n}")
    if k < 1:
        raise ValueError(f"need at least one left-hand coordinate: k = {k}")
    if len(f.values) < n + 1:
        raise InvalidTable(f"f table must cover 0..{n}")
    least = 2 * f(1)  # the cost of (2, 1, ..., 1), the cheapest partition
    classes = sorted(_cost_classes(n, n - (k - 1) * least, f, budget))  # by cost
    visits, layer = 1, {0: 1}  # nodes at this depth, by the cost they spent
    for depth in range(k):
        if not layer:
            break
        below: dict[int, int] = {}
        for spent, nodes in layer.items():
            slack = n - spent - (k - depth - 1) * least
            for cost, _, _, size in classes:
                if cost > slack:
                    break
                below[spent + cost] = below.get(spent + cost, 0) + nodes * size
        visits += sum(below.values())
        if visits > budget:
            raise BudgetExceeded(f"enumeration visited more than {budget} states")
        layer = below
    cand = sorted(((parts, cost) for cost, a, m, _ in classes
                   for parts in _class_members(n, a, m)), reverse=True)
    cand = [(Partition(parts), cost) for parts, cost in cand]  # descending: popped ascending
    feasible: list[tuple[Partition, ...]] = []
    stack: list[tuple[tuple[Partition, ...], int]] = [((), 0)]
    while stack:  # k can exceed the recursion limit
        prefix, spent = stack.pop()
        if len(prefix) == k:
            feasible.append(prefix)
            continue
        slack = n - spent - (k - len(prefix) - 1) * least
        stack.extend((prefix + (p,), spent + c) for p, c in cand if c <= slack)
    return SolSet(n=n, k=k, f=f, lhs=tuple(feasible))


def _cost_classes(n: int, room: int, f: ConvexTable,
                  budget: int) -> list[tuple[int, int, int, int]]:
    """(cost, a, m, size) for each cost class of nontrivial partitions of n
    whose cost is at most room, by increasing a, then m.

    A partition with n - a parts, m of them >= 2, has r(1) = a and
    r(2) = a - m, so its cost is 2 f(a) - f(a - m), which grows with m and,
    at m = 1, with a.  The class (a, m) has as many members as there are
    partitions of a into exactly m parts.  The root has one child per
    member, so the scan refuses as soon as the root and its children pass
    the budget.
    """
    exact = [[1]]  # exact[b][j]: partitions of b into exactly j parts
    classes = []
    visits = 1
    for a in range(1, n):
        if 2 * f(a) - f(a - 1) > room:
            break
        exact.append([0] + [exact[a - 1][j - 1] + (exact[a - j][j] if 2 * j <= a else 0)
                            for j in range(1, a + 1)])
        for m in range(1, min(a, n - a) + 1):
            cost = 2 * f(a) - f(a - m)
            if cost > room:
                break
            classes.append((cost, a, m, exact[a][m]))
            visits += exact[a][m]
            if visits > budget:
                raise BudgetExceeded(f"enumeration visited more than {budget} states")
    return classes


def _class_members(n: int, a: int, m: int) -> Iterator[tuple[int, ...]]:
    """Part lists of the partitions of n with n - a parts, m of them >= 2:
    the conjugates of (n - a, m, *rho) for rho a partition of a - m with
    parts <= m."""
    for rho in _partition_tuples(a - m, m):
        yield (*(2 + sum(x >= j for x in rho) for j in range(1, m + 1)), *(1,) * (n - a - m))


def maximal_elements(s: SolSet) -> list[RankMatrix]:
    """Rank matrices not strictly below any other one in the set, in set order.

    B's row is r_B(m) = sum f(r_Ai(m)) with f increasing, so the k left-hand
    rows alone decide the entrywise order.  Each distinct left-hand partition
    is ranked once.  The k-row matrices are swept by decreasing entry sum,
    keeping each one that no maximum found so far dominates (Kung, Luccio and
    Preparata, J. ACM 1975).  Distinct left-hand tuples give distinct
    matrices, so anything strictly above a matrix has a larger entry sum and
    is swept first; a non-maximal matrix therefore always meets a kept
    maximum above it.  Only the maxima get B's row, the f-sum of their
    left-hand rows.
    """
    rows = {p: partition_to_rank(p) for p in {p for lhs in s.lhs for p in lhs}}
    left = [RankMatrix(tuple(rows[p] for p in lhs)) for lhs in s.lhs]
    kept: list[RankMatrix] = []
    is_max = [False] * len(left)
    for i in sorted(range(len(left)), key=lambda i: -sum(left[i].flat)):
        if not any(rm_leq(left[i], top) for top in kept):
            kept.append(left[i])
            is_max[i] = True
    return [RankMatrix((*rm.rows, RankFunction(
                _f_sum(s.n, [_f_image(s.f, row.values) for row in rm.rows]))))
            for rm, keep in zip(left, is_max) if keep]


def _row_table(s: SolSet) -> tuple[dict[Partition, tuple[int, ...]], list[tuple[int, ...]]]:
    """The rank row of each distinct left-hand partition, and B's row for
    every solution in ``s.lhs`` order.

    Each distinct partition is ranked once and its f-image taken once; B's
    row is the f-sum of its solution's cached images.
    """
    rows = {p: partition_to_rank(p).values for p in {p for lhs in s.lhs for p in lhs}}
    images = {p: _f_image(s.f, row) for p, row in rows.items()}
    return rows, [_f_sum(s.n, [images[p] for p in lhs]) for lhs in s.lhs]


def irreducible_components(s: SolSet) -> list[tuple[RankMatrix, int]]:
    """One (maximal rank matrix, dimension) pair per irreducible component
    of the closure, in set order; the component's capacity is half its
    dimension."""
    return [(rm, component_dimension(rm)) for rm in maximal_elements(s)]


def _row_orbit_dimension(v: tuple[int, ...]) -> int:
    """n^2 minus the squared rank drops (the conjugate parts) of a nilpotent
    rank row v = (n, r(1), ..., r(n))."""
    return v[0] ** 2 - sum((a - b) ** 2 for a, b in zip(v, v[1:]))


def orbit_dimension(p: Partition) -> int:
    """Dimension of the conjugation orbit of a nilpotent class."""
    return _row_orbit_dimension(partition_to_rank(p).values)


def component_dimension(rm: RankMatrix) -> int:
    """Sum of the rows' orbit dimensions (a product of orbit closures).
    Raises InvalidRankFunction for a row of nonzero stable rank."""
    for r in rm.rows:
        if r.stable_rank:
            raise InvalidRankFunction(
                f"stable rank {r.stable_rank} != 0: not a nilpotent class: {r.values!r}")
    return sum(_row_orbit_dimension(row.values) for row in rm.rows)


def components_capacity(dims: Sequence[int]) -> Fraction | float:
    """The best capacity among components of these dimensions: a Fraction,
    or float -inf (the supremum of the empty set) when there are none."""
    return Fraction(max(dims), 2) if dims else float("-inf")


def sol_capacity(s: SolSet) -> Fraction | float:
    """Largest linear subspace dimension inside the solution-set closure:
    the best component capacity as a Fraction, or float -inf for an empty
    set.  ``str`` prints either as the CLI does.

    Orbit dimension grows strictly along the dominance order, so a solution
    below a maximal rank matrix has a smaller dimension than that maximum,
    and the best component dimension is the best dimension of any solution.
    No maxima are found: each solution's dimension is read off its rows.
    """
    rows, rhs_rows = _row_table(s)
    dims = {p: _row_orbit_dimension(row) for p, row in rows.items()}
    return components_capacity([sum(dims[p] for p in lhs) + _row_orbit_dimension(rhs)
                                for lhs, rhs in zip(s.lhs, rhs_rows)])


def dominating_tuple(s: SolSet) -> tuple[Partition, ...]:
    """Least coordinatewise upper bound of the set's rank matrices: the
    pointwise maximum of the rank functions at each coordinate, the join of
    the whole set.  A left-hand coordinate joins the distinct partitions
    used there, and B's coordinate joins every solution's B row.  The max of
    valid rank functions is again one, so each coordinate names a
    partition."""
    if not s.lhs:
        raise ValueError("empty solution set has no dominating tuple")
    rows, rhs_rows = _row_table(s)
    cols = [[rows[p] for p in {lhs[i] for lhs in s.lhs}] for i in range(s.k)]
    return tuple(rank_to_partition(RankFunction(tuple(map(max, zip(*col)))))
                 for col in (*cols, rhs_rows))


def capacity_upper_bound(parts: Sequence[Partition]) -> Fraction:
    """Half the summed orbit dimensions of a dominating tuple; caps the
    solution-set capacity."""
    return Fraction(sum(orbit_dimension(p) for p in parts), 2)


def _covers(lam: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Partitions covering lam in the dominance order.

    By Brylawski (Discrete Math. 6, 1973), mu covers lam iff mu moves one
    box of lam from row j up to row i < j, where j = i + 1 or lam_i = lam_j,
    and mu is still a partition.
    """
    out = []
    for i in range(len(lam)):
        if i and lam[i - 1] == lam[i]:
            continue  # row i cannot grow past row i - 1
        for j in range(i + 1, len(lam)):
            if j > i + 1 and lam[j] != lam[i]:
                break  # lam is decreasing: no later row equals lam_i either
            below = lam[j + 1] if j + 1 < len(lam) else 0
            if lam[j] - 1 < below:
                continue  # row j cannot shrink below row j + 1
            mu = list(lam)
            mu[i] += 1
            mu[j] -= 1
            out.append(tuple(mu[:-1] if mu[-1] == 0 else mu))
    return out


def hasse_dot(n: int) -> str:
    """DOT digraph of the dominance order on partitions of n, reduced to its
    covering edges; an edge a -> b means b covers a (draw with rankdir=BT).
    """
    if n < 1:
        raise ValueError(f"need n >= 1: {n}")
    if n > HASSE_MAX_N:
        raise BudgetExceeded(
            f"the partitions of n = {n} exceed the n <= {HASSE_MAX_N} cap")
    parts = list(_partition_tuples(n, n))  # descending lexicographic order
    index = {p: i for i, p in enumerate(parts)}
    labels = [",".join(map(str, p)) for p in parts]
    lines = [f"digraph dominance_{n} {{", "  rankdir=BT;"]
    lines += [f'  "{label}";' for label in labels]
    for p, label in zip(parts, labels):
        for j in sorted(index[mu] for mu in _covers(p)):
            lines.append(f'  "{label}" -> "{labels[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
