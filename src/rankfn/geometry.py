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
from operator import add, itemgetter, le, sub
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
    least, classes = _kept_classes(n, k, f, budget)
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


def _kept_classes(n: int, k: int, f: ConvexTable,
                  budget: int) -> tuple[int, list[tuple[int, int, int, int]]]:
    """Check the equation's arguments, count the walk's visits exactly and
    refuse a request over the budget; then return 2 f(1), the cost of
    (2, 1, ..., 1), and the kept cost classes (see ``_cost_classes``) by
    increasing cost.  No partition is listed."""
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
    return least, classes


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


def _class_rows(n: int, a: int, m: int) -> Iterator[tuple[int, ...]]:
    """Rank rows (n, r(1), ..., r(n)) of the same members, in the same
    order: the rank drops r(j - 1) - r(j) are the conjugate parts
    n - a, m, *rho, so no partition is built or checked."""
    for rho in _partition_tuples(a - m, m):
        row = [n, a, a - m]
        for x in rho:
            row.append(row[-1] - x)
        yield (*row, *(0,) * (n + 1 - len(row)))


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


def _candidate_table(n: int, k: int, f: ConvexTable, budget: int) -> tuple | None:
    """The kept candidates, each ranked once, measured against the cheapest
    partition (2, 1, ..., 1); None for an empty solution set.

    (2, 1, ..., 1) can fill every coordinate but one, so every kept
    candidate is used at every coordinate; what binds is only the other
    candidates' excess costs, cost - 2 f(1) >= 1, which together fit in
    s = n - 2 k f(1).  Returns s, the base row of (2, 1, ..., 1), the join
    of all candidate rows, the base's f-image, and (row, excess, gain) for
    each other candidate, whose gain is its f-image minus the base's.  Every
    candidate dominates the base, so each gain is >= 0.  Images stop at the
    first power where the join, and so every row and every B row, is zero.
    """
    least, classes = _kept_classes(n, k, f, budget)
    if not classes:
        return None
    cands = [(cost - least, row) for cost, a, m, _ in classes for row in _class_rows(n, a, m)]
    (_, base), others = cands[0], cands[1:]  # by cost: (2, 1, ..., 1) first
    join = tuple(map(max, zip(*(row for _, row in cands))))
    width = join.index(0)
    base_image = _f_image(f, base[:width])
    return n - k * least, base, join, base_image, [
        (row, excess, tuple(map(sub, _f_image(f, row[:width]), base_image)))
        for excess, row in others]


def _knapsack(best_at: dict[int, tuple[int, ...]], s: int, j: int,
              zero: tuple[int, ...]) -> list[list[tuple[int, ...]]]:
    """table[i][e] for i = 0..j, e = 0..s: the entrywise largest sum of at
    most i vectors, repeats allowed, whose excesses total at most e.
    ``best_at`` maps each excess in 1..s to the entrywise best vector of
    that excess (Martello and Toth, Knapsack Problems, 1990).  Entries
    are >= 0, so table[i][e] grows with i and e; ``zero`` is the empty sum."""
    steps = sorted(best_at.items())
    table = [[zero] * (s + 1)]
    while len(table) <= j:
        last = table[-1]
        layer = []
        for e, top in enumerate(last):
            for x, vec in steps:
                if x > e:
                    break
                top = tuple(map(max, top, map(add, last[e - x], vec)))
            layer.append(top)
        if layer == last:  # one more vector helps nowhere, so no later one does
            return table + [last] * (j + 1 - len(table))
        table.append(layer)
    return table


def _rhs_join_gain(k: int, s: int, others: list, zero: tuple[int, ...]) -> tuple[int, ...]:
    """The largest sum of the gains at each power over at most min(k, s)
    candidates whose excesses fit in s: the f-image sum of the join of
    every solution's B row, less k base images."""
    best_at: dict[int, tuple[int, ...]] = {}
    for _, excess, gain in others:
        best_at[excess] = tuple(map(max, best_at.get(excess, gain), gain))
    return _knapsack(best_at, s, min(k, s), zero)[-1][s]


def _rhs_row(n: int, k: int, base_image: tuple[int, ...],
             gain: tuple[int, ...]) -> tuple[int, ...]:
    """B's rank row, up to its first zero, for the solution whose left-hand
    gains sum to gain and whose other coordinates are (2, 1, ..., 1)."""
    return (n, *(k * b + g for b, g in zip(base_image, gain)), 0)


def sol_capacity(n: int, k: int, f: ConvexTable,
                 budget: int = DEFAULT_BUDGET) -> Fraction | float:
    """Largest linear subspace dimension inside the closure of the
    solutions for (n, k, f): the best component capacity as a Fraction, or
    float -inf for an empty set.  ``str`` prints either as the CLI does.
    Refuses what ``enumerate_sol`` refuses, with the same errors.

    Orbit dimension grows strictly along the dominance order, so the best
    component dimension is the best dimension of any solution, and no
    maxima are needed.  No solution is listed either.  The dimension is
    symmetric in the left-hand coordinates, so a solution is a multiset of
    at most min(k, s) candidates other than (2, 1, ..., 1), which fills the
    rest.  A branch and bound (Land and Doig, Econometrica 1960) adds
    candidates by decreasing orbit dimension and drops a prefix when even
    its best completion cannot beat the best solution found: the left-hand
    dimensions gain at most K[j][slack] more, a knapsack over excess cost,
    and B lies below the join of every B row, so its dimension is at most
    that join's.
    """
    table = _candidate_table(n, k, f, budget)
    if table is None:
        return float("-inf")
    s, base, _, base_image, others = table
    least = _row_orbit_dimension(base)
    items = sorted(((_row_orbit_dimension(row) - least, excess, gain)
                    for row, excess, gain in others), key=itemgetter(0), reverse=True)
    best_at: dict[int, tuple[int]] = {}
    for dim, excess, _ in items:  # the first of each excess has its largest dimension
        best_at.setdefault(excess, (dim,))
    more = [[top for top, in layer] for layer in _knapsack(best_at, s, min(k, s), (0,))]
    zero = (0,) * len(base_image)
    # every bound's part that no prefix changes: k base dimensions and B's join's
    fixed = k * least + _row_orbit_dimension(
        _rhs_row(n, k, base_image, _rhs_join_gain(k, s, others, zero)))
    best = k * least + _row_orbit_dimension(_rhs_row(n, k, base_image, zero))
    # (bound, next candidate, candidates used, excess spent, their dimension gain, their gains)
    stack = [(fixed + more[-1][s], 0, 0, 0, 0, zero)]
    while stack:
        bound, first, used, spent, dims, gain = stack.pop()
        if bound <= best:
            continue
        best = max(best, k * least + dims + _row_orbit_dimension(_rhs_row(n, k, base_image, gain)))
        if used == k:
            continue
        slack, rest = s - spent, more[min(k - used - 1, len(more) - 1)]
        children = []
        for i in range(first, len(items)):
            dim, excess, step = items[i]
            reach = fixed + dims + dim
            if reach + rest[slack] <= best:
                break  # later candidates have no larger dimension
            if excess <= slack and reach + rest[slack - excess] > best:
                children.append((reach + rest[slack - excess], i, used + 1, spent + excess,
                                 dims + dim, tuple(map(add, gain, step))))
        stack.extend(reversed(children))  # popped by decreasing dimension
    return Fraction(best, 2)


def dominating_tuple(n: int, k: int, f: ConvexTable,
                     budget: int = DEFAULT_BUDGET) -> tuple[Partition, ...]:
    """Least coordinatewise upper bound of the rank matrices of the
    solutions for (n, k, f): the pointwise maximum of the rank functions at
    each coordinate, the join of the whole set.  Refuses what
    ``enumerate_sol`` refuses, with the same errors, and raises ValueError
    for an empty set.

    No solution is listed.  Every kept candidate is used at every left-hand
    coordinate, so each of those joins all their rows.  At each power, B's
    join is k base images plus the largest gain sum that at most min(k, s)
    candidates reach within the excess room s: one knapsack per power,
    solved for all powers at once.  The max of valid rank functions is
    again one, so each coordinate names a partition.
    """
    table = _candidate_table(n, k, f, budget)
    if table is None:
        raise ValueError("empty solution set has no dominating tuple")
    s, _, join, base_image, others = table
    rhs = _rhs_row(n, k, base_image, _rhs_join_gain(k, s, others, (0,) * len(base_image)))
    return ((rank_to_partition(RankFunction(join)),) * k
            + (rank_to_partition(RankFunction(rhs + (0,) * (n + 1 - len(rhs)))),))


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
