"""Independent computations the benchmark checks the program against.

Nothing here imports rankfn.  Each quantity is computed by a route of its
own: rank functions from conjugate partitions, dominance from partial sums
of parts, maxima by a sum-ordered sweep, Hasse covers from explicit
up-sets, and matrix ranks by textbook Gauss-Jordan over Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


# ---------------------------------------------------------------- partitions

@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """Every partition of n, parts weakly decreasing (built by ascending
    compositions, then sorted)."""
    out = []

    def grow(prefix: list[int], left: int, low: int) -> None:
        if left == 0:
            out.append(tuple(reversed(prefix)))
            return
        for part in range(low, left + 1):
            prefix.append(part)
            grow(prefix, left - part, part)
            prefix.pop()

    grow([], n, 1)
    return tuple(sorted(out))


def nontrivial(n: int) -> list[tuple[int, ...]]:
    """Partitions of n with a part >= 2 (nonzero nilpotent classes)."""
    return [p for p in partitions(n) if p and p[0] >= 2]


@lru_cache(maxsize=None)
def partition_count(n: int, largest: int | None = None) -> int:
    """p(n) by recursion on the largest part."""
    largest = n if largest is None else largest
    if n == 0:
        return 1
    return sum(partition_count(n - first, first) for first in range(1, min(largest, n) + 1))


def conjugate(p: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for part in p if part >= j) for j in range(1, (p[0] if p else 0) + 1))


def rank_row(p: tuple[int, ...], n: int | None = None, q: int = 0) -> tuple[int, ...]:
    """(r(0), ..., r(size)) with r(m) = n - (l'_1 + ... + l'_m) + q, where l'
    is the conjugate partition; size = n + q."""
    n = sum(p) if n is None else n
    conj = conjugate(p)
    row, drop = [], 0
    for m in range(n + q + 1):
        row.append(n - drop + q)
        if m < len(conj):
            drop += conj[m]
    return tuple(row)


def row_partition(row) -> tuple[int, ...]:
    """Nilpotent partition of a rank row ending in 0: the first differences
    are the conjugate partition."""
    diffs = [row[m] - row[m + 1] for m in range(len(row) - 1)]
    conj = tuple(d for d in diffs if d)
    if list(diffs[:len(conj)]) != list(conj) or any(a < b for a, b in zip(conj, conj[1:])):
        raise ValueError(f"not a nilpotent rank row: {row!r}")
    return conjugate(conj)


def is_nilpotent_row(row) -> bool:
    n = row[0]
    diffs = [row[m] - row[m + 1] for m in range(len(row) - 1)]
    return (len(row) == n + 1 and row[-1] == 0 and all(d >= 0 for d in diffs)
            and all(a >= b for a, b in zip(diffs, diffs[1:])))


def dominated(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """a <= b in dominance: every partial sum of a's parts is at most b's."""
    sa = sb = 0
    for i in range(max(len(a), len(b))):
        sa += a[i] if i < len(a) else 0
        sb += b[i] if i < len(b) else 0
        if sa > sb:
            return False
    return True


def orbit_dim(p: tuple[int, ...]) -> int:
    n = sum(p)
    return n * n - sum(c * c for c in conjugate(p))


def row_dim(row) -> int:
    """n^2 - sum of squared rank drops of one rank row."""
    n = row[0]
    return n * n - sum((row[m] - row[m + 1]) ** 2 for m in range(len(row) - 1))


# ------------------------------------------------------ plain-sum solutions

def table(spec: str, n: int) -> tuple[int, ...]:
    if spec == "id":
        return tuple(range(n + 1))
    if spec == "square":
        return tuple(i * i for i in range(n + 1))
    if spec.startswith("table:"):
        return tuple(int(v) for v in spec[len("table:"):].split(","))
    raise ValueError(f"unknown table spec {spec!r}")


def table_json(spec: str) -> dict:
    if spec in ("id", "square"):
        return {"kind": spec}
    return {"kind": "table", "values": list(table(spec, 0))}


@lru_cache(maxsize=None)
def plain_solutions(n: int, k: int, fspec: str) -> tuple[tuple, ...]:
    """Every nontrivial nilpotent solution (lhs partitions, rhs partition,
    rank matrix) of f(r_1(m)) + ... + f(r_k(m)) = r_B(m), sorted.

    The walk keeps k-tuples whose costs 2 f(r(1)) - f(r(2)) sum to at most
    n; the B row is then the f-sum of the left rows, and must come out a
    valid nilpotent rank row.
    """
    f = table(fspec, n)
    cand = nontrivial(n)
    rows = {p: rank_row(p) for p in cand}
    cost = {p: 2 * f[rows[p][1]] - f[rows[p][2]] for p in cand}
    cheapest = min(cost.values())
    out = []

    def walk(prefix: tuple, spent: int) -> None:
        if len(prefix) == k:
            brow = (n,) + tuple(sum(f[rows[p][m]] for p in prefix) for m in range(1, n + 1))
            if not is_nilpotent_row(brow):
                raise AssertionError(f"cost criterion admitted {prefix!r} with B row {brow!r}")
            matrix = tuple(rows[p] for p in prefix) + (brow,)
            out.append((prefix, row_partition(brow), matrix))
            return
        room = n - spent - (k - len(prefix) - 1) * cheapest
        for p in cand:
            if cost[p] <= room:
                walk(prefix + (p,), spent + cost[p])

    walk((), 0)
    return tuple(sorted(out))


def maxima(matrices) -> set:
    """Maximal rank matrices under the entrywise order, by a sweep in
    decreasing entry sum against the maxima found so far."""
    flat = sorted({tuple(v for row in m for v in row): m for m in matrices}.items(),
                  key=lambda kv: -sum(kv[0]))
    found: list[tuple] = []
    out = set()
    for vec, m in flat:
        if not any(all(x <= y for x, y in zip(vec, top)) for top in found):
            found.append(vec)
            out.add(m)
    return out


def search_solutions(n: int, k: int, fspec: str, gspec: str) -> set:
    """All nontrivial nilpotent (lhs, rhs) with sum f(r_i(m)) = g(r_B(m)) on
    m = 1..n, by brute force with the rhs looked up by its g-vector."""
    f, g = table(fspec, n), table(gspec, n)
    cand = nontrivial(n)
    fvec = {p: [f[v] for v in rank_row(p)[1:]] for p in cand}
    by_g: dict[tuple, list] = {}
    for b in cand:
        by_g.setdefault(tuple(g[v] for v in rank_row(b)[1:]), []).append(b)
    out = set()

    def walk(prefix: tuple, acc: list[int]) -> None:
        if len(prefix) == k:
            for b in by_g.get(tuple(acc), ()):
                out.add((prefix, b))
            return
        for p in cand:
            walk(prefix + (p,), [x + y for x, y in zip(acc, fvec[p])])

    walk((), [0] * n)
    return out


def hasse_covers(n: int) -> set:
    """Pairs (a, b) where b covers a in dominance, from explicit up-sets."""
    parts = partitions(n)
    up = {a: {b for b in parts if b != a and dominated(a, b)} for a in parts}
    out = set()
    for a in parts:
        above = set()
        for c in up[a]:
            above |= up[c]
        out.update((a, b) for b in up[a] - above)
    return out


# ------------------------------------------------------------ exact matrices

def frac_rank(rows) -> int:
    """Textbook Gauss-Jordan rank over Fractions."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def power_ranks(matrix) -> list[int]:
    """(rk(M^0), ..., rk(M^n)) of a Fraction matrix by repeated products."""
    n = len(matrix)
    cols = list(zip(*matrix))
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    out = [n]
    for _ in range(n):
        power = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in power]
        out.append(frac_rank(power))
    return out
