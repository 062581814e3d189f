"""Brute-force oracles shared by several test modules.

These deliberately avoid the code paths they are used to check: the
realizability set goes through explicit class enumeration, the partition
counter uses the restricted-parts recursion, the rank, determinant and
inverse routines are plain Fraction eliminations with no fraction-free
tricks, and the ranks of powers are taken on the literal powers.  The
maxima filters compare every pair of matrices entry by entry, orbit
dimensions come from squared conjugate parts (a transpose of the Young
diagram), not from rank drops, the enumeration's visited states are counted
from part counts, not rank rows, and the plain-sum structure is read off
the part lists.  The capacity and the dominating tuple are read off every
solution the walk lists, with rows summed block by block.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache

from rankfn import MatrixClass, class_rank, partitions_of


@lru_cache(maxsize=None)
def realizable_sequences(n):
    """Every stored rank sequence that some class of size n produces."""
    out = set()
    for q in range(n + 1):
        for p in partitions_of(n - q):
            out.add(class_rank(MatrixClass(p, q)).values)
    return out


@lru_cache(maxsize=None)
def count_partitions(n, max_part=None):
    """Independent partition counter (recursion on the largest part)."""
    if max_part is None:
        max_part = n
    if n == 0:
        return 1
    if max_part == 0:
        return 0
    return sum(count_partitions(n - first, first)
               for first in range(1, min(max_part, n) + 1))


def frac_rank(rows):
    """Textbook Gauss-Jordan rank over Fractions."""
    rows = [[Fraction(x) for x in row] for row in rows]
    if not rows:
        return 0
    rank = 0
    for col in range(len(rows[0])):
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


def frac_det(rows):
    """Determinant by textbook Fraction elimination (product of the pivots)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(len(rows)):
        piv = next((i for i in range(col, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for i in range(col + 1, len(rows)):
            factor = rows[i][col] / rows[col][col]
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[col])]
    return det


def frac_inverse(rows):
    """Inverse of a nonsingular matrix by textbook Gauss-Jordan over Fractions."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def frac_matmul(a, b):
    """Plain triple-loop product."""
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(len(b[0]) if b else 0)] for i in range(len(a))]


def literal_power_ranks(rows):
    """(rk(A^0), ..., rk(A^n)): every literal Fraction power, ranked by frac_rank."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    ranks = []
    for _ in range(n + 1):
        ranks.append(frac_rank(power))
        power = frac_matmul(power, a)
    return ranks


def _entrywise_leq(a, b):
    """a <= b entry by entry, for matrices given as lists of rows."""
    return all(x <= y for row_a, row_b in zip(a, b) for x, y in zip(row_a, row_b))


def all_pairs_maxima(matrices):
    """Indices of the matrices not strictly below another one, in input order."""
    return [i for i, a in enumerate(matrices)
            if not any(b != a and _entrywise_leq(a, b) for b in matrices)]


def has_greatest(matrices):
    """Does one matrix lie entrywise above every other one?"""
    return any(all(_entrywise_leq(b, a) for b in matrices) for a in matrices)


def enumeration_visits(n, k, f):
    """States the budgeted enumeration walk visits for k coordinates of size
    n and table values f: the root, then each prefix of nontrivial
    partitions whose cost fits the slack.  A cost 2 f(r(1)) - f(r(2)) is read
    off part counts, r(1) = n - #parts and r(2) = r(1) - #parts >= 2, and
    the slack keeps the least cost for each coordinate still to fill."""
    costs = Counter()
    for p in partitions_of(n):
        r1 = n - len(p.parts)
        r2 = r1 - sum(1 for part in p.parts if part >= 2)
        if r1:
            costs[2 * f[r1] - f[r2]] += 1
    least = min(costs)

    @lru_cache(maxsize=None)
    def visits(depth, spent):
        if depth == k:
            return 1
        slack = n - spent - (k - depth - 1) * least
        return 1 + sum(m * visits(depth + 1, spent + c)
                       for c, m in costs.items() if c <= slack)

    return visits(0, 0)


@lru_cache(maxsize=None)
def rank_row_by_parts(n, parts):
    """(r(0), ..., r(n)) of a nilpotent class, each r(m) the sum of
    max(part - m, 0) over the blocks."""
    return tuple(sum(max(p - m, 0) for p in parts) for m in range(n + 1))


def parts_by_rank_row(row):
    """Block sizes of a nilpotent rank row: r(j - 1) - r(j) blocks have
    size >= j, so the difference of consecutive drops counts size j."""
    drops = [a - b for a, b in zip(row, row[1:])] + [0]
    return tuple(j for j in range(len(row) - 1, 0, -1)
                 for _ in range(drops[j - 1] - drops[j]))


def walk_rows(n, f, lhs):
    """Each walked solution's rank rows, left-hand ones then B's, given its
    left-hand partitions and the table values f: B's row at power m is the
    sum of f at the left-hand rows."""
    out = []
    for tup in lhs:
        rows = [rank_row_by_parts(n, p.parts) for p in tup]
        out.append(rows + [(n, *(sum(f[r[m]] for r in rows) for m in range(1, n + 1)))])
    return out


def walk_join(n, f, lhs):
    """The join of every walked solution's rows, coordinate by coordinate."""
    return [tuple(max(entries) for entries in zip(*col)) for col in zip(*walk_rows(n, f, lhs))]


def walk_best_dimension(n, f, lhs):
    """The largest summed orbit dimension of a walked solution's classes,
    each from squared conjugate parts, or None when there is none."""
    return max((sum(orbit_dimension_by_conjugate(parts_by_rank_row(r)) for r in rows)
                for rows in walk_rows(n, f, lhs)), default=None)


def conjugate_parts(parts):
    """The conjugate partition, by transposing the Young diagram row by row:
    column c counts the rows longer than c."""
    conj = [0] * (max(parts) if parts else 0)
    for k in parts:
        for c in range(k):
            conj[c] += 1
    return tuple(conj)


def orbit_dimension_by_conjugate(parts):
    """n^2 minus the squared conjugate parts."""
    n = sum(parts)
    return n * n - sum(c * c for c in conjugate_parts(parts))


def plain_sum_structure(sol):
    """The shape forced on plain-sum (f = g = id) solutions, read off the
    part lists directly: B's blocks of size >= 2 are the multiset union of
    the left-hand ones, and B's stable rank is the sum of the left-hand ones."""
    def blocks(classes):
        return sorted(k for c in classes for k in c.nilp.parts if k >= 2)
    return (blocks([sol.rhs]) == blocks(sol.lhs)
            and sol.rhs.q == sum(c.q for c in sol.lhs))


def decreasing_windows(n):
    """All sequences (n, v_1, ..., v_n) with n >= v_1 >= ... >= v_n >= 0.

    Superset of the valid stored rank sequences for size n; useful for
    exhaustive validity-versus-realizability comparisons.
    """
    def rec(prefix, last, remaining):
        if remaining == 0:
            yield tuple(prefix)
            return
        for v in range(last, -1, -1):
            yield from rec(prefix + [v], v, remaining - 1)

    yield from rec([n], n, n)
