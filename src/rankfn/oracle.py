"""Exact matrix engine over the rationals.

Builds literal block matrices for a class, conjugates them by random
integer matrices, and recomputes rank functions, with no floating point
anywhere, so whatever the combinatorial layer claims about ranks can be
replayed on actual matrices.  A matrix is stored once, as integer rows over
one denominator; one fraction-free Gauss-Jordan elimination gives ranks and
bases, and the ranks of powers come from the chain of row spaces
rowspace(M^j), never from a literal power.  A random conjugate U^-1 M U is
one elimination of [U | R U] for M = R / den: it tests U and, when U is
nonsingular, leaves p * [I | U^-1 R U].
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .core import MatrixClass, Partition, class_rank, partition_count, partitions_of
from .equations import BudgetExceeded

__all__ = [
    "DEFAULT_SEED",
    "ExactMatrix",
    "jordan_matrix",
    "exact_rank",
    "matrix_rank_function",
    "random_conjugate",
    "verify_class_ranks",
]

DEFAULT_SEED = 0
_ENTRY_RANGE = 3  # random integer entries are drawn from -3..3

# verify_class_ranks refuses larger requests before any work: the biggest
# matrix it builds, and the number of rank functions it recomputes.
ORACLE_MAX_SIZE = 12
ORACLE_MAX_CHECKS = 20_000


@dataclass(frozen=True)
class ExactMatrix:
    """Square rational matrix stored once: integer ``rows`` over one
    denominator ``den``.  Rational entries (ints, Fractions, Fraction
    strings) are accepted and brought to lowest terms, ``den > 0`` and
    gcd(rows, den) == 1, so equal matrices compare and hash equal.  The
    size ``n`` is the number of rows."""

    rows: tuple[tuple[int, ...], ...]
    den: int = 1

    def __post_init__(self) -> None:
        rows = [tuple(row) for row in self.rows]
        if any(len(r) != len(rows) for r in rows):
            raise ValueError(f"entries must form a square matrix of {len(rows)} rows")
        if not self.den:
            raise ValueError("denominator must be nonzero")
        den = self.den
        if not all(isinstance(e, int) for row in rows for e in row):
            rows = [[Fraction(e) for e in row] for row in rows]
            scale = lcm(*(e.denominator for row in rows for e in row))
            rows = [[e.numerator * (scale // e.denominator) for e in row] for row in rows]
            den *= scale
        g = gcd(den, *(x for row in rows for x in row))
        if den < 0:
            g = -g
        object.__setattr__(self, "rows", tuple(tuple(x // g for x in row) for row in rows))
        object.__setattr__(self, "den", den // g)

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.rows)

    def to_json(self) -> dict:
        return {"n": self.n, "entries": [[str(e) for e in row] for row in self.entries]}


def _reduce(rows) -> tuple[list[list[int]], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of an integer
    matrix A, skipping pivotless columns: (R, p) with R the nonzero rows of
    p * rref(A) and p the last pivot.  Every entry stays a minor of A, so
    each division by a pivot is exact."""
    m = [list(row) for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank, prev = 0, 1
    for col in range(nc):
        piv = next((i for i in range(rank, nr) if m[i][col]), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        pivot = top[col]
        for i in range(nr):
            if i != rank:
                factor = m[i][col]
                m[i] = [(pivot * x - factor * y) // prev for x, y in zip(m[i], top)]
        prev = pivot
        rank += 1
    return m[:rank], prev


def _basis(rows) -> list[list[int]]:
    """Echelon basis of the row space of an integer matrix, each row divided
    by its content (the gcd of its entries)."""
    return [[x // g for x in row] for row in _reduce(rows)[0] for g in (gcd(*row),)]


def _int_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _left_divide(u: list[list[int]], b) -> tuple[list[list[int]], int] | None:
    """(X, p) with X = p * U^-1 B for a square integer U, or None when U is
    singular, from one _reduce of [U | B].

    A nonsingular U leaves p * [I | U^-1 B], with p = +-det(U) the last
    pivot.  U is singular iff the rows run out or a pivot leaves the left
    block, i.e. some row i of the result has a zero at column i.
    """
    n = len(u)
    rows, p = _reduce([[*a, *c] for a, c in zip(u, b)])
    if len(rows) < n or any(row[i] == 0 for i, row in enumerate(rows)):
        return None
    return [row[n:] for row in rows], p


def _random_invertible(rng: random.Random, n: int, right=lambda u: [()] * len(u)):
    """Draw n x n integer matrices U (entries -3..3) until one is nonsingular;
    returns U and _left_divide(U, right(U)), by default with an empty B."""
    while True:
        u = [[rng.randint(-_ENTRY_RANGE, _ENTRY_RANGE) for _ in range(n)] for _ in range(n)]
        solved = _left_divide(u, right(u))
        if solved is not None:
            return u, solved


def jordan_matrix(p: Partition, q: int = 0, seed: int = DEFAULT_SEED) -> ExactMatrix:
    """Block matrix for the class (p, q): one upper shift block per part,
    then a seeded random invertible q x q integer block (entries -3..3,
    resampled until nonsingular)."""
    n = p.n + q
    rows = [[0] * n for _ in range(n)]
    offset = 0
    for k in p.parts:
        for i in range(k - 1):
            rows[offset + i][offset + i + 1] = 1
        offset += k
    if q:
        block, _ = _random_invertible(random.Random(seed), q)
        for i in range(q):
            rows[offset + i][offset:] = block[i]
    return ExactMatrix(rows)


def exact_rank(m: ExactMatrix) -> int:
    """Rank over the rationals (the common denominator changes no rank)."""
    return len(_reduce(m.rows)[0])


def matrix_rank_function(m: ExactMatrix) -> list[int]:
    """(rk(M^0), ..., rk(M^n)) from the row-space chain V_j = rowspace(M^j).

    V_{j+1} = V_j M lies inside V_j, so rk(M^j) = dim V_j falls until two
    dimensions agree and is constant from there.  Each V_j is kept as a
    _basis, so its entries are bounded by the subspace, not by the power.
    """
    ranks = [m.n]
    span = m.rows
    while len(ranks) <= m.n:
        basis = _basis(span)
        ranks.append(len(basis))
        if ranks[-1] == ranks[-2]:
            break
        span = _int_matmul(basis, m.rows)
    return ranks + ranks[-1:] * (m.n + 1 - len(ranks))


def random_conjugate(m: ExactMatrix, seed: int = DEFAULT_SEED) -> ExactMatrix:
    """U^-1 M U for a seeded random integer U with nonzero determinant.

    With M = R / den for integer rows R, one elimination of [U | R U] gives
    p * U^-1 R U, so the result is that block over p * den.
    """
    _, (block, p) = _random_invertible(random.Random(seed), m.n,
                                       lambda u: _int_matmul(m.rows, u))
    return ExactMatrix(block, p * m.den)


def verify_class_ranks(max_n: int, q_max: int = 2, seeds: int = 0,
                       seed: int = DEFAULT_SEED) -> dict:
    """Cross-check matrix rank functions against combinatorial ones.

    Covers every partition of every size up to max_n paired with each
    stable rank up to q_max; when ``seeds`` is positive, each case is also
    rechecked under that many random conjugations.  Returns a summary dict
    with the case/check/discrepancy counts and the base seed.  When a check
    fails, ``failures`` names each failing case for replay: its ``parts``,
    ``q``, ``jordan_seed`` and ``conjugate_seed`` (None for the unconjugated
    matrix), so jordan_matrix and random_conjugate rebuild the matrix.

    Raises ValueError for max_n < 1, q_max < 0 or seeds < 0, and
    BudgetExceeded when max_n + q_max exceeds ORACLE_MAX_SIZE or the planned
    checks exceed ORACLE_MAX_CHECKS; all before any matrix is built.
    """
    if max_n < 1 or q_max < 0 or seeds < 0:
        raise ValueError(
            f"need max_n >= 1, q_max >= 0, seeds >= 0: got {max_n}, {q_max}, {seeds}")
    if max_n + q_max > ORACLE_MAX_SIZE:
        raise BudgetExceeded(
            f"matrix size max_n + q_max = {max_n + q_max} exceeds the "
            f"{ORACLE_MAX_SIZE} cap")
    planned = (q_max + 1) * sum(partition_count(n) for n in range(1, max_n + 1)) * (seeds + 1)
    if planned > ORACLE_MAX_CHECKS:
        raise BudgetExceeded(
            f"{planned} planned checks exceed the {ORACLE_MAX_CHECKS} cap")
    cases = checks = 0
    failures = []
    for n in range(1, max_n + 1):
        for p in partitions_of(n):
            for q in range(q_max + 1):
                cases += 1
                want = list(class_rank(MatrixClass(p, q)).values)
                jordan_seed = seed + 97 * cases
                mat = jordan_matrix(p, q, seed=jordan_seed)
                first = seed + 1009 * cases
                for conjugate_seed in (None, *range(first, first + seeds)):
                    checked = (mat if conjugate_seed is None
                               else random_conjugate(mat, seed=conjugate_seed))
                    checks += 1
                    if matrix_rank_function(checked) != want:
                        failures.append({"parts": list(p.parts), "q": q,
                                         "jordan_seed": jordan_seed,
                                         "conjugate_seed": conjugate_seed})
    report = {
        "max_n": max_n,
        "q_max": q_max,
        "seeds": seeds,
        "seed": seed,
        "cases": cases,
        "checks": checks,
        "discrepancies": len(failures),
        "ok": not failures,
    }
    if failures:
        report["failures"] = failures
    return report
