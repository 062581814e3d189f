"""Exact matrix engine over the rationals.

Builds literal block matrices for a class, conjugates them by random
integer matrices, and recomputes rank functions, with no floating point
anywhere, so whatever the combinatorial layer claims about ranks can be
replayed on actual matrices.  A matrix is stored once, as integer rows over
one denominator; a single fraction-free Gauss-Jordan elimination gives
ranks, bases and adjugates, and the ranks of powers come from the chain of
row spaces rowspace(M^j), never from a literal power.
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
    "direct_sum",
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
        rows = [[e if isinstance(e, int) else Fraction(e) for e in row] for row in self.rows]
        if any(len(r) != len(rows) for r in rows):
            raise ValueError(f"entries must form a square matrix of {len(rows)} rows")
        if not self.den:
            raise ValueError("denominator must be nonzero")
        scale = lcm(*(e.denominator for row in rows for e in row))
        ints = [[e.numerator * (scale // e.denominator) for e in row] for row in rows]
        den = self.den * scale
        g = gcd(den, *(x for row in ints for x in row))
        if den < 0:
            g = -g
        object.__setattr__(self, "rows", tuple(tuple(x // g for x in row) for row in ints))
        object.__setattr__(self, "den", den // g)

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.rows)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def to_json(self) -> dict:
        return {"n": self.n, "entries": [[str(e) for e in row] for row in self.entries]}


def _reduce(rows) -> tuple[list[list[int]], int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of an integer
    matrix A, skipping pivotless columns: (R, p, sign) with R the nonzero rows
    of p * rref(A), p the last pivot and sign the parity of the row swaps.
    Every entry stays a minor of A, so each division by a pivot is exact."""
    m = [list(row) for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank, prev, sign = 0, 1, 1
    for col in range(nc):
        piv = next((i for i in range(rank, nr) if m[i][col]), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        top = m[rank]
        pivot = top[col]
        for i in range(nr):
            if i != rank:
                factor = m[i][col]
                m[i] = [(pivot * x - factor * y) // prev for x, y in zip(m[i], top)]
        prev = pivot
        rank += 1
    return m[:rank], prev, sign


def _basis(rows) -> list[list[int]]:
    """Echelon basis of the row space of an integer matrix, each row divided
    by its content (the gcd of its entries)."""
    return [[x // g for x in row] for row in _reduce(rows)[0] for g in (gcd(*row),)]


def _int_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _adjugate(u: list[list[int]]) -> tuple[list[list[int]], int]:
    """(adj(U), det(U)) of a nonsingular integer matrix.

    _reduce turns [U | I] into p * [I | U^-1] with p = sign * det(U); U is
    singular iff the pivots leave the left block, i.e. some row i of the
    result has a zero at column i.
    """
    n = len(u)
    rows, p, sign = _reduce([list(row) + [int(i == j) for j in range(n)]
                             for i, row in enumerate(u)])
    if any(row[i] == 0 for i, row in enumerate(rows)):
        raise ValueError("matrix is singular")
    return [[sign * x for x in row[n:]] for row in rows], sign * p


def _random_invertible(rng: random.Random, n: int) -> list[list[int]]:
    while True:
        m = [[rng.randint(-_ENTRY_RANGE, _ENTRY_RANGE) for _ in range(n)] for _ in range(n)]
        if len(_reduce(m)[0]) == n:
            return m


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
        block = _random_invertible(random.Random(seed), q)
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

    With M = R / den for integer rows R, this is adj(U) R U / (det(U) den),
    computed on integers.
    """
    u = _random_invertible(random.Random(seed), m.n)
    adj, det = _adjugate(u)
    return ExactMatrix(_int_matmul(_int_matmul(adj, m.rows), u), det * m.den)


def direct_sum(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Block-diagonal stack of two matrices."""
    den = lcm(a.den, b.den)
    rows = [[x * (den // a.den) for x in row] + [0] * b.n for row in a.rows]
    rows += [[0] * a.n + [x * (den // b.den) for x in row] for row in b.rows]
    return ExactMatrix(rows, den)


def verify_class_ranks(max_n: int, q_max: int = 2, seeds: int = 0,
                       seed: int = DEFAULT_SEED) -> dict:
    """Cross-check matrix rank functions against combinatorial ones.

    Covers every partition of every size up to max_n paired with each
    stable rank up to q_max; when ``seeds`` is positive, each case is also
    rechecked under that many random conjugations.  Returns a summary dict
    with the case/check/discrepancy counts and the base seed for replay.

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
    cases = checks = bad = 0
    for n in range(1, max_n + 1):
        for p in partitions_of(n):
            for q in range(q_max + 1):
                cases += 1
                want = list(class_rank(MatrixClass(p, q)).values)
                mat = jordan_matrix(p, q, seed=seed + 97 * cases)
                checks += 1
                if matrix_rank_function(mat) != want:
                    bad += 1
                for s in range(seeds):
                    conj = random_conjugate(mat, seed=seed + 1009 * cases + s)
                    checks += 1
                    if matrix_rank_function(conj) != want:
                        bad += 1
    return {
        "max_n": max_n,
        "q_max": q_max,
        "seeds": seeds,
        "seed": seed,
        "cases": cases,
        "checks": checks,
        "discrepancies": bad,
        "ok": bad == 0,
    }
