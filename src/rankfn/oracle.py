"""Exact matrix engine over the rationals.

Builds literal block matrices for a class, conjugates them by random
integer matrices, and recomputes rank functions by fraction-free
elimination.  Whatever the combinatorial layer claims about ranks can be
replayed here on actual matrices, with no floating point anywhere.  Inside
the engine all arithmetic is on integers: denominators are cleared once on
input, and Fractions are built only for the entries of a result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
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
    """Square matrix with Fraction entries."""

    n: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(Fraction(e) for e in row) for row in self.entries)
        if len(rows) != self.n or any(len(r) != self.n for r in rows):
            raise ValueError(f"entries must form an {self.n} x {self.n} matrix")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def from_rows(cls, rows) -> "ExactMatrix":
        rows = tuple(tuple(row) for row in rows)
        return cls(len(rows), rows)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(n))
            for i in range(n)))

    def to_json(self) -> dict:
        return {"n": self.n, "entries": [[str(e) for e in row] for row in self.entries]}

    @classmethod
    def from_json(cls, obj: dict) -> "ExactMatrix":
        return cls(int(obj["n"]), tuple(
            tuple(Fraction(s) for s in row) for row in obj["entries"]))


def _int_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix, by one-step fraction-free elimination."""
    m = [row[:] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank, prev = 0, 1
    for col in range(nc):
        piv = next((i for i in range(rank, nr) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pivot = m[rank][col]
        for i in range(rank + 1, nr):
            row = m[i]
            factor = row[col]
            for j in range(col + 1, nc):
                row[j] = (pivot * row[j] - factor * m[rank][j]) // prev
            row[col] = 0
        prev = pivot
        rank += 1
        if rank == nr:
            break
    return rank


def _int_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _adjugate(u: list[list[int]]) -> tuple[list[list[int]], int]:
    """(adj(U), det(U)) of a nonsingular integer matrix, by fraction-free
    Gauss-Jordan elimination on [U | I] (Bareiss 1968).

    Every entry stays a minor of the augmented matrix, so each division by
    the previous pivot is exact.  The last pivot p is det(U) up to the sign
    of the row swaps; the left block ends as p*I and the right as p*U^-1.
    """
    n = len(u)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(u)]
    prev, sign = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if aug[i][k]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        if piv != k:
            aug[k], aug[piv] = aug[piv], aug[k]
            sign = -sign
        top = aug[k]
        pivot = top[k]
        for i in range(n):
            if i != k:
                factor = aug[i][k]
                aug[i] = [(pivot * x - factor * y) // prev for x, y in zip(aug[i], top)]
        prev = pivot
    return [[sign * x for x in row[n:]] for row in aug], sign * prev


def _cleared(m: ExactMatrix) -> tuple[list[list[int]], int]:
    """(d*M, d) for d the lcm of the denominators of M: an integer matrix
    with the same ranks, and the scale that maps it back."""
    d = lcm(*(e.denominator for row in m.entries for e in row))
    return [[e.numerator * (d // e.denominator) for e in row] for row in m.entries], d


def _random_invertible(rng: random.Random, n: int) -> list[list[int]]:
    while True:
        m = [[rng.randint(-_ENTRY_RANGE, _ENTRY_RANGE) for _ in range(n)] for _ in range(n)]
        if _int_rank(m) == n:
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
            for j in range(q):
                rows[offset + i][offset + j] = block[i][j]
    return ExactMatrix.from_rows(
        [tuple(Fraction(v) for v in row) for row in rows])


def exact_rank(m: ExactMatrix) -> int:
    """Rank over the rationals (denominators cleared first)."""
    return _int_rank(_cleared(m)[0])


def matrix_rank_function(m: ExactMatrix) -> list[int]:
    """(rk(M^0), ..., rk(M^n)), each rank computed on the literal power.

    A global scalar does not change ranks, so the matrix is cleared to an
    integer one once and powered there.
    """
    n = m.n
    base = _cleared(m)[0]
    ranks = [n]
    power = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(n):
        power = _int_matmul(power, base)
        if any(any(row) for row in power):
            ranks.append(_int_rank(power))
        else:
            ranks.append(0)  # the zero matrix stays zero
    return ranks


def random_conjugate(m: ExactMatrix, seed: int = DEFAULT_SEED) -> ExactMatrix:
    """U^-1 M U for a seeded random integer U with nonzero determinant.

    Computed on integers as adj(U) (dM) U = det(U) d U^-1 M U, with d
    clearing the denominators of M; only the result is divided back.
    """
    u = _random_invertible(random.Random(seed), m.n)
    adj, det = _adjugate(u)
    b, d = _cleared(m)
    product = _int_matmul(_int_matmul(adj, b), u)
    scale = det * d
    return ExactMatrix(m.n, tuple(
        tuple(Fraction(x, scale) for x in row) for row in product))


def direct_sum(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Block-diagonal stack of two matrices."""
    zero = Fraction(0)
    rows = [tuple(row) + (zero,) * b.n for row in a.entries]
    rows += [(zero,) * a.n + tuple(row) for row in b.entries]
    return ExactMatrix(a.n + b.n, tuple(rows))


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
