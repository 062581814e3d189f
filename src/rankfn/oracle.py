"""Exact integer matrix engine.

Builds literal block matrices for a class, conjugates them by seeded
unimodular integer matrices, and recomputes rank functions, with no floating
point anywhere, so whatever the combinatorial layer claims about ranks can be
replayed on actual matrices.  Each conjugator is U = L K^T for unit lower
triangular L and K, so det U = 1.  U is kept as its product of elementary
factors E = I + c e_i e_j^T, each with the integer inverse I - c e_i e_j^T,
so U^-1 M U is one loop of integer column and row operations: neither U nor
an inverse is formed, nothing divides, and conjugation never runs the
elimination whose ranks it checks.  One fraction-free
Gauss-Jordan elimination gives ranks and bases, and the ranks of powers come
from the chain of row spaces rowspace(M^j), never from a literal power.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
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
_ENTRIES = range(-3, 4)  # random integer entries are drawn from -3..3

# verify_class_ranks refuses larger requests before any work: the biggest
# matrix it builds, and the number of rank functions it recomputes.
ORACLE_MAX_SIZE = 12
ORACLE_MAX_CHECKS = 20_000


@dataclass(frozen=True)
class ExactMatrix:
    """Square integer matrix stored once, as a tuple of integer rows; its
    size ``n`` is the number of rows.  Raises ValueError for rows that are
    not square or an entry that is not an int (bool included)."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.rows)
        if any(len(r) != len(rows) for r in rows):
            raise ValueError(f"entries must form a square matrix of {len(rows)} rows")
        if not all(type(e) is int for row in rows for e in row):
            raise ValueError("entries must be ints")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    def to_json(self) -> dict:
        return {"n": self.n, "entries": [[str(e) for e in row] for row in self.rows]}


def _reduce(rows) -> list[list[int]]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of an integer
    matrix A, skipping pivotless columns: the nonzero rows of p * rref(A),
    with p the last pivot.  Every entry stays a minor of A, so each division
    by the previous pivot is exact."""
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
    return m[:rank]


def _basis(rows) -> list[list[int]]:
    """Echelon basis of the row space of an integer matrix, each row divided
    by its content (the gcd of its entries)."""
    return [[x // g for x in row] for row in _reduce(rows) for g in (gcd(*row),)]


def _int_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _unit_lower(rng: random.Random, n: int) -> list[list[int]]:
    """The seeded strictly lower entries of a unit lower triangular integer
    matrix L: row i holds L[i][0..i-1], drawn from -3..3."""
    return [rng.choices(_ENTRIES, k=i) for i in range(n)]


def _factors(rng: random.Random, n: int) -> list[tuple[int, int, int]]:
    """The seeded U = L K^T, with L, then K, drawn by _unit_lower, as its
    ordered factors (i, j, c), each an elementary E = I + c e_i e_j^T with
    c != 0: L column by column, then K^T from its last row up."""
    low = _unit_lower(rng, n)
    k = _unit_lower(rng, n)
    return ([(i, t, low[i][t]) for t in range(n) for i in range(t + 1, n) if low[i][t]]
            + [(t, i, k[i][t]) for t in reversed(range(n)) for i in range(t + 1, n) if k[i][t]])


def _unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """The seeded U = L K^T, det U = 1, as the identity times U's factors, a
    column operation each: the conjugator random_conjugate draws from the
    same seed."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, c in _factors(rng, n):
        for row in u:
            row[j] += c * row[i]
    return u


def jordan_matrix(p: Partition, q: int = 0, seed: int = DEFAULT_SEED) -> ExactMatrix:
    """Block matrix for the class (p, q): one upper shift block per part,
    then a seeded unimodular q x q integer block, the U that random_conjugate
    draws from the same seed."""
    n = p.n + q
    rows = [[0] * n for _ in range(n)]
    offset = 0
    for k in p.parts:
        for i in range(k - 1):
            rows[offset + i][offset + i + 1] = 1
        offset += k
    if q:
        block = _unimodular(random.Random(seed), q)
        for i in range(q):
            rows[offset + i][offset:] = block[i]
    return ExactMatrix(rows)


def exact_rank(m: ExactMatrix) -> int:
    """Rank over the rationals."""
    return len(_reduce(m.rows))


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
    """U^-1 M U for the seeded unimodular integer U = L K^T (L and K unit
    lower triangular, entries -3..3), conjugating by one factor
    E = I + c e_i e_j^T of U at a time: column j += c column i gives M E,
    then row i -= c row j gives E^-1 M E.  Nothing divides, and neither U
    nor an inverse is formed."""
    w = [list(row) for row in m.rows]
    for i, j, c in _factors(random.Random(seed), m.n):
        for row in w:
            row[j] += c * row[i]
        w[i] = [x - c * y for x, y in zip(w[i], w[j])]
    return ExactMatrix(w)


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
