"""The matrix engine, checked against literal matrices and a second rank routine."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from rankfn import (
    ConvexTable,
    MatrixClass,
    Partition,
    class_rank,
    enumerate_sol,
    partitions_of,
)
from rankfn import oracle
from rankfn.oracle import (
    ExactMatrix,
    _basis,
    _reduce,
    _unimodular,
    _unit_lower,
    exact_rank,
    jordan_matrix,
    matrix_rank_function,
    random_conjugate,
    verify_class_ranks,
)

from helpers import frac_det, frac_inverse, frac_matmul, frac_rank, literal_power_ranks

F = Fraction


CONJUGATE_SIZES = (0, 1, 2, 3, 5, 8, 12, 13, 14)
CONJUGATE_SEEDS = range(5)


def _unit(strict_lower):
    """The full unit lower triangular matrix from _unit_lower's rows."""
    n = len(strict_lower)
    return [row + [1] + [0] * (n - i - 1) for i, row in enumerate(strict_lower)]


def _textbook_u(seed, n):
    """L K^T as a Fraction product, from the seed's two _unit_lower draws."""
    rng = random.Random(seed)
    low, k = _unit(_unit_lower(rng, n)), _unit(_unit_lower(rng, n))
    return frac_matmul(low, list(zip(*k)))


@pytest.mark.parametrize("n", CONJUGATE_SIZES)
def test_unimodular_draw_is_exactly_inverted(n):
    """U is L K^T for the seed's two unit lower triangular draws, has
    determinant 1 and an integral textbook inverse, and a seed always gives
    the same U."""
    for seed in CONJUGATE_SEEDS:
        u = _unimodular(random.Random(seed), n)
        assert u == _textbook_u(seed, n)
        assert frac_det(u) == 1
        assert all(e.denominator == 1 for row in frac_inverse(u) for e in row)
        assert _unimodular(random.Random(seed), n) == u


def _conjugate_inputs(rng, n, seed):
    """A dense matrix and two Jordan matrices of size n, the second with a
    q-block when n > 0: Jordan rows outside the q-block hold at most one
    nonzero entry."""
    q = rng.randint(1, min(3, n)) if n else 0
    jordan = (jordan_matrix(rng.choice(list(partitions_of(n))), seed=seed).rows,
              jordan_matrix(rng.choice(list(partitions_of(n - q))), q, seed=seed).rows)
    return (_ints(rng, n, n), *jordan)


@pytest.mark.parametrize("n", CONJUGATE_SIZES)
def test_random_conjugate_is_textbook_conjugate(n):
    """random_conjugate against U^-1 M U with the textbook Fraction inverse
    of U = L K^T, multiplied out from the seed's draws, on dense matrices and
    on Jordan matrices."""
    rng = random.Random(n)
    for seed in CONJUGATE_SEEDS:
        u = _textbook_u(seed, n)
        u_inv = frac_inverse(u)
        for m in _conjugate_inputs(rng, n, seed):
            want = frac_matmul(frac_matmul(u_inv, m), u)
            got = random_conjugate(ExactMatrix(m), seed=seed)
            assert got.rows == tuple(map(tuple, want)), (m, seed)


def test_conjugation_runs_no_elimination_and_no_product(monkeypatch):
    """random_conjugate and the q-block of jordan_matrix are row and column
    operations only: with the elimination and the matrix product made to
    raise, each returns the rows it returns unpatched."""
    rng = random.Random(25)
    cases = [(ExactMatrix(m), seed) for n in CONJUGATE_SIZES for seed in CONJUGATE_SEEDS
             for m in _conjugate_inputs(rng, n, seed)]
    blocks = [(p, q, seed) for n in range(4) for p in partitions_of(n) for q in (1, 2, 3)
              for seed in CONJUGATE_SEEDS]
    conjugates = [random_conjugate(m, seed=seed) for m, seed in cases]
    jordans = [jordan_matrix(p, q, seed=seed) for p, q, seed in blocks]

    def refuse(*args):
        raise AssertionError("conjugation ran an elimination or a matrix product")

    monkeypatch.setattr(oracle, "_reduce", refuse)
    monkeypatch.setattr(oracle, "_int_matmul", refuse)
    assert [random_conjugate(m, seed=seed) for m, seed in cases] == conjugates
    assert [jordan_matrix(p, q, seed=seed) for p, q, seed in blocks] == jordans
    with pytest.raises(AssertionError):
        exact_rank(conjugates[-1])  # the patch does reach the oracle's own calls


def test_jordan_matrix_literal_entries():
    m = jordan_matrix(Partition((2, 1)))
    assert m.rows == ((0, 1, 0), (0, 0, 0), (0, 0, 0))
    m2 = jordan_matrix(Partition((3,)))
    assert m2.rows == ((0, 1, 0), (0, 0, 1), (0, 0, 0))
    block = _unimodular(random.Random(4), 2)
    assert [row[1:] for row in jordan_matrix(Partition((1,)), q=2, seed=4).rows] == [
        (0, 0), *map(tuple, block)]


def test_jordan_matrix_nilpotency_and_stable_block():
    for p in [Partition((3, 2)), Partition((4, 1, 1)), Partition((2, 2, 2))]:
        ranks = matrix_rank_function(jordan_matrix(p))
        assert ranks[-1] == 0
        assert ranks == list(class_rank(MatrixClass(p, 0)).values)
    withq = jordan_matrix(Partition((2, 1)), q=2, seed=5)
    assert matrix_rank_function(withq)[-1] == 2


def test_jordan_matrix_seeded_reproducibility():
    a = jordan_matrix(Partition((3, 1)), q=2, seed=11)
    b = jordan_matrix(Partition((3, 1)), q=2, seed=11)
    c = jordan_matrix(Partition((3, 1)), q=2, seed=12)
    assert a == b
    assert a != c


def _scaled(rows):
    """A rational matrix times the lcm of its denominators: an integer
    matrix whose every power has the same rank."""
    scale = lcm(*(F(e).denominator for row in rows for e in row))
    return [[int(F(e) * scale) for e in row] for row in rows]


def test_exact_rank_literal_examples():
    for rows, rank in [
        ([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 4),
        ([(0, 0, 1), (0, 1, 0), (1, 0, 0)], 3),  # a zero leading pivot: rows swap
        ([(F(1), F(2)), (F(2), F(4))], 1),
        ([(F(1, 2), F(1, 3)), (F(1, 5), F(1, 7))], 2),
        ([(F(1, 2), F(1, 4)), (F(2), F(1))], 1),
        ([(F(0), F(0)), (F(0), F(0))], 0),
    ]:
        assert exact_rank(ExactMatrix(_scaled(rows))) == rank == frac_rank(rows)


def _ints(rng, nr, nc):
    return [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]


def _low_rank(rng, nr, nc):
    """A product through at most three dimensions, with some columns zeroed,
    so elimination meets columns that have no pivot."""
    k = rng.randint(1, 3)
    rows = [[int(x) for x in row] for row in frac_matmul(_ints(rng, nr, k), _ints(rng, k, nc))]
    for j in rng.sample(range(nc), rng.randint(0, nc - 1)):
        for row in rows:
            row[j] = 0
    return rows


def test_int_rank_agrees_with_gauss_jordan():
    rng = random.Random(2024)
    for _ in range(50):
        n = rng.randint(1, 6)
        rows = _ints(rng, n, n)
        assert exact_rank(ExactMatrix(rows)) == frac_rank(rows)
    for _ in range(100):
        rows = _low_rank(rng, rng.randint(1, 7), rng.randint(1, 7))
        assert len(_reduce(rows)) == frac_rank(rows)
        if len(rows) == len(rows[0]):
            assert exact_rank(ExactMatrix(rows)) == frac_rank(rows)


def test_basis_rows_are_primitive_and_scale_free():
    rng = random.Random(7)
    for _ in range(60):
        rows = _low_rank(rng, rng.randint(1, 6), rng.randint(1, 6))
        basis = _basis(rows)
        assert len(basis) == frac_rank(rows) == frac_rank(rows + basis)
        assert all(gcd(*row) == 1 for row in basis)
        assert _basis([[6 * x for x in row] for row in rows]) == basis


def _rational(rng, nr, nc):
    return [[F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(nc)] for _ in range(nr)]


def _conjugated(rng, m):
    n = len(m)
    while True:
        u = _ints(rng, n, n)
        if frac_det(u) != 0:
            return frac_matmul(frac_matmul(frac_inverse(u), m), u)


@pytest.mark.parametrize("kind", ["dense", "low-rank", "nilpotent", "mixed"])
def test_matrix_rank_function_matches_literal_powers(kind):
    """The row-space chain against ranks of literal Fraction powers."""
    rng = random.Random(kind)
    for _ in range(30):
        n = rng.randint(1, 6)
        if kind == "dense":
            m = _rational(rng, n, n)
        elif kind == "low-rank":
            r = rng.randint(1, max(1, n - 1))
            m = frac_matmul(_rational(rng, n, r), _rational(rng, r, n))
        else:
            s = n if kind == "nilpotent" else rng.randint(1, n)
            m = [[F(0)] * n for _ in range(n)]
            for i in range(s):  # strictly upper triangular, so nilpotent
                m[i][i + 1:s] = [F(rng.choice((0, 1, 1, 2, -3))) for _ in range(s - i - 1)]
            for i in range(s, n):  # a random, usually invertible, block
                m[i][s:] = _rational(rng, 1, n - s)[0]
            m = _conjugated(rng, m)
        got = matrix_rank_function(ExactMatrix(_scaled(m)))
        assert got == literal_power_ranks(m), m


def test_matrix_rank_function_matches_class_rank():
    for n in range(1, 6):
        for p in partitions_of(n):
            for q in range(3):
                want = list(class_rank(MatrixClass(p, q)).values)
                got = matrix_rank_function(jordan_matrix(p, q, seed=3 * n + q))
                assert got == want, (p, q)


def test_rank_function_invariant_under_conjugation():
    cases = [
        (Partition((3, 1)), 0),
        (Partition((2, 2)), 1),
        (Partition((4,)), 2),
        (Partition((2, 1, 1)), 0),
    ]
    for p, q in cases:
        base = jordan_matrix(p, q, seed=7)
        want = list(class_rank(MatrixClass(p, q)).values)
        for s in range(10):
            assert matrix_rank_function(random_conjugate(base, seed=s)) == want


def test_conjugation_by_identity_like_seeds_is_still_similar():
    m = jordan_matrix(Partition((2, 2)), q=1, seed=1)
    conj = random_conjugate(m, seed=9)
    assert conj != m or exact_rank(m) == exact_rank(conj)
    assert exact_rank(conj) == exact_rank(m)


def test_solver_output_replayed_on_matrices():
    """Tuples from the symbolic solver really do satisfy the rank equation
    when everyone is instantiated as a conjugated matrix."""
    for n in (5, 6):
        s = enumerate_sol(n, 2, ConvexTable.identity(n))
        for idx, t in enumerate(s.tuples):
            mats = [random_conjugate(jordan_matrix(c.nilp, c.q, seed=idx), seed=50 + i)
                    for i, c in enumerate(t.lhs)]
            rhs = random_conjugate(jordan_matrix(t.rhs.nilp, t.rhs.q, seed=idx), seed=99)
            lhs_ranks = [matrix_rank_function(m) for m in mats]
            rhs_ranks = matrix_rank_function(rhs)
            for m in range(1, n + 1):
                assert sum(r[m] for r in lhs_ranks) == rhs_ranks[m]


def test_exact_matrix_json_round_trip():
    m = ExactMatrix(_scaled([(F(1, 2), F(-3)), (F(0), F(7, 5))]))
    blob = m.to_json()
    assert blob == {"n": 2, "entries": [["5", "-30"], ["0", "14"]]}
    assert ExactMatrix([[int(e) for e in row] for row in blob["entries"]]) == m
    assert ExactMatrix(((1, -2), (0, 3))).to_json()["entries"] == [["1", "-2"], ["0", "3"]]


def test_exact_matrix_shape_validation():
    with pytest.raises(ValueError):
        ExactMatrix(((1, 2),))
    with pytest.raises(ValueError):
        ExactMatrix(((1, 2), (3,)))
    assert ExactMatrix(((1, 2), (3, 4))).n == 2 and ExactMatrix(()).n == 0
    listed, tupled = ExactMatrix([[1, 2], [3, 4]]), ExactMatrix(((1, 2), (3, 4)))
    assert listed == tupled and hash(listed) == hash(tupled)


@pytest.mark.parametrize("entry", [F(1, 2), F(3), 0.5, 2.0, "1", True])
def test_exact_matrix_refuses_non_integer_entries(entry):
    with pytest.raises(ValueError):
        ExactMatrix(((1, entry), (0, 1)))


def test_verify_class_ranks_summary():
    out = verify_class_ranks(4, q_max=1, seeds=0)
    assert out["cases"] == 22  # (1 + 2 + 3 + 5 partitions) x two stable ranks
    assert out["checks"] == 22
    assert out["discrepancies"] == 0 and out["ok"]
    out2 = verify_class_ranks(3, q_max=0, seeds=2, seed=123)
    assert out2["cases"] == 6
    assert out2["checks"] == 18
    assert out2["ok"] and out2["seed"] == 123

