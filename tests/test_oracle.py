"""The matrix engine, checked against literal matrices and a second rank routine."""

import random
from fractions import Fraction
from itertools import count
from math import gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from rankfn import (
    ConvexTable,
    ExactMatrix,
    MatrixClass,
    Partition,
    class_rank,
    enumerate_sol,
    exact_rank,
    jordan_matrix,
    matrix_rank_function,
    partitions_of,
    random_conjugate,
    verify_class_ranks,
)

from rankfn.oracle import _basis, _int_matmul, _left_divide, _random_invertible, _reduce

from helpers import frac_det, frac_inverse, frac_matmul, frac_rank, literal_power_ranks

F = Fraction


@st.composite
def integer_matrices(draw):
    """Small integer matrices; the top-left z x z block is zeroed, so for
    z > 0 the first pivot is zero and elimination has to swap rows."""
    n = draw(st.integers(1, 8))
    rows = [draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)) for _ in range(n)]
    z = draw(st.integers(0, n - 1))
    for i in range(z):
        rows[i][:z] = [0] * z
    return rows


@given(integer_matrices(), st.integers(0, 10**6))
def test_left_divide_is_inverse_times_block(rows, seed):
    """One elimination of [U | M U] gives p * U^-1 M U; of [U | I], p * U^-1."""
    n = len(rows)
    m = _ints(random.Random(seed), n, n)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    det = frac_det(rows)
    if det == 0:
        assert _left_divide(rows, _int_matmul(m, rows)) is None
        assert _left_divide(rows, identity) is None
        return
    got, p = _left_divide(rows, _int_matmul(m, rows))
    assert abs(p) == abs(det)
    assert [[F(x, p) for x in row] for row in got] == frac_matmul(
        frac_matmul(frac_inverse(rows), m), rows)
    adj, p = _left_divide(rows, identity)
    assert adj == [[p * x for x in row] for row in frac_inverse(rows)]


def test_left_divide_swaps_and_singular_input():
    flip = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]  # zero leading pivot, odd permutation
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert _left_divide(flip, identity) == (flip, 1)
    assert _left_divide(flip, [[2], [3], [5]]) == ([[5], [3], [2]], 1)
    singular = [[1, 2], [2, 4]]
    assert _left_divide(singular, [[1, 0], [0, 1]]) is None  # a pivot leaves U's block
    assert _left_divide(singular, [[3], [6]]) is None  # the rows run out
    assert _left_divide(singular, [(), ()]) is None


def _textbook_draw(seed, n):
    """The first nonsingular U of seed's stream, by determinant, and the
    number of draws it took."""
    rng = random.Random(seed)
    for draws in count(1):
        u = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if frac_det(u) != 0:
            return u, draws


CONJUGATE_SIZES = (0, 1, 2, 3, 5, 8, 12)
CONJUGATE_SEEDS = range(5)


@pytest.mark.parametrize("n", CONJUGATE_SIZES)
def test_random_conjugate_is_textbook_conjugate(n):
    # The grid holds a first draw that is singular (n = 2, seeds 0 and 2), so
    # the redraw path is checked against the determinant-based loop too.
    assert any(_textbook_draw(seed, k)[1] > 1
               for k in CONJUGATE_SIZES for seed in CONJUGATE_SEEDS)
    rng = random.Random(n)
    for seed in CONJUGATE_SEEDS:
        m = [[F(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for _ in range(n)]
             for _ in range(n)]
        u, _ = _textbook_draw(seed, n)
        assert _random_invertible(random.Random(seed), n)[0] == u
        want = frac_matmul(frac_matmul(frac_inverse(u), m), u)
        got = random_conjugate(ExactMatrix(m), seed=seed)
        assert got.entries == tuple(map(tuple, want))


def test_jordan_matrix_literal_entries():
    m = jordan_matrix(Partition((2, 1)))
    assert m.entries == (
        (F(0), F(1), F(0)),
        (F(0), F(0), F(0)),
        (F(0), F(0), F(0)),
    )
    m2 = jordan_matrix(Partition((3,)))
    assert [[int(e) for e in row] for row in m2.entries] == [
        [0, 1, 0], [0, 0, 1], [0, 0, 0]]


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


def test_exact_rank_literal_examples():
    assert exact_rank(ExactMatrix([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])) == 4
    assert exact_rank(ExactMatrix([
        (F(1), F(2)), (F(2), F(4))])) == 1
    assert exact_rank(ExactMatrix([
        (F(1, 2), F(1, 3)), (F(1, 5), F(1, 7))])) == 2
    assert exact_rank(ExactMatrix([
        (F(1, 2), F(1, 4)), (F(2), F(1))])) == 1
    assert exact_rank(ExactMatrix([(F(0), F(0)), (F(0), F(0))])) == 0


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
        m = ExactMatrix([[F(v) for v in row] for row in rows])
        assert exact_rank(m) == frac_rank(rows)
    for _ in range(100):
        rows = _low_rank(rng, rng.randint(1, 7), rng.randint(1, 7))
        assert len(_reduce(rows)[0]) == frac_rank(rows)
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
        got = matrix_rank_function(ExactMatrix(m))
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
    m = ExactMatrix([(F(1, 2), F(-3)), (F(0), F(7, 5))])
    blob = m.to_json()
    assert blob["entries"][0][0] == "1/2" and blob["entries"][1][1] == "7/5"
    assert ExactMatrix(((1, -2), (0, 3))).to_json()["entries"] == [["1", "-2"], ["0", "3"]]


def test_exact_matrix_shape_validation():
    with pytest.raises(ValueError):
        ExactMatrix(((1, 2),))
    with pytest.raises(ValueError):
        ExactMatrix(((1, 2), (3,)))
    with pytest.raises(ValueError):
        ExactMatrix(((1,),), 0)
    assert ExactMatrix(((1, 2), (3, 4))).n == 2 and ExactMatrix(()).n == 0


def test_exact_matrix_canonical_form():
    """However a matrix is written, it is stored as one lowest-terms pair."""
    want = ExactMatrix(((F(1, 2), F(1)), (F(0), F(-3, 2))))
    assert want.rows == ((1, 2), (0, -3)) and want.den == 2
    for m in (
        ExactMatrix(((F(2, 4), 1), (0, F(-6, 4)))),
        ExactMatrix((("1/2", F(4, 4)), (0, "-3/2"))),
        ExactMatrix(((2, 4), (0, -6)), 4),
        ExactMatrix(((-1, -2), (0, 3)), -2),
        ExactMatrix(((F(-3, 2), -3), (0, F(9, 2))), -3),
    ):
        assert m == want and hash(m) == hash(want) and m.to_json() == want.to_json()
    zero = ExactMatrix(((0, 0), (0, 0)), 7)
    assert zero == ExactMatrix(((0, 0), (0, 0))) and zero.den == 1


def test_verify_class_ranks_summary():
    out = verify_class_ranks(4, q_max=1, seeds=0)
    assert out["cases"] == 22  # (1 + 2 + 3 + 5 partitions) x two stable ranks
    assert out["checks"] == 22
    assert out["discrepancies"] == 0 and out["ok"]
    out2 = verify_class_ranks(3, q_max=0, seeds=2, seed=123)
    assert out2["cases"] == 6
    assert out2["checks"] == 18
    assert out2["ok"] and out2["seed"] == 123

