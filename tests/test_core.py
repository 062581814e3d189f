"""Partition/rank-function conversions, validity, and the dominance order."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfn import (
    InvalidPartition,
    InvalidRankFunction,
    MatrixClass,
    Partition,
    RankFunction,
    class_rank,
    dominates,
    nontrivial_blocks,
    partition_count,
    partition_to_rank,
    partitions_of,
    rank_defect,
    rank_to_class,
    rank_to_partition,
)
from helpers import (
    conjugate_parts,
    count_partitions,
    decreasing_windows,
    realizable_sequences,
)

partitions_strategy = st.lists(st.integers(1, 8), min_size=0, max_size=8).map(
    lambda parts: Partition(tuple(parts)))
nonempty_partitions = st.lists(st.integers(1, 8), min_size=1, max_size=8).map(
    lambda parts: Partition(tuple(parts)))


def test_partition_sorts_parts():
    assert Partition((1, 3, 2, 3)).parts == (3, 3, 2, 1)
    assert Partition(()).parts == ()
    assert Partition((2, 1)).n == 3


def test_partition_equality_ignores_input_order():
    assert Partition((1, 2)) == Partition((2, 1))
    assert hash(Partition((1, 2))) == hash(Partition((2, 1)))


@pytest.mark.parametrize("bad", [(0,), (-1, 2), (2, 0, 1)])
def test_partition_rejects_nonpositive_parts(bad):
    with pytest.raises(InvalidPartition):
        Partition(bad)


@pytest.mark.parametrize("bad", [("a", 1), (2, None), (2.0,), (True,), (2, False), ("3",)])
def test_partition_rejects_non_integer_parts(bad):
    """Checked before sorting, so mixed types raise InvalidPartition, not
    TypeError; a bool is not taken for an int."""
    with pytest.raises(InvalidPartition):
        Partition(bad)


def test_partition_parse_and_str():
    assert Partition.parse("3,2,1") == Partition((3, 2, 1))
    assert Partition.parse("") == Partition(())
    assert str(Partition((3, 2, 1))) == "3,2,1"
    assert str(Partition(())) == ""
    with pytest.raises(InvalidPartition):
        Partition.parse("2,x")


def test_partition_to_rank_examples():
    assert partition_to_rank(Partition((2, 2, 1, 1, 1, 1, 1, 1))).values == \
        (10, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    assert partition_to_rank(Partition((3, 2, 1, 1, 1, 1, 1))).values == \
        (10, 3, 1, 0, 0, 0, 0, 0, 0, 0, 0)
    assert partition_to_rank(Partition((2, 1, 1))).values == (4, 1, 0, 0, 0)
    assert partition_to_rank(Partition((1, 1, 1, 1))).values == (4, 0, 0, 0, 0)
    assert partition_to_rank(Partition(())).values == (0,)


def test_partition_to_rank_matches_plain_formula():
    """Running counts agree with r(m) = sum over parts k of max(k - m, 0)."""
    for n in range(13):
        for p in partitions_of(n):
            plain = tuple(sum(max(k - m, 0) for k in p.parts) for m in range(n + 1))
            assert partition_to_rank(p).values == plain, p


def test_rank_to_partition_examples():
    assert rank_to_partition(RankFunction((10, 5, 1, 0, 0, 0, 0, 0, 0, 0, 0))) == \
        Partition((3, 2, 2, 2, 1))
    assert rank_to_partition(RankFunction((8, 4, 0, 0, 0, 0, 0, 0, 0))) == \
        Partition((2, 2, 2, 2))


def test_round_trip_exhaustive_small():
    for n in range(13):
        for p in partitions_of(n):
            assert rank_to_partition(partition_to_rank(p)) == p


@given(partitions_strategy)
def test_round_trip_property(p):
    assert rank_to_partition(partition_to_rank(p)) == p


def test_rank_to_partition_requires_nilpotent_tail():
    r = RankFunction((4, 2, 1, 1, 1))
    with pytest.raises(InvalidRankFunction):
        rank_to_partition(r)
    c = rank_to_class(r)
    assert c == MatrixClass(Partition((2, 1)), 1)


def test_rank_defect_examples():
    assert rank_defect(()) == "empty sequence"
    for bad in ((4, 2, 0, 0, 0.0), (4, 2, -1, 0, 0), (1, True)):
        assert rank_defect(bad) == "entries must be non-negative integers", bad
    assert rank_defect((4, 2, 0)) == "need n+1 = 5 entries for r(0) = 4, got 3"
    assert rank_defect((4, 2, 3, 0, 0)) == "not weakly decreasing"
    assert rank_defect((4, 3, 0, 0, 0)) == "not convex"      # 4 + 0 < 2 * 3
    assert rank_defect((0,)) is None
    assert rank_defect((4, 2, 0, 0, 0)) is None
    assert rank_defect((5, 3, 1, 0, 0, 0)) is None


def test_rank_function_rejects_invalid():
    with pytest.raises(InvalidRankFunction):
        RankFunction((4, 3, 0, 0, 0))
    with pytest.raises(InvalidRankFunction):
        RankFunction((3, 1, 0))
    with pytest.raises(InvalidRankFunction):
        RankFunction((True, False))


def test_validity_equals_realizability_exhaustive():
    """A stored window is valid iff some class of that size produces it,
    and distinct classes produce distinct windows."""
    for n in range(1, 9):
        realizable = realizable_sequences(n)
        class_count = sum(count_partitions(n - q) for q in range(n + 1))
        assert len(realizable) == class_count
        valid_seen = 0
        nilpotent_seen = 0
        for seq in decreasing_windows(n):
            valid = rank_defect(seq) is None
            assert valid == (seq in realizable), seq
            if valid:
                valid_seen += 1
                if seq[-1] == 0:
                    nilpotent_seen += 1
                back = class_rank(rank_to_class(RankFunction(seq)))
                assert back.values == seq
        assert valid_seen == class_count
        assert nilpotent_seen == count_partitions(n)


@given(nonempty_partitions, st.integers(0, 3))
def test_rank_functions_stay_constant_once_flat(p, q):
    r = class_rank(MatrixClass(p, q))
    values = r.values
    for m in range(len(values) - 1):
        if values[m] == values[m + 1]:
            assert len(set(values[m:])) == 1
            break


def test_dominates_examples():
    r_a = partition_to_rank(Partition((2, 1, 1, 1, 1, 1, 1)))
    r_b = partition_to_rank(Partition((3, 1, 1, 1, 1, 1)))
    assert dominates(r_a, r_b)
    assert not dominates(r_b, r_a)
    r_c = partition_to_rank(Partition((2, 2, 1, 1, 1, 1)))
    assert dominates(r_c, r_b)
    assert not dominates(r_b, r_c)


def test_dominates_size_mismatch():
    with pytest.raises(ValueError):
        dominates(partition_to_rank(Partition((2,))),
                  partition_to_rank(Partition((2, 1))))


def test_dominance_duality_exhaustive():
    """Rank dominance is equivalent to the reversed partial-sum order on
    conjugates."""
    for n in range(1, 9):
        ps = list(partitions_of(n))
        for a in ps:
            ca = conjugate_parts(a.parts)
            for b in ps:
                cb = conjugate_parts(b.parts)
                width = max(len(ca), len(cb))
                by_conj = all(
                    sum(ca[:m + 1]) >= sum(cb[:m + 1]) for m in range(width))
                assert dominates(partition_to_rank(a), partition_to_rank(b)) == by_conj


def test_class_rank_examples():
    assert class_rank(MatrixClass(Partition((2, 1)), 1)).values == (4, 2, 1, 1, 1)
    assert class_rank(MatrixClass(Partition(()), 3)).values == (3, 3, 3, 3)
    assert class_rank(MatrixClass(Partition((1, 1, 1, 1)), 0)).values == (4, 0, 0, 0, 0)


def test_class_rank_round_trips_through_rank_to_class():
    for n in range(1, 8):
        for q in range(n + 1):
            for p in partitions_of(n - q):
                c = MatrixClass(p, q)
                assert rank_to_class(class_rank(c)) == c


@given(partitions_strategy, partitions_strategy)
def test_direct_sum_adds_rank_functions(p, a):
    """Pooling two partitions adds their rank functions away from power 0."""
    union = Partition(p.parts + a.parts)
    ru, rp, ra = partition_to_rank(union), partition_to_rank(p), partition_to_rank(a)
    assert ru.at(0) == p.n + a.n
    for m in range(1, union.n + 1):
        assert ru.at(m) == rp.at(m) + ra.at(m)


def test_nontrivial_blocks():
    assert nontrivial_blocks(Partition((3, 2, 2, 1, 1))) == (3, 2, 2)
    assert nontrivial_blocks(Partition((1, 1, 1))) == ()
    assert nontrivial_blocks(Partition(())) == ()


def test_matrix_class_validation():
    with pytest.raises(ValueError):
        MatrixClass(Partition((2,)), -1)
    for q in (True, False, 1.0, "1", None):
        with pytest.raises(ValueError):
            MatrixClass(Partition((2,)), q)
    c = MatrixClass(Partition((3, 1)), 2)
    assert c.size == 6
    assert not c.is_nilpotent
    assert MatrixClass(Partition((1, 1))).is_zero
    assert not MatrixClass(Partition((1, 1)), 1).is_zero


def test_partitions_of_order_and_counts():
    ps = list(partitions_of(4))
    assert [p.parts for p in ps] == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    for n in range(16):
        enumerated = sum(1 for _ in partitions_of(n))
        assert enumerated == count_partitions(n) == partition_count(n)
    assert partition_count(10) == 42
    assert partition_count(11) == 56


def test_partition_count_does_not_recurse():
    assert partition_count(1000) == 24061467864032622473692149727991
    assert partition_count(-1) == 0


def test_rank_function_at_extends_constant_tail():
    r = class_rank(MatrixClass(Partition((2,)), 1))
    assert r.values == (3, 2, 1, 1)
    assert r.at(17) == 1
    with pytest.raises(ValueError):
        r.at(-1)
