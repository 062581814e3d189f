"""Equation validation, the convex-table solvers, and exhaustive search."""

import pytest

from rankfn import (
    BudgetExceeded,
    ConvexTable,
    EquationSpec,
    FnTable,
    InvalidTable,
    MatrixClass,
    Partition,
    SolutionTuple,
    check_solution,
    class_rank,
    nontrivial_blocks,
    partition_to_rank,
    partitions_of,
    rank_defect,
    search_general,
    solve_nilpotent,
    solve_with_stable_ranks,
)
from rankfn.equations import NotConvex, NotStrictlyIncreasing, NotZeroAtZero
from helpers import plain_sum_structure


def nonzero_partitions(n):
    return [p for p in partitions_of(n) if nontrivial_blocks(p)]


def id_spec(n, k, include_zero=False):
    return EquationSpec(n=n, k=k, f=FnTable.identity(n), g=FnTable.identity(n),
                       include_zero=include_zero)


# ---------------------------------------------------------------- tables

def test_convex_table_accepts_named_kinds():
    assert ConvexTable.identity(5).values == (0, 1, 2, 3, 4, 5)
    assert ConvexTable.squares(4).values == (0, 1, 4, 9, 16)
    assert ConvexTable((0, 2, 5, 9)).values == (0, 2, 5, 9)
    # a table is its values: a named one equals the literal one
    assert ConvexTable.squares(3) == ConvexTable((0, 1, 4, 9))
    assert FnTable.identity(2) == FnTable((0, 1, 2))


def test_convex_table_names_the_violated_condition():
    with pytest.raises(NotZeroAtZero):
        ConvexTable((1, 2, 3))
    with pytest.raises(NotStrictlyIncreasing):
        ConvexTable((0, 2, 2, 3))
    with pytest.raises(NotConvex):
        ConvexTable((0, 1, 5, 6))


def test_fn_table_is_unconstrained_beyond_shape():
    assert FnTable((0, 1, 1, 0)).values == (0, 1, 1, 0)
    with pytest.raises(InvalidTable):
        FnTable(())
    with pytest.raises(InvalidTable):
        FnTable((0, -1))
    for bad in ((0, True), (False, 1), (0, 1.0), (0, None)):
        with pytest.raises(InvalidTable):
            FnTable(bad)
        with pytest.raises(InvalidTable):
            ConvexTable(bad)


def test_equation_spec_validation():
    with pytest.raises(ValueError):
        id_spec(1, 2)
    with pytest.raises(ValueError):
        EquationSpec(n=4, k=0, f=FnTable.identity(4), g=FnTable.identity(4))
    with pytest.raises(InvalidTable):
        EquationSpec(n=6, k=2, f=FnTable.identity(4), g=FnTable.identity(6))
    spec = EquationSpec(n=4, k=2, f=FnTable.squares(4), g=FnTable.identity(4))
    assert list(spec.points()) == [1, 2, 3, 4]
    assert list(id_spec(3, 2, include_zero=True).points()) == [0, 1, 2, 3]


# ---------------------------------------------------------------- tuples

def test_solution_tuple_validation():
    a = MatrixClass(Partition((2, 1)))
    with pytest.raises(ValueError):
        SolutionTuple((), a)
    with pytest.raises(ValueError):
        SolutionTuple((a,), MatrixClass(Partition((2,))))      # size mismatch
    with pytest.raises(ValueError):
        SolutionTuple((MatrixClass(Partition((1, 1, 1))),), a)  # zero class


# ---------------------------------------------------------------- checking

def test_check_solution_worked_example():
    spec = id_spec(10, 2)
    good = SolutionTuple.from_partitions(
        [Partition((2, 2, 1, 1, 1, 1, 1, 1)), Partition((3, 2, 1, 1, 1, 1, 1))],
        Partition((3, 2, 2, 2, 1)))
    assert check_solution(spec, good)
    tampered = SolutionTuple.from_partitions(
        [Partition((2, 2, 1, 1, 1, 1, 1, 1)), Partition((3, 2, 1, 1, 1, 1, 1))],
        Partition((2, 2, 2, 2, 2)))
    assert not check_solution(spec, tampered)


def test_check_solution_with_stable_ranks():
    spec = id_spec(4, 2)
    sol = SolutionTuple(
        (MatrixClass(Partition((2, 1)), 1), MatrixClass(Partition((1, 1, 1)), 1)),
        MatrixClass(Partition((2,)), 2))
    assert check_solution(spec, sol)


def test_check_solution_include_zero_rejects_plain_sum():
    # at power 0 the left side contributes k * n, never n, so any identity
    # solution that holds on 1..n must fail once 0 joins the window
    sol = SolutionTuple.from_partitions(
        [Partition((2, 1, 1)), Partition((2, 1, 1))], Partition((2, 2)))
    assert check_solution(id_spec(4, 2), sol)
    assert not check_solution(id_spec(4, 2, include_zero=True), sol)


def test_check_solution_mismatches_raise():
    spec = id_spec(6, 2)
    sol = SolutionTuple.from_partitions(
        [Partition((2, 1, 1)), Partition((2, 1, 1))], Partition((2, 2)))
    with pytest.raises(ValueError):
        check_solution(spec, sol)
    sol10 = SolutionTuple.from_partitions([Partition((2,) * 5)], Partition((2,) * 5))
    with pytest.raises(ValueError):
        check_solution(id_spec(10, 2), sol10)


# ---------------------------------------------------------------- solving

def test_solve_nilpotent_worked_examples():
    f10 = ConvexTable.identity(10)
    assert solve_nilpotent(f10, [Partition((2, 2, 1, 1, 1, 1, 1, 1)),
                                 Partition((3, 2, 1, 1, 1, 1, 1))]) == \
        Partition((3, 2, 2, 2, 1))
    f4 = ConvexTable.identity(4)
    assert solve_nilpotent(f4, [Partition((2, 2)), Partition((2, 2))]) is None
    f8 = ConvexTable.identity(8)
    assert solve_nilpotent(f8, [Partition((2, 2, 1, 1, 1, 1)),
                                Partition((2, 2, 1, 1, 1, 1))]) == \
        Partition((2, 2, 2, 2))


def test_solve_nilpotent_input_validation():
    f = ConvexTable.identity(6)
    with pytest.raises(ValueError):
        solve_nilpotent(f, [])
    with pytest.raises(ValueError):
        solve_nilpotent(f, [Partition((2, 1)), Partition((2, 2))])
    with pytest.raises(ValueError):
        solve_nilpotent(f, [Partition((1, 1, 1)), Partition((2, 1))])
    with pytest.raises(InvalidTable):
        solve_nilpotent(ConvexTable.identity(3), [Partition((3, 2)), Partition((3, 2))])


def test_solve_condition_matches_validity_and_brute_force():
    """The solvability inequality, validity of the assembled window, and an
    exhaustive scan over right-hand partitions agree pairwise."""
    for n in range(2, 8):
        cand = nonzero_partitions(n)
        every = list(partitions_of(n))
        rank_vecs = {b: [partition_to_rank(b).at(m) for m in range(1, n + 1)]
                     for b in every}
        for f in (ConvexTable.identity(n), ConvexTable.squares(n)):
            for p1 in cand:
                r1 = partition_to_rank(p1)
                for p2 in cand:
                    r2 = partition_to_rank(p2)
                    target = [f(r1.at(m)) + f(r2.at(m)) for m in range(1, n + 1)]
                    window = (n, *target)
                    cond = 2 * target[0] - target[1] <= n
                    assert cond == (rank_defect(window) is None)
                    got = solve_nilpotent(f, [p1, p2])
                    matches = [b for b in every if rank_vecs[b] == target]
                    if cond:
                        assert got is not None and matches == [got]
                    else:
                        assert got is None and not matches


def test_solve_soundness_via_check():
    for n in range(2, 8):
        for f in (ConvexTable.identity(n), ConvexTable.squares(n)):
            spec = EquationSpec(n=n, k=2, f=FnTable(f.values),
                                g=FnTable.identity(n))
            for p1 in nonzero_partitions(n):
                for p2 in nonzero_partitions(n):
                    b = solve_nilpotent(f, [p1, p2])
                    if b is not None:
                        sol = SolutionTuple.from_partitions([p1, p2], b)
                        assert check_solution(spec, sol)


def test_solve_with_stable_ranks_worked_example():
    out = solve_with_stable_ranks(
        ConvexTable.identity(4),
        [MatrixClass(Partition((2, 1)), 1), MatrixClass(Partition((1, 1, 1)), 1)])
    assert out == MatrixClass(Partition((2,)), 2)


def test_solve_with_stable_ranks_requires_two_classes():
    with pytest.raises(ValueError):
        solve_with_stable_ranks(ConvexTable.squares(6),
                                [MatrixClass(Partition((1, 1, 1, 1)), 2)])


def test_solve_with_stable_ranks_reduces_to_nilpotent():
    for n in range(2, 9):
        f = ConvexTable.identity(n)
        for p1 in nonzero_partitions(n):
            for p2 in nonzero_partitions(n):
                via_classes = solve_with_stable_ranks(
                    f, [MatrixClass(p1), MatrixClass(p2)])
                via_parts = solve_nilpotent(f, [p1, p2])
                if via_parts is None:
                    assert via_classes is None
                else:
                    assert via_classes == MatrixClass(via_parts)


def test_solve_with_stable_ranks_none_when_tail_exceeds_n():
    """A transformed stable-rank sum above n always fails the criterion;
    otherwise a solution's stable rank is that sum."""
    for n in range(2, 6):
        classes = [MatrixClass(p, q)
                   for q in range(n + 1) for p in partitions_of(n - q)]
        classes = [c for c in classes if not c.is_zero]
        for f in (ConvexTable.identity(n), ConvexTable.squares(n)):
            for c1 in classes:
                for c2 in classes:
                    out = solve_with_stable_ranks(f, [c1, c2])
                    if f(c1.q) + f(c2.q) > n:
                        assert out is None
                    elif out is not None:
                        assert out.q == f(c1.q) + f(c2.q)


def test_plain_sum_structure():
    """The helper behind the stable-rank-structure gate rejects a tampered B."""
    mixed = SolutionTuple(
        (MatrixClass(Partition((2, 1)), 1), MatrixClass(Partition((1, 1, 1)), 1)),
        MatrixClass(Partition((2,)), 2))
    assert plain_sum_structure(mixed)
    tampered = SolutionTuple(
        (MatrixClass(Partition((2, 1)), 1), MatrixClass(Partition((1, 1, 1)), 1)),
        MatrixClass(Partition((2, 1)), 1))
    assert not plain_sum_structure(tampered)
    nilpotent = SolutionTuple.from_partitions(
        [Partition((2, 2, 1, 1, 1, 1, 1, 1)), Partition((3, 2, 1, 1, 1, 1, 1))],
        Partition((3, 2, 2, 2, 1)))
    assert plain_sum_structure(nilpotent)


# ---------------------------------------------------------------- search

def test_search_general_agrees_with_solver_for_identity():
    for n in range(2, 7):
        spec = id_spec(n, 2)
        found = {(tuple(c.nilp.parts for c in s.lhs), s.rhs.nilp.parts)
                 for s in search_general(spec)}
        expected = set()
        for p1 in nonzero_partitions(n):
            for p2 in nonzero_partitions(n):
                b = solve_nilpotent(ConvexTable.identity(n), [p1, p2])
                if b is not None:
                    expected.add(((p1.parts, p2.parts), b.parts))
        assert found == expected


def test_search_squares_empty_at_n4():
    spec = EquationSpec(n=4, k=2, f=FnTable.squares(4), g=FnTable.squares(4))
    assert search_general(spec) == []


def test_search_finds_pythagorean_tuple():
    spec = EquationSpec(n=10, k=2, f=FnTable.squares(10), g=FnTable.squares(10))
    out = search_general(spec)
    wanted = SolutionTuple.from_partitions(
        [Partition((2, 2, 2, 1, 1, 1, 1)), Partition((2, 2, 2, 2, 1, 1))],
        Partition((2, 2, 2, 2, 2)))
    assert wanted in out
    assert all(check_solution(spec, s) for s in out)


def test_search_is_sorted_and_deterministic():
    spec = EquationSpec(n=8, k=2, f=FnTable.squares(8), g=FnTable.squares(8))
    assert search_general(spec) == search_general(spec)
    # no final sort: the order comes from the walk, so check it past the golden grid
    for n in (8, 9, 10):
        for values in (range(n + 1), [i * i for i in range(n + 1)],
                       [i * (i + 1) // 2 for i in range(n + 1)]):
            f = FnTable(tuple(values))
            for k in (1, 2, 3):
                out = search_general(EquationSpec(n=n, k=k, f=f, g=f), budget=10**7)
                keys = [tuple(c.nilp.parts for c in s.lhs) + (s.rhs.nilp.parts,) for s in out]
                assert keys and all(a < b for a, b in zip(keys, keys[1:])), (n, k, values)


def test_search_budget_is_enforced():
    spec = id_spec(8, 2)
    with pytest.raises(BudgetExceeded):
        search_general(spec, budget=100)
