"""Rank matrices, solution-set enumeration, components, capacity, Hasse export."""

import random
from fractions import Fraction
from itertools import accumulate

import pytest
from helpers import (
    all_pairs_maxima,
    enumeration_visits,
    has_greatest,
    orbit_dimension_by_conjugate,
    walk_best_dimension,
    walk_join,
)

from rankfn import (
    BudgetExceeded,
    ConvexTable,
    EquationSpec,
    FnTable,
    InvalidRankFunction,
    MatrixClass,
    Partition,
    RankMatrix,
    SolutionTuple,
    check_solution,
    class_rank,
    component_dimension,
    components_capacity,
    dominates,
    dominating_tuple,
    enumerate_sol,
    hasse_dot,
    irreducible_components,
    maximal_elements,
    nontrivial_blocks,
    partition_to_rank,
    partitions_of,
    rank_matrix,
    rank_to_partition,
    rm_leq,
    SolSet,
    sol_capacity,
    solve_nilpotent,
)
from rankfn import geometry


def worked_tuple_n10():
    return SolutionTuple.from_partitions(
        [Partition((2, 2, 1, 1, 1, 1, 1, 1)), Partition((3, 2, 1, 1, 1, 1, 1))],
        Partition((3, 2, 2, 2, 1)))


def worked_tuple_n10_above():
    return SolutionTuple.from_partitions(
        [Partition((4, 1, 1, 1, 1, 1, 1)), Partition((4, 2, 1, 1, 1, 1))],
        Partition((4, 4, 2)))


def parse_dot(dot):
    nodes, edges = set(), set()
    for line in dot.splitlines():
        line = line.strip()
        if line.endswith('";') and line.startswith('"') and "->" not in line:
            nodes.add(line[1:-2])
        elif "->" in line:
            a, b = line.rstrip(";").split("->")
            edges.add((a.strip().strip('"'), b.strip().strip('"')))
    return nodes, edges


# ---------------------------------------------------------------- matrices

def test_rank_matrix_worked_rows():
    rm = rank_matrix(worked_tuple_n10())
    assert [r.values for r in rm.rows] == [
        (10, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        (10, 3, 1, 0, 0, 0, 0, 0, 0, 0, 0),
        (10, 5, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    ]
    small = SolutionTuple.from_partitions(
        [Partition((2, 1, 1)), Partition((2, 1, 1))], Partition((2, 2)))
    assert [r.values for r in rank_matrix(small).rows] == [
        (4, 1, 0, 0, 0), (4, 1, 0, 0, 0), (4, 2, 0, 0, 0)]


def test_rank_matrix_requires_nilpotent_members():
    sol = SolutionTuple(
        (MatrixClass(Partition((2, 1)), 1), MatrixClass(Partition((1, 1, 1)), 1)),
        MatrixClass(Partition((2,)), 2))
    with pytest.raises(ValueError):
        rank_matrix(sol)


def test_rank_matrix_shape_validation():
    r4 = partition_to_rank(Partition((2, 2)))
    r5 = partition_to_rank(Partition((2, 2, 1)))
    with pytest.raises(ValueError):
        RankMatrix(())
    with pytest.raises(ValueError):
        RankMatrix((r4, r5))


def test_rm_leq_worked_examples():
    below = rank_matrix(worked_tuple_n10())
    above = rank_matrix(worked_tuple_n10_above())
    assert check_solution(
        EquationSpec(n=10, k=2, f=FnTable.identity(10), g=FnTable.identity(10)),
        worked_tuple_n10_above())
    assert rm_leq(below, above)
    assert not rm_leq(above, below)


def test_rm_leq_incomparable_pair_n8():
    spec = EquationSpec(n=8, k=2, f=FnTable.identity(8), g=FnTable.identity(8))
    first = SolutionTuple.from_partitions(
        [Partition((2, 1, 1, 1, 1, 1, 1)), Partition((3, 1, 1, 1, 1, 1))],
        Partition((3, 2, 1, 1, 1)))
    second = SolutionTuple.from_partitions(
        [Partition((2, 2, 1, 1, 1, 1)), Partition((2, 2, 1, 1, 1, 1))],
        Partition((2, 2, 2, 2)))
    assert check_solution(spec, first) and check_solution(spec, second)
    a, b = rank_matrix(first), rank_matrix(second)
    assert not rm_leq(a, b)
    assert not rm_leq(b, a)


def test_rm_leq_shape_mismatch_raises():
    a = rank_matrix(SolutionTuple.from_partitions(
        [Partition((2, 1, 1))], Partition((2, 1, 1))))
    b = rank_matrix(SolutionTuple.from_partitions(
        [Partition((2, 1, 1)), Partition((2, 1, 1))], Partition((2, 2))))
    with pytest.raises(ValueError):
        rm_leq(a, b)


def test_rm_leq_is_a_partial_order_on_enumerated_sets():
    for n, k in [(5, 2), (6, 2)]:
        rms = enumerate_sol(n, k, ConvexTable.identity(n)).rank_matrices
        for a in rms:
            assert rm_leq(a, a)
            for b in rms:
                if rm_leq(a, b) and rm_leq(b, a):
                    assert a == b
                for c in rms:
                    if rm_leq(a, b) and rm_leq(b, c):
                        assert rm_leq(a, c)


# ---------------------------------------------------------------- enumeration

def test_enumerate_sol_frozen_small_cases():
    s4 = enumerate_sol(4, 2, ConvexTable.identity(4))
    assert [tuple(str(c.nilp) for c in t.lhs) + (str(t.rhs.nilp),)
            for t in s4.tuples] == [("2,1,1", "2,1,1", "2,2")]
    s5 = enumerate_sol(5, 2, ConvexTable.identity(5))
    assert [tuple(str(c.nilp) for c in t.lhs) + (str(t.rhs.nilp),)
            for t in s5.tuples] == [
        ("2,1,1,1", "2,1,1,1", "2,2,1"),
        ("2,1,1,1", "3,1,1", "3,2"),
        ("3,1,1", "2,1,1,1", "3,2"),
    ]
    assert enumerate_sol(2, 2, ConvexTable.identity(2)).tuples == ()


def test_enumerate_sol_matches_naive_product():
    """The pruned walk finds exactly what the full k-fold product finds."""
    for n, k in [(4, 2), (5, 2), (6, 2), (7, 2), (4, 3), (5, 3), (6, 3)]:
        f = ConvexTable.identity(n)
        got = {tuple(c.nilp for c in t.lhs) for t in enumerate_sol(n, k, f).tuples}
        cand = [p for p in partitions_of(n) if nontrivial_blocks(p)]
        def naive(prefix):
            if len(prefix) == k:
                if solve_nilpotent(f, prefix) is not None:
                    expected.add(tuple(prefix))
                return
            for p in cand:
                naive(prefix + [p])
        expected = set()
        naive([])
        assert got == expected


def test_enumerate_sol_tuples_all_verify():
    for n, k in [(5, 2), (6, 3), (7, 2)]:
        f = ConvexTable.identity(n)
        spec = EquationSpec(n=n, k=k, f=FnTable.identity(n), g=FnTable.identity(n))
        s = enumerate_sol(n, k, f)
        assert all(check_solution(spec, t) for t in s.tuples)
        assert all(solve_nilpotent(f, [c.nilp for c in t.lhs]) == t.rhs.nilp
                   for t in s.tuples)


def test_enumerate_sol_with_square_table():
    s = enumerate_sol(8, 2, ConvexTable.squares(8))
    spec = EquationSpec(n=8, k=2, f=FnTable.squares(8), g=FnTable.identity(8))
    assert s.tuples and all(check_solution(spec, t) for t in s.tuples)


def test_enumerate_sol_rank_matrices_faithful():
    for n, k in [(5, 2), (6, 2), (7, 2)]:
        s = enumerate_sol(n, k, ConvexTable.identity(n))
        assert len(s.rank_matrices) == len(s.tuples)
        assert len(set(s.rank_matrices)) == len(s.rank_matrices)
        for t, rm in zip(s.tuples, s.rank_matrices):
            assert [rank_to_partition(row) for row in rm.rows] == [
                c.nilp for c in (*t.lhs, t.rhs)]


def test_geometry_reads_left_hand_tuples_only():
    """Components leave the solution tuples and full rank matrices unbuilt;
    built later, they follow lhs."""
    for n, k, f in [(7, 2, ConvexTable.identity(7)), (11, 4, ConvexTable.identity(11)),
                    (12, 3, ConvexTable.identity(12)), (12, 3, ConvexTable.squares(12))]:
        s = enumerate_sol(n, k, f)
        irreducible_components(s)
        assert "tuples" not in vars(s) and "rank_matrices" not in vars(s)
        assert len(s.tuples) == len(s.lhs)
        for i, t in enumerate(s.tuples):
            assert tuple(c.nilp for c in t.lhs) == s.lhs[i]


def test_enumerate_sol_deterministic_and_sorted():
    assert enumerate_sol(7, 2, ConvexTable.identity(7)) == enumerate_sol(
        7, 2, ConvexTable.identity(7))
    # no final sort: the order comes from the walk, so check it past the golden grid
    for n in (7, 9, 10):
        for values in (range(n + 1), [i * i for i in range(n + 1)],
                       [i * (i + 1) // 2 for i in range(n + 1)]):
            f = ConvexTable(tuple(values))
            for k in (1, 2, 3):
                keys = [tuple(c.nilp.parts for c in t.lhs) for t in enumerate_sol(n, k, f).tuples]
                assert keys and all(a < b for a, b in zip(keys, keys[1:])), (n, k, values)


def test_enumerate_sol_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_sol(9, 3, ConvexTable.identity(9), budget=3)


def test_enumerate_sol_budget_boundary():
    """A budget of exactly the walk's visited states is enough and one less
    is refused, so the refusal before any partition is listed never turns
    away a request the walk would finish."""
    for n in range(2, 15):
        for values in (range(n + 1), [i * i for i in range(n + 1)],
                       [i * (i + 1) // 2 for i in range(n + 1)],
                       [2 ** i - 1 for i in range(n + 1)]):
            f = ConvexTable(tuple(values))
            for k in range(1, n // 2 + 2):
                visits = enumeration_visits(n, k, f.values)
                enumerate_sol(n, k, f, budget=visits)
                with pytest.raises(BudgetExceeded,
                                   match=f"^enumeration visited more than {visits - 1} states$"):
                    enumerate_sol(n, k, f, budget=visits - 1)


# ---------------------------------------------------------------- components

def test_maximal_elements_n5():
    s = enumerate_sol(5, 2, ConvexTable.identity(5))
    maxima = maximal_elements(s)
    assert len(maxima) == 2
    for rm in s.rank_matrices:
        assert any(rm_leq(rm, z) for z in maxima)
    for a in maxima:
        for b in maxima:
            assert a == b or not rm_leq(a, b)


def triangular(n):
    return ConvexTable(tuple(i * (i + 1) // 2 for i in range(n + 1)))


def full_sets():
    """Enumerated sets for n = 4..9, k = 1..3, f = id, square and triangular."""
    for n in range(4, 10):
        for k in range(1, 4):
            for f in (ConvexTable.identity(n), ConvexTable.squares(n), triangular(n)):
                yield enumerate_sol(n, k, f)


def sweep_cases():
    """The full sets, each with a few seeded random subsets of its left-hand
    tuples (the empty one included)."""
    rng = random.Random(4)
    for s in full_sets():
        yield s
        lhs = list(s.lhs)
        for size in (0, min(1, len(lhs)), len(lhs) // 2):
            sub = tuple(sorted(rng.sample(lhs, size), key=lhs.index))
            yield SolSet(n=s.n, k=s.k, f=s.f, lhs=sub)


def plain_rows(s):
    """The set's rank matrices as nested lists, for the independent routes."""
    return [[list(r.values) for r in rm.rows] for rm in s.rank_matrices]


def test_maximal_elements_equals_all_pairs_filter():
    for s in sweep_cases():
        expected = [s.rank_matrices[i] for i in all_pairs_maxima(plain_rows(s))]
        assert maximal_elements(s) == expected


def test_one_component_iff_some_matrix_dominates_all():
    """A closure is irreducible iff it has one component, one maximal matrix."""
    seen = set()
    for s in sweep_cases():
        got = len(irreducible_components(s)) == 1
        assert got == has_greatest(plain_rows(s))
        seen.add(got)
    assert seen == {True, False}


def test_irreducible_components_frozen_small_cases():
    s4 = enumerate_sol(4, 2, ConvexTable.identity(4))
    assert irreducible_components(s4) == [(s4.rank_matrices[0], 20)]
    comps5 = irreducible_components(enumerate_sol(5, 2, ConvexTable.identity(5)))
    assert sorted(dim for _, dim in comps5) == [38, 38]


def test_component_derives_dimension_and_capacity():
    rm = rank_matrix(worked_tuple_n10())
    # rows (10,2,0..), (10,3,1,0..), (10,5,1,0..): 100 minus the squared rank drops
    assert component_dimension(rm) == 32 + 46 + 58
    assert components_capacity([136]) == Fraction(68)
    s = enumerate_sol(7, 2, ConvexTable.identity(7))
    assert irreducible_components(s) == [
        (top, component_dimension(top)) for top in maximal_elements(s)]


def test_component_maxima_round_trip():
    for n, k in [(5, 2), (6, 2), (7, 2)]:
        s = enumerate_sol(n, k, ConvexTable.identity(n))
        for top, _ in irreducible_components(s):
            down = [rm for rm in s.rank_matrices if rm_leq(rm, top)]
            tops = [rm for rm in down
                    if not any(rm != other and rm_leq(rm, other) for other in down)]
            assert tops == [top]


def test_empty_solution_set_has_no_components():
    s = enumerate_sol(2, 2, ConvexTable.identity(2))
    assert irreducible_components(s) == []
    assert sol_capacity(2, 2, ConvexTable.identity(2)) == float("-inf")


# ---------------------------------------------------------------- dimensions

def orbit_dimension(p):
    """The orbit dimension of one class: the dimension of its one-row matrix."""
    return component_dimension(RankMatrix((partition_to_rank(p),)))


def test_orbit_dimension_closed_forms():
    for k in range(1, 6):
        near_zero = Partition((2,) + (1,) * (2 * k - 2))
        assert orbit_dimension(near_zero) == 4 * k - 2
        chain = Partition((3,) + (2,) * (k - 1))
        assert orbit_dimension(chain) == 2 * k * k + 4 * k
    assert orbit_dimension(Partition((1,) * 6)) == 0
    assert orbit_dimension(Partition((6,))) == 30
    assert orbit_dimension(Partition((2, 1, 1))) == 6


def test_orbit_dimension_matches_conjugate_parts():
    for n in range(13):
        for p in partitions_of(n):
            assert orbit_dimension(p) == orbit_dimension_by_conjugate(p.parts)


def test_component_dimension_examples():
    s = enumerate_sol(4, 2, ConvexTable.identity(4))
    assert component_dimension(s.rank_matrices[0]) == 20
    zero_row = RankMatrix((partition_to_rank(Partition((1,) * 5)),))
    assert component_dimension(zero_row) == 0


def test_component_dimension_matches_conjugate_parts_on_maxima():
    """Rank drops against squared conjugate parts of the tuple's partitions,
    on every maximal matrix of the enumerated sets."""
    checked = 0
    for n in range(4, 10):
        for k in (1, 2, 3):
            for f in (ConvexTable.identity(n), ConvexTable.squares(n)):
                s = enumerate_sol(n, k, f)
                maxima = set(maximal_elements(s))
                for t, rm in zip(s.tuples, s.rank_matrices):
                    if rm in maxima:
                        rows = (*t.lhs, t.rhs)
                        assert component_dimension(rm) == sum(
                            orbit_dimension_by_conjugate(c.nilp.parts) for c in rows)
                        checked += 1
    assert checked == 64  # four of the 36 sets are empty (n = 4, 5 with k = 3)


def test_component_dimension_refuses_a_non_nilpotent_row():
    nilpotent = class_rank(MatrixClass(Partition((2, 1))))
    invertible_part = class_rank(MatrixClass(Partition((2,)), 1))
    for rows in ((invertible_part,), (nilpotent, invertible_part)):
        with pytest.raises(InvalidRankFunction):
            component_dimension(RankMatrix(rows))


def test_sol_capacity_frozen_small_cases():
    assert sol_capacity(4, 2, ConvexTable.identity(4)) == Fraction(10)
    assert sol_capacity(5, 2, ConvexTable.identity(5)) == Fraction(19)


def test_sol_capacity_equals_the_best_component_capacity():
    """sol_capacity finds no maxima; it agrees with the best dimension of
    the components of the full set."""
    empty = 0
    for s in full_sets():
        dims = [dim for _, dim in irreducible_components(s)]
        assert sol_capacity(s.n, s.k, s.f) == components_capacity(dims)
        if not s.lhs:
            assert sol_capacity(s.n, s.k, s.f) == float("-inf")
            empty += 1
    assert empty > 0


@pytest.mark.parametrize("f", [ConvexTable.identity(12), ConvexTable.squares(12)],
                         ids=["id", "square"])
def test_capacity_and_dominating_tuple_find_no_maxima(f, monkeypatch):
    """Neither finds maxima nor lists a solution: both answer with the
    walk, its solution sets and the maxima sweep made to raise."""
    s = enumerate_sol(12, 3, f)
    dims = [dim for _, dim in irreducible_components(s)]
    join = [tuple(max(entry) for entry in zip(*col)) for col in zip(*plain_rows(s))]

    def refuse(*args, **kwargs):
        raise AssertionError("solutions or maxima were listed")

    for name in ("maximal_elements", "enumerate_sol", "SolSet"):
        monkeypatch.setattr(geometry, name, refuse)
    assert sol_capacity(12, 3, f) == components_capacity(dims)
    parts, _ = dominating_tuple(12, 3, f)
    assert [partition_to_rank(p).values for p in parts] == join


def grid():
    """(n, k, f) for n = 2..16, k <= n // 2 + 1 and f = id, square and
    triangular: 237 equations, 45 of them with no solution."""
    for n in range(2, 17):
        for k in range(1, n // 2 + 2):
            for f in (ConvexTable.identity(n), ConvexTable.squares(n), triangular(n)):
                yield n, k, f


def test_capacity_and_dominating_tuple_match_the_walk():
    """Against every solution the walk lists: the best summed orbit
    dimension, and the join of the rows with B's summed block by block."""
    empty = 0
    for n, k, f in grid():
        lhs = enumerate_sol(n, k, f).lhs
        best = walk_best_dimension(n, f.values, lhs)
        if best is None:
            assert sol_capacity(n, k, f) == float("-inf")
            with pytest.raises(ValueError, match="^empty solution set has no dominating tuple$"):
                dominating_tuple(n, k, f)
            empty += 1
            continue
        assert sol_capacity(n, k, f) == Fraction(best, 2), (n, k, f)
        parts, bound = dominating_tuple(n, k, f)
        assert [partition_to_rank(p).values for p in parts] == walk_join(
            n, f.values, lhs), (n, k, f)
        assert bound == Fraction(
            sum(orbit_dimension_by_conjugate(p.parts) for p in parts), 2), (n, k, f)
    assert empty == 45


def test_capacity_and_dominating_tuple_budget_boundary():
    """The walk's visited states, counted as for enumerate_sol: exactly
    that budget answers and one less is refused with the same message,
    though neither function walks."""
    for n in range(2, 15):
        for values in (range(n + 1), [i * i for i in range(n + 1)],
                       [i * (i + 1) // 2 for i in range(n + 1)],
                       [2 ** i - 1 for i in range(n + 1)]):
            f = ConvexTable(tuple(values))
            for k in range(1, n // 2 + 2):
                visits = enumeration_visits(n, k, f.values)
                if sol_capacity(n, k, f, budget=visits) != float("-inf"):
                    dominating_tuple(n, k, f, budget=visits)
                for fn in (sol_capacity, dominating_tuple):
                    with pytest.raises(BudgetExceeded,
                                       match=f"^enumeration visited more than {visits - 1} states$"):
                        fn(n, k, f, budget=visits - 1)


def test_orbit_dimension_grows_strictly_along_dominance():
    """lambda strictly below mu in the dominance order has the smaller
    orbit, so the best solution's dimension is the best component's.
    Dominance is read off the partial sums of the parts."""
    pairs = 0
    for n in range(1, 11):
        parts = [p.parts for p in partitions_of(n)]
        sums = {p: list(accumulate(p + (0,) * (n - len(p)))) for p in parts}
        for lam in parts:
            for mu in parts:
                if lam != mu and all(a <= b for a, b in zip(sums[lam], sums[mu])):
                    assert orbit_dimension_by_conjugate(lam) < orbit_dimension_by_conjugate(mu)
                    pairs += 1
    assert pairs > 0


def test_capacity_is_the_best_of_unequal_components():
    s = enumerate_sol(9, 2, ConvexTable.identity(9))
    dims = [dim for _, dim in irreducible_components(s)]
    assert sorted(set(dims)) == [150, 156, 158]
    assert components_capacity(dims) == sol_capacity(9, 2, ConvexTable.identity(9)) == Fraction(79)
    assert components_capacity([]) == float("-inf")


# ---------------------------------------------------------------- bounds

def test_dominating_tuple_worked_example():
    f = ConvexTable.identity(5)
    parts, bound = dominating_tuple(5, 2, f)
    assert [p.parts for p in parts] == [(3, 1, 1), (3, 1, 1), (3, 2)]
    # orbit dimensions 14, 14 and 16
    assert bound == Fraction(22)
    assert bound >= sol_capacity(5, 2, f)


def test_dominating_tuple_is_least_upper_bound():
    """The dominating tuple's rows are the join of every rank matrix of the
    full set, and no smaller partition bounds a coordinate."""
    for s in full_sets():
        if not s.lhs:
            with pytest.raises(ValueError):
                dominating_tuple(s.n, s.k, s.f)
            continue
        parts, bound = dominating_tuple(s.n, s.k, s.f)
        assert bound >= sol_capacity(s.n, s.k, s.f)
        join = [tuple(max(entry) for entry in zip(*col)) for col in zip(*plain_rows(s))]
        assert [partition_to_rank(p).values for p in parts] == join
        every = [partition_to_rank(c) for c in partitions_of(s.n)]
        for i, bound in enumerate(map(partition_to_rank, parts)):
            rows = [rm.rows[i] for rm in s.rank_matrices]
            for rc in every:
                if all(dominates(row, rc) for row in rows):
                    assert dominates(bound, rc)


def test_dominating_tuple_full_block_flag():
    parts, bound = dominating_tuple(4, 1, ConvexTable.identity(4))
    assert [p.parts for p in parts] == [(4,), (4,)]
    # each full-block orbit has dimension n^2 - n = 12
    assert bound == Fraction(12)


def test_dominating_tuple_empty_raises():
    with pytest.raises(ValueError):
        dominating_tuple(2, 2, ConvexTable.identity(2))


# ---------------------------------------------------------------- hasse

def test_hasse_n3_is_a_chain():
    nodes, edges = parse_dot(hasse_dot(3))
    assert nodes == {"3", "2,1", "1,1,1"}
    assert edges == {("1,1,1", "2,1"), ("2,1", "3")}


def test_hasse_node_count_matches_partition_count():
    nodes, _ = parse_dot(hasse_dot(8))
    assert len(nodes) == 22


@pytest.mark.parametrize("n", range(1, 11))
def test_hasse_edges_are_exactly_the_covering_relations(n):
    nodes, edges = parse_dot(hasse_dot(n))
    ps = list(partitions_of(n))
    below = {
        (str(a), str(b))
        for a in ps for b in ps
        if a != b and dominates(partition_to_rank(a), partition_to_rank(b))
    }
    covers = {
        (a, b) for (a, b) in below
        if not any((a, c) in below and (c, b) in below for c in nodes)
    }
    assert edges == covers
    if n == 6:
        assert ("4,1,1", "3,3") not in below and ("3,3", "4,1,1") not in below


def test_hasse_budget_and_bounds():
    with pytest.raises(BudgetExceeded):
        hasse_dot(21)
    with pytest.raises(ValueError):
        hasse_dot(0)
    assert hasse_dot(1).startswith("digraph")
