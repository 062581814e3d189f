"""Acceptance gate: the frozen results this package must reproduce.

Each test prints exactly one `[acceptance] <name>: PASS|FAIL` line so the
whole gate can be read off a plain pytest -s run.
"""

import functools
import random
import time
from fractions import Fraction

from rankfn import (
    ConvexTable,
    EquationSpec,
    FnTable,
    InvalidRankFunction,
    MatrixClass,
    Partition,
    RankFunction,
    SolutionTuple,
    check_solution,
    enumerate_sol,
    irreducible_components,
    partition_to_rank,
    partitions_of,
    rank_defect,
    rank_matrix,
    rank_to_partition,
    rm_leq,
    search_general,
    sol_capacity,
    solve_with_stable_ranks,
    solve_nilpotent,
)
from rankfn.oracle import verify_class_ranks

from helpers import plain_sum_structure, realizable_sequences


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapped():
            try:
                fn()
            except BaseException:
                print(f"[acceptance] {name}: FAIL", flush=True)
                raise
            print(f"[acceptance] {name}: PASS", flush=True)
        return wrapped
    return deco


def P(text):
    return Partition.parse(text)


@criterion("worked-solution-rank-matrix")
def test_worked_solution_rank_matrix():
    t0 = time.perf_counter()
    lhs = [P("2,2,1,1,1,1,1,1"), P("3,2,1,1,1,1,1")]
    rhs = solve_nilpotent(ConvexTable.identity(10), lhs)
    assert rhs == P("3,2,2,2,1")
    rows = rank_matrix(SolutionTuple.from_partitions(lhs, rhs)).rows
    shown = [
        (10, 2, 0, 0, 0, 0, 0, 0, 0, 0),
        (10, 3, 1, 0, 0, 0, 0, 0, 0, 0),
        (10, 5, 1, 0, 0, 0, 0, 0, 0, 0),
    ]
    assert [r.values for r in rows] == [row + (0,) for row in shown]
    assert time.perf_counter() - t0 < 1.0


@criterion("incomparable-solution-pair")
def test_incomparable_solution_pair():
    t0 = time.perf_counter()
    spec = EquationSpec(n=8, k=2, f=FnTable.identity(8), g=FnTable.identity(8))
    first = SolutionTuple.from_partitions(
        [P("2,1,1,1,1,1,1"), P("3,1,1,1,1,1")], P("3,2,1,1,1"))
    second = SolutionTuple.from_partitions(
        [P("2,2,1,1,1,1"), P("2,2,1,1,1,1")], P("2,2,2,2"))
    assert check_solution(spec, first)
    assert check_solution(spec, second)
    a, b = rank_matrix(first), rank_matrix(second)
    assert not rm_leq(a, b)
    assert not rm_leq(b, a)
    assert time.perf_counter() - t0 < 1.0


@criterion("closed-form-component-dimensions")
def test_closed_form_component_dimensions():
    t0 = time.perf_counter()
    for k in range(1, 6):
        even = irreducible_components(enumerate_sol(2 * k, k, ConvexTable.identity(2 * k)))
        assert [dim for _, dim in even] == [6 * k * k - 2 * k]
        odd = irreducible_components(
            enumerate_sol(2 * k + 1, k, ConvexTable.identity(2 * k + 1)))
        assert len(odd) == k
        assert all(dim == 6 * k * k + 8 * k - 2 for _, dim in odd)
    assert time.perf_counter() - t0 < 120.0


@criterion("closed-form-capacity")
def test_closed_form_capacity():
    for k in range(1, 6):
        cap = sol_capacity(2 * k, k, ConvexTable.identity(2 * k))
        assert cap == Fraction(3 * k * k - k)


@criterion("solver-criterion-completeness")
def test_solver_criterion_completeness():
    bad = 0
    for n in range(2, 9):
        nonzero = [p for p in partitions_of(n) if p.parts[0] >= 2]
        windows = {p: partition_to_rank(p) for p in partitions_of(n)}
        for f in (ConvexTable.identity(n), ConvexTable.squares(n)):
            for a in nonzero:
                for b in nonzero:
                    ra, rb = windows[a], windows[b]
                    matches = [
                        c for c, rc in windows.items()
                        if all(f(ra.at(m)) + f(rb.at(m)) == rc.at(m)
                               for m in range(1, n + 1))
                    ]
                    got = solve_nilpotent(f, [a, b])
                    if len(matches) > 1:
                        bad += 1
                    elif got is None and matches:
                        bad += 1
                    elif got is not None and matches != [got]:
                        bad += 1
    assert bad == 0


@criterion("matrix-engine-agreement")
def test_matrix_engine_agreement():
    t0 = time.perf_counter()
    report = verify_class_ranks(7, q_max=2, seeds=100)
    assert report["discrepancies"] == 0 and report["ok"]
    assert report["cases"] == 3 * sum(
        len(list(partitions_of(n))) for n in range(1, 8))
    assert report["checks"] == 101 * report["cases"]
    assert time.perf_counter() - t0 < 300.0


@criterion("window-bijection-and-rejection")
def test_window_bijection_and_rejection():
    for n in range(1, 11):
        ps = list(partitions_of(n))
        if n == 10:
            assert len(ps) == 42
        for p in ps:
            assert rank_to_partition(partition_to_rank(p)) == p
    for n in range(2, 8):
        for seq in realizable_sequences(n):
            if seq[-1] == 0:
                w = RankFunction(seq)
                assert partition_to_rank(rank_to_partition(w)).values == seq

    rng = random.Random(20260823)
    oracles = {n: realizable_sequences(n) for n in range(2, 8)}
    rejected = tried = 0
    while rejected < 1000:
        tried += 1
        assert tried < 20000
        n = rng.randint(2, 7)
        tail = [rng.randint(0, n) for _ in range(n)]
        if rng.random() < 0.5:
            tail.sort(reverse=True)
        seq = (n, *tail)
        valid = rank_defect(seq) is None
        assert valid == (seq in oracles[n]), seq
        if not valid:
            rejected += 1
            try:
                RankFunction(seq)
            except InvalidRankFunction:
                continue
            raise AssertionError(f"constructor accepted {seq}")


@criterion("stable-rank-structure")
def test_stable_rank_structure():
    def classes(n):
        out = []
        for q in range(min(2, n) + 1):
            for p in partitions_of(n - q):
                c = MatrixClass(p, q)
                if not c.is_zero:
                    out.append(c)
        return out

    def run(n, k):
        spec = EquationSpec(n=n, k=k, f=FnTable.identity(n), g=FnTable.identity(n))
        pool = classes(n)
        def rec(prefix):
            if len(prefix) == k:
                rhs = solve_with_stable_ranks(ConvexTable.identity(n), prefix)
                if rhs is not None:
                    sol = SolutionTuple(tuple(prefix), rhs)
                    assert check_solution(spec, sol), sol
                    assert plain_sum_structure(sol), sol
                return
            for c in pool:
                rec(prefix + [c])
        rec([])

    for n in range(2, 7):
        run(n, 2)
    for n in range(2, 6):
        run(n, 3)


@criterion("pythagorean-square-search")
def test_pythagorean_square_search():
    spec = EquationSpec(n=10, k=2, f=FnTable.squares(10), g=FnTable.squares(10))
    sols = search_general(spec)
    want = SolutionTuple.from_partitions(
        [P("2,2,2,1,1,1,1"), P("2,2,2,2,1,1")], P("2,2,2,2,2"))
    assert want in sols
    assert sols and all(check_solution(spec, s) for s in sols)
