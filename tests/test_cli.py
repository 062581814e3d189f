"""Command-line surface: frozen outputs, schemas, determinism, exit codes."""

import argparse
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from helpers import all_pairs_maxima, orbit_dimension_by_conjugate
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from rankfn import (
    ConvexTable,
    Partition,
    RankFunction,
    cli,
    geometry,
    rank_to_partition,
)
from rankfn.cli import main

SCHEMAS = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "cli_schemas.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def validate(verb, doc):
    schema = {"$defs": SCHEMAS["$defs"], **SCHEMAS["verbs"][verb]}
    Draft202012Validator(schema).validate(doc)


# ---------------------------------------------------------------- frozen output

def test_rank_verb(capsys):
    doc = run_json(capsys, "rank", "--jp", "3,2,2,2,1")
    assert doc == [10, 5, 1, 0, 0, 0, 0, 0, 0, 0, 0]
    doc = run_json(capsys, "rank", "--jp", "2,1", "--q", "1")
    assert doc == [4, 2, 1, 1, 1]


def test_unrank_verb(capsys):
    assert run_json(capsys, "unrank", "--values", "4,2,1,1,1") == {
        "nilp": [2, 1], "q": 1}
    assert run_json(capsys, "unrank", "--values", "4,1,0,0,0") == {
        "nilp": [2, 1, 1], "q": 0}
    assert run_json(capsys, "unrank", "--values", "6,4,3,2,2,2,2") == {
        "nilp": [3, 1], "q": 2}


def test_rank_unrank_round_trip(capsys):
    for jp, q in [("3,2,1", 0), ("4,4", 1), ("1,1,1", 2), ("5", 0)]:
        values = run_json(capsys, "rank", "--jp", jp, "--q", str(q))
        back = run_json(capsys, "unrank", "--values",
                        ",".join(str(v) for v in values))
        assert back == {"nilp": [int(t) for t in jp.split(",")], "q": q}


def test_dominates_verb(capsys):
    assert run_json(capsys, "dominates", "--a", "2,2,1,1,1,1",
                    "--b", "3,2,1,1,1")["dominates"] is True
    assert run_json(capsys, "dominates", "--a", "4,1,1", "--b", "3,3")[
        "dominates"] is False


def test_solve_verb_worked_example(capsys):
    doc = run_json(capsys, "solve", "--n", "10",
                   "--jp", "2,2,1,1,1,1,1,1", "--jp", "3,2,1,1,1,1,1")
    assert doc == {"rhs": [3, 2, 2, 2, 1]}


def test_solve_verb_unsolvable_gives_null(capsys):
    doc = run_json(capsys, "solve", "--n", "4", "--jp", "4", "--jp", "4")
    assert doc == {"rhs": None}


def test_solve_stable_verb(capsys):
    doc = run_json(capsys, "solve-stable", "--n", "6",
                   "--cls", "2,1,1,1:1", "--cls", "2,1,1,1:1")
    assert doc == {"rhs": {"nilp": [2, 2], "q": 2}}


def test_check_verb(capsys):
    good = run_json(capsys, "check", "--n", "10",
                    "--cls", "2,2,1,1,1,1,1,1", "--cls", "3,2,1,1,1,1,1",
                    "--rhs", "3,2,2,2,1")
    assert good == {"holds": True}
    bad = run_json(capsys, "check", "--n", "10",
                   "--cls", "2,2,1,1,1,1,1,1", "--cls", "3,2,1,1,1,1,1",
                   "--rhs", "4,2,2,1,1")
    assert bad == {"holds": False}


def test_components_verb_frozen(capsys):
    doc = run_json(capsys, "components", "--n", "5", "--k", "2")
    assert doc["count"] == 2
    assert doc["dimensions"] == [38, 38]
    assert doc["capacity"] == "19"
    assert doc["irreducible"] is False
    assert run_json(capsys, "components", "--n", "4", "--k", "2")["components"] == [{
        "max_rm": [[4, 1, 0, 0, 0], [4, 1, 0, 0, 0], [4, 2, 0, 0, 0]],
        "dimension": 20,
        "capacity": "10",
    }]


@pytest.mark.parametrize("n", range(2, 8))
def test_components_agrees_with_capacity_verb(n, capsys):
    for k in (1, 2, 3):
        for f in ("id", "square"):
            flags = ["--n", str(n), "--k", str(k), "--f", f]
            doc = run_json(capsys, "components", *flags)
            assert doc["capacity"] == run_json(capsys, "capacity", *flags)["capacity"]
            assert doc["irreducible"] == (doc["count"] == 1)
            # each component's dimension is its maximal matrix's, its capacity half that
            assert doc["dimensions"] == [c["dimension"] for c in doc["components"]]
            for comp in doc["components"]:
                assert comp["dimension"] == sum(
                    orbit_dimension_by_conjugate(rank_to_partition(RankFunction(tuple(row))).parts)
                    for row in comp["max_rm"])
                assert comp["capacity"] == str(Fraction(comp["dimension"], 2))


def test_capacity_verb(capsys):
    assert run_json(capsys, "capacity", "--n", "4", "--k", "2") == {"capacity": "10"}
    assert run_json(capsys, "capacity", "--n", "2", "--k", "2") == {"capacity": "-inf"}


def test_dominating_tuple_verb(capsys):
    doc = run_json(capsys, "dominating-tuple", "--n", "5", "--k", "2")
    assert doc == {
        "partitions": [[3, 1, 1], [3, 1, 1], [3, 2]],
        "full_block": [False, False, False],
        "capacity_upper_bound": "22",
    }


def test_dominating_tuple_derives_full_block_flags(capsys):
    """full_block marks the single-block coordinates, and the bound is half
    the summed orbit dimensions of the partitions."""
    assert run_json(capsys, "dominating-tuple", "--n", "4", "--k", "1") == {
        "partitions": [[4], [4]],
        "full_block": [True, True],
        "capacity_upper_bound": "12",
    }
    flags = set()
    for n in range(4, 8):
        for f in ("id", "square", "table:0,2,5,9,14,20,27,35"):
            doc = run_json(capsys, "dominating-tuple", "--n", str(n), "--k", "1", "--f", f)
            parts = [Partition(tuple(p)) for p in doc["partitions"]]
            assert doc["full_block"] == [len(p.parts) == 1 for p in parts]
            assert doc["capacity_upper_bound"] == str(
                Fraction(sum(orbit_dimension_by_conjugate(p.parts) for p in parts), 2))
            flags.update(doc["full_block"])
    assert flags == {True, False}


@pytest.mark.parametrize("n", range(10, 13))
def test_geometry_verbs_agree_with_all_pairs_route(n, capsys):
    """components, capacity and dominating-tuple past the golden grid (which
    stops at n = 8), against the maxima of every pair of full rank rows, the
    join of every row and orbit dimensions from conjugate parts."""
    for k in range(1, 5):
        for f in ("id", "square"):
            flags = ["--n", str(n), "--k", str(k), "--f", f]
            table = ConvexTable.identity(n) if f == "id" else ConvexTable.squares(n)
            s = geometry.enumerate_sol(n, k, table)
            rows = [[list(r.values) for r in rm.rows] for rm in s.rank_matrices]
            tops = all_pairs_maxima(rows)
            dims = [sum(orbit_dimension_by_conjugate(c.nilp.parts)
                        for c in (*s.tuples[i].lhs, s.tuples[i].rhs)) for i in tops]
            capacity = str(Fraction(max(dims), 2))  # every set on this grid is nonempty
            assert run_json(capsys, "components", *flags) == {
                "count": len(tops),
                "dimensions": dims,
                "capacity": capacity,
                "irreducible": len(tops) == 1,
                "components": [
                    {"max_rm": rows[i], "dimension": dim, "capacity": str(Fraction(dim, 2))}
                    for i, dim in zip(tops, dims)],
            }
            assert run_json(capsys, "capacity", *flags) == {"capacity": capacity}
            doc = run_json(capsys, "dominating-tuple", *flags)
            join = [[max(entry) for entry in zip(*col)] for col in zip(*rows)]
            # r(m) counts the boxes right of column m, block by block
            assert [[sum(max(part - m, 0) for part in p) for m in range(n + 1)]
                    for p in doc["partitions"]] == join
            assert doc["full_block"] == [len(p) == 1 for p in doc["partitions"]]
            assert doc["capacity_upper_bound"] == str(Fraction(
                sum(orbit_dimension_by_conjugate(p) for p in doc["partitions"]), 2))


def test_hasse_verb_emits_dot(capsys):
    code, out, err = run(capsys, "hasse", "--n", "3")
    assert code == 0
    assert out.startswith("digraph")
    assert '"2,1" -> "3"' in out


def test_oracle_verify_verb(capsys):
    doc = run_json(capsys, "oracle-verify", "--max-n", "3",
                   "--q-max", "1", "--seeds", "1")
    assert doc["ok"] is True
    assert doc["cases"] == 12 and doc["checks"] == 24
    assert "failures" not in doc


@pytest.mark.parametrize("bad_call", [9, 10])  # case 4's plain and first conjugated check
def test_oracle_verify_names_the_failing_case(bad_call, capsys, monkeypatch):
    """A wrong rank function on one call is reported as exactly one failure,
    whose recorded seeds rebuild the matrix that was checked."""
    import rankfn.oracle as oracle
    checked = []
    real = oracle.matrix_rank_function

    def flaky(m):
        checked.append(m)
        ranks = real(m)
        return ranks[:-1] + [ranks[-1] + 1] if len(checked) == bad_call + 1 else ranks

    monkeypatch.setattr(oracle, "matrix_rank_function", flaky)
    doc = run_json(capsys, "oracle-verify", "--max-n", "3", "--q-max", "1",
                   "--seeds", "2", "--seed", "5")
    validate("oracle-verify", doc)
    assert doc["discrepancies"] == 1 and doc["ok"] is False
    [failure] = doc["failures"]
    assert (failure["conjugate_seed"] is None) == (bad_call % 3 == 0)
    rebuilt = oracle.jordan_matrix(Partition(tuple(failure["parts"])), failure["q"],
                                   seed=failure["jordan_seed"])
    if failure["conjugate_seed"] is not None:
        rebuilt = oracle.random_conjugate(rebuilt, seed=failure["conjugate_seed"])
    assert rebuilt == checked[bad_call]


# ---------------------------------------------------------------- schemas

SCHEMA_COMMANDS = {
    "rank": ["rank", "--jp", "3,2"],
    "unrank": ["unrank", "--values", "5,2,1,1,1,1"],
    "dominates": ["dominates", "--a", "2,2", "--b", "3,1"],
    "solve": ["solve", "--n", "5", "--jp", "2,1,1,1", "--jp", "3,1,1"],
    "solve-stable": ["solve-stable", "--n", "6", "--cls", "2,1,1,1:1",
                     "--cls", "2,1,1,1:1"],
    "check": ["check", "--n", "4", "--cls", "2,1,1", "--cls", "2,1,1",
              "--rhs", "2,2"],
    "search": ["search", "--n", "4", "--k", "2", "--f", "square",
               "--g", "square"],
    "enumerate": ["enumerate", "--n", "5", "--k", "2"],
    "components": ["components", "--n", "5", "--k", "2"],
    "capacity": ["capacity", "--n", "5", "--k", "2"],
    "dominating-tuple": ["dominating-tuple", "--n", "5", "--k", "2"],
    "oracle-verify": ["oracle-verify", "--max-n", "3", "--q-max", "0",
                      "--seeds", "0"],
}


@pytest.mark.parametrize("verb", sorted(SCHEMA_COMMANDS))
def test_output_validates_against_published_schema(verb, capsys):
    validate(verb, run_json(capsys, *SCHEMA_COMMANDS[verb]))


def test_every_json_verb_has_a_schema():
    assert set(SCHEMA_COMMANDS) == set(SCHEMAS["verbs"])


def test_schema_rejects_malformed_documents():
    with pytest.raises(Exception):
        validate("rank", [5, "x"])
    with pytest.raises(Exception):
        validate("capacity", {"capacity": "nonsense"})


# ---------------------------------------------------------------- determinism

def cli_bytes(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "rankfn", *argv],
        capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_repeated_runs_are_byte_identical():
    args = ["enumerate", "--n", "6", "--k", "2"]
    assert cli_bytes(*args) == cli_bytes(*args)


# ---------------------------------------------------------------- exit codes

def test_error_exit_code_and_document(capsys):
    code, out, err = run(capsys, "rank", "--jp", "2,-1")
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "InvalidPartition" and doc["detail"]


def test_solve_size_mismatch_is_an_error(capsys):
    code, out, err = run(capsys, "solve", "--n", "10",
                         "--jp", "2,2,1,1,1,1,1,1", "--jp", "3,2,1,1,1")
    assert code == 1
    assert json.loads(err)["error"] == "ValueError"


def test_unrank_invalid_window_is_an_error(capsys):
    code, out, err = run(capsys, "unrank", "--values", "4,3,3,0,0")
    assert code == 1
    assert json.loads(err)["error"] == "InvalidRankFunction"


def test_budget_errors(capsys):
    code, _, err = run(capsys, "hasse", "--n", "21")
    assert code == 1 and json.loads(err)["error"] == "BudgetExceeded"
    code, _, err = run(capsys, "search", "--n", "8", "--k", "3",
                       "--budget", "10")
    assert code == 1 and json.loads(err)["error"] == "BudgetExceeded"


@pytest.mark.parametrize("argv", [
    ["hasse", "--n", "1000"],
    ["search", "--n", "1000", "--k", "1", "--budget", "10"],
    ["search", "--n", "3", "--k", "100000000", "--budget", "10"],
    ["search", "--n", "1000000", "--k", "1", "--budget", "1000000000000"],
    # over the size cap of the single-answer verbs
    ["solve", "--n", "1000000", "--jp", "999999,1"],
    ["solve-stable", "--n", "1000000", "--cls", "999999:1", "--cls", "999998,1:1"],
    ["check", "--n", "1000000", "--cls", "999999,1", "--rhs", "999999,1"],
    ["dominates", "--a", "3000000", "--b", "2999999,1"],
    # over the size cap of the solution-set verbs
    ["components", "--n", "3000000", "--k", "2", "--budget", "10"],
    # over the size cap: rank lists r on the whole window 0..n
    ["rank", "--jp", "400000000"],
    ["rank", "--jp", "2", "--q", "1000000000"],
    # k near n/2: few candidates fit, but the walk's visits pass the budget
    ["enumerate", "--n", "2000", "--k", "999"],
    ["components", "--n", "10000", "--k", "4999"],
])
def test_huge_requests_are_refused_in_a_fresh_process(argv):
    """Refused before p(n), a huge power, a table or a rank row on 0..n is
    computed, in a process with nothing cached."""
    proc = subprocess.run(
        [sys.executable, "-m", "rankfn", *argv], capture_output=True, timeout=60)
    assert proc.returncode == 1 and proc.stdout == b""
    assert b"Traceback" not in proc.stderr and proc.stderr.count(b"\n") == 1
    assert json.loads(proc.stderr)["error"] == "BudgetExceeded"


def test_deep_enumeration_finishes_in_a_fresh_process():
    """k = 1001 coordinates at n = 2k: one solution, found without recursing
    k deep, and the capacity is half the closed-form dimension 6k^2 - 2k."""
    proc = subprocess.run(
        [sys.executable, "-m", "rankfn", "capacity", "--n", "2002", "--k", "1001"],
        capture_output=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == b""
    assert json.loads(proc.stdout) == {"capacity": str(3 * 1001 ** 2 - 1001)}


def test_deep_dominating_tuple_finishes_in_a_fresh_process():
    """The same request for the dominating tuple: (2, 1, ..., 1) at every
    left-hand coordinate and B = (2, ..., 2), whose bound is the capacity."""
    proc = subprocess.run(
        [sys.executable, "-m", "rankfn", "dominating-tuple", "--n", "2002", "--k", "1001"],
        capture_output=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == b""
    assert json.loads(proc.stdout) == {
        "partitions": [[2] + [1] * 2000] * 1001 + [[2] * 1001],
        "full_block": [False] * 1002,
        "capacity_upper_bound": str(3 * 1001 ** 2 - 1001),
    }


@pytest.mark.parametrize("argv", [
    pytest.param(["search", "--n", "4000000", "--k", "1"], id="search"),
    pytest.param(["solve", "--n", "4000000", "--jp", "3999999,1"], id="solve"),
    pytest.param(["solve-stable", "--n", "4000000", "--cls", "3999999:1", "--cls", "2:3999998"],
                 id="solve-stable"),
    pytest.param(["check", "--n", "4000000", "--cls", "2:3999998", "--rhs", "2:3999998"],
                 id="check"),
    *(pytest.param([verb, "--n", "4000000", "--k", "2"], id=verb)
      for verb in ("enumerate", "components", "capacity", "dominating-tuple")),
])
def test_over_budget_search_is_refused_before_any_table(argv, capsys, monkeypatch):
    def no_tables(*args):
        raise AssertionError(f"a table was built for the over-budget {argv[0]}")

    monkeypatch.setattr(cli, "_parse_table", no_tables)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "BudgetExceeded"


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "30", "--k", "2", "--budget", "10"],
    ["capacity", "--n", "50", "--k", "3", "--budget", "1000"],
    # five states at the root, but more than 10^6 below it
    ["components", "--n", "2000", "--k", "999", "--budget", "1000000"],
])
def test_over_budget_enumeration_is_refused_before_any_partition(argv, capsys, monkeypatch):
    def no_partitions(*args):
        raise AssertionError(f"partitions were listed for {argv}")

    for lister in ("_class_members", "_partition_tuples"):
        monkeypatch.setattr(geometry, lister, no_partitions)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "BudgetExceeded", "detail":
                               f"enumeration visited more than {argv[-1]} states"}


@pytest.mark.parametrize("argv, error", [
    # over budget and malformed: the budget is checked first
    (["search", "--n", "4000000", "--k", "1", "--f", "cube"], "BudgetExceeded"),
    (["search", "--n", "50", "--k", "2", "--g", "table:0,1"], "BudgetExceeded"),
    # n < 2 or k < 1: the tables are parsed first, as before
    (["search", "--n", "1", "--k", "1", "--f", "cube"], "ValueError"),
    (["search", "--n", "4000000", "--k", "0", "--f", "cube"], "ValueError"),
    (["search", "--n", "-1", "--k", "1"], "InvalidTable"),
    (["search", "--n", "1", "--k", "1"], "ValueError"),
    (["search", "--n", "5", "--k", "0"], "ValueError"),
])
def test_search_error_precedence(argv, error, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("flags, error", [
    (["--max-n", "-3"], "ValueError"),
    (["--max-n", "0"], "ValueError"),
    (["--q-max", "-1"], "ValueError"),
    (["--seeds", "-5"], "ValueError"),
    (["--max-n", "13", "--q-max", "0", "--seeds", "0"], "BudgetExceeded"),
    (["--max-n", "1000000000"], "BudgetExceeded"),
    (["--max-n", "7", "--seeds", "1000"], "BudgetExceeded"),
])
def test_oracle_verify_refuses_before_work(capsys, flags, error):
    code, out, err = run(capsys, "oracle-verify", *flags)
    assert code == 1 and out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("verb", ["enumerate", "search"])
def test_workers_flag_is_a_usage_error(verb, capsys):
    """enumerate and search run in one process; --workers is no longer a flag."""
    with pytest.raises(SystemExit) as exc:
        main([verb, "--n", "6", "--k", "2", "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


SIZED = [("--n", True, None, int), ("--k", True, None, int), ("--f", False, "id", None),
         ("--budget", False, 10**6, int)]
CLI_SURFACE = {
    "rank": [("--jp", True, None, None), ("--q", False, 0, int)],
    "unrank": [("--values", True, None, None)],
    "dominates": [("--a", True, None, None), ("--b", True, None, None)],
    "solve": [("--n", True, None, int), ("--f", False, "id", None),
              ("--jp", True, None, None)],
    "solve-stable": [("--n", True, None, int), ("--f", False, "id", None),
                     ("--cls", True, None, None)],
    "check": [("--n", True, None, int), ("--f", False, "id", None),
              ("--g", False, "id", None), ("--cls", True, None, None),
              ("--rhs", True, None, None), ("--include-zero", False, False, None)],
    "search": [("--n", True, None, int), ("--k", True, None, int),
               ("--f", False, "id", None), ("--g", False, "id", None),
               ("--include-zero", False, False, None), ("--budget", False, 10**6, int)],
    "enumerate": SIZED,
    "components": SIZED,
    "capacity": SIZED,
    "dominating-tuple": SIZED,
    "hasse": [("--n", True, None, int)],
    "oracle-verify": [("--max-n", False, 5, int), ("--q-max", False, 2, int),
                      ("--seeds", False, 5, int), ("--seed", False, None, int)],
}


def test_cli_surface_is_pinned():
    """Each verb's flags, in order, with option strings, required, default
    and type: the structure behind --help, without argparse's wrapping."""
    verbs, = [a.choices for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    surface = {verb: [(*a.option_strings, a.required, a.default, a.type)
                      for a in p._actions if not isinstance(a, argparse._HelpAction)]
               for verb, p in verbs.items()}
    assert surface == CLI_SURFACE
    assert list(surface) == list(CLI_SURFACE)


def test_usage_errors_exit_2():
    for argv in [[], ["frobnicate"], ["rank"], ["solve", "--n", "4"]]:
        proc = subprocess.run(
            [sys.executable, "-m", "rankfn", *argv],
            capture_output=True, timeout=60)
        assert proc.returncode == 2, argv


# ---------------------------------------------------------------- seeding

def test_seed_defaults_to_zero_whatever_the_environment(capsys, monkeypatch):
    """--seed is the only seed setting: the environment is not read."""
    monkeypatch.setenv("RANKFN_SEED", "424242")
    doc = run_json(capsys, "oracle-verify", "--max-n", "2",
                   "--q-max", "0", "--seeds", "0")
    assert doc["seed"] == 0 and doc["ok"] is True
    monkeypatch.delenv("RANKFN_SEED")
    doc = run_json(capsys, "oracle-verify", "--max-n", "2",
                   "--q-max", "0", "--seeds", "0")
    assert doc["seed"] == 0


def test_malformed_seed_env_var(capsys, monkeypatch):
    """A malformed $RANKFN_SEED is ignored like any other value."""
    monkeypatch.setenv("RANKFN_SEED", "abc")
    assert run_json(capsys, "rank", "--jp", "2,1") == [3, 1, 0, 0]
    doc = run_json(capsys, "oracle-verify", "--max-n", "2",
                   "--q-max", "0", "--seeds", "0")
    assert doc["seed"] == 0 and doc["ok"] is True


def test_explicit_seed_flag_wins(capsys):
    doc = run_json(capsys, "oracle-verify", "--max-n", "2", "--q-max", "0",
                   "--seeds", "0", "--seed", "99")
    assert doc["seed"] == 99


# ---------------------------------------------------------------- fuzz

SIZES = st.integers(-2, 9)
ARITIES = st.integers(-1, 3)
PARTS = st.one_of(
    st.lists(st.integers(1, 4), max_size=5).map(lambda ps: ",".join(map(str, ps))),
    st.sampled_from(["", "3,,2", "2,-1", "0", "x", "1.5", " 2 , 1 ", "2;1"]))
CLASSES = st.one_of(
    PARTS,
    st.tuples(PARTS, st.integers(-1, 3)).map(lambda pq: f"{pq[0]}:{pq[1]}"),
    st.sampled_from([":", "2,1:x", ":2", "3:1:1"]))
VALUES = st.one_of(
    st.lists(st.integers(-1, 9), max_size=9).map(lambda vs: ",".join(map(str, vs))),
    st.sampled_from(["", "4,x", "3,2,,1", "2.0,1,0"]))
TABLES = st.one_of(
    st.sampled_from(["id", "square"]),
    # convex: increasing steps from 0
    st.lists(st.integers(1, 4), max_size=11).map(
        lambda steps: "table:" + ",".join(map(str, accumulate(sorted(steps), initial=0)))),
    st.lists(st.integers(0, 30), max_size=11).map(
        lambda vs: "table:" + ",".join(map(str, vs))),
    st.sampled_from(["cube", "table:", "table:0,1,x", "table:0,2,3"]))


def _flags(**opts):
    return [a for name, value in opts.items()
            for a in (f"--{name.replace('_', '-')}", str(value))]


def _repeated(name, texts):
    return [a for t in texts for a in (f"--{name}", t)]


def _size(text):
    """The n that a part or class list asks for, or 0 when it is malformed."""
    parts, _, q = text.partition(":")
    try:
        return sum(int(t) for t in parts.split(",") if t.strip()) + int(q or 0)
    except ValueError:
        return 0


@st.composite
def requests(draw):
    """argv for one verb, with sizes, arities and budgets small enough that
    every request finishes in milliseconds; one in five loses its first flag
    or gains an unknown one."""
    argv = draw(verb_requests())
    mangle = draw(st.sampled_from(["none"] * 8 + ["drop", "unknown"]))
    if mangle == "drop":
        return argv[:1] + argv[3:]
    if mangle == "unknown":
        return argv + ["--frobnicate"]
    return argv


@st.composite
def verb_requests(draw):
    verb = draw(st.sampled_from(sorted([*SCHEMA_COMMANDS, "hasse"])))
    n, k, budget = draw(SIZES), draw(ARITIES), draw(st.integers(-1, 2000))
    if verb == "rank":
        return [verb, "--jp", draw(PARTS), *_flags(q=draw(ARITIES))]
    if verb == "unrank":
        return [verb, "--values", draw(VALUES)]
    if verb == "dominates":
        return [verb, "--a", draw(PARTS), "--b", draw(PARTS)]
    if verb == "solve":
        jps = draw(st.lists(PARTS, min_size=1, max_size=3))
        n = draw(st.sampled_from([n, _size(jps[0])]))
        return [verb, *_flags(n=n, f=draw(TABLES)), *_repeated("jp", jps)]
    if verb in ("solve-stable", "check"):
        cls = draw(st.lists(CLASSES, min_size=1, max_size=3))
        n = draw(st.sampled_from([n, _size(cls[0])]))
        argv = [verb, *_flags(n=n, f=draw(TABLES)), *_repeated("cls", cls)]
        if verb == "check":
            argv += ["--g", draw(TABLES), "--rhs", draw(CLASSES)]
        return argv
    if verb == "hasse":
        return [verb, *_flags(n=n)]
    if verb == "oracle-verify":
        # q-max and seeds stay low: max n = 9 with q-max = 3 takes half a second
        return [verb, *_flags(max_n=n, q_max=draw(st.integers(-1, 1)),
                              seeds=draw(st.integers(-1, 0)), seed=budget)]
    if verb == "search":
        return [verb, *_flags(n=n, k=k, f=draw(TABLES), budget=budget, g=draw(TABLES))]
    # the solution-set walk refuses by its exact visit count, so sizes reach
    # n = 24 and k = n // 2 in milliseconds
    n = draw(st.integers(-2, 24))
    k = draw(st.integers(-1, max(3, n // 2)))
    return [verb, *_flags(n=n, k=k, f=draw(TABLES), budget=budget)]


@settings(max_examples=600, deadline=None)
@given(requests())
def test_fuzzed_requests_exit_0_1_or_2_with_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            code = 2
    assert code in (0, 1, 2), argv
    if code == 0:
        assert err.getvalue() == "", argv
    if code == 1:
        assert out.getvalue() == "", argv
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].endswith("\n"), argv
        doc = json.loads(lines[0])
        assert set(doc) == {"error", "detail"} and doc["detail"], argv
