"""Golden CLI outputs: exit code, stdout hash and error name per request.

``cli_golden.json`` was recorded from the program before its solvers and
geometry helpers were folded together; every later change must keep these
bytes.  To re-record after a deliberate output change, run

    PYTHONPATH=src python tests/test_cli_golden.py

and say in CHANGES.md which requests changed and why.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from rankfn.cli import main

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

GRID_VERBS = ("enumerate", "components", "capacity", "dominating-tuple", "search")
MALFORMED_F = ("cube", "table:0,1,x", "table:0,2,3", "table:")


def _triangular(n):
    return "table:" + ",".join(str(i * (i + 1) // 2) for i in range(n + 1))


def _grid(verb, ns, ks):
    return [[verb, "--n", str(n), "--k", str(k), "--f", f]
            for n in ns for k in ks for f in ("id", "square", _triangular(n))]


def requests():
    """Every verb of the solution-set grid at n = 2..8, k = 1..3, plus the
    other verbs and the refusals; then the grid at n = 9..12, k = 1..4 and
    the benchmark's fixed requests beyond it, up to n = 16."""
    out = []
    for verb in GRID_VERBS:
        out += _grid(verb, range(2, 9), (1, 2, 3))
        for n in (4, 8):
            for f in MALFORMED_F:
                out.append([verb, "--n", str(n), "--k", "2", "--f", f])
        out.append([verb, "--n", "1", "--k", "2"])
        out.append([verb, "--n", "5", "--k", "0"])
    for n in (4, 6, 8):
        out.append(["search", "--n", str(n), "--k", "2", "--f", "square", "--g", "square"])
        out.append(["search", "--n", str(n), "--k", "1", "--include-zero"])
        out.append(["search", "--n", str(n), "--k", "2", "--budget", "100"])
        out.append(["enumerate", "--n", str(n), "--k", "3", "--budget", "10"])
    for jp in (["2,1,1", "2,1,1"], ["4", "4"], ["3,1", "2,2", "2,1,1"], ["2,2", "3"]):
        out.append(["solve", "--n", "4", *[a for p in jp for a in ("--jp", p)]])
        out.append(["solve", "--n", "4", "--f", "square",
                    *[a for p in jp for a in ("--jp", p)]])
    out.append(["solve", "--n", "4", "--f", "cube", "--jp", "2,2"])
    for cls in (["2,1,1,1:1", "2,1,1,1:1"], ["2:3", "3,1:1"], ["5"], ["1,1,1,1,1", "2,1,1,1"]):
        out.append(["solve-stable", "--n", "5", *[a for c in cls for a in ("--cls", c)]])
        out.append(["solve-stable", "--n", "5", "--f", "square",
                    *[a for c in cls for a in ("--cls", c)]])
    for rhs in ("3,2,2,2,1", "4,2,2,1,1", "3,2,2,2:1"):
        out.append(["check", "--n", "10", "--cls", "2,2,1,1,1,1,1,1",
                    "--cls", "3,2,1,1,1,1,1", "--rhs", rhs])
    out.append(["check", "--n", "4", "--f", "square", "--g", "square",
                "--cls", "2,2", "--rhs", "2,2", "--include-zero"])
    for jp, q in (("3,2,1", "0"), ("2,1", "1"), ("2,-1", "0")):
        out.append(["rank", "--jp", jp, "--q", q])
    for values in ("4,2,1,1,1", "4,3,3,0,0", "4,x"):
        out.append(["unrank", "--values", values])
    out.append(["dominates", "--a", "2,2,1,1", "--b", "3,1,1,1"])
    out.append(["dominates", "--a", "4,1,1", "--b", "3,3"])
    for n in (0, 1, 2, 5, 8, 21):
        out.append(["hasse", "--n", str(n)])
    out.append(["oracle-verify", "--max-n", "3", "--q-max", "1", "--seeds", "1"])
    out.append(["oracle-verify", "--max-n", "13", "--q-max", "0", "--seeds", "0"])
    out.append(["oracle-verify", "--max-n", "-3"])
    for verb in GRID_VERBS:
        out += _grid(verb, range(9, 13), (1, 2, 3, 4))
    for n, k in ((13, 3), (15, 2), (13, 4)):
        out.append(["enumerate", "--n", str(n), "--k", str(k)])
    for n in (13, 14):
        out.append(["search", "--n", str(n), "--k", "2", "--f", "square", "--g", "square",
                    "--budget", "1000000000"])
    for n in (10, 11):
        out.append(["components", "--n", str(n), "--k", "5"])
    for n in (12, 16):
        out.append(["hasse", "--n", str(n)])
    return out


def outcome(argv):
    """(exit code, sha256 of stdout, error name or None) of one request."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    error = json.loads(err.getvalue())["error"] if code else None
    return {"argv": list(argv), "exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "error": error}


def test_cli_matches_golden_outputs():
    golden = json.loads(GOLDEN.read_text())
    assert [g["argv"] for g in golden] == requests()
    mismatched = [g["argv"] for g in golden if outcome(g["argv"]) != g]
    assert not mismatched, mismatched


def test_requests_in_one_process_stay_independent():
    """The parser is shared by every call in a process: a usage error and
    then the golden requests in reverse order give the same outcomes."""
    with redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
        main(["solve", "--n", "4"])
    assert exc.value.code == 2
    golden = json.loads(GOLDEN.read_text())
    mismatched = [g["argv"] for g in reversed(golden) if outcome(g["argv"]) != g]
    assert not mismatched, mismatched


if __name__ == "__main__":
    rows = (json.dumps(outcome(a)) for a in requests())
    GOLDEN.write_text("[\n" + ",\n".join(rows) + "\n]\n")
