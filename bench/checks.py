"""Independent checks of every op's output.

``check(op, code, out, err)`` raises ``Failed`` when the program did not
complete the op as it should (wrong exit code, a traceback) and ``Wrong``
when it completed it with a wrong answer.  The expected answers come from
``reference``, never from rankfn; where the program fixes no order, outputs
are compared as sets.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import reference as ref

SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "cli_schemas.json"


class Wrong(Exception):
    """The op completed with a wrong output."""


class Failed(Exception):
    """The op did not complete as it should have."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise Wrong(msg)


def flags(argv: list[str]) -> dict:
    """--name value pairs; repeated flags collect into a list."""
    out: dict = {}
    it = iter(argv[1:])
    for word in it:
        if word == "--include-zero":
            out["include-zero"] = True
            continue
        key = word[2:]
        value = next(it)
        if key in ("jp", "cls"):
            out.setdefault(key, []).append(value)
        else:
            out[key] = value
    return out


def parts(text: str) -> tuple[int, ...]:
    return tuple(sorted((int(t) for t in text.split(",") if t), reverse=True))


def klass(text: str) -> tuple[tuple[int, ...], int]:
    p, _, q = text.partition(":")
    return parts(p), int(q) if q.strip() else 0


@lru_cache(maxsize=None)
def required_keys(verb: str) -> tuple[str, ...]:
    schema = json.loads(SCHEMAS.read_text())["verbs"][verb]
    return tuple(schema.get("required", ()))


def check(op: dict, code: int, out: bytes, err: bytes) -> None:
    try:
        _check(op, code, out, err)
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise Wrong(f"malformed output ({type(exc).__name__}: {exc})") from None


def _check(op: dict, code: int, out: bytes, err: bytes) -> None:
    text = err.decode(errors="replace")
    if "Traceback" in text:
        raise Failed(f"traceback on stderr: {text[-300:]!r}")
    if "replay" in op:
        return check_replay(op["replay"], json.loads(out))
    argv = op["argv"]
    verb = argv[0]
    want = op.get("expect", 0)
    if want == 0 and verb == "dominating-tuple":
        f = flags(argv)
        if not ref.plain_solutions(int(f["n"]), int(f["k"]), f.get("f", "id")):
            want, op = 1, dict(op, error="ValueError")
    if code != want:
        raise Failed(f"exit code {code}, expected {want}; stderr {text[-300:]!r}")
    if want == 2:
        require(not out, "usage error wrote to stdout")
        require("usage:" in text, "usage error without a usage message")
        return
    if want == 1:
        require(not out, "refused request wrote to stdout")
        try:
            doc = json.loads(text)
        except ValueError:
            raise Wrong(f"stderr is not one JSON document: {text!r}") from None
        require(isinstance(doc, dict) and doc.get("error") == op["error"]
                and isinstance(doc.get("detail"), str),
                f"error document {doc!r} does not name {op['error']}")
        return
    require(not err, f"successful request wrote to stderr: {text!r}")
    if verb == "hasse":
        return check_hasse(int(flags(argv)["n"]), out.decode())
    doc = json.loads(out)
    keys = required_keys(verb)
    require(not keys or (isinstance(doc, dict) and all(k in doc for k in keys)),
            f"{verb} output lacks schema keys {keys}")
    VERBS[verb](flags(argv), doc)


# ------------------------------------------------------------ small verbs

def check_rank(f: dict, doc) -> None:
    require(doc == list(ref.rank_row(parts(f["jp"][0]), q=int(f.get("q", 0)))), f"rank {doc}")


def check_unrank(f: dict, doc) -> None:
    values = tuple(int(t) for t in f["values"].split(","))
    q = values[-1]
    want = {"nilp": list(ref.row_partition(tuple(v - q for v in values))), "q": q}
    require(doc == want, f"unrank {doc} != {want}")


def check_dominates(f: dict, doc) -> None:
    require(doc == {"dominates": ref.dominated(parts(f["a"]), parts(f["b"]))}, f"dominates {doc}")


def fsum_row(classes, n: int, fvals) -> tuple[int, ...]:
    rows = [ref.rank_row(p, q=q) for p, q in classes]
    return (n,) + tuple(sum(fvals[r[m]] for r in rows) for m in range(1, n + 1))


def is_class_row(row) -> bool:
    diffs = [row[m] - row[m + 1] for m in range(len(row) - 1)]
    return all(d >= 0 for d in diffs) and all(a >= b for a, b in zip(diffs, diffs[1:]))


def check_solve(f: dict, doc) -> None:
    n = int(f["n"])
    row = fsum_row([(parts(t), 0) for t in f["jp"]], n, ref.table(f.get("f", "id"), n))
    want = list(ref.row_partition(row)) if ref.is_nilpotent_row(row) else None
    require(doc == {"rhs": want}, f"solve {doc} != {want}")


def check_solve_stable(f: dict, doc) -> None:
    n = int(f["n"])
    row = fsum_row([klass(t) for t in f["cls"]], n, ref.table(f.get("f", "id"), n))
    want = None
    if is_class_row(row):
        q = row[-1]
        want = {"nilp": list(ref.row_partition(tuple(v - q for v in row))), "q": q}
    require(doc == {"rhs": want}, f"solve-stable {doc} != {want}")


def check_check(f: dict, doc) -> None:
    n = int(f["n"])
    fv, gv = ref.table(f.get("f", "id"), n), ref.table(f.get("g", "id"), n)
    rows = [ref.rank_row(p, q=q) for p, q in map(klass, f["cls"])]
    rhs, q = klass(f["rhs"])
    rb = ref.rank_row(rhs, q=q)
    start = 0 if f.get("include-zero") else 1
    holds = all(sum(fv[r[m]] for r in rows) == gv[rb[m]] for m in range(start, n + 1))
    require(doc == {"holds": holds}, f"check {doc} != {holds}")


# ---------------------------------------------------- equations, geometry

def tuple_key(sol: dict) -> tuple:
    require(all(c["q"] == 0 for c in sol["lhs"]) and sol["rhs"]["q"] == 0, "non-nilpotent class")
    return tuple(tuple(c["nilp"]) for c in sol["lhs"]), tuple(sol["rhs"]["nilp"])


def sorted_unique(keys: list, what: str) -> None:
    flat = [lhs + (rhs,) for lhs, rhs in keys]
    require(all(a < b for a, b in zip(flat, flat[1:])), f"{what} not in strict lexicographic order")


def check_search(f: dict, doc) -> None:
    n, k = int(f["n"]), int(f["k"])
    fs, gs = f.get("f", "id"), f.get("g", "id")
    require(doc["n"] == n and doc["k"] == k, "search echoes the wrong n or k")
    require(doc["f"] == ref.table_json(fs) and doc["g"] == ref.table_json(gs), "search tables")
    fv, gv = ref.table(fs, n), ref.table(gs, n)
    keys = [tuple_key(s) for s in doc["solutions"]]
    sorted_unique(keys, "search solutions")
    for lhs, rhs in keys:
        require(len(lhs) == k and all(sum(p) == n and p[0] >= 2 for p in lhs + (rhs,)),
                f"malformed solution {lhs} -> {rhs}")
        rows, rb = [ref.rank_row(p) for p in lhs], ref.rank_row(rhs)
        require(all(sum(fv[r[m]] for r in rows) == gv[rb[m]] for m in range(1, n + 1)),
                f"{lhs} -> {rhs} does not solve the equation")
    want = len(ref.search_solutions(n, k, fs, gs))
    require(doc["count"] == len(keys) == want, f"search count {doc['count']} != {want}")


def check_enumerate(f: dict, doc) -> None:
    n, k, fs = int(f["n"]), int(f["k"]), f.get("f", "id")
    require(doc["n"] == n and doc["k"] == k and doc["f"] == ref.table_json(fs), "enumerate header")
    sols = ref.plain_solutions(n, k, fs)
    keys = [tuple_key(s) for s in doc["tuples"]]
    sorted_unique(keys, "enumerate tuples")
    require(set(keys) == {(lhs, rhs) for lhs, rhs, _ in sols},
            f"enumerate tuple set differs: {len(keys)} reported, {len(sols)} expected")
    # one rank matrix per tuple (the bijection); the schema fixes no order
    matrices = {tuple(map(tuple, rm)) for rm in doc["rank_matrices"]}
    require(len(doc["rank_matrices"]) == len(keys) == len(matrices),
            "rank matrices are not one per tuple")
    require(matrices == {m for _, _, m in sols}, "rank matrix set differs")


def components_of(f: dict):
    n, k, fs = int(f["n"]), int(f["k"]), f.get("f", "id")
    mats = [m for _, _, m in ref.plain_solutions(n, k, fs)]
    return n, k, fs, mats, ref.maxima(mats)


def capacity_str(dims) -> str:
    return str(Fraction(max(dims), 2)) if dims else "-inf"


def check_components(f: dict, doc) -> None:
    n, k, fs, mats, tops = components_of(f)
    comps = doc["components"]
    got = [tuple(map(tuple, c["max_rm"])) for c in comps]
    require(len(set(got)) == len(got), "duplicate components")
    require(set(got) == tops, f"maxima differ: {len(got)} reported, {len(tops)} expected")
    for c, m in zip(comps, got):
        dim = sum(ref.row_dim(row) for row in m)
        require(c["dimension"] == dim, f"component dimension {c['dimension']} != {dim}")
        require(c["capacity"] == str(Fraction(dim, 2)), "component capacity != dimension / 2")
    dims = [sum(ref.row_dim(row) for row in m) for m in tops]
    require(doc["dimensions"] == [c["dimension"] for c in comps], "dimensions list")
    require(doc["count"] == len(tops), f"count {doc['count']} != {len(tops)}")
    require(doc["capacity"] == capacity_str(dims), f"capacity {doc['capacity']}")
    require(doc["irreducible"] == (len(tops) == 1), "irreducible flag")
    if fs == "id" and n in (2 * k, 2 * k + 1):
        want = ([6 * k * k - 2 * k] if n == 2 * k else [6 * k * k + 8 * k - 2] * k)
        require(sorted(doc["dimensions"]) == want, f"closed form: {doc['dimensions']} != {want}")


def check_capacity(f: dict, doc) -> None:
    _, _, _, _, tops = components_of(f)
    want = capacity_str([sum(ref.row_dim(row) for row in m) for m in tops])
    require(doc == {"capacity": want}, f"capacity {doc} != {want}")


def check_dominating_tuple(f: dict, doc) -> None:
    n, k, _, mats, tops = components_of(f)
    top = [tuple(max(m[i][j] for m in mats) for j in range(n + 1)) for i in range(k + 1)]
    want = [ref.row_partition(row) for row in top]
    require([tuple(p) for p in doc["partitions"]] == want, f"dominating tuple {doc['partitions']}")
    require(doc["full_block"] == [p == (n,) for p in want], "full_block flags")
    bound = Fraction(sum(ref.orbit_dim(p) for p in want), 2)
    require(doc["capacity_upper_bound"] == str(bound), "capacity upper bound")
    cap = max(sum(ref.row_dim(row) for row in m) for m in tops)
    require(bound >= Fraction(cap, 2), "bound below capacity")


def check_hasse(n: int, dot: str) -> None:
    lines = dot.splitlines()
    require(lines[:2] == [f"digraph dominance_{n} {{", "  rankdir=BT;"] and lines[-1] == "}",
            "hasse: DOT framing")
    nodes, edges = set(), set()
    for line in lines[2:-1]:
        body = line.strip().rstrip(";")
        if " -> " in body:
            a, b = body.split(" -> ")
            edges.add((parts(a.strip('"')), parts(b.strip('"'))))
        else:
            nodes.add(parts(body.strip('"')))
    require(nodes == set(ref.partitions(n)), "hasse: node set")
    require(edges == ref.hasse_covers(n), "hasse: edges are not the covering pairs")


# ---------------------------------------------------------------- oracle

def check_oracle_verify(f: dict, doc) -> None:
    max_n, q_max, seeds = int(f.get("max-n", 5)), int(f.get("q-max", 2)), int(f.get("seeds", 5))
    cases = (q_max + 1) * sum(ref.partition_count(n) for n in range(1, max_n + 1))
    want = {"max_n": max_n, "q_max": q_max, "seeds": seeds, "seed": int(f["seed"]),
            "cases": cases, "checks": (seeds + 1) * cases, "discrepancies": 0, "ok": True}
    require(doc == want, f"oracle-verify {doc} != {want}")


def check_replay(r: dict, doc) -> None:
    want = list(ref.rank_row(tuple(r["parts"]), q=r["q"]))
    require(doc["ranks"] == want, f"replay ranks {doc['ranks']} != {want}")
    require(doc["rank1"] == want[1], f"replay exact_rank {doc['rank1']} != {want[1]}")
    matrix = [[Fraction(e) for e in row] for row in doc["matrix"]]
    require(len(matrix) == want[0], "replay matrix size")
    require(ref.power_ranks(matrix) == want, "conjugate's power ranks differ from the class")


VERBS = {
    "rank": check_rank,
    "unrank": check_unrank,
    "dominates": check_dominates,
    "solve": check_solve,
    "solve-stable": check_solve_stable,
    "check": check_check,
    "search": check_search,
    "enumerate": check_enumerate,
    "components": check_components,
    "capacity": check_capacity,
    "dominating-tuple": check_dominating_tuple,
    "oracle-verify": check_oracle_verify,
}
