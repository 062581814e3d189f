"""The four workloads: their inputs, made from a seed and nothing else.

An op is a dict.  ``{"argv": [...]}`` is one rankfn CLI request; it may
carry ``"expect"`` (exit code) and ``"error"`` (error name) when it is meant
to be refused.  ``{"replay": {...}}`` is one library replay of a class
through the exact-matrix oracle.

Each workload has a fixed core, which carries the hot spot it exists to
show, and a seeded remainder drawn so that neither the work per pass nor
the median op depends on the seed.  The seed also fixes the op order.  With
``tiny=True`` every size shrinks so a pass takes a fraction of a second
(used by the benchmark's own tests).
"""

from __future__ import annotations

import random

import reference

WORKLOADS = ("closure-geometry", "solution-enumeration", "oracle-replay", "cli-small-requests")

# Workloads whose ops run in-process through the library or rankfn.cli.main;
# cli-small-requests instead starts one `python -m rankfn` process per op.
IN_PROCESS = ("closure-geometry", "solution-enumeration", "oracle-replay")

BIG_BUDGET = 10**9


def cli(*words, expect: int = 0, error: str | None = None) -> dict:
    op: dict = {"argv": [str(w) for w in words]}
    if expect:
        op["expect"] = expect
    if error:
        op["error"] = error
    return op


def convex_spec(rng: random.Random, n: int) -> str:
    """A strictly increasing convex table 0..n with f(1) = 1."""
    values, step = [0], 1
    for _ in range(n):
        values.append(values[-1] + step)
        step += rng.randint(0, 1)
    return "table:" + ",".join(map(str, values))


def parts_str(p) -> str:
    return ",".join(map(str, p))


def closure_geometry(rng: random.Random, tiny: bool) -> list[dict]:
    closed = range(1, 3 if tiny else 6)
    ops = [cli("components", "--n", 2 * k + odd, "--k", k) for k in closed for odd in (0, 1)]
    if tiny:
        ops += [cli("components", "--n", 8, "--k", 2), cli("capacity", "--n", 7, "--k", 2),
                cli("dominating-tuple", "--n", 8, "--k", 2), cli("hasse", "--n", 7)]
    else:
        ops += [cli("components", "--n", 11, "--k", 3), cli("components", "--n", 11, "--k", 2),
                cli("capacity", "--n", 11, "--k", 3), cli("capacity", "--n", 11, "--k", 2),
                cli("dominating-tuple", "--n", 12, "--k", 3),
                cli("dominating-tuple", "--n", 12, "--k", 2),
                cli("hasse", "--n", 16), cli("hasse", "--n", 12)]
    # seeded ops are small, so they sit below the median op whatever the seed
    for _ in range(2):
        ops.append(cli("hasse", "--n", rng.randint(3, 5)))
    for _ in range(2):
        verb = rng.choice(("components", "capacity", "dominating-tuple"))
        ops.append(cli(verb, "--n", rng.randint(4, 5), "--k", rng.randint(1, 2)))
    n = rng.randint(4, 5)
    ops.append(cli(rng.choice(("components", "capacity")), "--n", n, "--k", 2,
                   "--f", rng.choice(("square", convex_spec(rng, n)))))
    rng.shuffle(ops)
    return ops


def solution_enumeration(rng: random.Random, tiny: bool) -> list[dict]:
    if tiny:
        ops = [cli("enumerate", "--n", 8, "--k", 3), cli("enumerate", "--n", 9, "--k", 2)]
        sweep = range(2, 9)
    else:
        ops = [cli("enumerate", "--n", 13, "--k", 3), cli("enumerate", "--n", 15, "--k", 2),
               cli("enumerate", "--n", 13, "--k", 4)]
        sweep = range(2, 15)
    for n in sweep:
        ops.append(cli("search", "--n", n, "--k", 2, "--f", "square", "--g", "square",
                       "--budget", BIG_BUDGET))
    # seeded ops are small, so they sit below the median op whatever the seed
    for _ in range(2):
        n = rng.randint(5, 6)
        ops.append(cli("enumerate", "--n", n, "--k", rng.randint(1, 2), "--f", convex_spec(rng, n)))
    for _ in range(2):
        n = rng.randint(4, 5)
        spec = convex_spec(rng, n)
        ops.append(cli("search", "--n", n, "--k", 2, "--f", spec, "--g", spec))
    rng.shuffle(ops)
    return ops


def oracle_replay(rng: random.Random, tiny: bool) -> list[dict]:
    ops = []
    verify = [(3, 2, 1)] if tiny else [(6, 0, 1), (5, 1, 2), (4, 2, 3)]
    for max_n, q_max, seeds in verify:
        ops.append(cli("oracle-verify", "--max-n", max_n, "--q-max", q_max, "--seeds", seeds,
                       "--seed", rng.randrange(10**6)))
    for i in range(4 if tiny else 20):
        # size, stable rank and largest block are fixed per slot, so the work
        # per replay hardly depends on the seed; the other blocks are drawn
        size, q, top = (5 if tiny else 10) + i % 5, (i // 5) % 3, 2 + i % 3
        rest = [p for p in reference.partitions(size - q - top) if not p or p[0] <= top]
        ops.append({"replay": {
            "parts": [top, *rng.choice(rest)],
            "q": q,
            "jseed": rng.randrange(10**6),
            "cseed": rng.randrange(10**6),
        }})
    rng.shuffle(ops)
    return ops


def cli_small_requests(rng: random.Random, tiny: bool) -> list[dict]:
    n = rng.randint(6, 9)
    a, b = rng.choice(reference.nontrivial(n)), rng.choice(reference.nontrivial(n))
    q = rng.randint(0, 2)
    p = rng.choice(reference.partitions(n))
    row = reference.rank_row(p, q=q)
    small = rng.randint(5, 6)
    s1, s2 = rng.choice(reference.nontrivial(small)), rng.choice(reference.nontrivial(small))
    ops = [
        cli("rank", "--jp", parts_str(p), "--q", q),
        cli("unrank", "--values", parts_str(row)),
        cli("dominates", "--a", parts_str(a), "--b", parts_str(b)),
        cli("solve", "--n", n, "--jp", parts_str(a), "--jp", parts_str(b)),
        cli("solve-stable", "--n", small + 1, "--cls", parts_str(s1) + ":1",
            "--cls", parts_str(s2) + ":1"),
        cli("check", "--n", n, "--cls", parts_str(a), "--cls", parts_str(b),
            "--rhs", parts_str(rng.choice(reference.nontrivial(n)))),
        cli("search", "--n", rng.randint(5, 7), "--k", 2, "--f", "square", "--g", "square"),
        cli("enumerate", "--n", rng.randint(6, 7), "--k", 2),
        cli("components", "--n", rng.randint(6, 7), "--k", 3),
        cli("capacity", "--n", rng.randint(6, 7), "--k", 2),
        cli("dominating-tuple", "--n", rng.randint(6, 7), "--k", 2),
        cli("hasse", "--n", rng.randint(5, 8)),
        cli("oracle-verify", "--max-n", 3, "--seeds", 2, "--seed", rng.randrange(10**6)),
        # refused: over budget or over cap
        cli("enumerate", "--n", 12 if tiny else 30, "--k", 2, "--budget", 10,
            expect=1, error="BudgetExceeded"),
        cli("search", "--n", rng.randint(10, 12), "--k", 3, "--budget", 1000,
            expect=1, error="BudgetExceeded"),
        cli("hasse", "--n", rng.randint(21, 25), expect=1, error="BudgetExceeded"),
        # refused: malformed input
        cli("rank", "--jp", f"{n},x", expect=1, error="InvalidPartition"),
        cli("unrank", "--values", parts_str(row[:-1]), expect=1, error="InvalidRankFunction"),
        cli("solve", "--n", n + 1, "--jp", parts_str(a), expect=1, error="ValueError"),
        cli("enumerate", "--n", 6, "--k", 2, "--f", "table:0,2,3,5,7,9,11",
            expect=1, error="NotConvex"),
        cli("components", "--n", "abc", "--k", 2, expect=2),
        cli("rank", expect=2),
        cli("no-such-verb", expect=2),
    ]
    rng.shuffle(ops)
    return ops


BUILDERS = {
    "closure-geometry": closure_geometry,
    "solution-enumeration": solution_enumeration,
    "oracle-replay": oracle_replay,
    "cli-small-requests": cli_small_requests,
}


def build(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The ops of one pass; the same (workload, seed, tiny) gives the same ops."""
    return BUILDERS[workload](random.Random(f"{workload}/{seed}"), tiny)
