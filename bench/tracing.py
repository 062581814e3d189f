"""Span tracing of rankfn's public functions, installed from outside.

Each traced function is replaced on every module attribute that binds it
(``rankfn`` and its five modules), so calls from one module into another
go through the wrapper too.  Spans (name, op, start, end, parent) are kept
in flat arrays while the program runs and written out at the end.  Leaf
functions called millions of times are counted, not spanned, to keep the
overhead down.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import json
from array import array
from time import perf_counter

MODULES = ("rankfn", "rankfn.core", "rankfn.equations", "rankfn.geometry",
           "rankfn.oracle", "rankfn.cli")

# (module, function, spanned?)  Unspanned functions report calls only.
FUNCTIONS = (
    ("geometry", "maximal_elements", True),
    ("geometry", "irreducible_components", True),
    ("geometry", "is_irreducible", True),
    ("geometry", "sol_capacity", True),
    ("geometry", "dominating_tuple", True),
    ("geometry", "hasse_dot", True),
    ("geometry", "rm_leq", False),
    ("geometry", "enumerate_sol", True),
    ("geometry", "rank_matrix", True),
    ("core", "partition_to_rank", True),
    ("core", "class_rank", True),
    ("core", "rank_to_class", True),
    ("core", "rank_defect", True),
    ("core", "dominates", False),
    ("equations", "solve_nilpotent", True),
    ("equations", "solve_with_stable_ranks", True),
    ("equations", "check_solution", True),
    ("equations", "search_general", True),
    ("oracle", "verify_class_ranks", True),
    ("oracle", "jordan_matrix", True),
    ("oracle", "random_conjugate", True),
    ("oracle", "matrix_rank_function", True),
    ("oracle", "exact_rank", True),
    ("cli", "main", True),
)

# Measured from outside the traced process (see run.py).
EXTERNAL = (("cli.interpreter_ms", "ms"), ("cli.import_ms", "ms"),
            ("cli.stdout_bytes", "bytes"), ("trace.overhead_s", "s"))


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in a fixed order."""
    out = []
    for mod, fn, spanned in FUNCTIONS:
        out.append((f"{mod}.{fn}.calls", "count"))
        if spanned:
            out.append((f"{mod}.{fn}.self_s", "s"))
    return out + list(EXTERNAL)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ = array("q")
        self.op_ = array("q")
        self.start_ = array("d")
        self.end_ = array("d")
        self.parent_ = array("q")
        self.counts: dict[str, list[int]] = {}
        self.absent: list[str] = []
        self.op = -1
        self._stack = [-1]

    def install(self) -> None:
        mods = [importlib.import_module(m) for m in MODULES]
        for mod, fn, spanned in FUNCTIONS:
            name = f"{mod}.{fn}"
            target = getattr(importlib.import_module(f"rankfn.{mod}"), fn, None)
            if target is None:
                self.absent.append(name)
                continue
            wrapper = self._span(name, target) if spanned else self._count(name, target)
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is target:
                        setattr(m, attr, wrapper)

    def _count(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return counted

    def _span(self, name: str, fn):
        self.names.append(name)
        nid = len(self.names) - 1
        stack, name_, op_, start_, end_, parent_ = (
            self._stack, self.name_, self.op_, self.start_, self.end_, self.parent_)

        def spanned(*args, **kwargs):
            idx = len(name_)
            name_.append(nid)
            op_.append(self.op)
            parent_.append(stack[-1])
            end_.append(0.0)
            stack.append(idx)
            start_.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end_[idx] = perf_counter()
                stack.pop()
        return spanned

    def summary(self) -> dict:
        """calls and self time per function; self time is a span's duration
        minus the durations of its direct children."""
        child = [0.0] * len(self.name_)
        for i, p in enumerate(self.parent_):
            if p >= 0:
                child[p] += self.end_[i] - self.start_[i]
        calls = {n: 0 for n in self.names}
        self_s = {n: 0.0 for n in self.names}
        for i, nid in enumerate(self.name_):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += self.end_[i] - self.start_[i] - child[i]
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name, cell in self.counts.items():
            out[f"{name}.calls"] = cell[0]
        return {"metrics": out, "absent": self.absent, "spans": len(self.name_)}

    def write(self, path) -> None:
        """One JSON header line, then the five columns as raw native arrays."""
        cols = (self.name_, self.op_, self.start_, self.end_, self.parent_)
        head = {"names": self.names, "count": len(self.name_),
                "columns": ["name", "op", "start", "end", "parent"],
                "typecodes": [c.typecode for c in cols]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(head).encode() + b"\n")
            for col in cols:
                col.tofile(fh)
