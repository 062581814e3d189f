"""Every name a module of the package imports is used in that module, the
package declares each export once, every export has a caller outside the
tests, and neither a CLI process nor the package import loads the oracle,
whose names live in `rankfn.oracle` alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rankfn
import rankfn.oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rankfn"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    assert unused_imports("import os\nfrom typing import Sequence\nos.sep\n") == ["Sequence"]


def used_names(source, kinds=(ast.Name, ast.Attribute, ast.alias)):
    """Names that nodes of the given kinds carry in source.  A use inside a
    top-level def or class does not count for that definition's own name."""
    used = set()
    for stmt in ast.parse(source).body:
        names = {node.id if isinstance(node, ast.Name)
                 else node.attr if isinstance(node, ast.Attribute) else node.name
                 for node in ast.walk(stmt) if isinstance(node, kinds)}
        names.discard(getattr(stmt, "name", None))  # only def and class statements have one
        used |= names
    return used


def unused_exports(exports, library, scripts, bench):
    """Exports that no library module, script or benchmark file uses.  The
    benchmark counts only as attributes (``oracle.exact_rank``), so its own
    reference routes of the same name (``conjugate(p)``) are no callers."""
    used = set()
    for source in [*library, *scripts]:
        used |= used_names(source)
    for source in bench:
        used |= used_names(source, (ast.Attribute,))
    return [name for name in exports if name not in used]


def test_every_export_has_a_caller_outside_the_tests():
    def sources(folder):
        return [path.read_text() for path in sorted(folder.glob("*.py"))]
    exports = [*rankfn.__all__, *rankfn.oracle.__all__]
    assert unused_exports(exports, sources(SRC), sources(ROOT / "scripts"),
                          sources(ROOT / "bench")) == []


def test_unused_export_is_caught():
    """Only its own body uses walk in the library, Box and spare; a script
    imports walk, and the benchmark calls its own local by plain name."""
    exports = ["walk", "lift", "spare", "Box", "local"]
    library = ("__all__ = ['walk', 'lift', 'spare', 'Box', 'local']\n"
               "def walk(n):\n    return walk(n - 1)\n"
               "def lift():\n    return 1\n"
               "def spare():\n    return lift()\n"
               "class Box:\n    def grow(self):\n        return Box()\n"
               "def local():\n    return 0\n")
    scripts = "from pkg import walk\n"
    bench = "def local():\n    return 0\nlocal()\n"
    assert unused_exports(exports, [library], [scripts], [bench]) == ["spare", "Box", "local"]
    assert unused_exports(["local"], [library], [], ["pkg.local()\n"]) == []


def to_json_owners(source):
    """The class (or None at module level) of each to_json defined in source."""
    return [node.name if isinstance(node, ast.ClassDef) else None
            for node in ast.walk(ast.parse(source))
            for child in ast.iter_child_nodes(node)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            and child.name == "to_json"]


def test_only_the_cli_writes_json_documents():
    """cli.py alone knows the published layout.  ExactMatrix keeps its
    to_json, which prints a replayed matrix as exact strings."""
    owners = {path.name: to_json_owners(path.read_text())
              for path in sorted(SRC.glob("*.py")) if path.name != "cli.py"}
    assert {name: found for name, found in owners.items() if found} == {
        "oracle.py": ["ExactMatrix"]}


def test_to_json_definition_is_caught():
    source = "def to_json(x): pass\nclass A:\n    def to_json(self): pass\n"
    assert to_json_owners(source) == [None, "A"]


def fresh_modules(code):
    """sys.modules of a fresh interpreter after it runs code, one name a line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(*sys.modules, sep='\\n')"],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    return set(proc.stdout.split())


def test_cli_import_leaves_pool_and_oracle_unloaded():
    loaded = fresh_modules("import rankfn.cli")
    assert "rankfn.cli" in loaded
    assert not loaded & {"concurrent.futures", "multiprocessing", "rankfn.oracle"}


def test_package_import_leaves_oracle_unloaded():
    loaded = fresh_modules("import rankfn\nfrom rankfn import *")
    assert "rankfn.geometry" in loaded
    assert "rankfn.oracle" not in loaded
    assert not hasattr(rankfn, "ExactMatrix")


def test_every_exported_name_resolves():
    assert len(set(rankfn.__all__)) == len(rankfn.__all__)
    for name in rankfn.__all__:
        assert getattr(rankfn, name) is not None, name
    namespace = {}
    exec("from rankfn import *", namespace)
    assert set(rankfn.__all__) <= set(namespace)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rankfn.no_such_name
    assert not hasattr(rankfn, "DEFAULT_SEED")


def test_package_exports_are_the_module_lists():
    """Each public name is declared once, in its module's __all__."""
    from rankfn import core, equations, geometry
    declared = [*core.__all__, *equations.__all__, *geometry.__all__]
    assert rankfn.__all__ == declared
    assert len(set(rankfn.__all__)) == len(rankfn.__all__)
    init = ast.parse((SRC / "__init__.py").read_text())
    literals = {node.value for node in ast.walk(init) if isinstance(node, ast.Constant)}
    assert not literals & {*declared, *rankfn.oracle.__all__}
    assert not hasattr(rankfn, "__getattr__")
