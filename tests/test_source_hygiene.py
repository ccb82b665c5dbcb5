"""Every name a package module imports is used, unless its import says ``# noqa``,
no package module imports the benchmark, and ``build_basis``, ``ModeIndex`` and the
one coalescence pipeline keep their callers.

Lint checks in the standard library only: the source is parsed with ``ast``,
and an imported name counts as used when it appears as a name anywhere in
the module.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "oamclone"
BENCHMARK_MODULES = {"perfbench", "spans", "workloads", "checks"}
# function -> the (module file, function) pairs that may call it: every cloner
# goes through the core, the HOM overlap reads the same coalescence, and a mode
# is named only by the basis, the splitter and the one label-to-mode map
ALLOWED_CALLERS = {
    "build_basis": {("cloning.py", "label_basis")},
    "ModeIndex": {("fock.py", "build_basis"), ("elements.py", "beam_splitter"),
                  ("cloning.py", "label_modes")},
    "coalesce": {("cloning.py", "_clone"), ("interference.py", "internal_overlap")},
}


def unused_imports(source: str):
    """(line, name) of each imported name that ``source`` never uses."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_unused_names_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import os  # noqa: F401\n"
              "from dataclasses import (dataclass,  # noqa: F401\n"
              "                         field)\n"
              "from functools import lru_cache, partial\n"
              "import numpy as np\n"
              "x = np.pi * partial(abs, 1)()\n")
    assert unused_imports(source) == [(2, "math"), (6, "lru_cache")]


def benchmark_imports(source: str):
    """(line, module) of each import of the benchmark or one of its modules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] in BENCHMARK_MODULES]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_the_library_does_not_import_the_benchmark(path):
    assert benchmark_imports(path.read_text()) == []


def test_the_benchmark_check_sees_every_import_form():
    source = ("import numpy as np\n"
              "import perfbench.spans\n"
              "from perfbench import checks\n"
              "from . import fock\n"
              "import os, workloads\n"
              "def f():\n"
              "    from spans import tracer\n"
              "    import checks as c\n")
    assert benchmark_imports(source) == [(2, "perfbench.spans"), (3, "perfbench"),
                                         (5, "workloads"), (7, "spans"), (8, "checks")]


def callers(source: str, name: str):
    """Sorted names of the functions that call ``name`` as ``name(`` or ``x.name(``.

    A call belongs to its innermost enclosing ``def``; one outside any is
    ``<module>``.
    """
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    found.add(scope)
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return sorted(found)


@pytest.mark.parametrize("name", sorted(ALLOWED_CALLERS))
def test_build_basis_and_coalesce_keep_their_callers(name):
    found = {(path.name, caller) for path in sorted(SRC.glob("*.py"))
             for caller in callers(path.read_text(), name)}
    assert found == ALLOWED_CALLERS[name]


def test_the_caller_check_sees_every_call_form():
    source = ("from . import elements\n"
              "from .fock import build_basis\n"
              "BASIS = build_basis(('a',))\n"
              "def f(x):\n"
              "    return elements.coalesce(x, [], 'a_prime')\n"
              "class C:\n"
              "    def g(self):\n"
              "        h = lambda: build_basis(('b',))\n"
              "        def inner():\n"
              "            return coalesce(h)\n"
              "        return build_basis\n")
    assert callers(source, "build_basis") == ["<module>", "g"]
    assert callers(source, "coalesce") == ["f", "inner"]
