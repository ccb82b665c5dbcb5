"""Every name a package module imports is used, unless its import says ``# noqa``,
no package module imports the benchmark, ``build_basis``, ``ModeIndex`` and the
one coalescence pipeline keep their callers, and no other test module names a
package internal.

Lint checks in the standard library only: the source is parsed with ``ast``,
and an imported name counts as used when it appears as a name anywhere in
the module.  This module is the one place that pins internal names.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "oamclone"
PACKAGE_MODULES = {path.stem for path in SRC.glob("*.py")} - {"__init__", "__main__"}
# names a test may not read on anything: a cache's handles and apply's size switch
INTERNAL_NAMES = {"cache_info", "cache_clear", "GATHER_MIN_MODES"}
BENCHMARK_MODULES = {"perfbench", "spans", "workloads", "checks"}
# function -> the (module file, function) pairs that may call it: every cloner
# goes through the core, the HOM overlap reads the same coalescence, a mode is
# named only by the general basis, the splitter and the cloner's label-order
# basis, and the general basis serves only tests and the package's users
ALLOWED_CALLERS = {
    "build_basis": set(),
    "ModeIndex": {("fock.py", "build_basis"), ("elements.py", "beam_splitter"),
                  ("cloning.py", "label_basis")},
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


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def internal_reads(source: str):
    """(line, name) of each package internal that ``source`` reads: a private
    attribute of ``oamclone`` or one of its modules (``<module>._name``, ``from
    oamclone.<module> import _name``, ``getattr``/``setattr(<module>, "_name")``),
    and any name in ``INTERNAL_NAMES``.
    """
    tree = ast.parse(source)
    modules = set()  # local names bound to the package or one of its modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or "oamclone" for alias in node.names
                        if alias.name.split(".")[0] == "oamclone"}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] == "oamclone":
            for alias in node.names:
                if node.module == "oamclone" and alias.name in PACKAGE_MODULES:
                    modules.add(alias.asname or alias.name)
                if is_private(alias.name) or alias.name in INTERNAL_NAMES:
                    found.append((node.lineno, alias.name))

    def is_module(node):
        if isinstance(node, ast.Name):
            return node.id in modules
        return isinstance(node, ast.Attribute) and node.attr in PACKAGE_MODULES \
            and is_module(node.value)

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr in INTERNAL_NAMES or is_private(node.attr) and is_module(node.value):
                found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in INTERNAL_NAMES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            name = node.args[1]
            if called in ("getattr", "setattr", "delattr", "hasattr") \
                    and is_module(node.args[0]) and isinstance(name, ast.Constant) \
                    and isinstance(name.value, str) \
                    and (is_private(name.value) or name.value in INTERNAL_NAMES):
                found.append((node.lineno, name.value))
    return sorted(found)


@pytest.mark.parametrize(
    "path", sorted(path for path in TESTS.glob("*.py") if path.name != Path(__file__).name),
    ids=lambda p: p.name)
def test_tests_name_no_package_internal(path):
    assert internal_reads(path.read_text()) == []


def test_the_internal_check_sees_every_read_form():
    source = ("import oamclone\n"
              "import oamclone.fock as f\n"
              "from oamclone import cloning, elements as el, ModeIndex\n"
              "from oamclone.cloning import _clone, label_basis\n"
              "from oamclone.elements import GATHER_MIN_MODES\n"
              "x = oamclone._EXPORTS + oamclone.__version__ + ModeIndex._fields\n"
              "y = f._private + f.__name__ + oamclone.fock._z + self._helper()\n"
              "el.splitter.cache_clear()\n"
              "info = cloning.label_states.cache_info()\n"
              "n = el.GATHER_MIN_MODES\n"
              "def test(monkeypatch):\n"
              "    monkeypatch.setattr(cloning, '_ancilla_states', None)\n"
              "    return getattr(el, '__doc__'), getattr(cloning, 'label_modes')\n")
    assert internal_reads(source) == [
        (4, "_clone"), (5, "GATHER_MIN_MODES"), (6, "_EXPORTS"), (7, "_private"),
        (7, "_z"), (8, "cache_clear"), (9, "cache_info"), (10, "GATHER_MIN_MODES"),
        (12, "_ancilla_states")]
