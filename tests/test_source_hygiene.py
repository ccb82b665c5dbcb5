"""Every name a package module imports is used, unless its import says ``# noqa``,
and no package module imports the benchmark.

Lint checks in the standard library only: the source is parsed with ``ast``,
and an imported name counts as used when it appears as a name anywhere in
the module.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "oamclone"
BENCHMARK_MODULES = {"perfbench", "spans", "workloads", "checks"}


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
