"""Every name a package module imports is used, unless its import says ``# noqa``.

A lint check in the standard library only: the source is parsed with ``ast``,
and an imported name counts as used when it appears as a name anywhere in
the module.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "oamclone"


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
