"""Every name a package module imports is used, unless its import says ``# noqa``,
the package's relative imports form no cycle and each names the module that
defines the name, no package module imports the benchmark, every package name
the benchmark reads exists, ``build_basis``, ``ModeIndex`` and the one
coalescence pipeline keep their callers, and no other test module names a
package internal or reads an error class from anywhere but the package root.

Lint checks in the standard library only: the source is parsed with ``ast``,
and an imported name counts as used when it appears as a name anywhere in
the module.  This module is the one place that pins internal names.
"""

import ast
import importlib
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "oamclone"
BENCHMARK = TESTS.parent / "perfbench"
PACKAGE_MODULES = {path.stem for path in SRC.glob("*.py")} - {"__init__", "__main__"}
# names a test may not read on anything: a cache's handles and the size switch of
# both two-photon kernels, fock.symmetrize_product and elements.apply
INTERNAL_NAMES = {"cache_info", "cache_clear", "GATHER_MIN_MODES"}
BENCHMARK_MODULES = {"perfbench", "spans", "workloads", "checks"}
# defined by the package root, and read by tests from there only
ERROR_CLASSES = {"FockError", "ConfigurationError", "BasisMismatchError", "InvalidStateError"}
# function -> the (module file, function) pairs that may call it: every cloner
# goes through the core, the HOM overlap reads the same coalescence, a mode is
# named only by the general basis, the splitter and the cloner's label-order
# basis, the general basis serves only tests and the package's users, and every
# state vector is normalized by the one amplitude rule
ALLOWED_CALLERS = {
    "build_basis": set(),
    "normalized_amplitudes": {("qubit.py", "__init__"), ("fock.py", "superposition_state"),
                              ("fock.py", "pure_density")},
    "ModeIndex": {("fock.py", "build_basis"), ("elements.py", "beam_splitter"),
                  ("cloning.py", "label_basis")},
    "coalesce": {("cloning.py", "label_clone"), ("interference.py", "internal_overlap")},
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


def relative_imports(source: str, modules=PACKAGE_MODULES):
    """Sorted package modules that ``source`` imports relatively, function-level
    imports included: ``from .m import x`` imports m, and ``from . import x``
    imports x if x is one of ``modules``, else the package root ``__init__``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module)
            else:
                found |= {alias.name if alias.name in modules else "__init__"
                          for alias in node.names}
    return sorted(found)


def import_cycle(graph):
    """One cycle [m, ..., m] of ``graph`` ({module: the modules it imports}), or []."""
    done, path = set(), []

    def visit(module):
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return []
        path.append(module)
        for target in graph.get(module, ()):
            cycle = visit(target)
            if cycle:
                return cycle
        path.pop()
        done.add(module)
        return []

    for module in sorted(graph):
        cycle = visit(module)
        if cycle:
            return cycle
    return []


def test_package_imports_form_no_cycle():
    graph = {path.stem: relative_imports(path.read_text()) for path in SRC.glob("*.py")}
    assert import_cycle(graph) == []


def test_the_cycle_check_sees_function_level_imports():
    sources = {"a": "import numpy\nfrom . import Error, b\n",
               "b": "def f():\n    from .c import g\n",
               "c": "from .a import h\n",
               "d": "from .b import f\n"}
    graph = {name: relative_imports(source, set(sources)) for name, source in sources.items()}
    assert graph == {"a": ["__init__", "b"], "b": ["c"], "c": ["a"], "d": ["b"]}
    assert import_cycle(graph) == ["a", "b", "c", "a"]
    assert import_cycle({**graph, "c": []}) == []


def top_level_names(source: str):
    """The names ``source`` binds at top level by ``def``, ``class`` or assignment."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return names


def misdirected_imports(source: str, definitions):
    """(line, module, name) of each ``from .module import name`` (``from . import
    name`` reads the root, ``__init__``) whose name is neither a module of
    ``definitions`` ({module: its top-level names}) nor a public name that the
    module itself defines."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        module = node.module or "__init__"
        for alias in node.names:
            if node.module is None and alias.name in definitions:
                continue
            if is_private(alias.name) or alias.name not in definitions.get(module, ()):
                found.append((node.lineno, module, alias.name))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_relative_import_names_the_defining_module(path):
    definitions = {module.stem: top_level_names(module.read_text())
                   for module in SRC.glob("*.py")}
    assert misdirected_imports(path.read_text(), definitions) == []


def test_the_home_check_sees_every_misdirected_import():
    definitions = {
        "__init__": top_level_names("import os\nclass Error(Exception):\n    pass\n"
                                    "__version__ = '1'\n"),
        "core": top_level_names("from . import Error\nLIMIT, _SCALE = 8, 2.0\n"
                                "mode: str = 'L'\ndef run():\n    pass\n"
                                "def _helper():\n    pass\nclass Spec:\n    pass\n"),
    }
    assert definitions["core"] == {"LIMIT", "_SCALE", "mode", "run", "_helper", "Spec"}
    source = ("from . import Error, core, __version__\n"
              "from . import os\n"
              "from .core import LIMIT, Spec, mode, run\n"
              "from .core import Error, _helper\n"
              "def f():\n"
              "    from .core import _SCALE, missing\n")
    assert misdirected_imports(source, definitions) == [
        (2, "__init__", "os"), (4, "core", "Error"), (4, "core", "_helper"),
        (6, "core", "_SCALE"), (6, "core", "missing")]


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


def package_reads(source: str):
    """Sorted (module, name) of each ``<module>.<name>`` that ``source`` reads on a
    package module it binds by ``from oamclone import <module>``."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "oamclone"
               for alias in node.names if alias.name in PACKAGE_MODULES}
    return sorted({(modules[node.value.id], node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in modules})


# spans.py is left out: it skips a span target that the package lacks, by design
@pytest.mark.parametrize("name", ["workloads.py", "checks.py"])
def test_every_package_name_the_benchmark_reads_exists(name):
    reads = package_reads((BENCHMARK / name).read_text())
    assert reads
    assert [f"{module}.{attr}" for module, attr in reads
            if not hasattr(importlib.import_module(f"oamclone.{module}"), attr)] == []


def test_the_benchmark_read_check_sees_every_bound_module():
    source = ("import checks\n"
              "from oamclone import cli, qudit as q, __version__\n"
              "x = cli.main(q.MAX_ORACLE_DIM, q.QuditSpec.d, checks.sweep, cli)\n")
    assert package_reads(source) == [("cli", "main"), ("qudit", "MAX_ORACLE_DIM"),
                                     ("qudit", "QuditSpec")]


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
              "from oamclone.cloning import _core, label_basis\n"
              "from oamclone.elements import GATHER_MIN_MODES\n"
              "x = oamclone._registry + oamclone.__version__ + ModeIndex._fields\n"
              "y = f._private + f.__name__ + oamclone.fock._z + self._helper()\n"
              "el.splitter.cache_clear()\n"
              "info = cloning.label_states.cache_info()\n"
              "n = el.GATHER_MIN_MODES\n"
              "def test(monkeypatch):\n"
              "    monkeypatch.setattr(cloning, '_ancilla_states', None)\n"
              "    return getattr(el, '__doc__'), getattr(cloning, 'label_modes')\n")
    assert internal_reads(source) == [
        (4, "_core"), (5, "GATHER_MIN_MODES"), (6, "_registry"), (7, "_private"),
        (7, "_z"), (8, "cache_clear"), (9, "cache_info"), (10, "GATHER_MIN_MODES"),
        (12, "_ancilla_states")]


def child_scripts(tree):
    """(line, parsed script) of each string in ``tree`` that parses as Python
    with an import, such as a script planted in a child process; an f-string's
    replacement fields read as a name."""
    parts = {id(v) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
             for v in node.values}
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            text = "".join(v.value if isinstance(v, ast.Constant) else "_" for v in node.values)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in parts:
            text = node.value
        else:
            continue
        try:
            script = ast.parse(text)
        except (SyntaxError, ValueError):
            continue
        if any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(script)):
            yield node.lineno, script


def error_class_reads(tree):
    """(line, name) of each error class that ``tree`` reads from anywhere but the
    package root: ``from <not oamclone> import Error``, ``x.Error`` and
    ``getattr(x, "Error")`` with x not a name bound to the root; in a child
    script, at the line of its string."""
    roots = {alias.asname or "oamclone" for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names
             if alias.name == "oamclone" or alias.name.startswith("oamclone.") and not alias.asname}

    def is_root(node):
        return isinstance(node, ast.Name) and node.id in roots

    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "oamclone":
            found |= {(node.lineno, a.name) for a in node.names if a.name in ERROR_CLASSES}
        elif isinstance(node, ast.Attribute) and node.attr in ERROR_CLASSES \
                and not is_root(node.value):
            found.add((node.lineno, node.attr))
        elif isinstance(node, ast.Call) and len(node.args) >= 2 \
                and getattr(node.func, "id", None) in ("getattr", "hasattr") \
                and isinstance(node.args[1], ast.Constant) \
                and node.args[1].value in ERROR_CLASSES and not is_root(node.args[0]):
            found.add((node.lineno, node.args[1].value))
    for line, script in child_scripts(tree):
        found |= {(line, name) for _, name in error_class_reads(script)}
    return sorted(found)


@pytest.mark.parametrize(
    "path", sorted(path for path in TESTS.glob("*.py") if path.name != Path(__file__).name),
    ids=lambda p: p.name)
def test_tests_read_the_error_classes_from_the_package_root(path):
    assert error_class_reads(ast.parse(path.read_text())) == []


def test_the_error_class_check_sees_every_read_form():
    source = ('import oamclone\n'
              'import oamclone as oc\n'
              'import oamclone.fock as f\n'
              'from oamclone import ConfigurationError, fock\n'
              'from oamclone.fock import InvalidStateError, ModeIndex\n'
              'x = (oamclone.FockError, oc.BasisMismatchError, fock.ConfigurationError)\n'
              'y = (f.BasisMismatchError, oamclone.fock.InvalidStateError)\n'
              'z = getattr(fock, "FockError"), getattr(oc, "FockError"), f.ModeIndex\n'
              'CHILD = """\nfrom oamclone import cloning\nfrom oamclone.fock import FockError\n"""\n'
              'PLANTED = f"""\nimport oamclone.fock as g\nfor bad in {x!r}:\n'
              '    raise g.ConfigurationError(bad)\n"""\n'
              'CLEAN = "from oamclone import FockError"\n'
              'def test():\n'
              '    from oamclone.qudit import BasisMismatchError\n'
              '    return "fock.ConfigurationError", "from fock import FockError, or"\n')
    assert error_class_reads(ast.parse(source)) == [
        (5, "InvalidStateError"), (6, "ConfigurationError"), (7, "BasisMismatchError"),
        (7, "InvalidStateError"), (8, "FockError"), (9, "FockError"),
        (13, "ConfigurationError"), (20, "BasisMismatchError")]
