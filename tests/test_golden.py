"""Every CLI output against the last accepted one in ``tests/golden``.

CSV and SVG files must match byte for byte.  JSON files must match in
structure, with each float within 1e-12: BLAS and SIMD kernels may round
the last bit differently on another CPU.  On the machine that wrote the
golden files, ``tests/golden/regenerate.py`` followed by
``git diff --exit-code tests/golden`` checks the exact bytes.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from oamclone import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)


def assert_close(new, old, where):
    if isinstance(old, float) or isinstance(new, float):
        assert isinstance(new, (int, float)) and isinstance(old, (int, float)), where
        assert math.isclose(new, old, rel_tol=1e-12, abs_tol=1e-12), \
            f"{where}: {new!r} != {old!r}"
    elif isinstance(old, dict):
        assert isinstance(new, dict) and sorted(new) == sorted(old), where
        for key in old:
            assert_close(new[key], old[key], f"{where}.{key}")
    elif isinstance(old, list):
        assert isinstance(new, list) and len(new) == len(old), where
        for i, (a, b) in enumerate(zip(new, old)):
            assert_close(a, b, f"{where}[{i}]")
    else:
        assert type(new) is type(old) and new == old, f"{where}: {new!r} != {old!r}"


def test_golden_files_are_complete():
    for name in regenerate.ARGS:
        assert sorted(p.name for p in (GOLDEN / name).iterdir()) == sorted(
            f"{scenario}.{ext}" for scenario in cli.RUNNERS
            for ext in ("csv", "json", "svg"))


@pytest.mark.parametrize("scenario", list(cli.RUNNERS))
@pytest.mark.parametrize("name", list(regenerate.ARGS))
def test_outputs_match_the_golden_files(name, scenario, tmp_path):
    regenerate.run(name, scenario, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"{scenario}.{ext}" for ext in ("csv", "json", "svg")]
    for ext in ("csv", "svg"):
        file = f"{scenario}.{ext}"
        assert (tmp_path / file).read_bytes() == (GOLDEN / name / file).read_bytes(), file
    file = f"{scenario}.json"
    assert_close(json.loads((tmp_path / file).read_text()),
                 json.loads((GOLDEN / name / file).read_text()), file)
