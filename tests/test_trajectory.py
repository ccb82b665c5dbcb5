"""One block of ``tools/trajectory.py`` against HEAD: the A/B runs end to end and reports
every case and ``src.loc``.  No timing is checked: one block on a shared host says
nothing about speed."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CASES = {"qudit_clone_d2", "qudit_clone_d8", "qudit_clone_d16", "qudit_clone_d24",
         "qudit_scale_cycle", "run_cloner_full", "fock.symmetrize_product",
         "elements.apply", "fock.project_keys", "fock.reduced_single_pure"}


def _trajectory():
    spec = importlib.util.spec_from_file_location("trajectory", ROOT / "tools" / "trajectory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_block_against_head_reports_every_case():
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True)
    if head.returncode != 0:
        pytest.skip("not a git checkout")
    trajectory = _trajectory()
    report = trajectory.compare("HEAD", 1, 1)
    assert report["base"] == head.stdout.strip()
    assert report["seed"] == trajectory.SEED
    assert set(report["cases"]) == CASES
    for row in report["cases"].values():
        assert row["blocks"] == 1 and row["base_us"] > 0 and row["work_us"] > 0
    loc = sum(len(p.read_bytes().splitlines())
              for p in sorted((ROOT / "src" / "oamclone").rglob("*.py")))
    assert report["src.loc"]["work"] == loc
    assert report["src.loc"]["delta"] == loc - report["src.loc"]["base"]
