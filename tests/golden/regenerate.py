"""Rewrite the golden CLI outputs that ``tests/test_golden.py`` compares.

Run from the repository root after a change that is meant to move an
output, then review every changed value:

    PYTHONPATH=src python tests/golden/regenerate.py
    git diff tests/golden

``default/`` holds the five scenarios run with ``--seed 3 --svg``;
``full/`` holds them run with ``--config full.yaml --svg``, a config that
sets every key.
"""

import sys
import tempfile
from pathlib import Path

from oamclone import cli

HERE = Path(__file__).resolve().parent
ARGS = {
    "default": ["--seed", "3", "--svg"],
    "full": ["--config", str(HERE / "full.yaml"), "--svg"],
}


def run(name, scenario, out_dir):
    """Write one scenario's outputs for the run ``name`` into ``out_dir``."""
    code = cli.main([scenario, *ARGS[name], "--out-dir", str(out_dir)])
    if code != 0:
        raise RuntimeError(f"{scenario} ({name}) exited {code}")


def main():
    for name in ARGS:
        target = HERE / name
        with tempfile.TemporaryDirectory() as tmp:
            for scenario in cli.RUNNERS:
                run(name, scenario, Path(tmp))
            target.mkdir(exist_ok=True)
            for old in target.iterdir():
                old.unlink()
            for new in sorted(Path(tmp).iterdir()):
                (target / new.name).write_bytes(new.read_bytes())
                print(target / new.name)


if __name__ == "__main__":
    sys.exit(main())
