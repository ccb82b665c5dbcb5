"""Fresh-process set-up probe.

    python probe.py <kind> <src dir> <seed>

Times, from inside a new interpreter, the import a workload needs plus one
warm-up call, and prints the seconds on stdout.  ``kind`` is one of
``clone_sweep`` (import oamclone, one exact-ancilla clone), ``qudit_scale``
(import oamclone, one d=2 qudit clone), ``cli`` (import oamclone.cli) or
``floor`` (import numpy and yaml, the part of every CLI run that oamclone
cannot reach).  oamclone is found through PYTHONPATH; the probe exits with
code 3 if the copy imported is not the one under ``<src dir>``.
"""

import sys
import time
from pathlib import Path


def main():
    kind, src, seed = sys.argv[1], Path(sys.argv[2]).resolve(), int(sys.argv[3])
    start = time.perf_counter()
    if kind == "floor":
        import numpy  # noqa: F401
        import yaml  # noqa: F401
    elif kind == "cli":
        import oamclone.cli  # noqa: F401
    elif kind == "clone_sweep":
        import numpy as np
        from oamclone import cloning
        cloning.run_cloner_full(cloning.haar_random_qubit(np.random.default_rng(seed)))
    elif kind == "qudit_scale":
        import numpy as np
        from oamclone import qudit
        rng = np.random.default_rng(seed)
        qudit.qudit_clone(qudit.QuditSpec(rng.normal(size=2) + 1j * rng.normal(size=2)))
    else:
        sys.exit(f"unknown probe kind {kind!r}")
    elapsed = time.perf_counter() - start
    if kind != "floor":
        origin = Path(sys.modules["oamclone"].__file__).resolve()
        if not origin.is_relative_to(src):
            sys.exit(3)
    print(repr(elapsed))


if __name__ == "__main__":
    main()
