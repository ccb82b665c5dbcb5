"""In-process A/B of the working tree against a base revision, layer by layer.

    python tools/trajectory.py --base <rev> --out BENCH_<n>.json

The base tree is exported with ``git archive`` into a temporary directory, both trees'
packages are byte-compiled with ``compileall``, and both are loaded into this one
interpreter under distinct package names (``oamclone_base`` and ``oamclone_work``), so a
comparison is not confounded by import cost, stale bytecode or a host whose speed drifts
between processes.  Each block times every case on both trees back to back, in an order
that alternates from block to block, and the ratio work/base is taken per block.
``BLOCKS``, ``CALLS`` and ``SEED`` are fixed, and recorded in the output.

Cases: ``qudit_clone`` at d = 2, 8, 16 and 24, one ``qudit_scale`` cycle (d = 2, 4, 8,
16, 24), one ``run_cloner_full``, and the four Fock layers (``symmetrize_product``,
``elements.apply``, ``project_keys``, ``reduced_single_pure``) on one d = 24 cloner
branch, n = 96 modes.  Each case gets the same seeded inputs on both trees; each layer is
fed what the tree's own previous layer returns.  The output holds, per case, the median
time per call on each tree, the median ratio and the number of blocks in which the
working tree was faster, plus ``src.loc`` of both trees, counted as the benchmark counts
it (every line of every ``*.py`` under ``src/oamclone``).  git, numpy and the stdlib only.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DIMS = (2, 8, 16, 24)
CYCLE_DIMS = (2, 4, 8, 16, 24)  # perfbench's qudit_scale cycle
LAYER_D = 24  # n = 4d = 96 modes
LAYER_REPEAT = 10  # a layer call is 10-100x shorter than a clone
BLOCKS = 30
CALLS = 40  # clone calls per timing; a layer timing makes LAYER_REPEAT times as many
SEED = 0


def git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, target: Path) -> str:
    """Extract ``rev``'s tracked files under ``target``; return its full hash."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(target, **safe)
    return sha


def load(src: Path, name: str):
    """The package under ``src/oamclone`` imported as ``name``, with its modules."""
    for stale in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[stale]  # a second load in one process reads its own tree
    init = src / "oamclone" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for module in ("fock", "elements", "cloning", "qudit", "qubit"):
        setattr(pkg, module, importlib.import_module(f"{name}.{module}"))
    return pkg


def package_files(src: Path):
    return sorted((src / "oamclone").rglob("*.py"))


def source_lines(src: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in package_files(src))


def source_digest(src: Path) -> str:
    """sha256 over the package's file names and bytes: names the measured working tree."""
    h = hashlib.sha256()
    for p in package_files(src):
        h.update(p.relative_to(src).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            return next(line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.machine()


def haar(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def cases(pkg):
    """{case: (calls per timing multiplier, zero-argument callable)} on one tree."""
    fock, elements, cloning, qudit = pkg.fock, pkg.elements, pkg.cloning, pkg.qudit
    rng = np.random.default_rng(SEED)
    out = {}
    for d in DIMS:
        spec = qudit.QuditSpec(haar(rng, d))
        out[f"qudit_clone_d{d}"] = (1, lambda spec=spec: qudit.qudit_clone(spec))
    cycle = [qudit.QuditSpec(haar(rng, d)) for d in CYCLE_DIMS]
    out["qudit_scale_cycle"] = (1, lambda: [qudit.qudit_clone(spec) for spec in cycle])
    qubit = pkg.qubit.QubitSpec(*haar(rng, 2))
    out["run_cloner_full"] = (1, lambda: cloning.run_cloner_full(qubit))
    # one d = 24 cloner branch: the input on a, one ancilla label on b, port a'
    basis = cloning.label_basis(LAYER_D)
    labels = cloning.oam_labels(LAYER_D)
    amps = haar(rng, LAYER_D)
    psi_a = fock.superposition_state(
        basis, [(fock.ModeIndex("a", "L", m), c) for m, c in zip(labels, amps)])
    psi_b = fock.superposition_state(basis, [(fock.ModeIndex("b", "L", labels[5]), 1.0)])
    bs = elements.splitter(basis)
    two = fock.symmetrize_product(psi_a, psi_b)
    after = elements.apply(bs, two)
    kept = fock.project_keys(after, "a_prime")[0]
    out["fock.symmetrize_product"] = (LAYER_REPEAT,
                                      lambda: fock.symmetrize_product(psi_a, psi_b))
    out["elements.apply"] = (LAYER_REPEAT, lambda: elements.apply(bs, two))
    out["fock.project_keys"] = (LAYER_REPEAT, lambda: fock.project_keys(after, "a_prime"))
    out["fock.reduced_single_pure"] = (LAYER_REPEAT, lambda: fock.reduced_single_pure(kept))
    return out


def per_call_s(fn, calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls


def measure(base, work, blocks: int, calls: int):
    trees = {"base": cases(base), "work": cases(work)}
    for tree in trees.values():  # warm: caches filled, first-call costs paid
        for _, fn in tree.values():
            fn()
    times = {case: {"base": [], "work": []} for case in trees["base"]}
    for block in range(blocks):
        order = ("base", "work") if block % 2 == 0 else ("work", "base")
        for case, seen in times.items():
            for side in order:
                repeat, fn = trees[side][case]
                seen[side].append(per_call_s(fn, calls * repeat))
    report = {}
    for case, seen in times.items():
        ratios = [w / b for b, w in zip(seen["base"], seen["work"])]
        report[case] = {
            "base_us": round(1e6 * statistics.median(seen["base"]), 3),
            "work_us": round(1e6 * statistics.median(seen["work"]), 3),
            "ratio_median": round(statistics.median(ratios), 4),
            "work_faster_blocks": sum(r < 1.0 for r in ratios),
            "blocks": len(ratios),
        }
    return report


def compare(rev: str, blocks: int, calls: int) -> dict:
    """The report of ``blocks`` blocks of ``calls`` calls, working tree against ``rev``."""
    work_src = ROOT / "src"
    with tempfile.TemporaryDirectory() as tmp:
        base_sha = export(rev, Path(tmp))
        base_src = Path(tmp) / "src"
        for src in (base_src, work_src):
            compileall.compile_dir(src / "oamclone", quiet=1)
        base = load(base_src, "oamclone_base")
        work = load(work_src, "oamclone_work")
        started = time.time()
        report = measure(base, work, blocks, calls)
        loc = {"base": source_lines(base_src), "work": source_lines(work_src)}
    return {
        "base": base_sha,
        "work_src_sha256": source_digest(work_src),
        "blocks": blocks,
        "calls": calls,
        "layer_calls": calls * LAYER_REPEAT,
        "seed": SEED,
        "seconds": round(time.time() - started, 1),
        "host": {"cpu": cpu_model(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "numpy": np.__version__},
        "cases": report,
        "src.loc": {**loc, "delta": loc["work"] - loc["base"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--out", required=True, type=Path, help="JSON report to write")
    args = parser.parse_args(argv)
    result = compare(args.base, BLOCKS, CALLS)
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    for case, row in result["cases"].items():
        print(f"{case:26} base {row['base_us']:10.2f} us  work {row['work_us']:10.2f} us  "
              f"x{row['ratio_median']:.3f}  faster {row['work_faster_blocks']}/{row['blocks']}")
    loc = result["src.loc"]
    print(f"src.loc {loc['base']} -> {loc['work']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
