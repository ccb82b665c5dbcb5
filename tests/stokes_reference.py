"""Test-only reference for the stokes scenario: the per-run simulation, one generator
per run with three successive pair draws (+x then -x, +y then -y, +z then -z), and
each run's length by one ``np.linalg.norm``.  It shares no code with
``experiment.simulate_stokes_runs``, which draws each run's six counts in one call.
"""

import numpy as np

from oamclone import cloning
from oamclone.qubit import QubitSpec


def stokes_run(ideal, counts_per_basis, seed):
    """(estimate, length) of one run: each component (c+ - c-)/total, 0.0 without counts."""
    rng = np.random.default_rng(seed)
    est = np.zeros(3)
    for i, s in enumerate(ideal):
        p_plus = min(max((1.0 + s) / 2.0, 0.0), 1.0)
        c_plus, c_minus = rng.poisson([counts_per_basis * p_plus,
                                       counts_per_basis * (1.0 - p_plus)])
        total = c_plus + c_minus
        est[i] = 0.0 if total == 0 else (c_plus - c_minus) / total
    return est, float(np.linalg.norm(est))


def stokes_rows(config):
    """The stokes scenario's CSV rows for a validated config: (state, run, input Bloch
    vector, estimate, length), run k of state i seeded by child i * runs + k."""
    cfg = config["stokes"]
    runs = cfg["runs"]
    seeds = np.random.SeedSequence(config["seed"]).spawn(len(cfg["states"]) * runs)
    rows = []
    for i, label in enumerate(cfg["states"]):
        q = QubitSpec.named(label)
        ideal = cloning.run_cloner_full(q).stokes
        for run in range(runs):
            est, length = stokes_run(ideal, cfg["counts_per_basis"], seeds[i * runs + run])
            rows.append((label, run, *q.bloch(), *est, length))
    return rows
