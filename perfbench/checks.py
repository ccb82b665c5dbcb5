"""Correctness checks applied to every benchmark operation.

Each check returns ``None`` when the result is right and a one-line reason
otherwise.  Tolerances are fixed here and never loosened to make a run pass.
"""

from __future__ import annotations

import json
import math

import numpy as np

from oamclone import cloning, qudit

ATOL = 1e-9
QUBIT_FIDELITY = 5.0 / 6.0
QUBIT_SUCCESS = 3.0 / 8.0


def _mismatch(name, got, want, atol=ATOL):
    if not (isinstance(got, (int, float)) and math.isfinite(got)):
        return f"{name} is {got!r}, expected {want!r}"
    if abs(got - want) > atol:
        return f"{name} = {got!r}, expected {want!r} within {atol:g}"
    return None


def exact_clone(result):
    """An exact-ancilla qubit clone has F = 5/6 and p = 3/8."""
    return (_mismatch("fidelity", result.fidelity, QUBIT_FIDELITY)
            or _mismatch("success probability", result.success_probability, QUBIT_SUCCESS))


def sweep(summary, n_inputs):
    """Every input of a universality sweep is cloned with F = 5/6."""
    if len(summary.per_state) != n_inputs:
        return f"sweep returned {len(summary.per_state)} fidelities, expected {n_inputs}"
    for label, fid in summary.per_state.items():
        problem = _mismatch(f"fidelity of {label}", fid, QUBIT_FIDELITY)
        if problem:
            return problem
    return None


def sampled_clone(result, qubit, samples, seed):
    """A sampled-ancilla clone agrees with the independent projector route."""
    ref = cloning.run_cloner_projector(qubit, samples, seed)
    problem = (_mismatch("fidelity", result.fidelity, ref.fidelity)
               or _mismatch("success probability", result.success_probability,
                            ref.success_probability))
    if problem:
        return problem + " (projector route)"
    gap = float(np.max(np.abs(result.clone_density - ref.clone_density)))
    if not gap <= ATOL:
        return f"clone density differs from the projector route by {gap:g}"
    return None


def qudit_clone(result, spec):
    """A qudit clone matches the closed form, and the oracle where it exists."""
    f_want, p_want = qudit.qudit_formula(spec.d)
    problem = (_mismatch("fidelity", result.fidelity, f_want)
               or _mismatch("success probability", result.success_probability, p_want))
    if problem or spec.d > qudit.MAX_ORACLE_DIM:
        return problem
    f_oracle, p_oracle = qudit.brute_force_oracle(spec)
    problem = (_mismatch("fidelity", result.fidelity, f_oracle)
               or _mismatch("success probability", result.success_probability, p_oracle))
    return problem and problem + " (brute-force oracle)"


def _reject_constant(token):
    raise ValueError(f"non-finite JSON number {token}")


def strict_json(text):
    """Parse JSON as RFC 8259 does: NaN and Infinity are errors."""
    return json.loads(text, parse_constant=_reject_constant)


def _hom(doc):
    return _mismatch("enhancement_ratio", doc["results"]["enhancement_ratio"], 2.0)


def _clone(doc):
    res = doc["results"]
    return (_mismatch("fidelity", res["fidelity"], QUBIT_FIDELITY)
            or _mismatch("success_prob", res["success_prob"], QUBIT_SUCCESS))


def _qudit(doc):
    cfg = doc["config"]["qudit"]
    rows = doc["results"]["rows"]
    dims = [row[0] for row in rows]
    if dims != list(range(cfg["d_min"], cfg["d_max"] + 1)):
        return f"qudit rows cover d = {dims}"
    for d, f_channel, f_formula, p_channel, p_formula in rows:
        f_want, p_want = 0.5 + 1.0 / (d + 1.0), (d + 1.0) / (2.0 * d)
        problem = (_mismatch(f"F_channel(d={d})", f_channel, f_want)
                   or _mismatch(f"F_formula(d={d})", f_formula, f_want)
                   or _mismatch(f"p_channel(d={d})", p_channel, p_want)
                   or _mismatch(f"p_formula(d={d})", p_formula, p_want))
        if problem:
            return problem
    return None


def _experiment(doc):
    cfg = doc["config"]["experiment"]
    res = doc["results"]
    r = cfg["enhancement"]
    predicted = (cfg["f_prep"] * r + 0.5) / (r + 1.0)
    problem = _mismatch("predicted_fidelity", res["predicted_fidelity"], predicted)
    if problem:
        return problem
    mean = res["mean_fidelity"]
    if not (isinstance(mean, float) and 0.0 <= mean <= 1.0):
        return f"mean_fidelity is {mean!r}"
    return None


def _stokes(doc):
    res = doc["results"]
    problem = _mismatch("theory_length", res["theory_length"], 2.0 / 3.0)
    if problem:
        return problem
    if not (isinstance(res["mean_length"], float) and 0.0 < res["mean_length"] <= 1.0):
        return f"mean_length is {res['mean_length']!r}"
    return None


SCENARIO_CHECKS = {
    "hom": _hom,
    "clone": _clone,
    "qudit": _qudit,
    "experiment": _experiment,
    "stokes": _stokes,
}


def scenario_output(scenario, files):
    """Check the files one CLI scenario wrote: ``{file name: bytes}``."""
    expected = {f"{scenario}.json", f"{scenario}.csv"}
    if set(files) != expected:
        return f"{scenario} wrote {sorted(files)}, expected {sorted(expected)}"
    try:
        doc = strict_json(files[f"{scenario}.json"].decode("utf-8"))
        return SCENARIO_CHECKS[scenario](doc)
    except (ValueError, KeyError, TypeError) as exc:
        return f"{scenario}.json: {type(exc).__name__}: {exc}"
