"""Imperfection model, loss budget and Poisson count simulation.

Fidelity degradation is applied at the channel level:

    F_th = (F_prep * R + 1/2) / (R + 1)

with F_prep the preparation fidelity and R the measured two-photon
enhancement.  The loss budget multiplies the source coincidence rate by the
squared preparation probability, the single-port cloning probability, the
squared detection probability and the final 1/2 splitting factor of the
analysis fiber splitter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ConfigurationError
from .qubit import QubitSpec, qudit_formula
from .states import STATE_NAMES

POISSON_MEAN_MAX = 9.223372006484771e18  # numpy's poisson limit: int64 max - 10 sqrt(int64 max)


@dataclass
class ImperfectionModel:
    """Preparation fidelity and HOM enhancement actually achieved."""

    f_prep: float = 0.96
    enhancement: float = 1.97

    def __post_init__(self):
        if not 0.5 <= self.f_prep <= 1.0:
            raise ConfigurationError("f_prep must lie in [0.5, 1]")
        if not 1.0 <= self.enhancement <= 2.0:
            raise ConfigurationError("enhancement must lie in [1, 2]")


def predicted_fidelity(model: ImperfectionModel) -> float:
    r = model.enhancement
    return (model.f_prep * r + 0.5) / (r + 1.0)


@dataclass
class LossBudget:
    """Factorized count-rate budget of the coincidence chain.

    ``fiber_coupling`` is an uncertainty interval; ``default_coupling`` is
    the point value used for count simulations.  It sits inside the
    interval and reproduces the observed event rate of about 0.67 Hz
    (400 counts in 600 s) through the lossless-chain formula.
    """

    source_rate_hz: float = 5000.0
    qplate_efficiency: float = 0.80
    transferrer_success: float = 0.5
    fiber_coupling: tuple = (0.15, 0.25)
    default_coupling: float = 1.0 / 6.0

    def __post_init__(self):
        lo, hi = self.fiber_coupling
        for name, value in [("qplate_efficiency", self.qplate_efficiency),
                            ("transferrer_success", self.transferrer_success),
                            ("coupling low", lo), ("coupling high", hi),
                            ("default_coupling", self.default_coupling)]:
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1]")
        if not lo <= self.default_coupling <= hi:
            raise ConfigurationError("default_coupling outside the coupling interval")
        if not (math.isfinite(self.source_rate_hz) and self.source_rate_hz > 0):
            raise ConfigurationError("source rate must be finite and positive")

    @property
    def p_prep(self) -> float:
        return self.qplate_efficiency * self.transferrer_success

    def p_det(self, coupling: float) -> float:
        return self.p_prep * coupling

    def rate(self, coupling: float) -> float:
        return (self.source_rate_hz * self.p_prep ** 2 * (qudit_formula(2)[1] / 2)  # one-port p
                * self.p_det(coupling) ** 2 * 0.5)  # the analysis splitter


def rate_budget(budget: LossBudget):
    """Expected coincidence-rate interval (Hz) over the coupling interval."""
    lo, hi = budget.fiber_coupling
    return budget.rate(lo), budget.rate(hi)


@dataclass
class CountRecord:
    c1: int
    c2: int
    f_exp: float | None  # None without counts
    poisson_error: float | None

    @property
    def total(self) -> int:
        return self.c1 + self.c2


def fidelity_from_counts(c1: int, c2: int):
    """Count-ratio fidelity estimate with its binomial standard error."""
    if any(isinstance(c, bool) or not isinstance(c, (int, np.integer)) or c < 0 for c in (c1, c2)):
        raise ConfigurationError(f"counts must be nonnegative integers, got {(c1, c2)!r}")
    total = c1 + c2
    if total == 0:
        raise ConfigurationError("undefined fidelity estimate: zero total counts")
    f = c1 / total
    sigma = math.sqrt(f * (1.0 - f) / total)
    return f, sigma


def _poisson_pair(mean: float, p, seeds) -> np.ndarray:
    """Per seed, one Poisson draw of the means mean * p, then mean * (1 - p), for each p in
    order, shape (len(seeds), *np.shape(p), 2); means above numpy's limit are refused."""
    means = np.stack([mean * p, mean * (1.0 - p)], axis=-1)
    if means.max() > POISSON_MEAN_MAX:
        raise ConfigurationError(f"Poisson mean {means.max():.3g} above numpy's limit")
    return np.array([np.random.default_rng(seed).poisson(means) for seed in seeds]).reshape(
        -1, *means.shape)


def simulate_counts(input_qubit: QubitSpec, model: ImperfectionModel,
                    budget: LossBudget, duration_s: float, seed) -> CountRecord:
    """Draw Poisson coincidence counts for the clone / anti-clone detectors.

    The D_T x D_1 and D_T x D_2 streams are independent Poisson draws with
    means duration * rate * F and duration * rate * (1 - F), where F =
    predicted_fidelity(model); without counts, f_exp and poisson_error are None.
    Deterministic for a fixed seed.  ``input_qubit`` is not read: the universal
    cloner's counts do not depend on it.
    """
    if not (math.isfinite(duration_s) and duration_s >= 0):
        raise ConfigurationError("duration must be finite and nonnegative")
    rate = budget.rate(budget.default_coupling)
    c1, c2 = _poisson_pair(duration_s * rate, predicted_fidelity(model), [seed])[0].tolist()
    if c1 + c2 == 0:
        return CountRecord(0, 0, None, None)
    f_exp, sigma = fidelity_from_counts(c1, c2)
    return CountRecord(c1, c2, f_exp, sigma)


@dataclass
class TableOneReport:
    rows: list  # (label, c1, c2, f_exp, sigma), None f_exp and sigma without counts
    mean_fidelity: float | None  # over the states that got counts; None if none did
    predicted: float


def table_one_run(model: ImperfectionModel, budget: LossBudget,
                  duration_s: float, seed) -> TableOneReport:
    """Simulated count run for the six reference states."""
    seeds = np.random.SeedSequence(seed).spawn(len(STATE_NAMES))
    rows = []
    fids = []
    for label, sub in zip(STATE_NAMES, seeds):
        rec = simulate_counts(QubitSpec.named(label), model, budget, duration_s, sub)
        rows.append((label, rec.c1, rec.c2, rec.f_exp, rec.poisson_error))
        if rec.total:
            fids.append(rec.f_exp)
    mean = float(np.mean(fids)) if fids else None
    return TableOneReport(rows, mean, predicted_fidelity(model))


@dataclass
class StokesRun:
    input_bloch: np.ndarray
    estimated: np.ndarray
    length: float


def simulate_stokes_runs(input_qubit: QubitSpec, counts_per_basis: int, seeds, *, ideal=None):
    """Stokes-vector estimates of the ideal clone from finite count statistics, one per seed.

    For each of the three Pauli axes the two projective outcomes receive
    independent Poisson counts around their ideal-clone probabilities and
    the component is estimated as the normalized count difference (0.0 without
    counts).  ``ideal`` is the ideal clone's Stokes vector: three finite components
    with norm at most 1 (+1e-12 for rounding); left out, it is computed with
    ``cloning.run_cloner_full(input_qubit)``.  Checked once for all seeds; returns
    (the input's Bloch vector, the estimates as a (len(seeds), 3) array, their lengths).
    """
    if (isinstance(counts_per_basis, (bool, np.bool_))
            or not 1 <= counts_per_basis <= POISSON_MEAN_MAX
            or counts_per_basis != int(counts_per_basis)):
        raise ConfigurationError("counts_per_basis must be a finite integer, 1 to POISSON_MEAN_MAX")
    if ideal is None:
        from . import cloning
        ideal = cloning.run_cloner_full(input_qubit).stokes
    ideal = np.asarray(ideal, dtype=float)
    if ideal.shape != (3,) or not np.all(np.isfinite(ideal)) \
            or np.linalg.norm(ideal) > 1.0 + 1e-12:
        raise ConfigurationError("ideal must be 3 finite Stokes components of norm at most 1")
    p_plus = np.clip((1.0 + ideal) / 2.0, 0.0, 1.0)  # |s| may pass 1 by the rounding
    counts = _poisson_pair(counts_per_basis, p_plus, seeds)  # +x, -x, +y, -y, +z, -z
    c_plus, c_minus = counts[..., 0], counts[..., 1]
    est = (c_plus - c_minus) / np.maximum(c_plus + c_minus, 1)  # 0.0 where a basis has no counts
    return input_qubit.bloch(), est, [float(np.linalg.norm(e)) for e in est]


def simulate_stokes(input_qubit: QubitSpec, counts_per_basis: int, seed, *,
                    ideal=None) -> StokesRun:
    """``simulate_stokes_runs`` for one seed."""
    bloch, est, lengths = simulate_stokes_runs(input_qubit, counts_per_basis, [seed], ideal=ideal)
    return StokesRun(bloch, est[0], lengths[0])
