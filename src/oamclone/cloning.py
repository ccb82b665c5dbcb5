"""1 -> 2 symmetrization cloner for OAM qubits.

The qubit lives on the {+2, -2} OAM subspace.  The input photon enters path
a, the ancilla photon enters path b in the maximally mixed state, the two
interfere on the balanced beam splitter and the runs where both photons
emerge in a' are kept (``elements.coalesce``, as for the qudit cloner).
Each surviving photon carries the optimal clone: fidelity 5/6, single-port
success probability 3/8, Bloch vector shrunk to two thirds of the input one.

Two independent routes compute the channel: ``run_cloner_full`` evolves the
two-photon state through the beam-splitter unitary, ``run_cloner_projector``
projects the input (x) ancilla pair on the symmetric subspace (numpy only).
Each clone is checked in closed form: unit trace, Hermiticity, det >= 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import elements, fock
from .fock import (HERM_ATOL, NORM_ATOL, PSD_ATOL, ConfigurationError, InvalidStateError,
                   ModeIndex, PhotonState, build_basis)
from .qubit import (PAULI, SIX_STATE_AMPLITUDES, QubitSpec,  # noqa: F401
                    haar_random_qubit, stokes_vector)

OAM_PLUS = 2
OAM_MINUS = -2
_POL = "L"  # both photons share one polarization; the qubit is OAM only

_FLIP = np.array([[0, 1], [1, 0]], dtype=complex)  # OAM sign inversion on o2


@dataclass
class CloneResult:
    """Outcome of one cloning run on the {+2, -2} sector."""

    clone_density: np.ndarray  # 2x2, unit trace
    success_probability: float
    fidelity: float
    stokes: np.ndarray

    def to_record(self, input_qubit: QubitSpec) -> dict:
        return {
            "input_bloch": [float(x) for x in input_qubit.bloch()],
            "fidelity": float(self.fidelity),
            "success_prob": float(self.success_probability),
            "stokes": [float(x) for x in self.stokes],
        }


@functools.lru_cache(maxsize=1)
def cloner_basis():
    return build_basis(("a", "b", "a_prime", "b_prime"),
                       (OAM_MINUS, OAM_PLUS), pols=(_POL,))


def embed_qubit(qubit: QubitSpec, basis, path: str) -> PhotonState:
    return fock.superposition_state(basis, [
        (ModeIndex(path, _POL, OAM_PLUS), qubit.alpha),
        (ModeIndex(path, _POL, OAM_MINUS), qubit.beta),
    ])


def _ancilla_states(n_samples, seed):
    """Ancilla ensemble realizing the maximally mixed state.

    Exact mode: the even {+2, -2} mixture.  Sampled mode: a half-wave plate
    at a uniformly random angle before the transferrer, i.e. real qubits
    (cos 2t, sin 2t) with t uniform, which average to I/2; yielded one at a
    time, so memory does not grow with n_samples.
    """
    if n_samples is None:
        return [(QubitSpec(1.0, 0.0), 0.5), (QubitSpec(0.0, 1.0), 0.5)]
    if n_samples < 1:
        raise ConfigurationError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, math.pi, size=n_samples)
    w = 1.0 / n_samples
    return ((QubitSpec(math.cos(2 * t), math.sin(2 * t)), w) for t in angles)


def _assemble(clone: np.ndarray, success: float, qubit: QubitSpec) -> CloneResult:
    """Check the 2x2 clone (Hermitian with unit trace: PSD iff det >= 0) and score it."""
    (c00, c01), (c10, c11) = clone.tolist()
    trace_err, herm_err = abs(c00 + c11 - 1.0), abs(c01 - c10.conjugate())
    det = (c00 * c11 - c01 * c10).real
    if trace_err > NORM_ATOL or herm_err > HERM_ATOL or det < -PSD_ATOL:
        raise InvalidStateError(f"clone is not a density matrix: |tr - 1| = {trace_err:.2e}, "
                                f"Hermiticity residual {herm_err:.2e}, det {det:.2e}")
    target = qubit.vector()
    fidelity = float(np.real(target.conj() @ clone @ target))
    return CloneResult(clone, float(success), fidelity, stokes_vector(clone))


def run_cloner_full(qubit: QubitSpec, n_ancilla_samples: int | None = None,
                    seed: int | None = None, ancilla: QubitSpec | None = None,
                    port: str = "a_prime") -> CloneResult:
    """Clone via the explicit beam-splitter evolution and same-port post-selection.

    ``ancilla`` replaces the maximally mixed ancilla by a pure state (used
    to reproduce the identical-photon limit); ``port`` selects which output
    port is post-selected, both yield the same clone state.
    """
    if port not in ("a_prime", "b_prime"):
        raise ConfigurationError("port must be 'a_prime' or 'b_prime'")
    basis = cloner_basis()
    ensemble = ([(ancilla, 1.0)] if ancilla is not None
                else _ancilla_states(n_ancilla_samples, seed))
    rho, success = elements.coalesce(
        embed_qubit(qubit, basis, "a"),
        ((embed_qubit(chi, basis, "b"), w) for chi, w in ensemble), port)
    # the port orders OAM ascending (-2, +2), the qubit (+2, -2); on b' the
    # input photon arrives by reflection, and its OAM flip undoes that reorder
    return _assemble(rho.matrix if port == "b_prime" else rho.matrix[::-1, ::-1],
                     success, qubit)


def run_cloner_projector(qubit: QubitSpec, n_ancilla_samples: int | None = None,
                         seed: int | None = None) -> CloneResult:
    """Clone via Werner's symmetric-subspace projection (independent route).

    The ancilla reaches a' by reflection, which flips its OAM sign, so the
    pair there is projected from rho (x) X sigma X; half of the coalescing
    pairs exit in a'.
    """
    from .qudit import symmetric_subspace_clone
    sigma = sum(w * _FLIP @ np.outer(chi.vector(), chi.vector().conj()) @ _FLIP
                for chi, w in _ancilla_states(n_ancilla_samples, seed))
    target = qubit.vector()
    clone, p = symmetric_subspace_clone(np.outer(target, target.conj()), sigma)
    fidelity = float(np.real(target.conj() @ clone @ target))
    return CloneResult(clone, p / 2.0, fidelity, stokes_vector(clone))


def clone_with_preparation_infidelity(qubit: QubitSpec, f_prep: float,
                                      runner=run_cloner_full) -> CloneResult:
    """Cloner fed the imperfectly prepared input F|phi><phi| + (1-F)|perp><perp|."""
    if not 0.5 <= f_prep <= 1.0:
        raise ConfigurationError("f_prep must lie in [0.5, 1]")
    good = runner(qubit)
    if f_prep == 1.0:
        return good
    bad = runner(qubit.orthogonal())
    w_good = f_prep * good.success_probability
    w_bad = (1 - f_prep) * bad.success_probability
    return _assemble((w_good * good.clone_density + w_bad * bad.clone_density)
                     / (w_good + w_bad), w_good + w_bad, qubit)


@dataclass
class SweepSummary:
    per_state: dict
    min_fidelity: float
    max_fidelity: float
    mean_fidelity: float
    std_fidelity: float


def universality_sweep(n: int, seed: int | None = 0, f_prep: float = 1.0) -> SweepSummary:
    """Clone the six reference states plus n Haar-random qubits."""
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    rng = np.random.default_rng(seed)
    qubits = {label: QubitSpec.named(label) for label in SIX_STATE_AMPLITUDES}
    for k in range(n):
        qubits[f"random_{k}"] = haar_random_qubit(rng)
    # looked up now, not the bound default, so a wrapper on run_cloner_full sees each clone
    fids = {label: clone_with_preparation_infidelity(q, f_prep, run_cloner_full).fidelity
            for label, q in qubits.items()}
    values = np.array(list(fids.values()))
    return SweepSummary(fids, float(values.min()), float(values.max()),
                        float(values.mean()), float(values.std()))
