"""The 1 -> 2 symmetrization cloner, one core for every dimension d.

The input photon enters path a over the d OAM labels ``oam_labels(d)``, each
state of the I/d ancilla mixture enters path b, and the runs where both photons
leave the balanced beam splitter by one port are kept (``elements.coalesce``):
each carries the clone.  The OAM qubit on {+2, -2} is the d = 2 case: fidelity
5/6, single-port success probability 3/8, Bloch vector shrunk to 2/3.

Two independent routes compute the qubit channel: ``run_cloner_full`` evolves
the two-photon state through the beam-splitter unitary, ``run_cloner_projector``
projects the input (x) ancilla pair on the symmetric subspace (numpy only).
The core checks every clone, for every d, with ``DensityOperator.validate`` and
scores it once: the fidelity <phi|C|phi> in label order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import elements, fock
from .fock import ConfigurationError, ModeBasis, ModeIndex, PhotonState, build_basis
from .qubit import SIX_STATE_AMPLITUDES, QubitSpec, haar_random_qubit, stokes_vector

OAM_PLUS = 2
OAM_MINUS = -2
_POL = "L"  # both photons share one polarization; the labels are OAM only


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


def oam_labels(d: int) -> tuple:
    """The cloner's d OAM labels 2(d-1), 2(d-3), ..., -2(d-1): closed under the
    reflection's m -> -m, and the qubit's (+2, -2) at d = 2."""
    return tuple(range(2 * (d - 1), -2 * d, -4))


@functools.lru_cache(maxsize=32)
def label_basis(d: int) -> ModeBasis:
    """The four-path basis over ``oam_labels(d)``, built once per d."""
    return build_basis(("a", "b", "a_prime", "b_prime"), oam_labels(d), pols=(_POL,))


def cloner_basis() -> ModeBasis:
    return label_basis(2)


def embed_qubit(qubit: QubitSpec, basis, path: str) -> PhotonState:
    return fock.superposition_state(basis, [
        (ModeIndex(path, _POL, OAM_PLUS), qubit.alpha),
        (ModeIndex(path, _POL, OAM_MINUS), qubit.beta),
    ])


@functools.lru_cache(maxsize=32)
def label_states(d: int) -> tuple:
    """The ancilla label states |b, m> in label order, which serve every input
    (the clone is linear in the ancilla); read-only, so no caller can change them."""
    basis = label_basis(d)
    states = tuple(fock.superposition_state(basis, [(mode, 1.0)])
                   for mode in basis.port("b")[0].modes[::-1])  # the port ascends
    for psi in states:
        psi.amplitudes.flags.writeable = False
    return states


def _clone(amps, port: str, ancillas=None):
    """Clone ``amps`` over ``oam_labels(len(amps))`` on path a with ``ancillas``, each
    (amplitudes in label order, weight) on b; None is I/d over the cached
    ``label_states``.  Every clone is checked (``DensityOperator.validate``).  Returns
    (the clone over the port's modes, the same clone in label order, the single-port
    success probability, the fidelity Re <amps|clone|amps>)."""
    d = len(amps)
    basis = label_basis(d)
    a, b = (basis.port(path)[0].modes[::-1] for path in ("a", "b"))  # in label order
    if ancillas is None:
        ensemble = ((psi_b, 1.0 / d) for psi_b in label_states(d))
    else:
        ensemble = ((fock.superposition_state(basis, zip(b, chi)), w) for chi, w in ancillas)
    rho, success = elements.coalesce(fock.superposition_state(basis, zip(a, amps)),
                                     ensemble, port)
    rho.validate()
    # the port orders OAM ascending: on a' the labels read it backwards, and on b',
    # where label m arrives as -m, forwards
    clone = rho.matrix[::-1, ::-1].copy() if port == "a_prime" else rho.matrix
    amps = np.asarray(amps, dtype=complex)
    return rho, clone, success, float(np.real(amps.conj() @ clone @ amps))


def _ancilla_states(n_samples, seed):
    """Sampled ancilla ensemble realizing I/2, as ((alpha, beta), weight): a half-wave
    plate at a uniformly random angle before the transferrer, i.e. real qubits
    (cos 2t, sin 2t) with t uniform; yielded one at a time, so memory does not grow
    with n_samples.  The exact I/2 is the core's default ancilla.
    """
    if n_samples < 1:
        raise ConfigurationError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, math.pi, size=n_samples)
    w = 1.0 / n_samples
    return (((math.cos(2 * t), math.sin(2 * t)), w) for t in angles)


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
    ancillas = None  # the core's exact I/2
    if ancilla is not None:
        ancillas = [((ancilla.alpha, ancilla.beta), 1.0)]
    elif n_ancilla_samples is not None:
        ancillas = _ancilla_states(n_ancilla_samples, seed)
    _, clone, success, fidelity = _clone((qubit.alpha, qubit.beta), port, ancillas)
    return CloneResult(clone, float(success), fidelity, stokes_vector(clone))


def run_cloner_projector(qubit: QubitSpec, n_ancilla_samples: int | None = None,
                         seed: int | None = None) -> CloneResult:
    """Clone via Werner's symmetric-subspace projection (independent route).

    The ancilla reaches a' by reflection, which flips its OAM sign, so the
    pair there is projected from rho (x) X sigma X; half of the coalescing
    pairs exit in a'.
    """
    from .qudit import symmetric_subspace_clone
    sigma = np.eye(2) / 2 if n_ancilla_samples is None else sum(
        w * np.outer(chi, np.conj(chi))[::-1, ::-1]  # X sigma X
        for chi, w in _ancilla_states(n_ancilla_samples, seed))
    target = qubit.vector()
    clone, p = symmetric_subspace_clone(np.outer(target, target.conj()), sigma)
    fidelity = float(np.real(target.conj() @ clone @ target))
    return CloneResult(clone, p / 2.0, fidelity, stokes_vector(clone))


def clone_with_preparation_infidelity(qubit: QubitSpec, f_prep: float) -> CloneResult:
    """Cloner fed the imperfectly prepared input F|phi><phi| + (1-F)|perp><perp|."""
    if not 0.5 <= f_prep <= 1.0:
        raise ConfigurationError("f_prep must lie in [0.5, 1]")
    good = run_cloner_full(qubit)
    if f_prep == 1.0:
        return good
    bad = run_cloner_full(qubit.orthogonal())
    w_good = f_prep * good.success_probability
    w_bad = (1 - f_prep) * bad.success_probability
    # a mix of two checked clones: scored here, not checked again
    clone = (w_good * good.clone_density + w_bad * bad.clone_density) / (w_good + w_bad)
    target = qubit.vector()
    fidelity = float(np.real(target.conj() @ clone @ target))
    return CloneResult(clone, w_good + w_bad, fidelity, stokes_vector(clone))


@dataclass
class SweepSummary:
    per_state: dict
    min_fidelity: float
    max_fidelity: float
    mean_fidelity: float
    std_fidelity: float


def universality_sweep(n: int, seed: int | None = 0) -> SweepSummary:
    """Clone the six reference states plus n Haar-random qubits."""
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    rng = np.random.default_rng(seed)
    qubits = {label: QubitSpec.named(label) for label in SIX_STATE_AMPLITUDES}
    for k in range(n):
        qubits[f"random_{k}"] = haar_random_qubit(rng)
    fids = {label: run_cloner_full(q).fidelity for label, q in qubits.items()}
    values = np.array(list(fids.values()))
    return SweepSummary(fids, float(values.min()), float(values.max()),
                        float(values.mean()), float(values.std()))
