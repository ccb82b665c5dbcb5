"""The 1 -> 2 symmetrization cloner, one core for every dimension d.

The input photon enters path a over the d OAM labels ``oam_labels(d)``, each
state of the I/d ancilla mixture enters path b, and the runs where both photons
leave the balanced beam splitter by one port are kept (``elements.coalesce``):
each carries the clone.  The OAM qubit on {+2, -2} is the d = 2 case: fidelity
5/6, single-port success probability 3/8, Bloch vector shrunk to 2/3.

Two independent routes compute the qubit channel: ``run_cloner_full`` evolves
the two-photon state through the beam-splitter unitary, ``run_cloner_projector``
projects the input (x) ancilla pair on the symmetric subspace (numpy only).
The core checks every clone, for every d, with ``DensityOperator.validate``, returns
it in label order (``label_modes``) and scores it once: the fidelity <phi|C|phi>.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import elements, fock
from .fock import ConfigurationError, ModeBasis, ModeIndex, PhotonState, build_basis
from .qubit import SIX_STATE_AMPLITUDES, QubitSpec, haar_random_qubit, stokes_vector

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


@functools.lru_cache(maxsize=128)
def label_modes(d: int, path: str) -> tuple:
    """The modes that carry the labels ``oam_labels(d)`` on ``path``, in label order:
    mode m on a, b and a', and -m on b', which the input reaches by reflection."""
    sign = -1 if path == "b_prime" else 1
    return tuple(ModeIndex(path, _POL, sign * m) for m in oam_labels(d))


@functools.lru_cache(maxsize=64)
def _label_port(d: int, port: str):
    """(``port``'s sub-basis in label order, the ``np.ix_`` index that puts its block in it)."""
    idx = [label_basis(d).port(port)[0].index(mode) for mode in label_modes(d, port)]
    return ModeBasis(label_modes(d, port)), np.ix_(idx, idx)


def cloner_basis() -> ModeBasis:
    return label_basis(2)


def embed_qubit(qubit: QubitSpec, basis, path: str) -> PhotonState:
    return fock.superposition_state(basis, zip(label_modes(2, path), (qubit.alpha, qubit.beta)))


@functools.lru_cache(maxsize=32)
def label_states(d: int) -> tuple:
    """The ancilla label states |b, m> in label order, which serve every input
    (the clone is linear in the ancilla); read-only, so no caller can change them."""
    states = tuple(fock.superposition_state(label_basis(d), [(mode, 1.0)])
                   for mode in label_modes(d, "b"))
    for psi in states:
        psi.amplitudes.flags.writeable = False
    return states


def _clone(amps, port: str, ancillas=None):
    """Clone ``amps`` over ``oam_labels(len(amps))`` on path a with ``ancillas``, each
    (amplitudes in label order, weight) on b; None is I/d over the cached
    ``label_states``.  Returns (the clone over the port's modes in label order, checked by
    ``DensityOperator.validate``; its single-port success probability; Re <amps|clone|amps>)."""
    d = len(amps)
    basis = label_basis(d)
    if ancillas is None:
        ensemble = ((psi_b, 1.0 / d) for psi_b in label_states(d))
    else:
        ensemble = ((fock.superposition_state(basis, zip(label_modes(d, "b"), chi)), w)
                    for chi, w in ancillas)
    rho, success = elements.coalesce(
        fock.superposition_state(basis, zip(label_modes(d, "a"), amps)), ensemble, port)
    sub, idx = _label_port(d, port)
    clone = fock.DensityOperator(sub, rho.matrix[idx]).validate()
    amps = np.asarray(amps, dtype=complex)
    return clone, success, float(np.real(amps.conj() @ clone.matrix @ amps))


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
                    seed: int | None = None, port: str = "a_prime") -> CloneResult:
    """Clone via the explicit beam-splitter evolution and same-port post-selection.

    The ancilla is the exact I/2, or ``n_ancilla_samples`` sampled states;
    ``port`` selects which output port is post-selected, both yield the same
    clone state.
    """
    if port not in ("a_prime", "b_prime"):
        raise ConfigurationError("port must be 'a_prime' or 'b_prime'")
    ancillas = None  # the core's exact I/2
    if n_ancilla_samples is not None:
        ancillas = _ancilla_states(n_ancilla_samples, seed)
    clone, success, fidelity = _clone((qubit.alpha, qubit.beta), port, ancillas)
    return CloneResult(clone.matrix, float(success), fidelity, stokes_vector(clone.matrix))


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
