"""The 1 -> 2 symmetrization cloner, one core (``label_clone``) for every dimension d.

The input photon enters path a over the d OAM labels ``oam_labels(d)``, each
state of the I/d ancilla mixture enters path b, and the runs where both photons
leave the balanced beam splitter by one port are kept (``elements.coalesce``):
each carries the clone.  The OAM qubit on {+2, -2} is the d = 2 case: fidelity
5/6, single-port success probability 3/8, Bloch vector shrunk to 2/3.

Two independent routes compute the qubit channel: ``run_cloner_full`` evolves
the two-photon state through the beam-splitter unitary, ``run_cloner_projector``
projects the input (x) ancilla pair on the symmetric subspace
(``symmetric_subspace_clone``, numpy only, the package's one oracle).
The basis lists each path in label order (``label_basis``), so the port block that
``coalesce`` returns is the clone in label order; the core checks it, for every d, with
``DensityOperator.validate`` and scores it once: the fidelity <phi|C|phi>.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import ConfigurationError, elements, fock
from .fock import ModeBasis, ModeIndex, PhotonState
from .qubit import QubitSpec, haar_random_qubit, stokes_vector
from .states import SIX_STATE_AMPLITUDES

_POL = "L"  # both photons share one polarization; the labels are OAM only


@dataclass
class CloneResult:
    """Outcome of one cloning run on the {+2, -2} sector."""

    clone_density: np.ndarray  # 2x2, unit trace
    success_probability: float
    fidelity: float
    stokes: np.ndarray


def oam_labels(d: int) -> tuple:
    """The cloner's d OAM labels 2(d-1), 2(d-3), ..., -2(d-1): closed under the
    reflection's m -> -m, and the qubit's (+2, -2) at d = 2."""
    return tuple(range(2 * (d - 1), -2 * d, -4))


@functools.lru_cache(maxsize=32)
def label_basis(d: int) -> ModeBasis:
    """The four-path basis over ``oam_labels(d)``, built once per d: each path in label
    order, mode m on a, b and a' and -m on b' (reached by reflection), so each port too."""
    return ModeBasis(ModeIndex(path, _POL, -m if path == "b_prime" else m)
                     for path in fock.PATHS for m in oam_labels(d))


def label_modes(d: int, path: str) -> tuple:
    """The modes that carry the labels ``oam_labels(d)`` on ``path``, in label order."""
    return label_basis(d).port(path)[0].modes


def cloner_basis() -> ModeBasis:
    return label_basis(2)


def embed_qubit(qubit: QubitSpec, basis, path: str) -> PhotonState:
    return fock.superposition_state(basis, zip(label_modes(2, path), qubit.amplitudes))


def _label_state(amps, d: int, path: str) -> PhotonState:
    """``amps`` over ``oam_labels(d)`` on ``path``; ConfigurationError unless there are d."""
    if len(amps) != d:
        raise ConfigurationError(f"{len(amps)} amplitudes on path {path}, not d = {d}")
    return fock.superposition_state(label_basis(d), zip(label_modes(d, path), amps))


@functools.lru_cache(maxsize=32)
def label_states(d: int) -> tuple:
    """The ancilla label states |b, m> in label order, which serve every input
    (the clone is linear in the ancilla); read-only, so no caller can change them."""
    states = tuple(_label_state(chi, d, "b") for chi in np.eye(d))
    for psi in states:
        psi.amplitudes.flags.writeable = False
    return states


def label_clone(amps, port: str, ancillas=None):
    """Clone ``amps`` over ``oam_labels(d)``, d = len(amps), on path a with ``ancillas``,
    each (d amplitudes in label order, weight) on b; None is I/d over the cached
    ``label_states``.  Returns (the clone over the port's modes in label order, checked by
    ``DensityOperator.validate``; its single-port success probability; Re <phi|clone|phi>)."""
    d = len(amps)
    if ancillas is None:
        ensemble = ((psi_b, 1.0 / d) for psi_b in label_states(d))
    else:
        ensemble = ((_label_state(chi, d, "b"), w) for chi, w in ancillas)
    psi_a = _label_state(amps, d, "a")
    rho, success = elements.coalesce(psi_a, ensemble, port)
    clone = rho.validate()
    phi = psi_a.amplitudes[:d]  # amps normalized: path a's modes come first, in label order
    return clone, success, float(np.real(phi.conj() @ clone.matrix @ phi))


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
    clone state.  The success probability is that one port's, 3/8 for the exact I/2.
    """
    if port not in ("a_prime", "b_prime"):
        raise ConfigurationError("port must be 'a_prime' or 'b_prime'")
    ancillas = None  # the core's exact I/2
    if n_ancilla_samples is not None:
        ancillas = _ancilla_states(n_ancilla_samples, seed)
    clone, success, fidelity = label_clone(qubit.amplitudes, port, ancillas)
    return CloneResult(clone.matrix, float(success), fidelity, stokes_vector(clone.matrix))


def run_cloner_projector(qubit: QubitSpec, n_ancilla_samples: int | None = None,
                         seed: int | None = None) -> CloneResult:
    """Clone via Werner's symmetric-subspace projection (independent route).

    The ancilla reaches a' by reflection, which flips its OAM sign, so the
    pair there is projected from rho (x) X sigma X; half of the coalescing
    pairs exit in a', so the success probability is that one port's (3/8 for I/2).
    """
    sigma = np.eye(2) / 2 if n_ancilla_samples is None else sum(
        w * np.outer(chi, np.conj(chi))[::-1, ::-1]  # X sigma X
        for chi, w in _ancilla_states(n_ancilla_samples, seed))
    target = qubit.amplitudes
    clone, p = symmetric_subspace_clone(np.outer(target, target.conj()), sigma)
    fidelity = float(np.real(target.conj() @ clone @ target))
    return CloneResult(clone, p / 2.0, fidelity, stokes_vector(clone))


def symmetric_subspace_clone(rho: np.ndarray, sigma: np.ndarray):
    """Werner's optimal 1 -> 2 cloner: project rho (x) sigma on the symmetric subspace.

    With P = (I + SWAP)/2 on C^d (x) C^d, returns the reduced one-photon
    state clone = Tr_2[P (rho (x) sigma) P] / p and p = Tr[P (rho (x) sigma) P],
    the probability that the pair is symmetric, i.e. coalesces onto one port
    of a balanced splitter (Werner, PRA 58, 1827 (1998); Buzek & Hillery,
    PRA 54, 1844 (1996)).  numpy only, so it checks the Fock-space
    simulator without sharing any of its code.
    """
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)
    sym = (np.eye(d * d) + swap) / 2.0
    pair = sym @ np.kron(rho, sigma) @ sym
    p = float(np.real(np.trace(pair)))
    clone = np.trace(pair.reshape(d, d, d, d), axis1=1, axis2=3) / p
    return clone, p


@dataclass
class SweepSummary:
    per_state: dict  # label -> fidelity


def universality_sweep(n: int, seed: int | None = 0) -> SweepSummary:
    """Clone the six reference states plus n Haar-random qubits."""
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    rng = np.random.default_rng(seed)
    qubits = {label: QubitSpec.named(label) for label in SIX_STATE_AMPLITUDES}
    for k in range(n):
        qubits[f"random_{k}"] = haar_random_qubit(rng)
    return SweepSummary({label: run_cloner_full(q).fidelity for label, q in qubits.items()})
