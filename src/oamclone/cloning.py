"""1 -> 2 symmetrization cloner for OAM qubits.

The qubit lives on the {+2, -2} OAM subspace.  The input photon enters path
a, the ancilla photon enters path b in the maximally mixed state, the two
interfere on the balanced beam splitter and the runs where both photons
emerge in a' are kept.  Each surviving photon carries the optimal clone:
fidelity 5/6, single-port success probability 3/8, Bloch vector shrunk to
two thirds of the input one.

Two independent routes compute the channel: ``run_cloner_full`` evolves the
two-photon state through the beam-splitter unitary, ``run_cloner_projector``
projects the input (x) ancilla pair on the symmetric subspace (numpy only).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import elements, fock
from .fock import (
    ConfigurationError,
    DensityOperator,
    InvalidStateError,
    ModeIndex,
    PhotonState,
    build_basis,
)
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


@functools.lru_cache(maxsize=1)
def _cloner_bs():
    # checked once here: the port probability 2 ||S_port||^2 assumes a unitary M
    return elements.beam_splitter(cloner_basis()).validate()


def embed_qubit(qubit: QubitSpec, basis, path: str) -> PhotonState:
    return fock.superposition_state(basis, [
        (ModeIndex(path, _POL, OAM_PLUS), qubit.alpha),
        (ModeIndex(path, _POL, OAM_MINUS), qubit.beta),
    ])


def _extract_o2(rho1: DensityOperator, path: str) -> np.ndarray:
    basis = rho1.basis
    idx = [basis.index(ModeIndex(path, _POL, OAM_PLUS)),
           basis.index(ModeIndex(path, _POL, OAM_MINUS))]
    block = rho1.matrix[np.ix_(idx, idx)]
    tr = np.trace(block).real
    if tr < 1e-12:
        raise InvalidStateError("no population in the o2 sector")
    return block / tr


def _ancilla_states(n_samples, seed):
    """Ancilla ensemble realizing the maximally mixed state.

    Exact mode: the even {+2, -2} mixture.  Sampled mode: a half-wave plate
    at a uniformly random angle before the transferrer, i.e. real qubits
    (cos 2t, sin 2t) with t uniform, which average to I/2.
    """
    if n_samples is None:
        return [(QubitSpec(1.0, 0.0), 0.5), (QubitSpec(0.0, 1.0), 0.5)]
    if n_samples < 1:
        raise ConfigurationError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, math.pi, size=n_samples)
    w = 1.0 / n_samples
    return [(QubitSpec(math.cos(2 * t), math.sin(2 * t)), w) for t in angles]


def _assemble(branches, qubit: QubitSpec) -> CloneResult:
    """Combine per-ancilla post-selected branches into the clone state."""
    success = sum(w * p for _, w, p in branches)
    clone = sum(w * p * rho for rho, w, p in branches) / success
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
    bs = _cloner_bs()
    psi_a = embed_qubit(qubit, basis, "a")
    ensemble = ([(ancilla, 1.0)] if ancilla is not None
                else _ancilla_states(n_ancilla_samples, seed))
    branches = []
    for chi, w in ensemble:
        psi_b = embed_qubit(chi, basis, "b")
        two = fock.symmetrize_product(psi_a, psi_b)
        out = elements.apply(bs, two)
        kept, prob = fock.project_keys(out, port)
        rho = _extract_o2(fock.reduced_single_pure(kept), path=port)
        if port == "b_prime":
            # the input photon reaches b' by reflection; undo the known OAM flip
            rho = _FLIP @ rho @ _FLIP
        branches.append((rho, w, prob))
    return _assemble(branches, qubit)


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
    success = f_prep * good.success_probability + (1 - f_prep) * bad.success_probability
    clone = (f_prep * good.success_probability * good.clone_density
             + (1 - f_prep) * bad.success_probability * bad.clone_density) / success
    target = qubit.vector()
    fid = float(np.real(target.conj() @ clone @ target))
    return CloneResult(clone, float(success), fid, stokes_vector(clone))


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
    fids = {}
    for label, q in qubits.items():
        if f_prep == 1.0:
            fids[label] = run_cloner_full(q).fidelity
        else:
            fids[label] = clone_with_preparation_infidelity(q, f_prep).fidelity
    values = np.array(list(fids.values()))
    return SweepSummary(fids, float(values.min()), float(values.max()),
                        float(values.mean()), float(values.std()))
