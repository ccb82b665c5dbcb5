"""Symmetrization cloning generalized to d-dimensional internal states.

Default mode treats the internal levels as abstract labels: the beam
splitter then acts on the path degree of freedom only (no OAM sign flip on
reflection).  Passing explicit OAM labels with ``oam_flip=True`` restores
the physical reflection bookkeeping; the label set must then be closed
under m -> -m.

Closed forms: F = 1/2 + 1/(d+1) and p = (d+1)/(2d) for the both-port
success probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import elements, fock
from .fock import ConfigurationError, DensityOperator, ModeIndex, build_basis

# brute_force_oracle's cap, read by the benchmark checks; its pair operator is
# d^2 x d^2, so checks at larger d call symmetric_subspace_clone directly
MAX_ORACLE_DIM = 8
_POL = "L"


@dataclass
class QuditSpec:
    """Normalized amplitude vector of the d-level input state."""

    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.ndim != 1 or self.amplitudes.size < 1:
            raise ConfigurationError("amplitudes must be a nonempty vector")
        if not np.all(np.isfinite(self.amplitudes)):
            raise ConfigurationError("amplitudes must be finite")
        nrm = np.linalg.norm(self.amplitudes)
        if abs(nrm - 1.0) > 1e-12:
            if nrm < 1e-15:
                raise ConfigurationError("zero qudit amplitudes")
            self.amplitudes = self.amplitudes / nrm

    @property
    def d(self) -> int:
        return self.amplitudes.size


@dataclass
class QuditCloneResult:
    fidelity: float
    success_probability: float
    clone_density: DensityOperator


def qudit_formula(d: int):
    """Closed-form optimal cloning fidelity and success probability."""
    if d < 1:
        raise ConfigurationError("dimension must be >= 1")
    return 0.5 + 1.0 / (d + 1.0), (d + 1.0) / (2.0 * d)


def ancilla_basis(phi: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis with phi as the first column.

    Completion by modified Gram-Schmidt over the canonical unit vectors in
    fixed pivot order, skipping near-dependent candidates.
    """
    d = phi.size
    cols = [np.asarray(phi, dtype=complex)]
    for k in range(d):
        if len(cols) == d:
            break
        v = np.zeros(d, dtype=complex)
        v[k] = 1.0
        for c in cols:
            v = v - np.vdot(c, v) * c
        nrm = np.linalg.norm(v)
        if nrm > 1e-9:
            cols.append(v / nrm)
    if len(cols) != d:
        raise ConfigurationError("basis completion failed")
    return np.column_stack(cols)


def _default_labels(d: int, oam_flip: bool):
    if oam_flip:
        # symmetric integer set closed under negation, e.g. d=4 -> -3,-1,1,3
        return [2 * k - (d - 1) for k in range(d)]
    return list(range(d))


def qudit_clone(spec: QuditSpec, labels=None, oam_flip: bool = False) -> QuditCloneResult:
    """Run the symmetrization channel with an I_d/d ancilla.

    The ancilla mixture is taken over the deterministic basis whose first
    element is the input state itself.
    """
    d = spec.d
    labels = list(labels) if labels is not None else _default_labels(d, oam_flip)
    if len(set(labels)) != d:
        raise ConfigurationError("labels must be d distinct integers")
    if oam_flip and any(-m not in labels for m in labels):
        raise ConfigurationError("labels not closed under m -> -m; use oam_flip=False")
    basis = build_basis(("a", "b", "a_prime", "b_prime"), labels, pols=(_POL,))
    bs = elements.beam_splitter(basis, oam_flip=oam_flip)

    def embed(vec, path):
        return fock.superposition_state(
            basis, [(ModeIndex(path, _POL, labels[k]), vec[k])
                    for k in range(d) if abs(vec[k]) > 1e-15])

    psi_a = embed(spec.amplitudes, "a")
    anc = ancilla_basis(spec.amplitudes)
    success = 0.0
    acc = None
    for k in range(d):
        psi_b = embed(anc[:, k], "b")
        two = fock.symmetrize_product(psi_a, psi_b)
        out = elements.apply(bs, two)
        kept, prob = fock.project_keys(out, "a_prime")
        rho = fock.reduced_single_pure(kept)
        contrib = (prob / d) * rho.matrix
        acc = contrib if acc is None else acc + contrib
        success += prob / d
    clone = DensityOperator(basis, "single", acc / success)
    target = embed(spec.amplitudes, "a_prime").amplitudes
    fidelity = float(np.real(target.conj() @ clone.matrix @ target))
    # both BS ports contribute equally; quote the combined success probability
    return QuditCloneResult(fidelity, 2.0 * success, clone)


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


def brute_force_oracle(spec: QuditSpec):
    """Fidelity and both-port success probability of the I/d-ancilla cloner."""
    d = spec.d
    if d > MAX_ORACLE_DIM:
        raise ConfigurationError(f"oracle limited to d <= {MAX_ORACLE_DIM}")
    phi = spec.amplitudes
    clone, p = symmetric_subspace_clone(np.outer(phi, phi.conj()), np.eye(d) / d)
    return float(np.real(phi.conj() @ clone @ phi)), p
