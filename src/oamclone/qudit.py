"""Symmetrization cloning generalized to d-dimensional OAM states.

``qudit_clone`` runs the core of ``cloning`` over the d OAM labels
``cloning.oam_labels(d)``, whose d = 2 case is the OAM qubit on {+2, -2}; the
splitter flips OAM on reflection, as for the qubit.  The input meets each label
state |b, m_k> of the ancilla, weight 1/d.  The clone is linear in the ancilla
state, so this label basis gives the same clone as any other orthonormal basis
of I/d (Werner, PRA 58, 1827 (1998)), the label states are built once per d
(``cloning.label_states``), and each branch occupies only d + 1 modes before
the splitter.  Closed forms: F = 1/2 + 1/(d+1), both-port p = (d+1)/(2d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloning import _clone
from .fock import ConfigurationError, DensityOperator

# brute_force_oracle's cap, read by the benchmark checks; its pair operator is
# d^2 x d^2, so checks at larger d call symmetric_subspace_clone directly
MAX_ORACLE_DIM = 8


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
    clone_density: DensityOperator  # over the a' modes, in label order


def qudit_formula(d: int):
    """Closed-form optimal cloning fidelity and success probability."""
    if d < 1:
        raise ConfigurationError("dimension must be >= 1")
    return 0.5 + 1.0 / (d + 1.0), (d + 1.0) / (2.0 * d)


def qudit_clone(spec: QuditSpec) -> QuditCloneResult:
    """Run the symmetrization channel with the I_d/d ancilla over its label states."""
    clone, success, fidelity = _clone(spec.amplitudes, "a_prime")
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
