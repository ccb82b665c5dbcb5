"""Symmetrization cloning generalized to d-dimensional OAM states.

``qudit_clone`` runs the core ``cloning.label_clone`` over the d OAM labels
``cloning.oam_labels(d)``, whose d = 2 case is the OAM qubit on {+2, -2}; the
splitter flips OAM on reflection, as for the qubit.  The input meets each label
state |b, m_k> of the ancilla, weight 1/d.  The clone is linear in the ancilla
state, so this label basis gives the same clone as any other orthonormal basis
of I/d (Werner, PRA 58, 1827 (1998)), the label states are built once per d
(``cloning.label_states``), and each branch occupies only d + 1 modes before
the splitter.  Closed forms (``qubit.qudit_formula``): F = 1/2 + 1/(d+1), p = (d+1)/(2d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ConfigurationError
from .cloning import label_clone, symmetric_subspace_clone
from .fock import DensityOperator
from .qubit import QuditSpec, qudit_formula  # noqa: F401 - tests and the benchmark read it here

# brute_force_oracle's cap, read by the benchmark checks; its pair operator is
# d^2 x d^2, so at larger d those checks stop after the closed form and run no oracle
MAX_ORACLE_DIM = 8


@dataclass
class QuditCloneResult:
    fidelity: float
    success_probability: float
    clone_density: DensityOperator  # over the a' modes, in label order


def qudit_clone(spec: QuditSpec) -> QuditCloneResult:
    """Run the symmetrization channel with the I_d/d ancilla over its label states; both
    ports give the same clone, so its success probability is over both ports."""
    clone, success, fidelity = label_clone(spec.amplitudes, "a_prime")
    return QuditCloneResult(fidelity, 2.0 * success, clone)


def brute_force_oracle(spec: QuditSpec):
    """Fidelity and both-port success probability of the I/d-ancilla cloner."""
    d = spec.d
    if d > MAX_ORACLE_DIM:
        raise ConfigurationError(f"oracle limited to d <= {MAX_ORACLE_DIM}")
    phi = spec.amplitudes
    clone, p = symmetric_subspace_clone(np.outer(phi, phi.conj()), np.eye(d) / d)
    return float(np.real(phi.conj() @ clone @ phi)), p
