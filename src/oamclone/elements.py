"""The balanced beam splitter as a linear map on the single-photon mode space.

Convention (frozen for reproducibility, see README): out_a' = (in_a + i F
in_b)/sqrt(2), out_b' = (i F in_a + in_b)/sqrt(2), where F inverts the OAM
sign on reflection; a -> a' is the transmitted port.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    BasisMismatchError,
    ConfigurationError,
    ModeBasis,
    ModeIndex,
    PhotonState,
    TwoPhotonState,
)

UNITARY_ATOL = 1e-10


@dataclass
class ElementOperator:
    """Unitary map on the single-photon space of ``basis``."""

    basis: ModeBasis
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        n = self.basis.size
        if self.matrix.shape != (n, n):
            raise BasisMismatchError("operator matrix does not match basis size")

    def validate(self):
        m = self.matrix
        if not np.allclose(m.conj().T @ m, np.eye(len(m)), atol=UNITARY_ATOL):
            raise ConfigurationError("operator is not unitary")
        return self


def apply(op: ElementOperator, state):
    """Apply an element to a one- or two-photon state.

    Two-photon states evolve via the symmetric coefficient matrix,
    S -> M S M^T, which is the lift M (x) M on the bosonic sector.
    """
    if op.basis != state.basis:
        raise BasisMismatchError("operator and state bases differ")
    if isinstance(state, PhotonState):
        return PhotonState(op.basis, op.matrix @ state.amplitudes)
    if isinstance(state, TwoPhotonState):
        s2 = op.matrix @ state.to_sym_matrix() @ op.matrix.T
        return TwoPhotonState.from_sym_matrix(op.basis, s2)
    raise TypeError(f"unsupported state type {type(state)}")


def beam_splitter(basis: ModeBasis, oam_flip: bool = True) -> ElementOperator:
    """Balanced beam splitter routing paths a, b to a_prime, b_prime.

    Reflection inverts the OAM sign (disable with ``oam_flip=False`` for
    abstract internal labels).  The a'/b' -> a/b block is filled with the
    adjoint of the forward block so the full matrix is unitary; those input
    modes are never populated before the splitter in any scenario.
    """
    needed = {"a", "b", "a_prime", "b_prime"}
    if not needed <= basis.paths:
        raise ConfigurationError("beam splitter needs paths a, b, a_prime, b_prime")
    if oam_flip and any(-m not in basis.oam_set for m in basis.oam_set):
        raise ConfigurationError("OAM truncation set not closed under m -> -m")

    def flip(m):
        return -m if oam_flip else m

    n = basis.size
    mat = np.zeros((n, n), dtype=complex)
    inv = 1.0 / math.sqrt(2.0)
    for mode in basis.modes:
        if mode.path not in ("a", "b"):
            continue
        src = basis.index(mode)
        if mode.path == "a":
            mat[basis.index(ModeIndex("a_prime", mode.pol, mode.oam)), src] = inv
            mat[basis.index(ModeIndex("b_prime", mode.pol, flip(mode.oam))), src] = 1j * inv
        else:
            mat[basis.index(ModeIndex("a_prime", mode.pol, flip(mode.oam))), src] = 1j * inv
            mat[basis.index(ModeIndex("b_prime", mode.pol, mode.oam)), src] = inv
    in_idx = [i for i, m in enumerate(basis.modes) if m.path in ("a", "b")]
    out_idx = [i for i, m in enumerate(basis.modes) if m.path in ("a_prime", "b_prime")]
    block = mat[np.ix_(out_idx, in_idx)]
    mat[np.ix_(in_idx, out_idx)] = block.conj().T
    return ElementOperator(basis, mat)
