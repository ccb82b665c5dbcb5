"""The balanced beam splitter, its checked cache, and ``coalesce``: both photons
leave by one port, the event whose rate is the HOM enhancement and whose
one-photon marginal is the clone.

Convention (frozen for reproducibility, see README): out_a' = (in_a + i F
in_b)/sqrt(2), out_b' = (i F in_a + in_b)/sqrt(2), where F inverts the OAM
sign on reflection; a -> a' is the transmitted port.

``apply`` on a two-photon state computes S -> M S M^T densely below
``GATHER_MIN_MODES`` basis modes.  At or above it, it contracts over the
occupied modes k only, M[:, k] S[k, k] M[:, k]^T: before the splitter a qudit
branch occupies d + 1 of its 4d modes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .fock import (BasisMismatchError, ConfigurationError, DensityOperator, ModeBasis,
                   ModeIndex, PhotonState, TwoPhotonState)

UNITARY_ATOL = 1e-10
# best of 7 x 500, dense vs gathered (us), qudit branch on d + 1 modes, eight runs
# (the lowest of each shown): n = 32 16.0 vs 17.5, dense faster in 8 of 8; n = 36
# 19.5 vs 18.6, gathered faster in 8 of 8; n = 40 23.2 vs 19.6; n = 48 45 vs 24
GATHER_MIN_MODES = 36


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
    S -> M S M^T, which is the lift M (x) M on the bosonic sector; on
    ``GATHER_MIN_MODES`` or more modes only S's occupied modes enter the product.
    """
    if op.basis != state.basis:
        raise BasisMismatchError("operator and state bases differ")
    if isinstance(state, PhotonState):
        return PhotonState(op.basis, op.matrix @ state.amplitudes)
    if isinstance(state, TwoPhotonState):
        m, s = op.matrix, state.amplitudes
        if op.basis.size >= GATHER_MIN_MODES:
            k = np.flatnonzero(s.any(0))
            m, s = m[:, k], s[k][:, k]
        return TwoPhotonState(op.basis, m @ s @ m.T)
    raise TypeError(f"unsupported state type {type(state)}")


def beam_splitter(basis: ModeBasis) -> ElementOperator:
    """Balanced beam splitter routing paths a, b to a_prime, b_prime.

    Reflection inverts the OAM sign, so the basis's OAM set must be closed
    under m -> -m.  The a'/b' -> a/b block is filled with the adjoint of the
    forward block so the full matrix is unitary; those input modes are never
    populated before the splitter in any scenario.
    """
    needed = {"a", "b", "a_prime", "b_prime"}
    if not needed <= basis.paths:
        raise ConfigurationError("beam splitter needs paths a, b, a_prime, b_prime")
    if any(-m not in basis.oam_set for m in basis.oam_set):
        raise ConfigurationError("OAM set not closed under m -> -m")
    n = basis.size
    mat = np.zeros((n, n), dtype=complex)
    inv = 1.0 / math.sqrt(2.0)
    for mode in basis.modes:
        if mode.path not in ("a", "b"):
            continue
        src = basis.index(mode)
        if mode.path == "a":
            mat[basis.index(ModeIndex("a_prime", mode.pol, mode.oam)), src] = inv
            mat[basis.index(ModeIndex("b_prime", mode.pol, -mode.oam)), src] = 1j * inv
        else:
            mat[basis.index(ModeIndex("a_prime", mode.pol, -mode.oam)), src] = 1j * inv
            mat[basis.index(ModeIndex("b_prime", mode.pol, mode.oam)), src] = inv
    in_idx = [i for i, m in enumerate(basis.modes) if m.path in ("a", "b")]
    out_idx = [i for i, m in enumerate(basis.modes) if m.path in ("a_prime", "b_prime")]
    block = mat[np.ix_(out_idx, in_idx)]
    mat[np.ix_(in_idx, out_idx)] = block.conj().T
    return ElementOperator(basis, mat)


@functools.lru_cache(maxsize=32)
def splitter(basis: ModeBasis) -> ElementOperator:
    """The beam splitter, checked once: the port probability 2 ||S_port||^2 needs M unitary."""
    return beam_splitter(basis).validate()


def coalesce(psi_a: PhotonState, ancillas, port: str):
    """Post-select the runs where ``psi_a`` and an ancilla both leave by ``port``.

    Returns the one-photon state over the port's sub-basis, averaged over the
    ancillas ``(psi_b, w)`` (any iterable, read once) with weights w_k p_k,
    and the success probability sum_k w_k p_k; ConfigurationError if that is 0.
    """
    bs = splitter(psi_a.basis)
    success = acc = 0.0
    for psi_b, w in ancillas:
        kept, prob = fock.project_keys(apply(bs, fock.symmetrize_product(psi_a, psi_b)), port)
        acc = acc + (w * prob) * fock.reduced_single_pure(kept).matrix
        success += w * prob
    if success == 0.0:
        raise ConfigurationError("no post-selected weight: no ancilla, or none with weight")
    return DensityOperator(kept.basis, acc / success), success
