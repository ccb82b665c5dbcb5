"""The balanced beam splitter, its checked cache, its two-photon action ``apply``, which reads
the state's ``occupied`` modes and the operator's row bounds (no n x n pass), and ``coalesce``:
both photons leave by one port, the HOM-enhanced event whose one-photon marginal is the clone.

Convention (frozen for reproducibility, see README): out_a' = (in_a + i F
in_b)/sqrt(2), out_b' = (i F in_a + in_b)/sqrt(2), where F inverts the OAM
sign on reflection; a -> a' is the transmitted port.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import BasisMismatchError, ConfigurationError, fock
from .fock import DensityOperator, ModeBasis, ModeIndex, PhotonState, TwoPhotonState

UNITARY_ATOL = 1e-10


@dataclass
class ElementOperator:
    """Unitary map on the single-photon space of ``basis``; ``first`` and ``last`` hold each
    column's first and last nonzero row (0 and n - 1 for none), found once."""

    basis: ModeBasis
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.array(self.matrix, dtype=complex)
        n = self.basis.size
        if self.matrix.shape != (n, n):
            raise BasisMismatchError("operator matrix does not match basis size")
        self.matrix.setflags(write=False)  # a copy, so first and last cannot go stale
        nonzero = self.matrix != 0
        self.first, self.last = nonzero.argmax(0), n - 1 - nonzero[::-1].argmax(0)

    def validate(self):
        m = self.matrix
        err = float(np.abs(m.conj().T @ m - np.eye(len(m))).max())  # np.allclose adds rtol
        if not err <= UNITARY_ATOL:
            raise ConfigurationError(f"operator is not unitary: max |M^dag M - I| = {err:.2e}")
        return self


def apply(op: ElementOperator, state: TwoPhotonState) -> TwoPhotonState:
    """The element's two-photon action S -> M S M^T, the lift M (x) M on the bosonic
    sector.  From ``fock.GATHER_MIN_MODES`` modes up only S's ``occupied`` modes k enter,
    and only the rows min ``op.first[k]`` to max ``op.last[k]`` are written (none for the
    zero state).  A PhotonState raises TypeError: its image is ``op.matrix @ psi.amplitudes``.
    """
    if op.basis != state.basis:
        raise BasisMismatchError("operator and state bases differ")
    if not isinstance(state, TwoPhotonState):
        raise TypeError(f"apply is the two-photon lift S -> M S M^T, not a map of "
                        f"{type(state).__name__}; a photon's image is op.matrix @ psi.amplitudes")
    m, s = op.matrix, state.amplitudes
    if op.basis.size < fock.GATHER_MIN_MODES:
        return TwoPhotonState(op.basis, m @ s @ m.T)
    k = state.occupied
    out = np.zeros(s.shape, dtype=complex)
    if k.size:
        rows = slice(op.first[k].min(), op.last[k].max() + 1)
        m = m[rows].take(k, 1)  # take copies in about half the time of m[:, k] at n = 36
        out[rows, rows] = m @ s.take(k, 0).take(k, 1) @ m.T
    return TwoPhotonState(op.basis, out)


def beam_splitter(basis: ModeBasis) -> ElementOperator:
    """Balanced beam splitter routing paths a, b to a_prime, b_prime.

    Reflection inverts the OAM sign, so the basis's OAM set must be closed
    under m -> -m.  Each a'/b' -> a/b entry is the adjoint of its forward
    entry, so the full matrix is unitary; those input modes are never
    populated before the splitter in any scenario.
    """
    if not set(fock.PATHS) <= {mode.path for mode in basis.modes}:
        raise ConfigurationError("beam splitter needs paths a, b, a_prime, b_prime")
    oam_set = {mode.oam for mode in basis.modes}
    if any(-m not in oam_set for m in oam_set):
        raise ConfigurationError("OAM set not closed under m -> -m")
    n = basis.size
    mat = np.zeros((n, n), dtype=complex)
    inv = 1.0 / math.sqrt(2.0)
    ports = {"a": ("a_prime", "b_prime"), "b": ("b_prime", "a_prime")}
    for mode in basis.modes:
        if mode.path not in ports:
            continue
        src = basis.index(mode)
        through, reflected = ports[mode.path]
        for path, oam, amp in ((through, mode.oam, inv), (reflected, -mode.oam, 1j * inv)):
            dst = basis.index(ModeIndex(path, mode.pol, oam))
            mat[dst, src], mat[src, dst] = amp, np.conj(amp)
    return ElementOperator(basis, mat)


@functools.lru_cache(maxsize=32)
def splitter(basis: ModeBasis) -> ElementOperator:
    """The beam splitter, checked once: the port probability 2 ||S_port||^2 needs M unitary."""
    return beam_splitter(basis).validate()


def coalesce(psi_a: PhotonState, ancillas, port: str):
    """Post-select the runs where ``psi_a`` and an ancilla both leave by ``port``.

    Returns the one-photon state over the port's sub-basis, averaged over the
    ancillas ``(psi_b, w)`` (any iterable, read once) with weights w_k p_k,
    and the success probability sum_k w_k p_k.  The weights must be a distribution:
    ``fock.checked_weight`` as each is read, ``fock.check_total`` at the end;
    ConfigurationError otherwise, or if the success probability is 0.  A pair that
    never reaches the port (p_k = 0) adds nothing and is skipped.
    """
    bs = splitter(psi_a.basis)
    weights = []
    success = acc = 0.0
    for psi_b, w in ancillas:
        weights.append(fock.checked_weight(w, "ancilla"))
        kept, prob = fock.project_keys(apply(bs, fock.symmetrize_product(psi_a, psi_b)), port)
        if prob == 0.0:
            continue
        acc = acc + (w * prob) * fock.reduced_single_pure(kept).matrix
        success += w * prob
    if success == 0.0:
        raise ConfigurationError("no post-selected weight: no ancilla, or none with weight")
    fock.check_total(weights, "ancilla")
    return DensityOperator(kept.basis, acc / success), success
