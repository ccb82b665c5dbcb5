"""Test-only references over the Fock pair kets |1_i 1_j> (i < j) and |2_i>.

They read a two-photon state only through ``pair_amplitude``, so they
check the package's symmetric coefficient matrix S without sharing its
kernels.  ``internal_overlap_direct`` checks the beam-splitter route of
``interference.internal_overlap`` with the one-photon overlap formula.
"""

import math

import numpy as np

from oamclone.fock import (BasisMismatchError, DensityOperator, InvalidStateError,
                           PhotonState, TwoPhotonState)


def photon_amplitude(state: PhotonState, mode) -> complex:
    """Amplitude of one mode in a one-photon state."""
    return complex(state.amplitudes[state.basis.index(mode)])


def pair_amplitude(state: TwoPhotonState, mode_i, mode_j) -> complex:
    """Amplitude of the Fock ket |1_i 1_j> (2 S_ij), or of |2_i> (sqrt(2) S_ii)."""
    i, j = state.basis.index(mode_i), state.basis.index(mode_j)
    s = complex(state.amplitudes[i, j])
    return math.sqrt(2.0) * s if i == j else 2.0 * s


def pair_keys(basis):
    """Canonical enumeration of unordered index pairs (i <= j)."""
    n = basis.size
    return [(i, j) for i in range(n) for j in range(i, n)]


def pair_amplitudes(state):
    """``{(i, j): Fock-ket amplitude}`` over every pair key, read through ``pair_amplitude``."""
    modes = state.basis.modes
    return {(i, j): pair_amplitude(state, modes[i], modes[j]) for i, j in pair_keys(state.basis)}


def state_from_kets(basis, kets):
    """The two-photon state with the given ``{(i, j): Fock-ket amplitude}``, i <= j."""
    s = np.zeros((basis.size, basis.size), dtype=complex)
    for (i, j), amp in kets.items():
        s[i, j] = s[j, i] = amp / math.sqrt(2.0) if i == j else amp / 2.0
    return TwoPhotonState(basis, s)


def pair_density(state):
    """Rank-1 projector onto a pure two-photon state, over the pair kets."""
    v = np.array(list(pair_amplitudes(state).values()))
    n = np.linalg.norm(v)
    if n < 1e-15:
        raise InvalidStateError("cannot form density of a zero state")
    v = v / n
    return DensityOperator(state.basis, np.outer(v, v.conj()))


def pair_key_coefficient_matrices(basis):
    """First-quantized coefficient matrix A^K for each pair ket, in ``pair_keys`` order.

    |1_i 1_j>  ->  (|i>|j> + |j>|i>)/sqrt(2),   |2_i>  ->  |i>|i>.
    """
    n = basis.size
    keys = pair_keys(basis)
    stack = np.zeros((len(keys), n, n), dtype=complex)
    inv = 1.0 / math.sqrt(2.0)
    for pos, (i, j) in enumerate(keys):
        if i == j:
            stack[pos, i, i] = 1.0
        else:
            stack[pos, i, j] = inv
            stack[pos, j, i] = inv
    return stack


def partial_trace_to_single(rho2):
    """Trace out one photon of a bosonic pair density operator."""
    n_keys = len(pair_keys(rho2.basis))
    if rho2.matrix.shape != (n_keys, n_keys):  # a pair density is over the pair kets
        raise BasisMismatchError("partial trace expects a two-photon density")
    a = pair_key_coefficient_matrices(rho2.basis)
    # rho1 = sum_KL M_KL A^K (A^L)^dagger
    t = np.einsum("KL,Lqr->Kqr", rho2.matrix, a.conj())
    rho1 = np.einsum("Kpr,Kqr->pq", a, t)
    return DensityOperator(rho2.basis, rho1)


def internal_overlap_direct(psi_a: PhotonState, psi_b: PhotonState) -> float:
    """mu via the direct formula |<psi_a | F psi_b>|^2 over internal labels."""
    basis = psi_a.basis
    amps_a = {}
    amps_b = {}
    for idx in np.nonzero(np.abs(psi_a.amplitudes) > 1e-15)[0]:
        m = basis.modes[idx]
        amps_a[(m.pol, m.oam)] = psi_a.amplitudes[idx]
    for idx in np.nonzero(np.abs(psi_b.amplitudes) > 1e-15)[0]:
        m = basis.modes[idx]
        amps_b[(m.pol, -m.oam)] = psi_b.amplitudes[idx]
    ov = sum(amps_a[k].conjugate() * v for k, v in amps_b.items() if k in amps_a)
    return float(abs(ov) ** 2)
