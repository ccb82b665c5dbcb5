"""Mode basis and one/two-photon bosonic state algebra.

A single-photon mode is labelled by a spatial path, a circular polarization
and an integer orbital-angular-momentum (OAM) value drawn from a finite
truncation set.  A two-photon state is stored as one dense complex symmetric
matrix S over the n modes, |psi> = sum_ij S_ij adag_i adag_j |0>, normalized
so that 2 ||S||_F^2 = 1.  An optical element M acts as S -> M S M^T, a port
post-selection returns the block of S on the port's modes as a state over
the port's sub-basis, and the reduced single-photon state is 2 S S^dag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import (BasisMismatchError, ConfigurationError, FockError,  # noqa: F401
               InvalidStateError)

PATHS = ("a", "b", "a_prime", "b_prime")
POLS = ("L", "R")

NORM_ATOL = 1e-12
HERM_ATOL = 1e-12
PSD_ATOL = 1e-10


@dataclass(frozen=True, order=True)
class ModeIndex:
    path: str
    pol: str
    oam: int

    def __post_init__(self):
        if self.path not in PATHS:
            raise ConfigurationError(f"unknown path {self.path!r}")
        if self.pol not in POLS:
            raise ConfigurationError(f"unknown polarization {self.pol!r}")


class ModeBasis:
    """Ordered, duplicate-free collection of modes with index lookup."""

    def __init__(self, modes):
        modes = tuple(modes)
        if not modes:
            raise ConfigurationError("empty mode basis")
        lookup = {}
        for pos, mode in enumerate(modes):
            if mode in lookup:
                raise ConfigurationError(f"duplicate mode {mode}")
            lookup[mode] = pos
        self.modes = modes
        self._hash = hash(modes)  # once: every splitter-cache lookup hashes the basis
        self._lookup = lookup
        self._ports = {}
        self.oam_set = frozenset(m.oam for m in modes)
        self.paths = frozenset(m.path for m in modes)

    @property
    def size(self) -> int:
        return len(self.modes)

    def port(self, path: str):
        """(sub-basis of ``path``'s modes, ``np.ix_`` index of its block), built once."""
        if path not in self._ports:
            idx = [i for i, m in enumerate(self.modes) if m.path == path]
            if not idx:
                raise BasisMismatchError(f"no modes on path {path!r}")
            self._ports[path] = ModeBasis(self.modes[i] for i in idx), np.ix_(idx, idx)
        return self._ports[path]

    def index(self, mode: ModeIndex) -> int:
        try:
            return self._lookup[mode]
        except KeyError:
            raise BasisMismatchError(f"mode {mode} not in basis") from None

    def __eq__(self, other):
        return isinstance(other, ModeBasis) and self.modes == other.modes

    def __hash__(self):
        return self._hash


def build_basis(paths, oam_set, pols=POLS) -> ModeBasis:
    """Enumerate all (path, pol, oam) combinations.

    Order is deterministic: paths in canonical order a, b, a_prime, b_prime,
    then polarization L before R, then OAM ascending.
    """
    paths = set(paths)
    oam_set = sorted(set(int(m) for m in oam_set))
    if not paths or not oam_set:
        raise ConfigurationError("paths and oam_set must be nonempty")
    modes = [
        ModeIndex(p, s, m)
        for p in PATHS
        if p in paths
        for s in POLS
        if s in pols
        for m in oam_set
    ]
    return ModeBasis(modes)


@dataclass
class PhotonState:
    """Single-photon amplitude vector over a ModeBasis."""

    basis: ModeBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.basis.size,):
            raise BasisMismatchError("amplitude vector does not match basis size")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def superposition_state(basis: ModeBasis, terms) -> PhotonState:
    """Build a normalized single-photon state from (ModeIndex, amplitude) terms."""
    vec = np.zeros(basis.size, dtype=complex)
    for mode, amp in terms:
        vec[basis.index(mode)] += complex(amp)
    norm = np.linalg.norm(vec)
    if norm < 1e-15:
        raise InvalidStateError("all-zero amplitudes")
    return PhotonState(basis, vec * (1.0 / norm))  # a complex divisor costs 6x


@dataclass
class TwoPhotonState:
    """Bosonic two-photon state sum_ij S_ij adag_i adag_j |0> over a ModeBasis.

    ``amplitudes`` holds the complex symmetric n x n matrix S; a normalized
    state has 2 ||S||_F^2 = 1.
    """

    basis: ModeBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        n = self.basis.size
        if self.amplitudes.shape != (n, n):
            raise BasisMismatchError("coefficient matrix does not match basis size")

    def norm(self) -> float:
        return math.sqrt(2.0) * float(np.linalg.norm(self.amplitudes))

    def inner(self, other: "TwoPhotonState") -> complex:
        if self.basis != other.basis:
            raise BasisMismatchError("inner product requires a common basis")
        return 2.0 * complex(np.vdot(self.amplitudes, other.amplitudes))


def symmetrize_product(psi_a: PhotonState, psi_b: PhotonState) -> TwoPhotonState:
    """Bosonic symmetrization of a two-photon product, normalized.

    S = (u v^T + v u^T)/2, scaled to 2 ||S||^2 = 1.  Identical inputs give
    S = u u^T, whose diagonal carries the sqrt(2) bosonic enhancement of
    the double-occupancy kets.  The norm is taken in closed form,
    ||u v^T + v u^T||_F^2 = 2 (||u||^2 ||v||^2 + |u^dag v|^2), so no n x n
    pass precedes the one scaled outer product and its symmetrizing add.
    """
    if psi_a.basis != psi_b.basis:
        raise BasisMismatchError("photons must share a basis")
    u, v = psi_a.amplitudes, psi_b.amplitudes
    uu, vv = np.vdot(u, u).real, np.vdot(v, v).real
    norm = math.sqrt(uu * vv + abs(np.vdot(u, v)) ** 2)  # of the Fock-ket amplitudes
    if norm < 1e-15:
        raise InvalidStateError("symmetrized product has zero norm")
    s = np.outer(u * (0.5 / norm), v)
    s += s.T  # numpy adds a buffered copy of s.T, freed at once (see README on the heap)
    return TwoPhotonState(psi_a.basis, s)


def project_keys(state: TwoPhotonState, path: str) -> tuple:
    """Post-select the runs where both photons exit on ``path``.

    Returns (the block S_path of S on ``path``'s modes, normalized, as a
    state over the sub-basis of those modes; success probability
    p = 2 ||S_path||^2 relative to the input).  Raises InvalidStateError if
    p > 1: the input was not normalized or an element was not unitary.
    """
    sub, block = state.basis.port(path)
    s = state.amplitudes[block]
    prob = 2.0 * float(np.vdot(s, s).real)
    if prob > 1.0 + NORM_ATOL:
        raise InvalidStateError(f"post-selection probability {prob} exceeds 1")
    if prob < 1e-30:
        return TwoPhotonState(sub, np.zeros_like(s)), 0.0
    return TwoPhotonState(sub, s * (1.0 / math.sqrt(prob))), prob


@dataclass
class DensityOperator:
    """Hermitian PSD operator of unit trace over a basis's modes (or its pair kets)."""

    basis: ModeBasis
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)

    def validate(self):
        """The package's one density check: |tr - 1| <= NORM_ATOL, max |m - m^dag| <=
        HERM_ATOL (explicit, as eigvalsh reads one triangle), min eigenvalue >= -PSD_ATOL."""
        m = self.matrix
        trace_err = abs(m.trace() - 1.0)
        herm_err = float(np.abs(m - m.conj().T).max())
        min_eig = float(np.linalg.eigvalsh(m)[0])
        if not (trace_err <= NORM_ATOL and herm_err <= HERM_ATOL and min_eig >= -PSD_ATOL):
            raise InvalidStateError(f"not a density matrix: |tr - 1| = {trace_err:.2e}, "
                                    f"Hermiticity residual {herm_err:.2e}, min eig {min_eig:.2e}")
        return self


def pure_density(state: PhotonState) -> DensityOperator:
    """Rank-1 projector onto a pure single-photon state."""
    if not isinstance(state, PhotonState):
        raise TypeError(f"unsupported state type {type(state)}")
    v = state.amplitudes
    n = np.linalg.norm(v)
    if n < 1e-15:
        raise InvalidStateError("cannot form density of a zero state")
    v = v / n
    return DensityOperator(state.basis, np.outer(v, v.conj()))


def mix(states) -> DensityOperator:
    """Convex combination of density operators with matching bases."""
    states = list(states)
    if not states:
        raise ConfigurationError("empty mixture")
    total = 0.0
    first, _ = states[0]
    acc = np.zeros_like(first.matrix)
    for rho, w in states:
        if w < -NORM_ATOL:
            raise ConfigurationError(f"negative mixture weight {w}")
        if rho.basis != first.basis:
            raise BasisMismatchError("mixture over mismatched bases")
        acc = acc + w * rho.matrix
        total += w
    if abs(total - 1.0) > NORM_ATOL:
        raise ConfigurationError(f"mixture weights sum to {total}, expected 1")
    return DensityOperator(first.basis, acc)


def reduced_single_pure(state: TwoPhotonState) -> DensityOperator:
    """Reduced single-photon density of a pure two-photon state, rho1 = 2 S S^dag.

    Computed as S S^dag over its trace, which equals 2 S S^dag when 2 ||S||^2 = 1.
    """
    s = state.amplitudes
    rho = s @ s.conj().T
    tr = float(np.trace(rho).real)
    if tr < 1e-30:
        raise InvalidStateError("zero two-photon state")
    return DensityOperator(state.basis, rho * (1.0 / tr))
