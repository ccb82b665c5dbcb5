"""Mode basis and one/two-photon bosonic state algebra.

A single-photon mode is labelled by a spatial path, a circular polarization and an integer
orbital-angular-momentum (OAM) value from a finite truncation set.  A two-photon state is one
dense complex symmetric n x n matrix S, |psi> = sum_ij S_ij adag_i adag_j |0>, 2 ||S||_F^2 =
1, read-only, with its ``occupied`` modes (``symmetrize_product`` carries its photons'
supports).  An element M acts as S -> M S M^T, a port post-selection returns S's block on
the port's modes (a slice on every basis the package builds) over the port's sub-basis, and
the reduced single-photon state is 2 S S^dag.  One rule each: the one amplitude rule,
``qubit.normalized_amplitudes``, normalizes every photon, and ``checked_weight`` and
``check_total`` hold the weights of ``mix`` and ``elements.coalesce`` to a distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import BasisMismatchError, ConfigurationError, InvalidStateError
from .qubit import normalized_amplitudes

PATHS = ("a", "b", "a_prime", "b_prime")
POLS = ("L", "R")

NORM_ATOL = 1e-12
HERM_ATOL = 1e-12
PSD_ATOL = 1e-10
# From this many basis modes up both two-photon kernels touch only the occupied modes. On one
# qudit branch dense wins to 28 modes, the two run level at 32 and gathered wins from 36 up
# (CHANGES.md); a qudit clone has n = 4d modes, so d <= 8 runs dense and d >= 9 gathered.
GATHER_MIN_MODES = 36


@dataclass(frozen=True)
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

    @property
    def size(self) -> int:
        return len(self.modes)

    def port(self, path: str):
        """(sub-basis of ``path``'s modes, its block: slices if contiguous, else np.ix_), once."""
        if path not in self._ports:
            idx = [i for i, m in enumerate(self.modes) if m.path == path]
            if not idx:
                raise BasisMismatchError(f"no modes on path {path!r}")
            run = slice(idx[0], idx[-1] + 1)
            block = (run, run) if idx[-1] - idx[0] == len(idx) - 1 else np.ix_(idx, idx)
            self._ports[path] = ModeBasis(self.modes[i] for i in idx), block
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


def superposition_state(basis: ModeBasis, terms) -> PhotonState:
    """The photon of (ModeIndex, amplitude) terms, by the one amplitude rule."""
    vec = np.zeros(basis.size, dtype=complex)
    for mode, amp in terms:
        vec[basis.index(mode)] += complex(amp)
    return PhotonState(basis, normalized_amplitudes(vec))


class TwoPhotonState:
    """Bosonic two-photon state sum_ij S_ij adag_i adag_j |0> over a ModeBasis.

    ``amplitudes`` holds the complex symmetric n x n matrix S; a normalized state has
    2 ||S||_F^2 = 1.  S is read-only, so ``occupied`` cannot go stale, and not copied: a
    complex array passed in becomes read-only itself (change it through no other view).
    """

    def __init__(self, basis: ModeBasis, amplitudes):
        self.basis, self.amplitudes = basis, np.asarray(amplitudes, dtype=complex)
        if self.amplitudes.shape != (basis.size, basis.size):
            raise BasisMismatchError("coefficient matrix does not match basis size")
        self.amplitudes.setflags(write=False)
        self._occupied = None

    @property
    def occupied(self) -> np.ndarray:
        """np.flatnonzero(S.any(0)), carried by the kernel that built S or else found once."""
        if self._occupied is None:
            self._occupied = np.flatnonzero(self.amplitudes.any(0))
        return self._occupied

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
    From ``GATHER_MIN_MODES`` modes up they run on the occupied modes k = supp(u) | supp(v)
    only and fill S[k, k] of a zeroed S, bit for bit the dense S; the state carries k.
    """
    if psi_a.basis != psi_b.basis:
        raise BasisMismatchError("photons must share a basis")
    u, v = psi_a.amplitudes, psi_b.amplitudes
    uu, vv = np.vdot(u, u).real, np.vdot(v, v).real
    norm = math.sqrt(uu * vv + abs(np.vdot(u, v)) ** 2)  # of the Fock-ket amplitudes
    if norm < 1e-15:
        raise InvalidStateError("symmetrized product has zero norm")
    n = len(u)
    if n < GATHER_MIN_MODES:
        s = (u * (0.5 / norm))[:, None] * v  # np.outer's product, without its wrapper
        s += s.T  # numpy adds a buffered copy of s.T, freed at once
        return TwoPhotonState(psi_a.basis, s)
    k = np.flatnonzero(np.logical_or(u, v))
    t = (u[k] * (0.5 / norm))[:, None] * v[k]
    s = np.zeros((n, n), dtype=complex)
    s[k[:, None], k] = t + t.T  # faster than np.ix_
    state = TwoPhotonState(psi_a.basis, s)
    state._occupied = k  # k is S's occupied modes: found from u and v, not from S
    return state


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
    """Hermitian PSD operator of unit trace over a basis's modes."""

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
    """Rank-1 projector onto a single-photon state, by the one amplitude rule."""
    if not isinstance(state, PhotonState):
        raise TypeError(f"unsupported state type {type(state)}")
    v = normalized_amplitudes(state.amplitudes)
    return DensityOperator(state.basis, np.outer(v, v.conj()))


def checked_weight(w, kind: str):
    """``w`` if it is finite and >= 0, else ConfigurationError naming the ``kind`` weight."""
    if not (w >= 0.0 and math.isfinite(w)):
        raise ConfigurationError(f"{kind} weight {w} is not finite and >= 0")
    return w


def check_total(weights, kind: str) -> None:
    """ConfigurationError unless ``math.fsum`` of the weights is within NORM_ATOL of 1
    (exact, where a running sum of 100,000 weights 1/n drifts by 2e-12)."""
    total = math.fsum(weights)
    if abs(total - 1.0) > NORM_ATOL:
        raise ConfigurationError(f"{kind} weights sum to {total}, expected 1")


def mix(states) -> DensityOperator:
    """Convex combination of density operators over one basis (an empty list sums to 0),
    summed entry by entry with ``math.fsum``, which does not drift with the state count."""
    states = list(states)
    check_total([checked_weight(w, "mixture") for _, w in states], "mixture")
    basis = states[0][0].basis
    if any(rho.basis != basis for rho, _ in states):
        raise BasisMismatchError("mixture over mismatched bases")
    terms = np.array([w * rho.matrix for rho, w in states])
    total = [complex(math.fsum(t.real.tolist()), math.fsum(t.imag.tolist()))
             for t in terms.reshape(len(states), -1).T]
    return DensityOperator(basis, np.reshape(total, terms.shape[1:]))


def reduced_single_pure(state: TwoPhotonState) -> DensityOperator:
    """Reduced single-photon density of a pure two-photon state, rho1 = 2 S S^dag.

    Computed as S S^dag over its trace, which equals 2 S S^dag when 2 ||S||^2 = 1.
    """
    s = state.amplitudes
    rho = s @ s.conj().T
    tr = float(rho.trace().real)
    if tr < 1e-30:
        raise InvalidStateError("zero two-photon state")
    return DensityOperator(state.basis, rho * (1.0 / tr))
