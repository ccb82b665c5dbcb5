"""Mode basis and one/two-photon bosonic state algebra.

A single-photon mode is labelled by a spatial path, a circular polarization
and an integer orbital-angular-momentum (OAM) value drawn from a finite
truncation set.  Two-photon states are stored as sparse maps over unordered
mode pairs with occupation-number normalization, i.e. the key {i, i} holds
the amplitude of the normalized double-occupancy ket |2_i>, so the squared
magnitudes of all key amplitudes sum to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PATHS = ("a", "b", "a_prime", "b_prime")
POLS = ("L", "R")
DEFAULT_OAM_SET = (-2, 0, 2)

NORM_ATOL = 1e-12
HERM_ATOL = 1e-12
PSD_ATOL = 1e-10


class FockError(Exception):
    """Base class for state-algebra errors."""


class ConfigurationError(FockError):
    """Invalid basis or operator configuration."""


class BasisMismatchError(FockError):
    """Objects defined over different mode bases were combined."""


class InvalidStateError(FockError):
    """State construction from degenerate input (e.g. all-zero amplitudes)."""


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
        self._lookup = lookup
        self.oam_set = frozenset(m.oam for m in modes)
        self.paths = frozenset(m.path for m in modes)

    @property
    def size(self) -> int:
        return len(self.modes)

    def index(self, mode: ModeIndex) -> int:
        try:
            return self._lookup[mode]
        except KeyError:
            raise BasisMismatchError(f"mode {mode} not in basis") from None

    def __contains__(self, mode) -> bool:
        return mode in self._lookup

    def __iter__(self):
        return iter(self.modes)

    def __len__(self):
        return len(self.modes)

    def __eq__(self, other):
        return isinstance(other, ModeBasis) and self.modes == other.modes

    def __hash__(self):
        return hash(self.modes)

    def pair_keys(self):
        """Canonical enumeration of unordered index pairs (i <= j)."""
        n = self.size
        return [(i, j) for i in range(n) for j in range(i, n)]


def build_basis(paths, oam_set=DEFAULT_OAM_SET, pols=POLS) -> ModeBasis:
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

    def amplitude(self, mode: ModeIndex) -> complex:
        return complex(self.amplitudes[self.basis.index(mode)])

    def overlap(self, other: "PhotonState") -> complex:
        if self.basis != other.basis:
            raise BasisMismatchError("overlap requires a common basis")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def superposition_state(basis: ModeBasis, terms) -> PhotonState:
    """Build a normalized single-photon state from (ModeIndex, amplitude) terms."""
    vec = np.zeros(basis.size, dtype=complex)
    for mode, amp in terms:
        vec[basis.index(mode)] += complex(amp)
    norm = np.linalg.norm(vec)
    if norm < 1e-15:
        raise InvalidStateError("all-zero amplitudes")
    return PhotonState(basis, vec / norm)


@dataclass
class TwoPhotonState:
    """Bosonic two-photon state as a sparse map over unordered index pairs."""

    basis: ModeBasis
    amplitudes: dict = field(default_factory=dict)

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def amplitude(self, mode_i: ModeIndex, mode_j: ModeIndex) -> complex:
        i, j = self.basis.index(mode_i), self.basis.index(mode_j)
        return complex(self.amplitudes.get((min(i, j), max(i, j)), 0.0))

    def inner(self, other: "TwoPhotonState") -> complex:
        if self.basis != other.basis:
            raise BasisMismatchError("inner product requires a common basis")
        keys = self.amplitudes.keys() & other.amplitudes.keys()
        return complex(sum(self.amplitudes[k].conjugate() * other.amplitudes[k] for k in keys))

    def to_sym_matrix(self) -> np.ndarray:
        """Symmetric coefficient matrix S with state = sum_ij S_ij adag_i adag_j |0>.

        For a normalized state, 2 * ||S||_F^2 = 1.
        """
        n = self.basis.size
        s = np.zeros((n, n), dtype=complex)
        for (i, j), amp in self.amplitudes.items():
            if i == j:
                s[i, i] = amp / math.sqrt(2.0)
            else:
                s[i, j] = amp / 2.0
                s[j, i] = amp / 2.0
        return s

    @classmethod
    def from_sym_matrix(cls, basis: ModeBasis, s: np.ndarray,
                        prune: float = 1e-15) -> "TwoPhotonState":
        amps = {}
        n = basis.size
        for i in range(n):
            for j in range(i, n):
                amp = math.sqrt(2.0) * s[i, i] if i == j else 2.0 * s[i, j]
                if abs(amp) > prune:
                    amps[(i, j)] = complex(amp)
        return cls(basis, amps)

    def to_vector(self, pair_keys=None) -> np.ndarray:
        keys = pair_keys if pair_keys is not None else self.basis.pair_keys()
        vec = np.zeros(len(keys), dtype=complex)
        for pos, key in enumerate(keys):
            if key in self.amplitudes:
                vec[pos] = self.amplitudes[key]
        return vec


def symmetrize_product(psi_a: PhotonState, psi_b: PhotonState) -> TwoPhotonState:
    """Bosonic symmetrization of a two-photon product, normalized.

    Identical inputs concentrate weight on double-occupancy keys with the
    sqrt(2) bosonic enhancement folded into the key amplitude.
    """
    if psi_a.basis != psi_b.basis:
        raise BasisMismatchError("photons must share a basis")
    u = psi_a.amplitudes
    v = psi_b.amplitudes
    amps = {}
    (nz_u,) = np.nonzero(np.abs(u) > 1e-15)
    (nz_v,) = np.nonzero(np.abs(v) > 1e-15)
    for i in nz_u:
        for j in nz_v:
            key = (min(i, j), max(i, j))
            if i == j:
                amps[key] = amps.get(key, 0.0) + math.sqrt(2.0) * u[i] * v[j]
            else:
                amps[key] = amps.get(key, 0.0) + u[i] * v[j]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    if norm < 1e-15:
        raise InvalidStateError("symmetrized product has zero norm")
    return TwoPhotonState(psi_a.basis, {k: a / norm for k, a in amps.items() if abs(a / norm) > 1e-15})


def project_keys(state: TwoPhotonState, path: str) -> tuple:
    """Post-select the runs where both photons exit on ``path``.

    Returns (normalized projected state, success probability relative to the
    input).
    """
    modes = state.basis.modes
    kept = {(i, j): a for (i, j), a in state.amplitudes.items()
            if modes[i].path == path and modes[j].path == path}
    prob = sum(abs(a) ** 2 for a in kept.values())
    if prob < 1e-30:
        return TwoPhotonState(state.basis, {}), 0.0
    scale = 1.0 / math.sqrt(prob)
    return TwoPhotonState(state.basis, {k: a * scale for k, a in kept.items()}), prob


@dataclass
class DensityOperator:
    """Hermitian PSD operator, over a single-photon basis or a two-photon pair basis.

    The matrix is kept at unit trace.
    """

    basis: ModeBasis
    kind: str  # "single" | "pair"
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.kind not in ("single", "pair"):
            raise ConfigurationError(f"unknown density kind {self.kind!r}")

    def validate(self):
        m = self.matrix
        if not np.allclose(m, m.conj().T, atol=HERM_ATOL):
            raise InvalidStateError("density matrix is not Hermitian")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -PSD_ATOL:
            raise InvalidStateError(f"density matrix not PSD (min eig {eigs.min():.2e})")
        if abs(np.trace(m).real - 1.0) > 1e-10:
            raise InvalidStateError(f"trace {np.trace(m).real} != 1")
        return self


def pure_density(state) -> DensityOperator:
    """Rank-1 projector onto a pure one- or two-photon state."""
    if isinstance(state, PhotonState):
        v = state.amplitudes
        n = np.linalg.norm(v)
        if n < 1e-15:
            raise InvalidStateError("cannot form density of a zero state")
        v = v / n
        return DensityOperator(state.basis, "single", np.outer(v, v.conj()))
    if isinstance(state, TwoPhotonState):
        keys = state.basis.pair_keys()
        v = state.to_vector(keys)
        n = np.linalg.norm(v)
        if n < 1e-15:
            raise InvalidStateError("cannot form density of a zero state")
        v = v / n
        return DensityOperator(state.basis, "pair", np.outer(v, v.conj()))
    raise TypeError(f"unsupported state type {type(state)}")


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
        if rho.basis != first.basis or rho.kind != first.kind:
            raise BasisMismatchError("mixture over mismatched bases")
        acc = acc + w * rho.matrix
        total += w
    if abs(total - 1.0) > NORM_ATOL:
        raise ConfigurationError(f"mixture weights sum to {total}, expected 1")
    return DensityOperator(first.basis, first.kind, acc)


def _pair_key_coefficient_matrices(basis: ModeBasis, pair_keys):
    """First-quantized coefficient matrix A^K for each pair-basis ket.

    |1_i 1_j>  ->  (|i>|j> + |j>|i>)/sqrt(2),   |2_i>  ->  |i>|i>.
    """
    n = basis.size
    stack = np.zeros((len(pair_keys), n, n), dtype=complex)
    inv = 1.0 / math.sqrt(2.0)
    for pos, (i, j) in enumerate(pair_keys):
        if i == j:
            stack[pos, i, i] = 1.0
        else:
            stack[pos, i, j] = inv
            stack[pos, j, i] = inv
    return stack


def partial_trace_to_single(rho2: DensityOperator) -> DensityOperator:
    """Trace out one photon of a bosonic pair density operator."""
    if rho2.kind != "pair":
        raise BasisMismatchError("partial trace expects a two-photon density")
    keys = rho2.basis.pair_keys()
    a = _pair_key_coefficient_matrices(rho2.basis, keys)
    # rho1 = sum_KL M_KL A^K (A^L)^dagger
    t = np.einsum("KL,Lqr->Kqr", rho2.matrix, a.conj())
    rho1 = np.einsum("Kpr,Kqr->pq", a, t)
    return DensityOperator(rho2.basis, "single", rho1)


def reduced_single_pure(state: TwoPhotonState) -> DensityOperator:
    """Reduced single-photon density of a pure two-photon state (rho1 = A A^dag)."""
    s = state.to_sym_matrix()
    a = math.sqrt(2.0) * s
    nrm = np.linalg.norm(a)
    if nrm < 1e-15:
        raise InvalidStateError("zero two-photon state")
    a = a / nrm
    return DensityOperator(state.basis, "single", a @ a.conj().T)
