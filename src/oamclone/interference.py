"""Temporal distinguishability and Hong-Ou-Mandel coincidence curves.

The two photons carry gaussian wavepackets matched to the interference
filter bandwidth.  For a gaussian spectral intensity of FWHM ``dl`` centered
at ``wl`` the coherence length is l_c = wl^2 / dl and the two-photon
amplitude overlap at a path-length delay ``d`` is

    v(d) = exp(-KAPPA * (d / l_c)^2),    KAPPA = pi^2 / (4 ln 2),

obtained from the modulus of the Fourier transform of the normalized
spectral intensity.  Only the peak width depends on this choice; the
enhancement ratio R = 1 + mu does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import elements, fock
from .fock import ConfigurationError, ModeIndex, PhotonState

KAPPA = math.pi ** 2 / (4.0 * math.log(2.0))


@dataclass
class SpectralProfile:
    """Gaussian spectral envelope; lengths in meters."""

    center_wavelength: float = 795e-9
    bandwidth_fwhm: float = 6e-9
    shape: str = "gaussian"

    def __post_init__(self):
        for value in (self.center_wavelength, self.bandwidth_fwhm):
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(
                    "wavelength and bandwidth must be finite and positive")
        if self.shape != "gaussian":
            raise ConfigurationError(f"unsupported spectral shape {self.shape!r}")


def coherence_length(profile: SpectralProfile) -> float:
    return profile.center_wavelength ** 2 / profile.bandwidth_fwhm


def temporal_overlap(delay: float, profile: SpectralProfile) -> float:
    """Two-photon amplitude overlap v(delay) in [0, 1]; delay in meters."""
    if not math.isfinite(delay):
        raise ConfigurationError("delay must be finite")
    x = delay / coherence_length(profile)
    return math.exp(-KAPPA * x * x)


def _single_path(state: PhotonState) -> str:
    paths = {state.basis.modes[i].path
             for i in np.nonzero(np.abs(state.amplitudes) > 1e-10)[0]}
    if len(paths) != 1:
        raise ConfigurationError(f"photon must occupy exactly one path, got {paths}")
    return paths.pop()


def internal_overlap(psi_a: PhotonState, psi_b: PhotonState) -> float:
    """Squared internal-state overlap mu after the reflection OAM flip.

    Computed from the full two-photon beam-splitter evolution: the
    both-in-a' post-selection probability is (1 + mu)/4, so mu = 4p - 1.
    """
    pa, pb = _single_path(psi_a), _single_path(psi_b)
    if {pa, pb} != {"a", "b"}:
        raise ConfigurationError("photons must enter on distinct input paths a and b")
    two = fock.symmetrize_product(psi_a, psi_b)
    bs = elements.beam_splitter(psi_a.basis)
    out = elements.apply(bs, two)
    _, prob = fock.project_keys(out, "a_prime")
    mu = 4.0 * prob - 1.0
    return min(max(mu, 0.0), 1.0)


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


def coincidence_expectation(psi_a: PhotonState, psi_b: PhotonState,
                            delay: float, profile: SpectralProfile,
                            baseline: float = 1.0) -> float:
    """Expected relative rate of both-photons-in-a' events at a given delay.

    C(delay) = baseline * (1 + v(delay)^2 * mu), with the fully
    distinguishable rate as the baseline.
    """
    mu = internal_overlap(psi_a, psi_b)
    v = temporal_overlap(delay, profile)
    return baseline * (1.0 + v * v * mu)


@dataclass
class DelayScan:
    """HOM scan result: per-delay coincidences and the enhancement ratio."""

    delays: np.ndarray
    coincidences: np.ndarray
    enhancements: np.ndarray
    ratio: float
    profile: SpectralProfile = field(repr=False, default=None)


def hom_curve(psi_a: PhotonState, psi_b: PhotonState, delays,
              profile: SpectralProfile, baseline: float = 1.0) -> DelayScan:
    """Coincidence curve over a delay scan plus R = C(0) / C(infinity)."""
    delays = np.asarray(list(delays), dtype=float)
    if delays.size == 0:
        raise ConfigurationError("empty delay scan")
    if not np.all(np.isfinite(delays)):
        raise ConfigurationError("delays must be finite")
    mu = internal_overlap(psi_a, psi_b)
    v = np.exp(-KAPPA * (delays / coherence_length(profile)) ** 2)
    coincidences = baseline * (1.0 + v * v * mu)
    return DelayScan(delays, coincidences, coincidences / baseline, 1.0 + mu, profile)
