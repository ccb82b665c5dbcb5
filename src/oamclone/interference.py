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
from dataclasses import dataclass

import numpy as np

from . import elements
from .fock import ConfigurationError, PhotonState

KAPPA = math.pi ** 2 / (4.0 * math.log(2.0))


@dataclass
class SpectralProfile:
    """Gaussian spectral envelope; lengths in meters."""

    center_wavelength: float = 795e-9
    bandwidth_fwhm: float = 6e-9

    def __post_init__(self):
        for value in (self.center_wavelength, self.bandwidth_fwhm):
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(
                    "wavelength and bandwidth must be finite and positive")
        try:
            lc = coherence_length(self)
        except OverflowError:  # wavelength^2 beyond the float range
            lc = math.inf
        if not 0 < lc < math.inf:  # or it underflowed to 0
            raise ConfigurationError(f"coherence length {lc!r} m is not finite and positive")


def coherence_length(profile: SpectralProfile) -> float:
    return profile.center_wavelength ** 2 / profile.bandwidth_fwhm


def temporal_overlap(delay, profile: SpectralProfile):
    """Two-photon amplitude overlap v(delay) in [0, 1]; delay in meters.

    ``delay`` is a float or an array of them; v is 0 where (delay / l_c)^2
    exceeds the float range.
    """
    delay = np.asarray(delay, dtype=float)
    if not np.all(np.isfinite(delay)):
        raise ConfigurationError("delay must be finite")
    with np.errstate(over="ignore"):
        v = np.exp(-KAPPA * (delay / coherence_length(profile)) ** 2)
    return v if v.ndim else float(v)


def _single_path(state: PhotonState) -> str:
    paths = {state.basis.modes[i].path
             for i in np.nonzero(np.abs(state.amplitudes) > 1e-10)[0]}
    if len(paths) != 1:
        raise ConfigurationError(f"photon must occupy exactly one path, got {paths}")
    return paths.pop()


def internal_overlap(psi_a: PhotonState, psi_b: PhotonState) -> float:
    """Squared internal-state overlap mu after the reflection OAM flip.

    Computed from the full two-photon beam-splitter evolution
    (``elements.coalesce``): the both-in-a' post-selection probability is
    (1 + mu)/4, so mu = 4p - 1.
    """
    pa, pb = _single_path(psi_a), _single_path(psi_b)
    if {pa, pb} != {"a", "b"}:
        raise ConfigurationError("photons must enter on distinct input paths a and b")
    _, prob = elements.coalesce(psi_a, [(psi_b, 1.0)], "a_prime")
    mu = 4.0 * prob - 1.0
    return min(max(mu, 0.0), 1.0)


def coincidence_expectation(psi_a: PhotonState, psi_b: PhotonState,
                            delay: float, profile: SpectralProfile) -> float:
    """Expected relative rate of both-photons-in-a' events at a given delay,
    ``hom_curve`` at one point."""
    return float(hom_curve(psi_a, psi_b, [delay], profile).coincidences[0])


@dataclass
class DelayScan:
    """HOM scan result: per-delay coincidences and the enhancement ratio."""

    delays: np.ndarray
    coincidences: np.ndarray
    ratio: float


def hom_curve(psi_a: PhotonState, psi_b: PhotonState, delays,
              profile: SpectralProfile) -> DelayScan:
    """Coincidence curve over a delay scan plus R = C(0) / C(infinity).

    C(delay) = 1 + v(delay)^2 * mu, relative to the fully distinguishable rate.
    """
    delays = np.asarray(list(delays), dtype=float)
    if delays.size == 0:
        raise ConfigurationError("empty delay scan")
    v = temporal_overlap(delays, profile)
    mu = internal_overlap(psi_a, psi_b)
    return DelayScan(delays, 1.0 + v * v * mu, 1.0 + mu)
