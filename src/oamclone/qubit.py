"""The OAM qubit on the {+2, -2} basis: amplitudes, Pauli axes and Stokes vectors.

numpy only, so that code which needs qubit states but no two-photon evolution
(the CLI's state names, the ``experiment`` scenario) loads no Fock-space code."""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import ConfigurationError, InvalidStateError

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# the six states measured in the universality test, as (alpha, beta) on (+2, -2)
SIX_STATE_AMPLITUDES = {
    "h": (1 / math.sqrt(2), 1 / math.sqrt(2)),
    "v": (1 / (1j * math.sqrt(2)), -1 / (1j * math.sqrt(2))),
    "minus2": (0.0, 1.0),
    "plus2": (1.0, 0.0),
    "a": ((1 - 1j) / 2, (1 + 1j) / 2),
    "d": ((1 + 1j) / 2, (1 - 1j) / 2),
}


@dataclass
class QubitSpec:
    """Normalized qubit amplitudes on the {+2, -2} basis."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        if not (cmath.isfinite(self.alpha) and cmath.isfinite(self.beta)):
            raise InvalidStateError("qubit amplitudes must be finite")
        nrm = math.sqrt(abs(self.alpha) ** 2 + abs(self.beta) ** 2)
        if abs(nrm - 1.0) > 1e-12:
            if nrm < 1e-15:
                raise InvalidStateError("zero qubit amplitudes")
            self.alpha /= nrm
            self.beta /= nrm

    @classmethod
    def named(cls, label: str) -> "QubitSpec":
        try:
            a, b = SIX_STATE_AMPLITUDES[label]
        except KeyError:
            raise ConfigurationError(f"unknown state label {label!r}") from None
        return cls(a, b)

    def vector(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=complex)

    def bloch(self) -> np.ndarray:
        v = self.vector()
        return np.array([np.real(np.vdot(v, PAULI[ax] @ v)) for ax in "xyz"])


def stokes_vector(rho: np.ndarray) -> np.ndarray:
    """Pauli expectation values of a 2x2 density matrix on (+2, -2)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ConfigurationError("stokes_vector expects a 2x2 density matrix")
    return np.array([np.real(np.trace(rho @ PAULI[ax])) for ax in "xyz"])


def haar_random_qubit(rng) -> QubitSpec:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return QubitSpec(v[0], v[1])
