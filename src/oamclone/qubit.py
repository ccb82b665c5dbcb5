"""The cloner's input state for every d, its closed forms, and the OAM qubit on {+2, -2}
as its d = 2 case: amplitudes, Pauli axes and Stokes vectors.  ``normalized_amplitudes``
is the one amplitude rule, of an input and of a photon, and ``stokes_vector`` the one
reader of the Pauli axes.

numpy only, so that code which needs qubit states but no two-photon evolution
(the ``experiment`` scenario) loads no Fock-space code."""

import math

import numpy as np

from . import ConfigurationError, InvalidStateError
from .states import SIX_STATE_AMPLITUDES


def qudit_formula(d: int):
    """Closed-form optimal cloning fidelity and success probability over both ports."""
    if d < 1:
        raise ConfigurationError("dimension must be >= 1")
    return 0.5 + 1.0 / (d + 1.0), (d + 1.0) / (2.0 * d)


BLOCH_SHRINK = 2.0 * qudit_formula(2)[0] - 1.0  # eta: clone = eta * input, F = (1 + eta)/2
PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def normalized_amplitudes(amplitudes) -> np.ndarray:
    """The package's one amplitude rule: a fresh unit vector.  Not a nonempty 1-D vector:
    ConfigurationError; not finite, or all zero: InvalidStateError.  Normalized by
    ``math.hypot``, which does not underflow, only when that norm is more than 1e-12
    from 1; finite entries whose norm exceeds the largest double are first divided by
    the largest |real or imag part|."""
    try:
        a = np.array(amplitudes, dtype=complex)
    except OverflowError:  # an int beyond the largest double
        raise InvalidStateError("amplitudes must be finite and not all zero") from None
    if a.ndim != 1 or a.size < 1:
        raise ConfigurationError("amplitudes must be a nonempty vector")
    parts = (*a.real.tolist(), *a.imag.tolist())
    nrm = math.hypot(*parts)  # nan or inf if any part is
    if nrm == math.inf and all(map(math.isfinite, parts)):  # the norm alone overflows
        a = a / max(map(abs, parts))
        nrm = math.hypot(*a.real.tolist(), *a.imag.tolist())
    if not 0.0 < nrm < math.inf:
        raise InvalidStateError("amplitudes must be finite and not all zero")
    return a / nrm if abs(nrm - 1.0) > 1e-12 else a


class QuditSpec:
    """The d-level input state: its ``amplitudes`` in label order, by the one amplitude rule."""

    def __init__(self, amplitudes):
        self.amplitudes = normalized_amplitudes(amplitudes)

    @property
    def d(self) -> int:
        return self.amplitudes.size


class QubitSpec(QuditSpec):
    """The d = 2 input state: amplitudes alpha of |+2> and beta of |-2>."""

    def __init__(self, alpha: complex, beta: complex):
        QuditSpec.__init__(self, (alpha, beta))

    alpha = property(lambda self: self.amplitudes[0])
    beta = property(lambda self: self.amplitudes[1])

    @classmethod
    def named(cls, label: str) -> "QubitSpec":
        try:
            a, b = SIX_STATE_AMPLITUDES[label]
        except KeyError:
            raise ConfigurationError(f"unknown state label {label!r}") from None
        return cls(a, b)

    def bloch(self) -> np.ndarray:
        return stokes_vector(np.outer(self.amplitudes, self.amplitudes.conj()))


def stokes_vector(rho: np.ndarray) -> np.ndarray:
    """Pauli expectation values of a 2x2 density matrix on (+2, -2)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ConfigurationError("stokes_vector expects a 2x2 density matrix")
    return np.array([np.real(np.trace(rho @ PAULI[ax])) for ax in "xyz"])


def haar_random_qubit(rng) -> QubitSpec:
    return QubitSpec(*(rng.normal(size=2) + 1j * rng.normal(size=2)))
