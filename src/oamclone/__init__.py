"""Numerical simulator of two-photon OAM interference and symmetrization cloning.

Holds the version and the error classes; every other name is imported from the
module that defines it, so that a command imports only the modules it runs."""

__version__ = "0.1.0"


class FockError(Exception):
    """Base class for state-algebra errors."""


class ConfigurationError(FockError):
    """Invalid basis or operator configuration."""


class BasisMismatchError(FockError):
    """Objects defined over different mode bases were combined."""


class InvalidStateError(FockError):
    """State construction from degenerate input (e.g. all-zero amplitudes)."""
