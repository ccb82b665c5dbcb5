"""Numerical simulator of two-photon OAM interference and symmetrization cloning.

Holds the error classes; the re-exported names are loaded from their modules
on first access, so that a command imports only the modules it runs."""

import importlib

__version__ = "0.1.0"


class FockError(Exception):
    """Base class for state-algebra errors."""


class ConfigurationError(FockError):
    """Invalid basis or operator configuration."""


class BasisMismatchError(FockError):
    """Objects defined over different mode bases were combined."""


class InvalidStateError(FockError):
    """State construction from degenerate input (e.g. all-zero amplitudes)."""


# re-exported name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(("DensityOperator", "ModeBasis", "ModeIndex", "PhotonState",
                     "TwoPhotonState", "build_basis", "mix", "pure_density",
                     "superposition_state", "symmetrize_product"), "fock"),
    **dict.fromkeys(("CloneResult", "run_cloner_full", "run_cloner_projector"), "cloning"),
    "QubitSpec": "qubit",
    **dict.fromkeys(("QuditSpec", "qudit_clone", "qudit_formula"), "qudit"),
    **dict.fromkeys(("SpectralProfile", "coincidence_expectation", "hom_curve"),
                    "interference"),
}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
