"""Numerical simulator of two-photon OAM interference and symmetrization cloning."""

__version__ = "0.1.0"

from .fock import (  # noqa: F401
    DensityOperator,
    ModeBasis,
    ModeIndex,
    PhotonState,
    TwoPhotonState,
    build_basis,
    mix,
    partial_trace_to_single,
    pure_density,
    superposition_state,
    symmetrize_product,
)
from .cloning import CloneResult, QubitSpec, run_cloner_full, run_cloner_projector  # noqa: F401
from .qudit import QuditSpec, qudit_clone, qudit_formula  # noqa: F401

# Loaded on first use, so that ``python -m oamclone clone`` does not import the
# HOM module.
_INTERFERENCE_EXPORTS = ("SpectralProfile", "coincidence_expectation", "hom_curve")


def __getattr__(name):
    if name in _INTERFERENCE_EXPORTS:
        from . import interference
        return getattr(interference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
