"""Behaviour that goes with the per-branch Fock-space cloner core.  A cloner
computed once per d from the splitter has no cached ancilla states, so the
change that brings it deletes or rewrites this module."""

import numpy as np
import pytest

from oamclone import cloning


class TestLabelStates:
    @pytest.mark.parametrize("d", [2, 4])
    def test_cached_amplitudes_are_read_only(self, d):
        psi = cloning.label_states(d)[0]
        with pytest.raises(ValueError, match="read-only"):
            psi.amplitudes[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            psi.amplitudes *= 2.0
        assert np.count_nonzero(psi.amplitudes) == 1
