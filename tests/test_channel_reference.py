"""The Fock-space cloner agrees with the bilinear formula of ``channel_reference``:
``label_clone`` with the I/d ancilla for d = 1..24 on both ports, ``run_cloner_full``
with sampled ancillas, and ``internal_overlap``'s mu for the 36 pairs of named states."""

import numpy as np
import pytest

import channel_reference
from oamclone import cloning, interference
from oamclone.qubit import QubitSpec
from oamclone.states import STATE_NAMES

ATOL = 1e-12
PORTS = ("a_prime", "b_prime")


@pytest.mark.parametrize("port", PORTS)
def test_label_clone_with_the_maximally_mixed_ancilla(port):
    rng = np.random.default_rng(5)
    for d in range(1, 25):
        # off unit norm: the core clones and scores the normalized input
        amps = rng.normal(size=d) + 1j * rng.normal(size=d)
        rho = channel_reference.projector(amps)
        expected, p = channel_reference.clone(rho, np.eye(d) / d, port)
        clone, success, fidelity = cloning.label_clone(amps, port)
        assert np.max(np.abs(clone.matrix - expected)) <= ATOL, d
        assert abs(success - p) <= ATOL, d
        assert abs(fidelity - np.trace(rho @ expected).real) <= ATOL, d


@pytest.mark.parametrize("port", PORTS)
def test_run_cloner_full_with_sampled_ancillas(port):
    n, seed = 400, 23
    sigma = channel_reference.sampled_sigma(n, seed)
    for label in STATE_NAMES:
        q = QubitSpec.named(label)
        expected, p = channel_reference.clone(channel_reference.projector(q.amplitudes),
                                              sigma, port)
        res = cloning.run_cloner_full(q, n, seed=seed, port=port)
        assert np.max(np.abs(res.clone_density - expected)) <= ATOL, label
        assert abs(res.success_probability - p) <= ATOL, label


def test_internal_overlap_is_four_p_minus_one():
    # both photons in a' with probability (1 + mu)/4
    basis = cloning.cloner_basis()
    for a in STATE_NAMES:
        for b in STATE_NAMES:
            qa, qb = QubitSpec.named(a), QubitSpec.named(b)
            _, p = channel_reference.clone(channel_reference.projector(qa.amplitudes),
                                           channel_reference.projector(qb.amplitudes),
                                           "a_prime")
            mu = interference.internal_overlap(cloning.embed_qubit(qa, basis, "a"),
                                               cloning.embed_qubit(qb, basis, "b"))
            assert abs(mu - (4.0 * p - 1.0)) <= ATOL, (a, b)
