import math

import numpy as np
import pytest

from oamclone import elements, fock
from oamclone.elements import apply, beam_splitter
from oamclone.fock import ModeIndex, PhotonState, build_basis, superposition_state


def pol_basis():
    return build_basis(("a",), (0,))


def h_state(basis, path="a", oam=0):
    return superposition_state(basis, [(ModeIndex(path, "L", oam), 1.0),
                                       (ModeIndex(path, "R", oam), 1.0)])


def _random_state(basis, rng):
    v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    return PhotonState(basis, v / np.linalg.norm(v))


class TestBeamSplitter:
    def test_single_photon_routing(self):
        basis = build_basis(("a", "b", "a_prime", "b_prime"), (-2, 2))
        bs = beam_splitter(basis)
        psi = superposition_state(basis, [(ModeIndex("a", "L", 2), 1.0)])
        out = apply(bs, psi)
        assert out.amplitude(ModeIndex("a_prime", "L", 2)) == pytest.approx(1 / math.sqrt(2))
        assert out.amplitude(ModeIndex("b_prime", "L", -2)) == pytest.approx(1j / math.sqrt(2))

    def test_unitary(self):
        basis = build_basis(("a", "b", "a_prime", "b_prime"), (-2, 0, 2))
        bs = beam_splitter(basis)
        bs.validate()
        assert np.allclose(bs.matrix.conj().T @ bs.matrix, np.eye(basis.size), atol=1e-12)

    def test_opposite_oam_coalesce(self):
        # double-occupancy amplitude doubled relative to the distinguishable case
        basis = build_basis(("a", "b", "a_prime", "b_prime"), (-2, 2), pols=("L",))
        bs = beam_splitter(basis)
        pa = superposition_state(basis, [(ModeIndex("a", "L", 2), 1.0)])
        pb = superposition_state(basis, [(ModeIndex("b", "L", -2), 1.0)])
        out = apply(bs, fock.symmetrize_product(pa, pb))
        coalesced = abs(out.amplitude(ModeIndex("a_prime", "L", 2),
                                      ModeIndex("a_prime", "L", 2))) ** 2
        assert coalesced == pytest.approx(0.5)

    def test_equal_oam_do_not_coalesce(self):
        basis = build_basis(("a", "b", "a_prime", "b_prime"), (-2, 2), pols=("L",))
        bs = beam_splitter(basis)
        pa = superposition_state(basis, [(ModeIndex("a", "L", 2), 1.0)])
        pb = superposition_state(basis, [(ModeIndex("b", "L", 2), 1.0)])
        out = apply(bs, fock.symmetrize_product(pa, pb))
        for m in (-2, 2):
            amp = out.amplitude(ModeIndex("a_prime", "L", m), ModeIndex("a_prime", "L", m))
            assert abs(amp) < 1e-12
        both = abs(out.amplitude(ModeIndex("a_prime", "L", 2),
                                 ModeIndex("a_prime", "L", -2))) ** 2
        assert both == pytest.approx(0.25)

    def test_two_photon_norm_preserved_1000_random_states(self):
        basis = build_basis(("a", "b", "a_prime", "b_prime"), (-2, 2), pols=("L",))
        bs = beam_splitter(basis)
        rng = np.random.default_rng(17)
        for _ in range(1000):
            two = fock.symmetrize_product(_random_state(basis, rng),
                                          _random_state(basis, rng))
            out = apply(bs, two)
            assert abs(out.norm() - 1.0) < 1e-10

    def test_missing_paths_rejected(self):
        with pytest.raises(fock.ConfigurationError):
            beam_splitter(build_basis(("a", "b"), (-2, 2)))

    def test_asymmetric_truncation_rejected_with_flip(self):
        with pytest.raises(fock.ConfigurationError):
            beam_splitter(build_basis(("a", "b", "a_prime", "b_prime"), (0, 2)))


class TestApply:
    def test_identity(self):
        basis = pol_basis()
        ident = elements.ElementOperator(basis, np.eye(basis.size))
        psi = h_state(basis)
        out = apply(ident, psi)
        assert np.allclose(out.amplitudes, psi.amplitudes)

    def test_bs_lift_matches_resymmetrization(self):
        basis = build_basis(("a", "b", "a_prime", "b_prime"), (-2, 2))
        bs = beam_splitter(basis)
        rng = np.random.default_rng(31)
        for _ in range(50):
            pa, pb = _random_state(basis, rng), _random_state(basis, rng)
            lifted = apply(bs, fock.symmetrize_product(pa, pb))
            resym = fock.symmetrize_product(apply(bs, pa), apply(bs, pb))
            # global phase agrees since both use the same linear expansion
            for k in set(lifted.amplitudes) | set(resym.amplitudes):
                assert lifted.amplitudes.get(k, 0.0) == pytest.approx(
                    resym.amplitudes.get(k, 0.0), abs=1e-10)

    def test_basis_mismatch_rejected(self):
        op = beam_splitter(build_basis(("a", "b", "a_prime", "b_prime"), (-2, 2)))
        other = superposition_state(build_basis(("b",), (0,)),
                                    [(ModeIndex("b", "L", 0), 1.0)])
        with pytest.raises(fock.BasisMismatchError):
            apply(op, other)

    def test_validate_rejects_a_non_unitary_matrix(self):
        basis = pol_basis()
        lossy = elements.ElementOperator(basis, np.diag([1.0, 0.5]))
        with pytest.raises(fock.ConfigurationError):
            lossy.validate()
