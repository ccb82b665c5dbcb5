import math

import numpy as np
import pytest

from oamclone import cloning, elements, fock, qudit
from oamclone.elements import apply, beam_splitter
from oamclone.fock import ModeIndex, PhotonState, build_basis, superposition_state
from pair_reference import pair_amplitude, pair_amplitudes, photon_amplitude
from fresh_process import cold_census, run_fresh

# Plants a splitter whose reflection phase is 1 in place of i, so it is not
# unitary, and prints what the qubit cloner, the d = 3 qudit cloner and the
# HOM overlap refuse with: ConfigurationError's message, or None.
NON_UNITARY_SPLITTER = """
import numpy as np
from oamclone import cloning, elements, interference, qudit
from oamclone.fock import ConfigurationError, ModeIndex, superposition_state
build = elements.beam_splitter


def reflection_phase_one(basis):
    return elements.ElementOperator(basis, np.abs(build(basis).matrix))  # i/sqrt(2) -> 1/sqrt(2)


elements.beam_splitter = reflection_phase_one
basis = cloning.cloner_basis()
pa, pb = (superposition_state(basis, [(ModeIndex(path, "L", 2), 1.0)]) for path in ("a", "b"))
calls = [lambda: cloning.run_cloner_full(cloning.QubitSpec.named("h")),
         lambda: qudit.qudit_clone(qudit.QuditSpec(np.ones(3))),
         lambda: interference.internal_overlap(pa, pb)]
print(json.dumps([refused(call, ConfigurationError) for call in calls]))
"""


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
        assert photon_amplitude(out, ModeIndex("a_prime", "L", 2)) \
            == pytest.approx(1 / math.sqrt(2))
        assert photon_amplitude(out, ModeIndex("b_prime", "L", -2)) \
            == pytest.approx(1j / math.sqrt(2))

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
        coalesced = abs(pair_amplitude(out, ModeIndex("a_prime", "L", 2),
                                       ModeIndex("a_prime", "L", 2))) ** 2
        assert coalesced == pytest.approx(0.5)

    def test_equal_oam_do_not_coalesce(self):
        basis = build_basis(("a", "b", "a_prime", "b_prime"), (-2, 2), pols=("L",))
        bs = beam_splitter(basis)
        pa = superposition_state(basis, [(ModeIndex("a", "L", 2), 1.0)])
        pb = superposition_state(basis, [(ModeIndex("b", "L", 2), 1.0)])
        out = apply(bs, fock.symmetrize_product(pa, pb))
        for m in (-2, 2):
            amp = pair_amplitude(out, ModeIndex("a_prime", "L", m), ModeIndex("a_prime", "L", m))
            assert abs(amp) < 1e-12
        both = abs(pair_amplitude(out, ModeIndex("a_prime", "L", 2),
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

    def test_cached_splitters_are_checked_for_unitarity(self):
        # the planted splitter reaches each scenario's first call in a cold process
        for refusal in run_fresh(NON_UNITARY_SPLITTER):
            assert refusal is not None and "not unitary" in refusal

    def test_missing_paths_rejected(self):
        with pytest.raises(fock.ConfigurationError):
            beam_splitter(build_basis(("a", "b"), (-2, 2)))

    def test_asymmetric_truncation_rejected_with_flip(self):
        with pytest.raises(fock.ConfigurationError):
            beam_splitter(build_basis(("a", "b", "a_prime", "b_prime"), (0, 2)))


class TestCoalesce:
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 24])
    def test_port_blocks_and_the_clone_are_in_label_order(self, d):
        basis, labels = cloning.label_basis(d), cloning.oam_labels(d)
        eye, rev = np.eye(d), np.eye(d)[::-1]
        # rows a', b' by columns a, b: transmission keeps the label, reflection
        # sends label k to d - 1 - k, the mode of -m
        assert np.array_equal(elements.splitter(basis).matrix[2 * d:, :2 * d],
                              np.block([[eye, 1j * rev], [1j * eye, rev]]) / math.sqrt(2.0))
        port = basis.port("a_prime")[0]
        assert qudit.qudit_clone(qudit.QuditSpec(np.ones(d))).clone_density.basis == port
        # the label-0 input with the I/d ancilla: F on label 0, (1 - F)/(d - 1) elsewhere
        first = superposition_state(basis, [(ModeIndex("a", "L", labels[0]), 1.0)])
        ancillas = [(superposition_state(basis, [(ModeIndex("b", "L", m), 1.0)]), 1.0 / d)
                    for m in labels]
        rho, success = elements.coalesce(first, ancillas, "a_prime")
        f, p = qudit.qudit_formula(d)
        assert rho.basis == port
        assert [mode.oam for mode in rho.basis.modes] == list(labels)  # [2, -2] at d = 2
        rest = (1.0 - f) / max(d - 1, 1)
        assert np.allclose(rho.matrix, np.diag([f] + [rest] * (d - 1)), atol=1e-12)
        assert success == pytest.approx(p / 2.0, abs=1e-12)

    def test_no_post_selected_weight_is_rejected(self):
        basis = cloning.cloner_basis()
        pa, pb = (superposition_state(basis, [(ModeIndex(path, "L", 2), 1.0)])
                  for path in ("a", "b"))
        for ancillas in ([], [(pb, 0.0)]):  # no ancilla; one that reaches a', with weight 0
            with pytest.raises(fock.ConfigurationError, match="no post-selected weight"):
                elements.coalesce(pa, ancillas, "a_prime")

    def test_one_checked_splitter_serves_every_scenario(self):
        assert cloning.cloner_basis() is cloning.label_basis(2)
        # cold: the HOM overlap checks the d = 2 splitter, and the qubit and the
        # d = 2 qudit clones check none
        first = cold_census()[:3]
        assert [(call["kind"], call["d"]) for call in first] \
            == [("overlap", 2), ("qubit", 2), ("qudit", 2)]
        assert [call["validates"] for call in first] == [1, 0, 0]


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
            expected = pair_amplitudes(resym)
            for k, amp in pair_amplitudes(lifted).items():
                assert amp == pytest.approx(expected[k], abs=1e-10)

    @pytest.mark.parametrize("occupied", [1, 25, 96])
    def test_at_the_gather_size_the_product_matches_the_dense_one(self, occupied):
        # the d = 24 qudit's basis, where a branch occupies 25 of the 96 modes
        basis, labels = cloning.label_basis(24), cloning.oam_labels(24)
        assert basis.size == 96
        bs = elements.splitter(basis)
        rng = np.random.default_rng(occupied)
        ancilla = superposition_state(basis, [(ModeIndex("b", "L", labels[7]), 1.0)])
        if occupied == 1:
            two = fock.symmetrize_product(ancilla, ancilla)
        elif occupied == 25:  # a qudit branch: the input on path a, one label on b
            v = rng.normal(size=24) + 1j * rng.normal(size=24)
            psi = superposition_state(basis, [(ModeIndex("a", "L", m), c)
                                              for m, c in zip(labels, v)])
            two = fock.symmetrize_product(psi, ancilla)
        else:
            two = fock.symmetrize_product(_random_state(basis, rng), _random_state(basis, rng))
        assert np.count_nonzero(two.amplitudes.any(0)) == occupied
        dense = bs.matrix @ two.amplitudes @ bs.matrix.T
        out = apply(bs, two).amplitudes
        assert np.max(np.abs(out - dense)) <= 16 * np.finfo(float).eps

    def test_below_the_gather_size_the_product_is_the_dense_one(self):
        basis = cloning.cloner_basis()
        assert basis.size == 8
        bs = elements.splitter(basis)
        rng = np.random.default_rng(37)
        two = fock.symmetrize_product(_random_state(basis, rng), _random_state(basis, rng))
        assert np.array_equal(apply(bs, two).amplitudes,
                              bs.matrix @ two.amplitudes @ bs.matrix.T)

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
