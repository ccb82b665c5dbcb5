import math

import numpy as np
import pytest

from oamclone import BasisMismatchError, ConfigurationError, cli, cloning, elements, fock, qudit
from oamclone.elements import apply, beam_splitter
from oamclone.fock import ModeIndex, PhotonState, build_basis, superposition_state
from pair_reference import pair_amplitude, pair_amplitudes, photon_amplitude
from fresh_process import cold_census, run_fresh

# Plants a splitter whose reflection phase is 1 in place of i, so it is not
# unitary, and prints what the qubit cloner, the d = 3 qudit cloner and the
# HOM overlap refuse with: ConfigurationError's message, or None.
NON_UNITARY_SPLITTER = """
import numpy as np
from oamclone import ConfigurationError, cloning, elements, interference, qudit
from oamclone.fock import ModeIndex, superposition_state
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


def _random_state(basis, rng):
    v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    return PhotonState(basis, v / np.linalg.norm(v))


def _scattering_permutation():
    """(a checked permutation with random phases on the d = 24 basis, a pair on 25 random
    modes), whose 25 reached rows are scattered over the 96."""
    basis = cloning.label_basis(24)
    assert basis.size == 96
    rng = np.random.default_rng(41)
    perm = rng.permutation(96)
    mat = np.zeros((96, 96), dtype=complex)
    mat[perm, np.arange(96)] = np.exp(2j * np.pi * rng.random(96))
    op = elements.ElementOperator(basis, mat).validate()
    occupied = rng.choice(96, size=25, replace=False)
    u, v = (np.zeros(96, dtype=complex) for _ in range(2))
    for w in (u, v):
        w[occupied] = rng.normal(size=25) + 1j * rng.normal(size=25)
    return op, fock.symmetrize_product(PhotonState(basis, u / np.linalg.norm(u)),
                                       PhotonState(basis, v / np.linalg.norm(v)))


class TestBeamSplitter:
    def test_single_photon_routing(self):
        # a photon's image is the splitter matrix times its amplitudes; apply is the
        # two-photon lift only and refuses a photon
        basis = build_basis(("a", "b", "a_prime", "b_prime"), (-2, 2))
        bs = beam_splitter(basis)
        psi = superposition_state(basis, [(ModeIndex("a", "L", 2), 1.0)])
        out = PhotonState(basis, bs.matrix @ psi.amplitudes)
        assert photon_amplitude(out, ModeIndex("a_prime", "L", 2)) \
            == pytest.approx(1 / math.sqrt(2))
        assert photon_amplitude(out, ModeIndex("b_prime", "L", -2)) \
            == pytest.approx(1j / math.sqrt(2))
        with pytest.raises(TypeError, match=r"two-photon lift S -> M S M\^T, not a map of "
                                            r"PhotonState; a photon's image is op.matrix"):
            apply(bs, psi)

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
        with pytest.raises(ConfigurationError):
            beam_splitter(build_basis(("a", "b"), (-2, 2)))

    def test_asymmetric_truncation_rejected_with_flip(self):
        with pytest.raises(ConfigurationError):
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
            with pytest.raises(ConfigurationError, match="no post-selected weight"):
                elements.coalesce(pa, ancillas, "a_prime")

    def test_pairs_that_cannot_reach_the_port_add_nothing(self):
        basis = cloning.cloner_basis()
        pa, pb, idle = (superposition_state(basis, [(ModeIndex(path, "L", 2), 1.0)])
                        for path in ("a", "b", "a_prime"))
        # an ancilla on a' leaves the splitter by a and b, so with psi_a on a the
        # pair never reaches a' (p = 0): alone it leaves no post-selected weight
        with pytest.raises(ConfigurationError, match="no post-selected weight"):
            elements.coalesce(pa, [(idle, 1.0)], "a_prime")
        # in a mixture it only lowers the success probability by its weight
        alone, p_alone = elements.coalesce(pa, [(pb, 1.0)], "a_prime")
        mixed, p_mixed = elements.coalesce(pa, [(idle, 0.5), (pb, 0.5)], "a_prime")
        assert np.array_equal(mixed.matrix, alone.matrix)
        assert (p_alone, p_mixed) == pytest.approx((0.25, 0.125), abs=1e-15)

    @pytest.mark.parametrize("weights", [[-1.0], [5.0, 5.0], [math.nan, 1.0], [math.inf],
                                         [1.0, -1e-300], [0.5, 0.25]],
                             ids=["negative", "sum-10", "nan", "inf", "tiny-negative", "sum-0.75"])
    def test_weights_that_are_not_a_distribution_are_rejected(self, weights):
        # unchecked, the first two clone with p = -0.375 and p = 3.75, and a NaN
        # weight warns in the divide
        ancillas = list(zip([(1, 0), (0, 1)], weights))
        with pytest.raises(ConfigurationError, match="ancilla weight"):
            cloning.label_clone((1 / math.sqrt(2), 1 / math.sqrt(2)), "a_prime", ancillas)

    @pytest.mark.parametrize("chi", [(1, 0, 5), (1,)], ids=["long", "short"])
    def test_an_ancilla_of_the_wrong_length_is_rejected(self, chi):
        # zip over the labels once dropped the extra amplitude and accepted the short
        # vector: both cloned (1, 0) with p = 1/4 and F = 1/2, as the ancilla (1, 0) does
        with pytest.raises(ConfigurationError,
                           match=f"{len(chi)} amplitudes on path b, not d = 2"):
            cloning.label_clone((1, 0), "a_prime", [(chi, 1.0)])

    def test_sampled_weights_sum_to_one_exactly(self):
        # the CLI's largest sample count: a running sum of its 1/n weights misses
        # 1 by more than NORM_ATOL, so the check must sum them exactly
        n = cli.MAX_ANCILLA_SAMPLES
        running = 0.0
        for _ in range(n):
            running += 1.0 / n
        assert abs(running - 1.0) > fock.NORM_ATOL
        res = cloning.run_cloner_full(cloning.QubitSpec.named("h"), n, seed=0)
        assert res.fidelity == pytest.approx(5.0 / 6.0, abs=0.01)

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
        rng = np.random.default_rng(3)
        for d in (2, 24):  # 8 modes, below the gather size; 96, at it
            # a qudit branch: the input on path a, one label on b
            basis, labels = cloning.label_basis(d), cloning.oam_labels(d)
            ident = elements.ElementOperator(basis, np.eye(basis.size))
            amps = rng.normal(size=d) + 1j * rng.normal(size=d)
            psi = superposition_state(basis, [(ModeIndex("a", "L", m), c)
                                              for m, c in zip(labels, amps)])
            ancilla = superposition_state(basis, [(ModeIndex("b", "L", labels[-1]), 1.0)])
            two = fock.symmetrize_product(psi, ancilla)
            assert np.array_equal(apply(ident, two).amplitudes, two.amplitudes)

    def test_bs_lift_matches_resymmetrization(self):
        basis = build_basis(("a", "b", "a_prime", "b_prime"), (-2, 2))
        bs = beam_splitter(basis)
        rng = np.random.default_rng(31)
        for _ in range(50):
            pa, pb = _random_state(basis, rng), _random_state(basis, rng)
            lifted = apply(bs, fock.symmetrize_product(pa, pb))
            resym = fock.symmetrize_product(*(PhotonState(basis, bs.matrix @ psi.amplitudes)
                                              for psi in (pa, pb)))
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

    def test_at_the_gather_size_the_zero_state_maps_to_zero(self):
        basis = cloning.label_basis(24)
        assert basis.size == 96
        zero = fock.TwoPhotonState(basis, np.zeros((96, 96)))
        out = apply(elements.splitter(basis), zero).amplitudes
        assert out.shape == (96, 96) and not out.any()

    def test_at_the_gather_size_any_element_writes_only_the_rows_it_reaches(self):
        # a permutation with random phases scatters the reached rows over the basis
        op, two = _scattering_permutation()
        mat = op.matrix
        out = apply(op, two).amplitudes
        dense = mat @ two.amplitudes @ mat.T
        assert np.max(np.abs(out - dense)) <= 16 * np.finfo(float).eps
        reached = np.zeros(96, dtype=bool)
        reached[np.flatnonzero(mat[:, two.occupied].any(1))] = True
        assert reached.sum() == 25 and np.ptp(np.flatnonzero(reached)) > 50
        assert not out[~np.outer(reached, reached)].any()

    @pytest.mark.parametrize("d", range(9, 25))
    def test_at_the_gather_size_the_occupied_modes_are_those_of_s(self, d):
        # the cloner's branches through the splitter, then the scattering permutation
        basis, labels = cloning.label_basis(d), cloning.oam_labels(d)
        rng = np.random.default_rng(d)
        psi = superposition_state(basis, [(ModeIndex("a", "L", m), c) for m, c in
                                          zip(labels, rng.normal(size=d) + 1j)])
        states = [fock.symmetrize_product(psi, superposition_state(
            basis, [(ModeIndex("b", "L", labels[j]), 1.0)])) for j in (0, d // 2, d - 1)]
        states = [*states, *(apply(elements.splitter(basis), two) for two in states)]
        if d == 24:
            op, two = _scattering_permutation()
            states += [two, apply(op, two)]
        for state in states:
            assert np.array_equal(state.occupied, np.flatnonzero(state.amplitudes.any(0)))

    @pytest.mark.parametrize("d", [9, 24])
    def test_the_product_is_the_same_with_and_without_carried_modes(self, d):
        basis, labels = cloning.label_basis(d), cloning.oam_labels(d)
        bs = elements.splitter(basis)
        rng = np.random.default_rng(47)
        psi = superposition_state(basis, [(ModeIndex("a", "L", m), c) for m, c in
                                          zip(labels, rng.normal(size=d) + 1j)])
        ancilla = superposition_state(basis, [(ModeIndex("b", "L", labels[1]), 1.0)])
        carried = fock.symmetrize_product(psi, ancilla)
        bare = fock.TwoPhotonState(basis, carried.amplitudes.copy())  # finds them from S
        assert np.array_equal(apply(bs, carried).amplitudes, apply(bs, bare).amplitudes)
        op, two = _scattering_permutation()
        bare = fock.TwoPhotonState(two.basis, two.amplitudes.copy())
        assert np.array_equal(apply(op, two).amplitudes, apply(op, bare).amplitudes)

    def test_each_column_carries_its_first_and_last_nonzero_row(self):
        basis = cloning.label_basis(24)
        for op in (elements.splitter(basis), _scattering_permutation()[0],
                   elements.ElementOperator(basis, np.zeros((96, 96)))):
            for col in range(96):
                rows = np.flatnonzero(op.matrix[:, col])
                assert (op.first[col], op.last[col]) \
                    == ((rows[0], rows[-1]) if rows.size else (0, 95))

    def test_an_operator_matrix_is_a_read_only_copy(self):
        bs = elements.splitter(cloning.label_basis(24))
        with pytest.raises(ValueError, match="read-only"):
            bs.matrix[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            bs.matrix *= 2.0
        mat = np.eye(2, dtype=complex)
        op = elements.ElementOperator(pol_basis(), mat)
        mat[0, 0] = 2.0  # the caller's array stays writable, and apart
        assert op.matrix[0, 0] == 1.0

    def test_at_the_gather_size_primed_inputs_reach_paths_a_and_b(self):
        basis, labels = cloning.label_basis(24), cloning.oam_labels(24)
        assert basis.size == 96
        bs = elements.splitter(basis)
        rng = np.random.default_rng(43)
        pa, pb = (superposition_state(basis, [(ModeIndex(path, "L", m), c) for m, c in
                                              zip(labels, rng.normal(size=24) + 1j)])
                  for path in ("a_prime", "b_prime"))
        two = fock.symmetrize_product(pa, pb)
        out = apply(bs, two).amplitudes
        dense = bs.matrix @ two.amplitudes @ bs.matrix.T
        assert np.max(np.abs(out - dense)) <= 16 * np.finfo(float).eps
        assert not out[48:].any() and out[:48, :48].any()

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
        with pytest.raises(BasisMismatchError):
            apply(op, other)

    def test_an_operator_matrix_of_the_wrong_size_is_rejected(self):
        with pytest.raises(BasisMismatchError, match="operator matrix"):
            elements.ElementOperator(pol_basis(), np.eye(3))

    def test_validate_rejects_a_non_unitary_matrix(self):
        basis = pol_basis()
        lossy = elements.ElementOperator(basis, np.diag([1.0, 0.5]))
        with pytest.raises(ConfigurationError):
            lossy.validate()
        # (1 + 1e-6) M has M^dag M - I = 2e-6 on the diagonal, 2e4 x UNITARY_ATOL, which
        # np.allclose's default rtol of 1e-5 would let through
        bs = elements.splitter(cloning.label_basis(2))
        scaled = elements.ElementOperator(bs.basis, (1.0 + 1e-6) * bs.matrix)
        with pytest.raises(ConfigurationError, match="not unitary"):
            scaled.validate()
