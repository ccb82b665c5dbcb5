import math

import numpy as np
import pytest

from oamclone import elements, fock
from oamclone.cloning import oam_labels
from oamclone.fock import (
    ConfigurationError,
    InvalidStateError,
    ModeIndex,
    PhotonState,
    TwoPhotonState,
    build_basis,
    mix,
    pure_density,
    superposition_state,
    symmetrize_product,
)
from pair_reference import (pair_amplitude, pair_amplitudes, pair_density,
                            partial_trace_to_single, photon_amplitude, state_from_kets)


def _random_state(basis, rng):
    v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    return PhotonState(basis, v / np.linalg.norm(v))


def dense_symmetrization_oracle(psi_a, psi_b):
    """Brute-force tensor symmetrization over the ordered product space.

    Expands u (x) v + v (x) u and reads the unordered-pair amplitudes off
    the dense matrix, double-occupancy entries divided by sqrt(2).
    """
    u, v = psi_a.amplitudes, psi_b.amplitudes
    t = np.outer(u, v) + np.outer(v, u)
    n = len(u)
    amps = {}
    for i in range(n):
        for j in range(i, n):
            amp = t[i, i] / math.sqrt(2.0) if i == j else t[i, j]
            if abs(amp) > 1e-15:
                amps[(i, j)] = amp
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return {k: a / norm for k, a in amps.items()}


# The dense kernels round in another order than the pair-ket references
# below, so they agree to a few ulps of an amplitude of at most 1.
TOL = 16 * np.finfo(float).eps


def _loop_project_keys(amps, modes, path):
    """Both photons on ``path``, over ``{(i, j): Fock-ket amplitude}``."""
    kept = {(i, j): a for (i, j), a in amps.items()
            if modes[i].path == path and modes[j].path == path}
    prob = sum(abs(a) ** 2 for a in kept.values())
    if prob < 1e-30:
        return {}, 0.0
    scale = 1.0 / math.sqrt(prob)
    return {k: a * scale for k, a in kept.items()}, prob


def _cloner_paths_basis(d):
    """The cloner's basis over d OAM labels: the qubit's (-2, 2) at d = 2."""
    return build_basis(("a", "b", "a_prime", "b_prime"), oam_labels(d), pols=("L",))


def _photon(basis, rng, modes):
    v = np.zeros(basis.size, dtype=complex)
    v[modes] = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
    return PhotonState(basis, v / np.linalg.norm(v))


def _photon_pairs(basis, rng):
    """Photon pairs whose supports are disjoint, shared or partly shared."""
    q = basis.size // 4  # modes per path: a, b, a', b'
    a_modes, b_modes = list(range(q)), list(range(q, 2 * q))
    pa = _photon(basis, rng, a_modes)
    yield pa, _photon(basis, rng, b_modes)  # the cloner's input: one path each
    yield pa, pa  # identical photons: every key of a shared mode is diagonal
    everywhere = list(range(basis.size))
    # every pair {p, q} gets two terms, p == q one diagonal term
    yield _photon(basis, rng, everywhere), _photon(basis, rng, everywhere)
    # photon b's support both below and above photon a's
    yield _photon(basis, rng, [1, 2]), _photon(basis, rng, [0, 2, 3])
    for _ in range(5):
        yield tuple(_photon(basis, rng, sorted(rng.choice(basis.size, rng.integers(1, q + 2),
                                                          replace=False)))
                    for _ in range(2))


def _assert_close_pairs(state, reference, tol=TOL):
    """Every pair-ket amplitude of ``state`` within ``tol`` of ``reference``."""
    for key, amp in pair_amplitudes(state).items():
        assert abs(amp - reference.get(key, 0.0)) <= tol, key


@pytest.mark.parametrize("d", [2, 24], ids=["n=8", "n=96"])
class TestKernelsMatchTheLoopReference:
    def test_symmetrize_product(self, d):
        basis = _cloner_paths_basis(d)
        for pa, pb in _photon_pairs(basis, np.random.default_rng(d)):
            _assert_close_pairs(symmetrize_product(pa, pb),
                                dense_symmetrization_oracle(pa, pb))

    def test_project_keys(self, d):
        basis = _cloner_paths_basis(d)
        bs = elements.beam_splitter(basis)
        for pa, pb in _photon_pairs(basis, np.random.default_rng(d + 3)):
            out = elements.apply(bs, symmetrize_product(pa, pb))
            for path in ("a_prime", "b_prime", "a"):
                kept, prob = fock.project_keys(out, path)
                ref_kept, ref_prob = _loop_project_keys(pair_amplitudes(out), basis.modes,
                                                        path)
                assert prob == pytest.approx(ref_prob, abs=TOL)
                # the kept state lives on the path's modes, in the basis order
                port = kept.basis
                assert port.modes == tuple(m for m in basis.modes if m.path == path)
                ref_kept = {tuple(sorted(port.index(basis.modes[i]) for i in key)): a
                            for key, a in ref_kept.items()}
                _assert_close_pairs(kept, ref_kept, TOL / math.sqrt(max(ref_prob, TOL)))


class TestBuildBasis:
    def test_counts(self):
        assert build_basis(("a", "b"), (-2, 2)).size == 8
        assert build_basis(("a",), (0,)).size == 2
        assert build_basis(("a", "b", "a_prime", "b_prime"), (-2, 0, 2)).size == 24

    def test_order_is_deterministic(self):
        basis = build_basis(("b", "a"), (2, -2))
        assert basis.modes[0] == ModeIndex("a", "L", -2)
        assert basis.modes[-1] == ModeIndex("b", "R", 2)
        for pos, mode in enumerate(basis.modes):
            assert basis.index(mode) == pos

    def test_empty_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            build_basis((), (0,))
        with pytest.raises(ConfigurationError):
            build_basis(("a",), ())

    def test_duplicates_rejected(self):
        m = ModeIndex("a", "L", 0)
        with pytest.raises(ConfigurationError):
            fock.ModeBasis([m, m])

    def test_unknown_path_rejected(self):
        with pytest.raises(ConfigurationError):
            ModeIndex("c", "L", 0)


class TestSuperpositionState:
    def test_single_term(self):
        basis = build_basis(("a",), (-2, 2))
        psi = superposition_state(basis, [(ModeIndex("a", "L", 2), 1.0)])
        assert photon_amplitude(psi, ModeIndex("a", "L", 2)) == 1.0
        assert abs(psi.norm() - 1.0) < 1e-12

    def test_h_state(self):
        basis = build_basis(("a",), (-2, 2))
        psi = superposition_state(basis, [(ModeIndex("a", "L", 2), 1.0),
                                          (ModeIndex("a", "L", -2), 1.0)])
        assert photon_amplitude(psi, ModeIndex("a", "L", 2)) == pytest.approx(1 / math.sqrt(2))
        assert photon_amplitude(psi, ModeIndex("a", "L", -2)) == pytest.approx(1 / math.sqrt(2))

    def test_v_state(self):
        # (|+2> - |-2>) / (i sqrt(2))
        basis = build_basis(("a",), (-2, 2))
        psi = superposition_state(basis, [(ModeIndex("a", "L", 2), 1 / 1j),
                                          (ModeIndex("a", "L", -2), -1 / 1j)])
        assert photon_amplitude(psi, ModeIndex("a", "L", 2)) == pytest.approx(-1j / math.sqrt(2))
        assert photon_amplitude(psi, ModeIndex("a", "L", -2)) == pytest.approx(1j / math.sqrt(2))

    def test_zero_amplitudes_rejected(self):
        basis = build_basis(("a",), (0,))
        with pytest.raises(InvalidStateError):
            superposition_state(basis, [(ModeIndex("a", "L", 0), 0.0)])


class TestSymmetrizeProduct:
    def test_identical_inputs_single_double_occupancy(self):
        basis = build_basis(("a",), (-2, 2))
        psi = superposition_state(basis, [(ModeIndex("a", "L", 2), 1.0)])
        two = symmetrize_product(psi, psi)
        key = (basis.index(ModeIndex("a", "L", 2)),) * 2
        assert {k for k, a in pair_amplitudes(two).items() if a != 0} == {key}
        assert pair_amplitude(two, ModeIndex("a", "L", 2), ModeIndex("a", "L", 2)) \
            == pytest.approx(1.0)

    def test_disjoint_modes(self):
        basis = build_basis(("a", "b"), (-2, 2))
        pa = superposition_state(basis, [(ModeIndex("a", "L", 2), 1.0)])
        pb = superposition_state(basis, [(ModeIndex("b", "L", -2), 1.0)])
        two = symmetrize_product(pa, pb)
        assert sum(a != 0 for a in pair_amplitudes(two).values()) == 1
        assert pair_amplitude(two, ModeIndex("a", "L", 2), ModeIndex("b", "L", -2)) \
            == pytest.approx(1.0)

    def test_against_dense_oracle(self):
        basis = build_basis(("a", "b"), (-2, 2))
        pa = superposition_state(basis, [(ModeIndex("a", "L", 2), 1.0)])
        pb = superposition_state(basis, [(ModeIndex("b", "L", 2), 1.0),
                                         (ModeIndex("b", "R", -2), 1.0j)])
        amps = pair_amplitudes(symmetrize_product(pa, pb))
        expected = dense_symmetrization_oracle(pa, pb)
        assert {k for k, a in amps.items() if a != 0} == set(expected)
        for k, amp in expected.items():
            assert amps[k] == pytest.approx(amp, abs=1e-12)

    def test_oracle_on_random_pairs(self):
        basis = build_basis(("a", "b"), (-2, 0, 2))
        rng = np.random.default_rng(11)
        for _ in range(50):
            pa, pb = _random_state(basis, rng), _random_state(basis, rng)
            two = symmetrize_product(pa, pb)
            expected = dense_symmetrization_oracle(pa, pb)
            # global phase is fixed by construction in both, compare directly
            for k, amp in pair_amplitudes(two).items():
                assert amp == pytest.approx(expected.get(k, 0.0), abs=1e-12)

    def test_norm_convention_1000_random_pairs(self):
        basis = build_basis(("a", "b"), (-2, 2))
        rng = np.random.default_rng(3)
        for _ in range(1000):
            two = symmetrize_product(_random_state(basis, rng), _random_state(basis, rng))
            assert abs(two.norm() - 1.0) < 1e-12

    @pytest.mark.parametrize("case", ["identical", "orthogonal", "overlapping", "one_mode"])
    def test_closed_form_norm_matches_the_dense_route(self, case):
        basis = build_basis(("a", "b", "a_prime", "b_prime"), range(24), pols=("L",))
        rng = np.random.default_rng(41)
        u, v = (_random_state(basis, rng).amplitudes for _ in range(2))
        if case == "identical":
            v = u
        elif case == "orthogonal":  # the same modes, u^dag v = 0
            v = v - np.vdot(u, v) * u
        elif case == "one_mode":
            u, v = np.eye(basis.size)[[3, 31]]
        pa, pb = PhotonState(basis, u), PhotonState(basis, v)
        s = np.outer(u, v)
        s = s + s.T
        dense = s / (math.sqrt(2.0) * np.linalg.norm(s))  # 2 ||S||^2 = 1 by a full pass
        out = symmetrize_product(pa, pb).amplitudes
        # the dense norm sums 9216 squares: over 300 seeds the two routes differ
        # by at most 1.12e-15 relative, so allow 8 ulps
        assert np.linalg.norm(out - dense) <= 8 * np.finfo(float).eps * np.linalg.norm(dense)
        assert np.array_equal(out, out.T)

    def test_zero_norm_rejected(self):
        basis = build_basis(("a", "b"), (-2, 2))
        psi = superposition_state(basis, [(ModeIndex("a", "L", 2), 1.0)])
        with pytest.raises(InvalidStateError, match="zero norm"):
            symmetrize_product(psi, PhotonState(basis, np.zeros(basis.size)))

    def test_basis_mismatch(self):
        pa = superposition_state(build_basis(("a",), (0,)), [(ModeIndex("a", "L", 0), 1)])
        pb = superposition_state(build_basis(("b",), (0,)), [(ModeIndex("b", "L", 0), 1)])
        with pytest.raises(fock.BasisMismatchError):
            symmetrize_product(pa, pb)

    def test_inner_and_norm_are_those_of_the_pair_kets(self):
        basis = build_basis(("a", "b"), (-2, 0, 2))
        rng = np.random.default_rng(13)
        for _ in range(20):
            one, two = (symmetrize_product(_random_state(basis, rng), _random_state(basis, rng))
                        for _ in range(2))
            a, b = pair_amplitudes(one), pair_amplitudes(two)
            assert one.inner(two) == pytest.approx(
                sum(a[k].conjugate() * b[k] for k in a), abs=1e-12)
            assert one.norm() == pytest.approx(
                math.sqrt(sum(abs(x) ** 2 for x in a.values())), abs=1e-12)
        with pytest.raises(fock.BasisMismatchError):
            TwoPhotonState(basis, np.zeros((2, 2)))


class TestProjectKeys:
    BASIS = build_basis(("a", "b"), (-2, 2), pols=("L",))

    def _pair_on_a(self):
        rng = np.random.default_rng(11)
        return symmetrize_product(*(_photon(self.BASIS, rng, [0, 1]) for _ in range(2)))

    def test_pair_already_on_the_port_is_kept_whole(self):
        two = self._pair_on_a()
        kept, prob = fock.project_keys(two, "a")
        assert prob == pytest.approx(1.0, abs=fock.NORM_ATOL)
        assert kept.basis.modes == self.BASIS.modes[:2]
        assert np.allclose(kept.amplitudes, two.amplitudes[:2, :2], atol=TOL)

    def test_probability_above_one_rejected(self):
        two = self._pair_on_a()
        doubled = TwoPhotonState(self.BASIS, 2.0 * two.amplitudes)  # 2 ||S||^2 = 4
        with pytest.raises(InvalidStateError, match="exceeds 1"):
            fock.project_keys(doubled, "a")

    def test_port_sub_basis_is_built_once(self):
        assert self.BASIS.port("b") is self.BASIS.port("b")

    def test_path_without_modes_rejected(self):
        with pytest.raises(fock.BasisMismatchError):
            fock.project_keys(self._pair_on_a(), "a_prime")


class TestPureDensity:
    def test_eigenmode(self):
        basis = build_basis(("a",), (-2, 2))
        psi = superposition_state(basis, [(ModeIndex("a", "L", 2), 1.0)])
        rho = pure_density(psi)
        idx = basis.index(ModeIndex("a", "L", 2))
        assert rho.matrix[idx, idx] == pytest.approx(1.0)
        assert np.trace(rho.matrix) == pytest.approx(1.0)

    def test_h_state_block(self):
        basis = build_basis(("a",), (-2, 2))
        psi = superposition_state(basis, [(ModeIndex("a", "L", 2), 1.0),
                                          (ModeIndex("a", "L", -2), 1.0)])
        rho = pure_density(psi)
        i, j = basis.index(ModeIndex("a", "L", 2)), basis.index(ModeIndex("a", "L", -2))
        block = rho.matrix[np.ix_([i, j], [i, j])]
        assert np.allclose(block, 0.5 * np.ones((2, 2)), atol=1e-12)

    def test_d_state_imaginary_off_diagonals(self):
        # |d> = ((1+i)|+2> + (1-i)|-2>)/2 has off-diagonal +-i/2
        basis = build_basis(("a",), (-2, 2))
        psi = superposition_state(basis, [(ModeIndex("a", "L", 2), (1 + 1j) / 2),
                                          (ModeIndex("a", "L", -2), (1 - 1j) / 2)])
        rho = pure_density(psi)
        i, j = basis.index(ModeIndex("a", "L", 2)), basis.index(ModeIndex("a", "L", -2))
        assert rho.matrix[i, j] == pytest.approx(1j / 2)
        assert rho.matrix[j, i] == pytest.approx(-1j / 2)


class TestMix:
    def _basis_states(self):
        basis = build_basis(("a",), (-2, 2), pols=("L",))
        plus = superposition_state(basis, [(ModeIndex("a", "L", 2), 1.0)])
        minus = superposition_state(basis, [(ModeIndex("a", "L", -2), 1.0)])
        return basis, plus, minus

    def test_even_mixture_is_identity_over_two(self):
        _, plus, minus = self._basis_states()
        rho = mix([(pure_density(plus), 0.5), (pure_density(minus), 0.5)])
        assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    def test_single_state_identity_operation(self):
        _, plus, _ = self._basis_states()
        rho = mix([(pure_density(plus), 1.0)])
        assert np.allclose(rho.matrix, pure_density(plus).matrix)

    def test_hv_mixture_also_maximally_mixed(self):
        basis, _, _ = self._basis_states()
        h = superposition_state(basis, [(ModeIndex("a", "L", 2), 1.0),
                                        (ModeIndex("a", "L", -2), 1.0)])
        v = superposition_state(basis, [(ModeIndex("a", "L", 2), -1j),
                                        (ModeIndex("a", "L", -2), 1j)])
        rho = mix([(pure_density(h), 0.5), (pure_density(v), 0.5)])
        assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    def test_weight_sum_violation(self):
        _, plus, minus = self._basis_states()
        with pytest.raises(ConfigurationError):
            mix([(pure_density(plus), 0.6), (pure_density(minus), 0.6)])

    def test_psd_preserved_random_convex_combinations(self):
        basis = build_basis(("a",), (-2, 0, 2))
        rng = np.random.default_rng(7)
        for _ in range(1000):
            k = rng.integers(2, 5)
            weights = rng.dirichlet(np.ones(k))
            rho = mix([(pure_density(_random_state(basis, rng)), w) for w in weights])
            eigs = np.linalg.eigvalsh(rho.matrix)
            assert eigs.min() >= -1e-10
            assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)


class TestPartialTrace:
    def test_same_path_bell_state_reduces_to_identity(self):
        basis = build_basis(("a",), (-2, 2), pols=("L",))
        ip, im = basis.index(ModeIndex("a", "L", 2)), basis.index(ModeIndex("a", "L", -2))
        inv = 1 / math.sqrt(2)
        phi_plus = state_from_kets(basis, {(ip, ip): inv, (im, im): inv})
        rho1 = partial_trace_to_single(pair_density(phi_plus))
        assert np.allclose(rho1.matrix, np.eye(2) / 2, atol=1e-12)

    def test_double_occupancy_reduces_to_pure(self):
        basis = build_basis(("a",), (-2, 2), pols=("L",))
        ip = basis.index(ModeIndex("a", "L", 2))
        two = state_from_kets(basis, {(ip, ip): 1.0})
        rho1 = partial_trace_to_single(pair_density(two))
        expected = np.zeros((2, 2))
        expected[ip, ip] = 1.0
        assert np.allclose(rho1.matrix, expected, atol=1e-12)

    def test_identical_photons_reduce_to_pure_input(self):
        basis = build_basis(("a", "b"), (-2, 2))
        rng = np.random.default_rng(21)
        for _ in range(25):
            psi = _random_state(basis, rng)
            rho1 = partial_trace_to_single(pair_density(symmetrize_product(psi, psi)))
            assert np.allclose(rho1.matrix, pure_density(psi).matrix, atol=1e-10)

    def test_linearity(self):
        basis = build_basis(("a",), (-2, 2), pols=("L",))
        rng = np.random.default_rng(5)
        twos = []
        for _ in range(3):
            pa, pb = _random_state(basis, rng), _random_state(basis, rng)
            twos.append(pair_density(symmetrize_product(pa, pb)))
        weights = [0.5, 0.3, 0.2]
        mixed = mix(list(zip(twos, weights)))
        direct = partial_trace_to_single(mixed).matrix
        summed = sum(w * partial_trace_to_single(r).matrix for r, w in zip(twos, weights))
        assert np.allclose(direct, summed, atol=1e-12)

    def test_wrong_kind_rejected(self):
        basis = build_basis(("a",), (0,))
        psi = superposition_state(basis, [(ModeIndex("a", "L", 0), 1.0)])
        with pytest.raises(fock.BasisMismatchError):
            partial_trace_to_single(pure_density(psi))

    def test_reduced_single_pure_matches_general_route(self):
        basis = build_basis(("a", "b"), (-2, 2), pols=("L",))
        rng = np.random.default_rng(9)
        for _ in range(20):
            two = symmetrize_product(_random_state(basis, rng), _random_state(basis, rng))
            fast = fock.reduced_single_pure(two).matrix
            slow = partial_trace_to_single(pair_density(two)).matrix
            assert np.allclose(fast, slow, atol=1e-12)


def test_density_validation():
    basis = build_basis(("a",), (0,))
    for bad in ([[0.5, 1.0], [0.0, 0.5]],
                [[0.5 + 1e-11, 0.0], [0.0, 0.5]],  # trace 1 + 1e-11
                [[0.5, 0.5 + 1e-9], [0.5, 0.5]]):  # Hermiticity residual 1e-9 on a 0.5 entry
        with pytest.raises(InvalidStateError, match="not a density matrix"):
            fock.DensityOperator(basis, np.array(bad)).validate()
