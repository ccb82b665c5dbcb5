import numpy as np
import pytest

from oamclone import cloning, elements, fock, qubit
from oamclone.fock import ConfigurationError
from oamclone.qudit import (
    QuditSpec,
    brute_force_oracle,
    qudit_clone,
    qudit_formula,
    symmetric_subspace_clone,
)


def random_qudit(d, rng):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return QuditSpec(v / np.linalg.norm(v))


class TestFormula:
    def test_known_values(self):
        assert qudit_formula(2) == (pytest.approx(5.0 / 6.0), pytest.approx(0.75))
        f3, p3 = qudit_formula(3)
        assert f3 == pytest.approx(0.75)
        assert p3 == pytest.approx(2.0 / 3.0)
        f1, p1 = qudit_formula(1)
        assert f1 == pytest.approx(1.0)
        assert p1 == pytest.approx(1.0)

    def test_monotone_decrease_toward_the_classical_limit(self):
        fids = [qudit_formula(d)[0] for d in range(1, 20)]
        assert all(a > b for a, b in zip(fids, fids[1:]))
        assert fids[-1] > 0.5

    def test_rejects_bad_dimension(self):
        with pytest.raises(ConfigurationError):
            qudit_formula(0)


class TestChannelAgreement:
    def test_channel_oracle_and_formula_agree(self):
        # three-way check per dimension: simulator, independent brute-force
        # enumeration, and the closed form
        rng = np.random.default_rng(41)
        for d in range(1, 9):
            spec = random_qudit(d, rng)
            res = qudit_clone(spec)
            f_oracle, p_oracle = brute_force_oracle(spec)
            f_formula, p_formula = qudit_formula(d)
            assert res.fidelity == pytest.approx(f_formula, abs=1e-10)
            assert res.success_probability == pytest.approx(p_formula, abs=1e-10)
            assert f_oracle == pytest.approx(f_formula, abs=1e-10)
            assert p_oracle == pytest.approx(p_formula, abs=1e-10)

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 16, 24])
    def test_clone_density_matches_the_oracle(self, d):
        # element by element, so that a wrong off-diagonal (a missing
        # conjugate, a transpose) fails even where F and p agree
        phi = random_qudit(d, np.random.default_rng(50 + d)).amplitudes
        rho = qudit_clone(QuditSpec(phi)).clone_density
        assert rho.matrix.shape == (d, d)  # the a' modes only
        a_prime = [rho.basis.index(fock.ModeIndex("a_prime", "L", k)) for k in range(d)]
        block = rho.matrix[np.ix_(a_prime, a_prime)]
        expected, _ = symmetric_subspace_clone(np.outer(phi, phi.conj()), np.eye(d) / d)
        assert np.max(np.abs(block - expected)) < 1e-12
        assert np.trace(block).real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("labels, oam_flip", [((3, -1, 1, -3), True), ((5, 0, 2), False)])
    def test_labels_out_of_order_on_the_port(self, labels, oam_flip):
        # the port's sub-basis orders OAM ascending, not in label order
        d = len(labels)
        phi = random_qudit(d, np.random.default_rng(60 + d)).amplitudes
        res = qudit_clone(QuditSpec(phi), labels=labels, oam_flip=oam_flip)
        f, p = qudit_formula(d)
        assert res.fidelity == pytest.approx(f, abs=1e-12)
        assert res.success_probability == pytest.approx(p, abs=1e-12)
        rho = res.clone_density
        order = [rho.basis.index(fock.ModeIndex("a_prime", "L", m)) for m in labels]
        expected, _ = symmetric_subspace_clone(np.outer(phi, phi.conj()), np.eye(d) / d)
        assert np.max(np.abs(rho.matrix[np.ix_(order, order)] - expected)) < 1e-12

    def test_fidelity_is_input_independent(self):
        rng = np.random.default_rng(43)
        for d in (2, 3, 4):
            fids = {qudit_clone(random_qudit(d, rng)).fidelity for _ in range(10)}
            assert max(fids) - min(fids) < 1e-10

    def test_qubit_case_matches_the_oam_cloner(self):
        res = qudit_clone(QuditSpec(np.array([1.0, 0.0])))
        assert res.fidelity == pytest.approx(5.0 / 6.0, abs=1e-12)
        assert res.success_probability == pytest.approx(0.75, abs=1e-12)
        # the whole clone, on the qubit's labels (+2, -2) with the reflection flip
        rng = np.random.default_rng(45)
        qubits = [qubit.QubitSpec.named(name) for name in qubit.SIX_STATE_AMPLITUDES]
        for q in qubits + [qubit.haar_random_qubit(rng) for _ in range(20)]:
            rho = qudit_clone(QuditSpec([q.alpha, q.beta]), labels=(2, -2),
                              oam_flip=True).clone_density
            order = [rho.basis.index(fock.ModeIndex("a_prime", "L", m)) for m in (2, -2)]
            expected = cloning.run_cloner_full(q).clone_density
            assert np.max(np.abs(rho.matrix[np.ix_(order, order)] - expected)) <= 1e-15

    def test_oracle_dimension_cap(self):
        with pytest.raises(ConfigurationError):
            brute_force_oracle(QuditSpec(np.ones(9)))


class TestPolarizationOamQuquart:
    """The paper's closing claim: the cloner scales to a space that combines
    degrees of freedom, here polarization (x) OAM {-2, +2}, a ququart
    (Nagali et al., PRL 105, 073602 (2010)).  The coalescence core runs on
    it as it is."""

    def test_ququart_clone_is_optimal_and_matches_the_oracle(self):
        paths = ("a", "b", "a_prime", "b_prime")
        basis = fock.build_basis(paths, (-2, 2), pols=("L", "R"))
        levels = [(pol, m) for pol in ("L", "R") for m in (-2, 2)]
        ancillas = [(fock.superposition_state(basis, [(fock.ModeIndex("b", pol, m), 1.0)]),
                     0.25) for pol, m in levels]  # I/4
        rng = np.random.default_rng(71)
        for _ in range(50):
            phi = random_qudit(4, rng).amplitudes
            psi = fock.superposition_state(basis, [(fock.ModeIndex("a", pol, m), c)
                                                   for (pol, m), c in zip(levels, phi)])
            rho, success = elements.coalesce(psi, ancillas, "a_prime", True)
            order = [rho.basis.index(fock.ModeIndex("a_prime", pol, m)) for pol, m in levels]
            clone = rho.matrix[np.ix_(order, order)]
            assert np.real(phi.conj() @ clone @ phi) == pytest.approx(0.7, abs=1e-12)
            assert 2.0 * success == pytest.approx(5.0 / 8.0, abs=1e-12)
            expected, _ = symmetric_subspace_clone(np.outer(phi, phi.conj()), np.eye(4) / 4)
            assert np.max(np.abs(clone - expected)) < 1e-12


class TestSymmetricSubspaceOracle:
    def test_matches_the_closed_form_beyond_the_oracle_cap(self):
        rng = np.random.default_rng(47)
        for d in (12, 24):
            phi = random_qudit(d, rng).amplitudes
            clone, p = symmetric_subspace_clone(np.outer(phi, phi.conj()), np.eye(d) / d)
            f_formula, p_formula = qudit_formula(d)
            assert np.real(phi.conj() @ clone @ phi) == pytest.approx(f_formula, abs=1e-12)
            assert p == pytest.approx(p_formula, abs=1e-12)
            assert np.trace(clone) == pytest.approx(1.0, abs=1e-12)

    def test_shares_no_code_with_the_simulator(self):
        simulator = {"fock", "elements", "cloning", "qubit"}
        for module in (fock, elements, cloning, qubit):
            simulator |= {name for name, obj in vars(module).items()
                          if getattr(obj, "__module__", None) == module.__name__}
        assert not set(symmetric_subspace_clone.__code__.co_names) & simulator


class TestOamFlipMode:
    def test_flip_labels_are_symmetric(self):
        res = qudit_clone(random_qudit(4, np.random.default_rng(3)), oam_flip=True)
        f, p = qudit_formula(4)
        assert res.fidelity == pytest.approx(f, abs=1e-10)
        assert res.success_probability == pytest.approx(p, abs=1e-10)

    def test_flip_qubit_on_pm_two(self):
        res = qudit_clone(QuditSpec(np.array([1.0, 1.0])), labels=(-2, 2),
                          oam_flip=True)
        assert res.fidelity == pytest.approx(5.0 / 6.0, abs=1e-10)

    def test_asymmetric_labels_rejected_with_flip(self):
        with pytest.raises(ConfigurationError, match="oam_flip=False"):
            qudit_clone(QuditSpec(np.ones(2)), labels=(0, 1), oam_flip=True)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigurationError):
            qudit_clone(QuditSpec(np.ones(2)), labels=(1, 1))

    @pytest.mark.parametrize("labels", [(0.5, 1.5), (0.4, 0.6), ("1", "2"), ([1], [2])])
    def test_non_integer_labels_rejected(self, labels):
        with pytest.raises(ConfigurationError, match="distinct integers"):
            qudit_clone(QuditSpec(np.ones(2)), labels=labels)

    def test_label_count_mismatch_names_both_counts(self):
        with pytest.raises(ConfigurationError, match="2 amplitudes but 3 labels"):
            qudit_clone(QuditSpec(np.ones(2)), labels=(0, 1, 2))

    def test_integer_valued_float_labels_accepted(self):
        res = qudit_clone(QuditSpec(np.array([0.6, 0.8j])), labels=(1.0, 2.0))
        assert res.fidelity == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_optics_are_cached_per_label_set_and_flip(self):
        elements.splitter.cache_clear()
        spec = random_qudit(4, np.random.default_rng(8))
        f, p = qudit_formula(4)
        cases = [((0, 1, 2, 3), False), ((-3, -1, 1, 3), False), ((-3, -1, 1, 3), True)]
        for _ in range(2):
            for labels, flip in cases:
                res = qudit_clone(spec, labels=labels, oam_flip=flip)
                assert res.fidelity == pytest.approx(f, abs=1e-10)
                assert res.success_probability == pytest.approx(p, abs=1e-10)
        info = elements.splitter.cache_info()
        assert (info.misses, info.hits, info.currsize) == (3, 3, 3)
        splitters = [elements.splitter(cloning.label_basis(labels), flip).matrix
                     for labels, flip in cases]
        assert not np.array_equal(splitters[1], splitters[2])  # the flip moves reflected modes


class TestLabelStates:
    CASES = [((0, 1, 2, 3), False), ((-3, -1, 1, 3), True)]

    @pytest.mark.parametrize("labels,flip", CASES)
    def test_cached_states_equal_fresh_ones(self, labels, flip):
        basis = cloning.label_basis(labels)
        states = cloning.label_states(labels)
        qudit_clone(QuditSpec(np.ones(len(labels))), labels=labels, oam_flip=flip)
        assert states is cloning.label_states(labels)  # one entry serves either flip
        for m, psi in zip(labels, states):
            fresh = fock.superposition_state(basis, [(fock.ModeIndex("b", "L", m), 1.0)])
            assert psi.basis == basis
            assert np.array_equal(psi.amplitudes, fresh.amplitudes)

    @pytest.mark.parametrize("labels,flip", CASES)
    def test_cached_amplitudes_are_read_only(self, labels, flip):
        psi = cloning.label_states(labels)[0]
        with pytest.raises(ValueError, match="read-only"):
            psi.amplitudes[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            psi.amplitudes *= 2.0
        assert np.count_nonzero(psi.amplitudes) == 1

    def test_a_warm_call_builds_only_the_input(self, monkeypatch):
        labels, spec = (0, 1, 2), random_qudit(3, np.random.default_rng(5))
        first = qudit_clone(spec, labels=labels)
        build, built = fock.superposition_state, []

        def counting(basis, terms):
            built.append(terms)
            return build(basis, terms)

        monkeypatch.setattr(fock, "superposition_state", counting)
        again = qudit_clone(spec, labels=labels)
        assert len(built) == 1
        assert np.array_equal(again.clone_density.matrix, first.clone_density.matrix)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        QuditSpec(np.zeros(3))
    with pytest.raises(ConfigurationError):
        QuditSpec(np.ones((2, 2)))
    spec = QuditSpec(np.array([3.0, 4.0]))
    assert np.linalg.norm(spec.amplitudes) == pytest.approx(1.0)
    assert spec.d == 2


@pytest.mark.parametrize("amplitudes", [
    [np.nan, 1.0, 0.0], [np.inf, 1.0, 0.0], [1.0, complex(0.0, np.nan)]])
def test_non_finite_amplitudes_rejected(amplitudes):
    with pytest.raises(ConfigurationError, match="finite"):
        QuditSpec(np.array(amplitudes))
