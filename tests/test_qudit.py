import math
import warnings

import numpy as np
import pytest

from oamclone import ConfigurationError, InvalidStateError, cloning, elements, fock, qubit
from oamclone.cloning import symmetric_subspace_clone
from oamclone.qudit import QuditSpec, brute_force_oracle, qudit_clone, qudit_formula
from fresh_process import cold_census


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
        rho = qudit_clone(QuditSpec(phi)).clone_density.matrix
        assert rho.shape == (d, d)  # the a' modes only
        expected, _ = symmetric_subspace_clone(np.outer(phi, phi.conj()), np.eye(d) / d)
        assert np.max(np.abs(rho - expected)) < 1e-12
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 16, 24])
    def test_clone_density_is_in_label_order(self, d):
        # the input's amplitudes score the clone as it is returned
        phi = random_qudit(d, np.random.default_rng(60 + d)).amplitudes
        res = qudit_clone(QuditSpec(phi))
        assert abs(np.real(phi.conj() @ res.clone_density.matrix @ phi) - res.fidelity) <= 1e-15
        assert res.clone_density.basis.modes == cloning.label_modes(d, "a_prime")

    def test_fidelity_is_input_independent(self):
        rng = np.random.default_rng(43)
        for d in (2, 3, 4):
            fids = {qudit_clone(random_qudit(d, rng)).fidelity for _ in range(10)}
            assert max(fids) - min(fids) < 1e-10

    def test_qubit_case_matches_the_oam_cloner(self):
        res = qudit_clone(QuditSpec(np.array([1.0, 0.0])))
        assert res.fidelity == pytest.approx(5.0 / 6.0, abs=1e-12)
        assert res.success_probability == pytest.approx(0.75, abs=1e-12)
        # the whole clone, bit for bit: both front ends return it in label order, and a
        # QubitSpec is the d = 2 QuditSpec, so it enters the qudit front end as it is
        rng = np.random.default_rng(45)
        qubits = [qubit.QubitSpec.named(name) for name in qubit.SIX_STATE_AMPLITUDES]
        for q in qubits + [qubit.haar_random_qubit(rng) for _ in range(20)]:
            rho = qudit_clone(q).clone_density
            assert np.array_equal(rho.matrix, cloning.run_cloner_full(q).clone_density)
            assert brute_force_oracle(q)[0] == pytest.approx(5.0 / 6.0, abs=1e-12)

    @pytest.mark.parametrize("d", range(1, 25))
    def test_both_ports_give_one_clone_and_split_the_success(self, d):
        # the reflection's m -> -m maps the b' block onto the a' block in label order
        phi = random_qudit(d, np.random.default_rng(70 + d)).amplitudes
        clone_a, p_a, _ = cloning.label_clone(phi, "a_prime")
        clone_b, p_b, _ = cloning.label_clone(phi, "b_prime")
        assert p_a == p_b
        assert np.max(np.abs(clone_a.matrix - clone_b.matrix)) < 1e-12
        assert abs(qudit_clone(QuditSpec(phi)).success_probability - (p_a + p_b)) <= 1e-15

    def test_an_input_off_unit_norm_is_scored_normalized(self):
        assert cloning.label_clone((1, 1), "a_prime")[2] == pytest.approx(5.0 / 6.0, abs=1e-15)
        assert cloning.label_clone((3, 0, 0), "a_prime")[2] == pytest.approx(0.75, abs=1e-15)
        rng = np.random.default_rng(72)
        for d in range(1, 9):
            phi = random_qudit(d, rng).amplitudes
            unit = cloning.label_clone(phi, "a_prime")[2]
            assert cloning.label_clone(7.5 * phi, "a_prime")[2] == pytest.approx(unit, abs=1e-14)

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
            rho, success = elements.coalesce(psi, ancillas, "a_prime")
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


class TestOamLabels:
    @pytest.mark.parametrize("d", range(1, 25))
    def test_distinct_closed_under_negation_and_descending(self, d):
        labels = cloning.oam_labels(d)
        assert len(set(labels)) == len(labels) == d
        assert {-m for m in labels} == set(labels)
        assert all(m > n for m, n in zip(labels, labels[1:]))

    @pytest.mark.parametrize("d", range(1, 25))
    def test_label_modes_carry_m_and_b_prime_carries_minus_m(self, d):
        # the input reaches b' by reflection, which flips the OAM sign
        for path in ("a", "b", "a_prime", "b_prime"):
            modes = cloning.label_modes(d, path)
            sign = -1 if path == "b_prime" else 1
            assert [(mode.path, mode.oam) for mode in modes] \
                == [(path, sign * m) for m in cloning.oam_labels(d)]
            assert all(mode in cloning.label_basis(d).modes for mode in modes)
            assert cloning.label_modes(d, path) is modes

    def test_the_qubit_is_the_d2_case(self):
        assert cloning.oam_labels(2) == (2, -2)
        assert cloning.label_basis(2) is cloning.cloner_basis()

    def test_the_qubit_and_the_d2_qudit_share_one_ancilla_entry(self):
        # cold: after a qubit clone the d = 2 qudit clone builds no ancilla
        # state, at most its input
        qubit_run, qudit_run = cold_census()[1:3]
        assert (qubit_run["kind"], qudit_run["kind"], qudit_run["d"]) == ("qubit", "qudit", 2)
        assert qudit_run["states"] <= 1

    def test_optics_are_cached_per_d(self):
        # cold: the splitter is checked on the first clone at each d, and not again
        census = cold_census()
        assert [(call["d"], call["validates"]) for call in census[3:]] \
            == [(2, 0), (3, 1), (4, 1), (2, 0), (3, 0), (4, 0)]
        assert sum(call["validates"] for call in census) == 3
        for call in census[3:]:
            f, p = qudit_formula(call["d"])
            assert call["fidelity"] == pytest.approx(f, abs=1e-10)
            assert call["success"] == pytest.approx(p, abs=1e-10)


class TestLabelStates:
    @pytest.mark.parametrize("d", [2, 4])
    def test_cached_states_equal_fresh_ones(self, d):
        # the I/d ancilla is the label states |b, m>, weight 1/d: the clone
        # equals the one that freshly built label states give per branch
        basis, labels = cloning.label_basis(d), cloning.oam_labels(d)
        phi = random_qudit(d, np.random.default_rng(70 + d)).amplitudes
        psi = fock.superposition_state(basis, [(fock.ModeIndex("a", "L", m), c)
                                               for m, c in zip(labels, phi)])
        fresh = [(fock.superposition_state(basis, [(fock.ModeIndex("b", "L", m), 1.0)]), 1.0 / d)
                 for m in labels]
        rho, success = elements.coalesce(psi, fresh, "a_prime")
        order = [rho.basis.index(fock.ModeIndex("a_prime", "L", m)) for m in labels]
        res = qudit_clone(QuditSpec(phi))
        assert np.max(np.abs(res.clone_density.matrix - rho.matrix[np.ix_(order, order)])) < 1e-12
        assert res.success_probability == pytest.approx(2.0 * success, abs=1e-12)

    def test_a_warm_call_builds_only_the_input(self, monkeypatch):
        # no ancilla state is rebuilt: at most the input, on path a
        spec = random_qudit(3, np.random.default_rng(5))
        first = qudit_clone(spec)
        build, built = fock.superposition_state, []

        def recording(basis, terms):
            built.append(list(terms))
            return build(basis, built[-1])

        monkeypatch.setattr(fock, "superposition_state", recording)
        again = qudit_clone(spec)
        assert len(built) <= 1
        assert all(mode.path == "a" for terms in built for mode, _ in terms)
        assert np.array_equal(again.clone_density.matrix, first.clone_density.matrix)


def test_spec_validation():
    with pytest.raises(InvalidStateError):
        QuditSpec(np.zeros(3))
    with pytest.raises(ConfigurationError):
        QuditSpec(np.ones((2, 2)))
    spec = QuditSpec(np.array([3.0, 4.0]))
    assert np.linalg.norm(spec.amplitudes) == pytest.approx(1.0)
    assert spec.d == 2


@pytest.mark.parametrize("amplitudes", [
    [np.nan, 1.0, 0.0], [np.inf, 1.0, 0.0], [1.0, complex(0.0, np.nan)],
    [np.inf, 1.7e308], [np.nan, 1.7e308, 1.7e308]])
def test_non_finite_amplitudes_rejected(amplitudes):
    with warnings.catch_warnings(), pytest.raises(InvalidStateError, match="finite"):
        warnings.simplefilter("error")  # and no rescale of a non-finite vector
        QuditSpec(np.array(amplitudes))


def test_amplitudes_too_large_for_a_double_are_rejected():
    # complex(10 ** 400) overflows while the vector is built, before any norm is taken
    with pytest.raises(InvalidStateError, match="must be finite and not all zero"):
        QuditSpec([10 ** 400, 1])


def test_finite_amplitudes_whose_norm_overflows_are_normalized():
    # the norm, not any entry, exceeds the largest double
    r = 1 / math.sqrt(2)
    assert np.array_equal(QuditSpec([1.7e308, 1.7e308]).amplitudes, [r, r])
    assert np.array_equal(qubit.QubitSpec(1.7e308, 1.7e308j).amplitudes, [r, 1j * r])
    big = QuditSpec(np.full(24, -1.7e308 + 1.7e308j)).amplitudes
    assert np.max(np.abs(big - QuditSpec(np.full(24, -1 + 1j)).amplitudes)) <= 1e-15


def test_a_norm_just_off_one_is_rescaled():
    # QuditSpec is the one normalizer of an input, the Haar draws' included
    assert abs(np.linalg.norm(QuditSpec([1 + 1e-6, 0]).amplitudes) - 1.0) <= 1e-15
    rng = np.random.default_rng(23)
    for _ in range(100):
        assert abs(np.linalg.norm(qubit.haar_random_qubit(rng).amplitudes) - 1.0) <= 1e-15


def test_every_scale_of_a_vector_gives_one_spec():
    # one spec for every d, the qubit's included; math.hypot's norm neither
    # overflows at 1e300 nor underflows at 1e-300
    assert QuditSpec is qubit.QuditSpec and issubclass(qubit.QubitSpec, QuditSpec)
    rng = np.random.default_rng(80)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in range(1, 25):
            phi = random_qudit(d, rng).amplitudes
            ref = QuditSpec(phi).amplitudes
            for scale in 10.0 ** np.arange(-300, 301, 25):
                assert np.max(np.abs(QuditSpec(scale * phi).amplitudes - ref)) <= 1e-15
                if d == 2:
                    q = qubit.QubitSpec(*(scale * phi))
                    assert np.max(np.abs(q.amplitudes - ref)) <= 1e-15
