import numpy as np
import pytest

from oamclone import cloning, elements, fock
from oamclone.fock import ConfigurationError
from oamclone.qudit import (
    QuditSpec,
    ancilla_basis,
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


class TestAncillaBasis:
    def test_unitary_with_input_first(self):
        rng = np.random.default_rng(1)
        for d in (2, 3, 5, 7):
            phi = random_qudit(d, rng).amplitudes
            u = ancilla_basis(phi)
            assert np.allclose(u.conj().T @ u, np.eye(d), atol=1e-12)
            assert np.allclose(u[:, 0], phi, atol=1e-12)

    def test_deterministic(self):
        phi = np.array([0.6, 0.8j, 0.0])
        assert np.array_equal(ancilla_basis(phi), ancilla_basis(phi))


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

    def test_fidelity_is_input_independent(self):
        rng = np.random.default_rng(43)
        for d in (2, 3, 4):
            fids = {qudit_clone(random_qudit(d, rng)).fidelity for _ in range(10)}
            assert max(fids) - min(fids) < 1e-10

    def test_qubit_case_matches_the_oam_cloner(self):
        res = qudit_clone(QuditSpec(np.array([1.0, 0.0])))
        assert res.fidelity == pytest.approx(5.0 / 6.0, abs=1e-12)
        assert res.success_probability == pytest.approx(0.75, abs=1e-12)

    def test_oracle_dimension_cap(self):
        with pytest.raises(ConfigurationError):
            brute_force_oracle(QuditSpec(np.ones(9)))


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
        simulator = {"fock", "elements", "cloning"}
        for module in (fock, elements, cloning):
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
        with pytest.raises(ConfigurationError):
            qudit_clone(QuditSpec(np.ones(2)), labels=(0, 1), oam_flip=True)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigurationError):
            qudit_clone(QuditSpec(np.ones(2)), labels=(1, 1))


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
