import math

import numpy as np
import pytest

from oamclone import cloning, elements, qudit
from oamclone.cloning import (
    QubitSpec,
    haar_random_qubit,
    run_cloner_full,
    run_cloner_projector,
    stokes_vector,
    universality_sweep,
)
from oamclone.fock import ConfigurationError, DensityOperator, InvalidStateError


class TestQubitSpec:
    def test_named_states_are_normalized_and_where_expected(self):
        for label in ("h", "v", "minus2", "plus2", "a", "d"):
            q = QubitSpec.named(label)
            assert np.linalg.norm(q.vector()) == pytest.approx(1.0)
        assert np.allclose(QubitSpec.named("plus2").bloch(), [0, 0, 1], atol=1e-12)
        assert np.allclose(QubitSpec.named("minus2").bloch(), [0, 0, -1], atol=1e-12)
        # h and v are the x eigenstates, a and d the y eigenstates
        assert np.allclose(QubitSpec.named("h").bloch(), [1, 0, 0], atol=1e-12)
        assert np.allclose(QubitSpec.named("v").bloch(), [-1, 0, 0], atol=1e-12)
        assert abs(QubitSpec.named("a").bloch()[1]) == pytest.approx(1.0)
        assert abs(QubitSpec.named("d").bloch()[1]) == pytest.approx(1.0)

    def test_unknown_label(self):
        with pytest.raises(ConfigurationError):
            QubitSpec.named("x")

    @pytest.mark.parametrize("alpha, beta", [
        (math.nan, 0.0), (math.inf, 0.0), (1.0, complex(0.0, math.nan)),
        (1.0, complex(math.inf, 0.0))])
    def test_non_finite_amplitudes_rejected(self, alpha, beta):
        with pytest.raises(InvalidStateError, match="finite"):
            QubitSpec(alpha, beta)


class TestOptimalCloning:
    def test_fidelity_five_sixths_full_route(self):
        for label in ("plus2", "minus2", "h", "v", "a", "d"):
            res = run_cloner_full(QubitSpec.named(label))
            assert res.fidelity == pytest.approx(5.0 / 6.0, abs=1e-12)
            assert res.success_probability == pytest.approx(3.0 / 8.0, abs=1e-12)

    def test_fidelity_five_sixths_projector_route(self):
        for label in ("plus2", "h", "a"):
            res = run_cloner_projector(QubitSpec.named(label))
            assert res.fidelity == pytest.approx(5.0 / 6.0, abs=1e-12)
            assert res.success_probability == pytest.approx(3.0 / 8.0, abs=1e-12)

    def test_routes_agree_on_random_qubits(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            q = haar_random_qubit(rng)
            full = run_cloner_full(q)
            proj = run_cloner_projector(q)
            assert np.allclose(full.clone_density, proj.clone_density, atol=1e-12)
            assert full.success_probability == pytest.approx(
                proj.success_probability, abs=1e-12)

    def test_routes_agree_with_sampled_ancillas_on_both_ports(self):
        rng = np.random.default_rng(13)
        for n in (1, 7, 1000):
            q = haar_random_qubit(rng)
            proj = run_cloner_projector(q, n, seed=n)
            for port in ("a_prime", "b_prime"):
                full = run_cloner_full(q, n, seed=n, port=port)
                assert np.allclose(full.clone_density, proj.clone_density,
                                   rtol=0, atol=1e-12)
                assert full.success_probability == pytest.approx(
                    proj.success_probability, abs=1e-12)

    def test_clone_density_for_eigenstate_input(self):
        res = run_cloner_full(QubitSpec.named("plus2"))
        assert np.allclose(res.clone_density,
                           np.diag([5.0 / 6.0, 1.0 / 6.0]), atol=1e-12)

    def test_bloch_vector_shrinks_by_two_thirds(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            q = haar_random_qubit(rng)
            res = run_cloner_full(q)
            assert np.allclose(res.stokes, (2.0 / 3.0) * q.bloch(), atol=1e-10)

    def test_both_output_ports_give_the_same_clone(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            q = haar_random_qubit(rng)
            ra = run_cloner_full(q, port="a_prime")
            rb = run_cloner_full(q, port="b_prime")
            assert np.allclose(ra.clone_density, rb.clone_density, atol=1e-12)
            assert ra.success_probability == pytest.approx(
                rb.success_probability, abs=1e-12)
            # both-port success adds up to the full coalescence probability
            assert ra.success_probability + rb.success_probability \
                == pytest.approx(0.75, abs=1e-12)

    def test_pure_matching_ancilla_reproduces_the_input(self):
        # with the ancilla prepared in the same flip-symmetric state the two
        # photons fully coalesce and the post-selected photon is unchanged
        for label in ("h", "v"):
            amps = QubitSpec.named(label).vector()
            clone, success, fidelity = cloning._clone(amps, "a_prime", [(amps, 1.0)])
            assert fidelity == pytest.approx(1.0, abs=1e-12)
            assert success == pytest.approx(0.5, abs=1e-12)
            assert np.allclose(clone.matrix, np.outer(amps, amps.conj()), atol=1e-12)

    def test_orthogonal_flipped_ancilla_passes_unenhanced(self):
        # ancilla |+2> against input |+2>: reflections make them orthogonal
        amps = QubitSpec.named("plus2").vector()
        _, success, _ = cloning._clone(amps, "a_prime", [(amps, 1.0)])
        assert success == pytest.approx(0.25, abs=1e-12)

    def test_bad_port_rejected(self):
        with pytest.raises(ConfigurationError):
            run_cloner_full(QubitSpec.named("h"), port="c")

    @pytest.mark.parametrize("bad", [
        [[1.2, 0.0], [0.0, -0.2]],  # trace 1 and Hermitian, but det < 0
        [[0.5, 0.1], [0.0, 0.5]],  # not Hermitian
        [[0.6, 0.0], [0.0, 0.5]],  # trace 1.1
        [[0.6, 0.0, 0.0], [0.0, 0.6, 0.0], [0.0, 0.0, -0.2]],  # d = 3, an eigenvalue < 0
    ])
    def test_clone_that_is_not_a_density_matrix_is_rejected(self, monkeypatch, bad):
        def broken_coalesce(psi_a, ancillas, port):
            return DensityOperator(psi_a.basis.port(port)[0], np.array(bad)), 0.375

        monkeypatch.setattr(elements, "coalesce", broken_coalesce)
        if len(bad) == 2:
            with pytest.raises(InvalidStateError, match="not a density matrix"):
                run_cloner_full(QubitSpec.named("h"))
        with pytest.raises(InvalidStateError, match="not a density matrix"):
            qudit.qudit_clone(qudit.QuditSpec(np.ones(len(bad))))

    def test_one_cached_ancilla_serves_every_exact_qubit_run(self):
        cloning.label_states.cache_clear()
        run_cloner_full(QubitSpec.named("h"))
        run_cloner_full(QubitSpec.named("v"))
        info = cloning.label_states.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestUniversality:
    def test_sweep_is_flat_to_numerical_precision(self):
        summary = universality_sweep(200, seed=0)
        assert summary.mean_fidelity == pytest.approx(5.0 / 6.0, abs=1e-12)
        assert summary.std_fidelity < 1e-10
        assert summary.max_fidelity - summary.min_fidelity < 1e-10

    def test_monte_carlo_ancilla_converges(self):
        # sampled half-wave-plate ancilla, N = 10^4: deviation from 5/6
        # stays below 0.005 (3+ sigma for the measured sample spread)
        rng = np.random.default_rng(100)
        for k in range(2):
            q = haar_random_qubit(rng)
            res = run_cloner_full(q, n_ancilla_samples=10000, seed=1000 + k)
            assert abs(res.fidelity - 5.0 / 6.0) < 0.005

    def test_sampled_ancilla_matches_exact_in_the_limit_of_symmetry(self):
        res = run_cloner_full(QubitSpec.named("plus2"), n_ancilla_samples=10000,
                              seed=7)
        assert res.success_probability == pytest.approx(3.0 / 8.0, abs=0.01)

    def test_bad_sample_count(self):
        with pytest.raises(ConfigurationError):
            run_cloner_full(QubitSpec.named("h"), n_ancilla_samples=0)


class TestStokes:
    def test_stokes_of_simple_densities(self):
        assert np.allclose(stokes_vector(np.diag([1.0, 0.0])), [0, 0, 1])
        assert np.allclose(stokes_vector(np.eye(2) / 2), [0, 0, 0])
        plus = np.full((2, 2), 0.5)
        assert np.allclose(stokes_vector(plus), [1, 0, 0])

    def test_record_round_trip(self):
        q = QubitSpec.named("d")
        rec = run_cloner_full(q).to_record(q)
        assert set(rec) == {"input_bloch", "fidelity", "success_prob", "stokes"}
        assert rec["fidelity"] == pytest.approx(5.0 / 6.0)
        assert np.allclose(rec["stokes"], (2.0 / 3.0) * np.asarray(rec["input_bloch"]),
                           atol=1e-10)


def test_timing_of_repeated_runs():
    # the cached basis and beam splitter keep repeated runs cheap
    import time
    run_cloner_full(QubitSpec.named("h"))  # warm the caches
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    for _ in range(100):
        run_cloner_full(haar_random_qubit(rng))
    assert time.perf_counter() - t0 < 2.0
