import math

import numpy as np
import pytest

from oamclone.cloning import QubitSpec
from oamclone.experiment import (
    TABLE_ONE_STATES,
    ImperfectionModel,
    LossBudget,
    fidelity_from_counts,
    predicted_fidelity,
    rate_budget,
    simulate_counts,
    simulate_stokes,
    table_one_run,
)
from oamclone.fock import ConfigurationError


class TestPredictedFidelity:
    def test_nominal_operating_point(self):
        f = predicted_fidelity(ImperfectionModel())
        assert f == pytest.approx(0.8051178451178452, abs=1e-12)

    def test_ideal_limit_recovers_the_optimum(self):
        assert predicted_fidelity(ImperfectionModel(1.0, 2.0)) \
            == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_no_enhancement_limit(self):
        # R = 1: the cloner adds nothing beyond the random second photon
        assert predicted_fidelity(ImperfectionModel(1.0, 1.0)) \
            == pytest.approx(0.75, abs=1e-12)

    def test_monotone_in_both_arguments(self):
        base = predicted_fidelity(ImperfectionModel())
        assert predicted_fidelity(ImperfectionModel(0.97, 1.97)) > base
        assert predicted_fidelity(ImperfectionModel(0.96, 1.98)) > base

    def test_parameter_ranges(self):
        with pytest.raises(ConfigurationError):
            ImperfectionModel(f_prep=0.4)
        with pytest.raises(ConfigurationError):
            ImperfectionModel(enhancement=2.1)


class TestLossBudget:
    def test_probabilities(self):
        b = LossBudget()
        assert b.p_prep == pytest.approx(0.4)
        lo, hi = b.fiber_coupling
        assert (b.p_det(lo), b.p_det(hi)) == (pytest.approx(0.06), pytest.approx(0.1))

    def test_rate_interval(self):
        lo, hi = rate_budget(LossBudget())
        assert lo == pytest.approx(0.54, abs=1e-12)
        assert hi == pytest.approx(1.5, abs=1e-12)

    def test_default_rate_matches_the_observed_event_rate(self):
        b = LossBudget()
        assert b.rate(b.default_coupling) == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert 600.0 * b.rate(b.default_coupling) == pytest.approx(400.0, abs=1e-9)

    def test_rate_is_quadratic_in_the_coupling(self):
        b = LossBudget()
        assert b.rate(0.2) == pytest.approx(4.0 * b.rate(0.1), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LossBudget(fiber_coupling=(0.3, 0.2))
        with pytest.raises(ConfigurationError):
            LossBudget(default_coupling=0.5)
        with pytest.raises(ConfigurationError):
            LossBudget(source_rate_hz=0.0)

    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_non_finite_source_rate_rejected(self, rate):
        with pytest.raises(ConfigurationError):
            LossBudget(source_rate_hz=rate)


class TestFidelityFromCounts:
    def test_simple_ratios(self):
        f, sigma = fidelity_from_counts(300, 100)
        assert f == pytest.approx(0.75)
        assert sigma == pytest.approx(math.sqrt(0.75 * 0.25 / 400))

    def test_one_sided_counts(self):
        f, sigma = fidelity_from_counts(250, 0)
        assert f == 1.0
        assert sigma == 0.0

    def test_zero_total_rejected(self):
        with pytest.raises(ConfigurationError):
            fidelity_from_counts(0, 0)
        with pytest.raises(ConfigurationError):
            fidelity_from_counts(-1, 5)


class TestSimulateCounts:
    def test_deterministic_for_a_fixed_seed(self):
        q = QubitSpec.named("h")
        a = simulate_counts(q, ImperfectionModel(), LossBudget(), 600.0, 42)
        b = simulate_counts(q, ImperfectionModel(), LossBudget(), 600.0, 42)
        assert (a.c1, a.c2) == (b.c1, b.c2)

    def test_counts_land_in_the_expected_window(self):
        q = QubitSpec.named("plus2")
        rec = simulate_counts(q, ImperfectionModel(), LossBudget(), 600.0, 42)
        assert 300 <= rec.total <= 500
        assert rec.f_exp == pytest.approx(0.805, abs=0.06)

    def test_mean_converges_to_the_budget_rate(self):
        budget = LossBudget()
        mean_rate = 600.0 * budget.rate(budget.default_coupling)
        totals = [simulate_counts(QubitSpec.named("h"), ImperfectionModel(),
                                  budget, 600.0, s).total for s in range(300)]
        # 3 sigma window for the sample mean of 300 Poisson(400) draws
        assert abs(np.mean(totals) - mean_rate) < 3 * math.sqrt(mean_rate / 300)

    def test_explicit_coupling_overrides_the_default(self):
        q = QubitSpec.named("h")
        budget = LossBudget()
        big = simulate_counts(q, ImperfectionModel(), budget, 600.0, 1, coupling=0.25)
        small = simulate_counts(q, ImperfectionModel(), budget, 600.0, 1, coupling=0.15)
        assert big.total > small.total

    def test_zero_duration(self):
        rec = simulate_counts(QubitSpec.named("h"), ImperfectionModel(),
                              LossBudget(), 0.0, 0)
        assert rec.total == 0
        assert math.isnan(rec.f_exp)


class TestTableOneRun:
    def test_covers_the_six_states_and_tracks_the_prediction(self):
        report = table_one_run(ImperfectionModel(), LossBudget(), 600.0, 7)
        assert [row[0] for row in report.rows] == list(TABLE_ONE_STATES)
        assert report.predicted == pytest.approx(0.8051178451178452, abs=1e-12)
        assert report.mean_fidelity == pytest.approx(report.predicted, abs=0.03)

    def test_per_state_scatter_is_statistical(self):
        fids = []
        for seed in range(60):
            report = table_one_run(ImperfectionModel(), LossBudget(), 600.0, seed)
            fids.extend(row[3] for row in report.rows)
        fids = np.asarray(fids)
        assert abs(fids.mean() - 0.8051178451178452) < 0.005
        # spread consistent with ~400-count binomial noise (sigma ~ 0.02)
        assert 0.005 < fids.std() < 0.05

    def test_deterministic(self):
        a = table_one_run(ImperfectionModel(), LossBudget(), 600.0, 5)
        b = table_one_run(ImperfectionModel(), LossBudget(), 600.0, 5)
        assert a.rows == b.rows


class TestSimulateStokes:
    def test_estimate_tracks_the_shrunk_bloch_vector(self):
        q = QubitSpec.named("plus2")
        run = simulate_stokes(q, 100000, 11)
        assert np.allclose(run.input_bloch, [0, 0, 1], atol=1e-12)
        assert np.allclose(run.estimated, [0, 0, 2.0 / 3.0], atol=0.02)
        assert run.length == pytest.approx(2.0 / 3.0, abs=0.02)

    def test_mean_length_over_inputs(self):
        lengths = [simulate_stokes(QubitSpec.named(label), 50000, i).length
                   for i, label in enumerate(TABLE_ONE_STATES)]
        assert np.mean(lengths) == pytest.approx(2.0 / 3.0, abs=0.02)

    def test_bad_count_request(self):
        with pytest.raises(ConfigurationError):
            simulate_stokes(QubitSpec.named("h"), 0, 0)
