import numpy as np
import pytest

from mimobc import (
    ValidationError,
    dual_mac_sum_capacity,
    generate_curves,
    make_profile,
    sample_channel,
    waterfill,
)


class TestWaterfill:
    def test_single_channel_takes_everything(self):
        np.testing.assert_allclose(waterfill(np.array([2.0]), 5.0), [5.0])

    def test_equal_gains_split_evenly(self):
        np.testing.assert_allclose(waterfill(np.array([1.0, 1.0, 1.0]), 6.0), [2.0, 2.0, 2.0])

    def test_weak_channel_shut_off(self):
        powers = waterfill(np.array([10.0, 0.01]), 0.5)
        assert powers[1] == 0.0
        assert powers[0] == pytest.approx(0.5)

    def test_zero_gain_ignored(self):
        powers = waterfill(np.array([1.0, 0.0]), 3.0)
        np.testing.assert_allclose(powers, [3.0, 0.0])

    def test_budget_exhausted_and_level_flat(self):
        rng = np.random.default_rng(1)
        gains = rng.uniform(0.05, 5.0, size=8)
        powers = waterfill(gains, 10.0)
        assert powers.sum() == pytest.approx(10.0, abs=1e-12)
        active = powers > 0
        levels = powers[active] + 1.0 / gains[active]
        np.testing.assert_allclose(levels, levels[0], rtol=1e-12)
        # inactive channels would need a higher water level to turn on
        if np.any(~active):
            assert np.min(1.0 / gains[~active]) >= levels[0] - 1e-12


class TestDualMacSumCapacity:
    def test_single_user_matches_closed_form(self, checks):
        assert checks["baseline_single_user_waterfilling"].passed

    def test_uniform_allocation_is_a_lower_bound(self, checks):
        assert checks["baseline_monotone_and_bounds"].passed

    def test_reaches_the_high_power_asymptote(self, checks):
        assert checks["baseline_high_power_asymptote"].passed

    def test_objective_monotone_every_step(self, checks):
        assert checks["baseline_monotone_and_bounds"].passed

    def test_dominates_linear_filtering(self, checks):
        assert checks["baseline_monotone_and_bounds"].passed

    def test_covariances_feasible_and_optimal(self):
        channel = sample_channel(make_profile(6, [2, 2, 1]), seed=27)
        power = 10.0
        result = dual_mac_sum_capacity(channel, power)
        assert result.covariances.total_power <= power * (1 + 1e-9)
        assert result.optimality_gap_bits < 1e-3
        for q in result.covariances.covariances:
            assert np.linalg.eigvalsh(q)[0] > -1e-12

    def test_iteration_budget_respected(self):
        channel = sample_channel(make_profile(5, [2, 2]), seed=28)
        result = dual_mac_sum_capacity(channel, 100.0, tolerance=1e-16, max_iterations=2)
        assert result.iterations <= 2
        assert not result.converged

    def test_rejects_bad_inputs(self):
        channel = sample_channel(make_profile(4, [2, 2]), seed=29)
        with pytest.raises(ValidationError):
            dual_mac_sum_capacity(channel, -1.0)
        with pytest.raises(ValidationError):
            dual_mac_sum_capacity(channel, 1.0, tolerance=0.0)


class TestGenerateCurves:
    def test_affine_curves_are_parallel_with_the_rate_loss_gap(self, checks):
        assert checks["baseline_affine_parallel"].passed

    def test_affine_slope_per_db(self, fig_setup):
        profile, correlation = fig_setup
        points = generate_curves(profile, correlation, [30.0, 40.0], trials=2, seed=1)
        slope = (points[1].dpc_affine - points[0].dpc_affine) / 10.0
        assert slope == pytest.approx(4 * np.log2(10.0) / 10.0, abs=1e-12)

    def test_exact_slope_matches_multiplexing_gain(self, fig_setup):
        profile, correlation = fig_setup
        points = generate_curves(profile, correlation, [30.0, 40.0], trials=40, seed=2)
        for attribute in ("dpc_sum_capacity", "linear_bd_sum_rate"):
            slope = (getattr(points[1], attribute) - getattr(points[0], attribute)) / 10.0
            assert slope == pytest.approx(4 * np.log2(10.0) / 10.0, rel=0.05)

    def test_dpc_dominates_linear_at_every_point(self, fig_setup):
        profile, correlation = fig_setup
        points = generate_curves(profile, correlation, [-10.0, 0.0, 10.0, 20.0], trials=10, seed=3)
        for p in points:
            assert p.dpc_sum_capacity >= p.linear_bd_sum_rate - 1e-9

    def test_deterministic_given_seed(self, fig_setup):
        profile, correlation = fig_setup
        first = generate_curves(profile, correlation, [10.0, 20.0], trials=3, seed=5)
        second = generate_curves(profile, correlation, [10.0, 20.0], trials=3, seed=5)
        assert first == second

    def test_rejects_bad_grid(self, fig_setup):
        profile, correlation = fig_setup
        with pytest.raises(ValidationError):
            generate_curves(profile, correlation, [], trials=2, seed=1)
        with pytest.raises(ValidationError):
            generate_curves(profile, correlation, [10.0, 10.0], trials=2, seed=1)
