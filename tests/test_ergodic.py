import numpy as np
import pytest
from scipy.special import digamma as scipy_digamma

import mimobc.channel as channel_module
import mimobc.ergodic as ergodic_module
from mimobc import (
    ChannelRealization,
    CorrelationModel,
    DomainError,
    EULER_GAMMA,
    ValidationError,
    derive_seed,
    default_trials,
    digamma_int,
    ergodic_block_logdet,
    ergodic_dpc_logdet,
    ergodic_rate_loss,
    ergodic_rate_loss_equal,
    ergodic_rate_loss_single,
    ergodic_summary,
    instantaneous_rate_loss,
    make_profile,
    monte_carlo_rate_loss,
    power_offset_db,
    rate_loss_grid,
    sample_channel,
)
from mimobc.channel import _draw

from conftest import random_hpd
from reference_table import REFERENCE_RATE_LOSS

LN2 = np.log(2.0)


def sampled_gram_logdet2(profile, correlation, trials, seed):
    """Monte Carlo oracle for E[log2 |H^H H|]."""
    values = np.empty(trials)
    for t in range(trials):
        channel = sample_channel(profile, correlation, derive_seed(seed, t))
        _, logabs = np.linalg.slogdet(channel.gram)
        values[t] = logabs / LN2
    return float(np.mean(values)), float(np.std(values, ddof=1) / np.sqrt(trials))


def sampled_block_logdet2(profile, correlation, trials, seed):
    """Monte Carlo oracle for E[log2 |user block of (H^H H)^{-1}|], as (mean, stderr) per user."""
    values = np.empty((profile.num_users, trials))
    for t in range(trials):
        channel = sample_channel(profile, correlation, derive_seed(seed, t))
        for user in range(profile.num_users):
            _, logabs = np.linalg.slogdet(channel.gram_inverse_block(user))
            values[user, t] = logabs / LN2
    return [(float(np.mean(v)), float(np.std(v, ddof=1) / np.sqrt(trials))) for v in values]


class TestDigamma:
    def test_value_at_one_is_minus_gamma(self):
        assert digamma_int(1) == pytest.approx(-0.5772156649, abs=1e-10)
        assert digamma_int(1) == -EULER_GAMMA

    def test_one_recursion_step(self):
        assert digamma_int(2) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-15)

    def test_harmonic_sum_at_ten(self):
        harmonic_9 = sum(1.0 / j for j in range(1, 10))
        assert digamma_int(10) == pytest.approx(harmonic_9 - EULER_GAMMA, abs=1e-12)
        assert digamma_int(10) == pytest.approx(2.2517525890667214, abs=1e-10)

    def test_matches_scipy(self):
        for n in range(1, 80):
            assert digamma_int(n) == pytest.approx(float(scipy_digamma(n)), abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma_int(0)
        with pytest.raises(DomainError):
            digamma_int(-3)


class TestErgodicDpcLogdet:
    def test_single_antenna_value(self):
        profile = make_profile(2, [1])
        expected = (1.0 - EULER_GAMMA) / LN2
        assert ergodic_dpc_logdet(profile) == pytest.approx(expected, abs=1e-12)
        assert ergodic_dpc_logdet(profile) == pytest.approx(0.60995, abs=5e-5)

    def test_correlation_adds_its_logdet(self):
        profile = make_profile(5, [2, 2])
        correlation = CorrelationModel.from_blocks([np.eye(2), 2.0 * np.eye(2)])
        shift = ergodic_dpc_logdet(profile, correlation) - ergodic_dpc_logdet(profile)
        assert shift == pytest.approx(2.0, abs=1e-12)

    def test_monte_carlo_agreement(self):
        profile = make_profile(5, [2, 2])
        mean, stderr = sampled_gram_logdet2(profile, None, 10_000, seed=2)
        assert abs(mean - ergodic_dpc_logdet(profile)) < 3 * stderr


class TestErgodicBlockLogdet:
    def test_single_user_is_negated_dpc_logdet(self):
        profile = make_profile(6, [4])
        correlation = CorrelationModel.from_blocks([random_hpd(np.random.default_rng(1), 4)])
        assert ergodic_block_logdet(profile, correlation, 0) == pytest.approx(
            -ergodic_dpc_logdet(profile, correlation), abs=1e-12
        )

    def test_two_single_antenna_users(self):
        profile = make_profile(2, [1, 1])
        expected = EULER_GAMMA / LN2
        assert ergodic_block_logdet(profile, None, 0) == pytest.approx(expected, abs=1e-12)
        assert ergodic_block_logdet(profile, None, 0) == pytest.approx(0.8328, abs=1e-4)

    def test_monte_carlo_agreement(self):
        profile = make_profile(5, [2, 2])
        estimates = sampled_block_logdet2(profile, None, 10_000, seed=4)
        for user, (mean, stderr) in enumerate(estimates):
            assert abs(mean - ergodic_block_logdet(profile, None, user)) < 3 * stderr


class TestErgodicRateLoss:
    def test_reference_two_user_values(self):
        assert ergodic_rate_loss(make_profile(3, [1, 2])) == pytest.approx(2.164, abs=5e-4)
        assert ergodic_rate_loss(make_profile(6, [2, 4])) == pytest.approx(4.857, abs=5e-4)
        assert ergodic_rate_loss(make_profile(5, [2, 3])) == pytest.approx(4.208, abs=5e-4)

    def test_takes_no_correlation_argument(self):
        profile = make_profile(5, [2, 2])
        correlation = CorrelationModel.scalar(profile, [1.0, 2.0])
        with_corr = ergodic_summary(profile, correlation)
        without = ergodic_summary(profile, None)
        assert with_corr.rate_loss_bits == without.rate_loss_bits
        # the correlation terms cancel between the DPC and linear parts
        loss_from_parts = with_corr.dpc_logdet_bits + sum(with_corr.block_logdet_bits)
        assert loss_from_parts == pytest.approx(with_corr.rate_loss_bits, abs=1e-9)


class TestEqualAntennaForm:
    def test_reference_values(self):
        assert ergodic_rate_loss_equal(2, 2, 5) == pytest.approx(2.044, abs=5e-4)
        assert ergodic_rate_loss_equal(3, 2, 6) == pytest.approx(8.223, abs=5e-4)
        assert ergodic_rate_loss_equal(2, 3, 6) == pytest.approx(5.338, abs=5e-4)

    def test_matches_general_form(self, checks):
        assert checks["ergodic_special_cases"].passed

    def test_domain(self):
        with pytest.raises(DomainError):
            ergodic_rate_loss_equal(3, 2, 5)


class TestSingleAntennaForm:
    def test_reference_values(self):
        assert ergodic_rate_loss_single(2, 2) == pytest.approx(1.0 / LN2, abs=1e-12)
        assert ergodic_rate_loss_single(2, 2) == pytest.approx(1.443, abs=5e-4)
        assert ergodic_rate_loss_single(6, 6) == pytest.approx(12.551, abs=5e-4)
        assert ergodic_rate_loss_single(2, 101) == pytest.approx(0.01 / LN2, abs=1e-12)
        assert ergodic_rate_loss_single(2, 101) == pytest.approx(0.014427, abs=1e-6)

    def test_exactly_equals_equal_antenna_form(self, checks):
        assert checks["ergodic_special_cases"].passed

    def test_domain(self):
        with pytest.raises(DomainError):
            ergodic_rate_loss_single(3, 2)


class TestMonteCarloRateLoss:
    def test_matches_closed_form(self):
        profile = make_profile(5, [2, 2])
        estimate = monte_carlo_rate_loss(profile, None, trials=10_000, seed=1)
        assert abs(estimate.mean - 2.0438179745) < 3 * estimate.stderr
        assert estimate.discarded == 0

    def test_correlation_invariance(self):
        profile = make_profile(5, [2, 2])
        correlation = CorrelationModel.from_blocks([np.eye(2), 2.0 * np.eye(2)])
        shaped = monte_carlo_rate_loss(profile, correlation, trials=10_000, seed=1)
        assert abs(shaped.mean - ergodic_rate_loss(profile)) < 3 * shaped.stderr

    def test_two_trial_determinism(self):
        profile = make_profile(4, [2, 2])
        first = monte_carlo_rate_loss(profile, None, trials=2, seed=77)
        second = monte_carlo_rate_loss(profile, None, trials=2, seed=77)
        assert first == second
        assert first.trials == 2

    def test_matches_per_trial_scalar_path(self):
        # two batches: the second is keyed on batch index 1
        profile = make_profile(4, [1, 2])
        trials = ergodic_module._BATCH + 64
        estimate = monte_carlo_rate_loss(profile, None, trials=trials, seed=5)
        scalar = []
        for batch, count in enumerate((ergodic_module._BATCH, 64)):
            rng = np.random.Generator(np.random.Philox(key=derive_seed(5, batch)))
            blocks = _draw(rng, profile, None, count)
            scalar += [
                instantaneous_rate_loss(
                    ChannelRealization.from_blocks(profile, [b[t] for b in blocks])
                )
                for t in range(count)
            ]
        assert estimate.mean == pytest.approx(float(np.mean(scalar)), abs=1e-12)

    def test_batch_spanning_run_is_deterministic_and_seeded(self):
        profile = make_profile(5, [2, 2])
        first = monte_carlo_rate_loss(profile, None, trials=2500, seed=8)
        second = monte_carlo_rate_loss(profile, None, trials=2500, seed=8)
        other = monte_carlo_rate_loss(profile, None, trials=2500, seed=9)
        assert first == second
        assert other.mean != first.mean
        assert other.stderr != first.stderr

    def test_rejects_too_few_trials(self):
        with pytest.raises(ValidationError):
            monte_carlo_rate_loss(make_profile(4, [2, 2]), trials=1)

    def test_discards_are_counted_and_deterministic(self, monkeypatch):
        # tighten the conditioning gate until a few draws get redrawn
        monkeypatch.setattr(channel_module, "COND_LIMIT", 3e4)
        profile = make_profile(2, [1, 1])
        first = monte_carlo_rate_loss(profile, None, trials=10_000, seed=3)
        second = monte_carlo_rate_loss(profile, None, trials=10_000, seed=3)
        assert first.discarded == 1
        assert first == second
        assert np.isfinite(first.mean)

    def test_exhausted_redraw_budget_raises(self, monkeypatch):
        from mimobc import NumericalRankError

        monkeypatch.setattr(channel_module, "COND_LIMIT", 1.0)
        with pytest.raises(NumericalRankError, match="rank-deficient"):
            monte_carlo_rate_loss(make_profile(4, [2, 2]), trials=5000, seed=1)

    def test_default_trials_scale_at_the_boundary(self):
        assert default_trials(make_profile(5, [2, 2])) == 10_000
        assert default_trials(make_profile(4, [2, 2])) == 100_000


class TestPowerOffset:
    def test_reference_offset(self):
        assert power_offset_db(2.044, 4) == pytest.approx(1.538, abs=1e-3)

    def test_zero_loss(self):
        assert power_offset_db(0.0, 7) == 0.0

    def test_one_bit_per_dimension(self):
        # one bit per antenna corresponds to the classic 3.0103 dB
        assert power_offset_db(4.0, 4) == pytest.approx(3.0103, abs=1e-4)


class TestRateLossGrid:
    def test_reproduces_reference_values(self):
        cells = rate_loss_grid()
        populated = {
            (c.user_antennas, c.base_antennas): c.rate_loss_bits
            for c in cells
            if c.rate_loss_bits is not None
        }
        assert set(populated) == set(REFERENCE_RATE_LOSS)
        for key, printed in REFERENCE_RATE_LOSS.items():
            assert populated[key] == pytest.approx(printed, abs=5e-4), key

    def test_infeasible_cells_are_empty(self):
        for cell in rate_loss_grid():
            if cell.base_antennas < sum(cell.user_antennas):
                assert cell.rate_loss_bits is None
            else:
                assert cell.rate_loss_bits is not None

    def test_extra_profiles_are_appended(self):
        cells = rate_loss_grid(extra_profiles=[((2, 2, 2), 8)])
        assert cells[-1].user_antennas == (2, 2, 2)
        assert cells[-1].base_antennas == 8
        assert cells[-1].rate_loss_bits == pytest.approx(
            ergodic_rate_loss(make_profile(8, [2, 2, 2]))
        )

    def test_strictly_decreasing_in_base_antennas(self, checks):
        assert checks["ergodic_monotonic_in_base_antennas"].passed

    def test_fewer_users_with_more_antennas_lose_less(self, checks):
        assert checks["ergodic_qualitative_ratio"].passed
