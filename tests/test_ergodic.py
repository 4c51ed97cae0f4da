import time
from math import fsum

import mpmath
import numpy as np
import pytest
from scipy.special import digamma as scipy_digamma

import mimobc.channel as channel_module
import mimobc.ergodic as ergodic_module
from mimobc import (
    ChannelRealization,
    CorrelationModel,
    ValidationError,
    derive_seed,
    digamma_int,
    ergodic_block_logdet,
    ergodic_dpc_logdet,
    ergodic_rate_loss,
    instantaneous_rate_loss,
    make_profile,
    monte_carlo_rate_loss,
    power_offset_db,
    sample_channel,
)
from mimobc.channel import _draw
from mimobc.ergodic import EULER_GAMMA, default_trials, ergodic_rate_loss_equal, rate_loss_grid
from mimobc.validation import random_hpd

from reference_table import REFERENCE_RATE_LOSS

LN2 = np.log(2.0)

#: 30-digit mpmath context for the Digamma references.
MP = mpmath.MPContext()
MP.dps = 30

#: 40-digit mpmath context for the references at large arguments.
MP40 = mpmath.MPContext()
MP40.dps = 40


def mp_psi_sum(first, count):
    """sum_{l<count} psi(first - l) at 30 digits."""
    return MP.fsum(MP.digamma(first - el) for el in range(count))


def mp_rate_loss(base, antennas):
    """The Digamma difference E log2|G| + sum_k E log2|[G^-1]_kk| at 30 digits."""
    r = sum(antennas)
    total = mp_psi_sum(base, r) - MP.fsum(mp_psi_sum(base - r + r_k, r_k) for r_k in antennas)
    return total / MP.log(2)


def relative_error(value, reference):
    return float(abs((value - reference) / reference))


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

    def test_matches_30_digit_digamma(self):
        for n in (1, 2, 3, 10, 100, 1000, 12345):
            assert relative_error(digamma_int(n), MP.digamma(n)) <= 1e-15

    def test_harmonic_prefix_up_to_the_series_threshold(self):
        # up to the threshold every value is the exact sum of the harmonic prefix
        # terms, rounded once, as it was before the series branch existed
        def prefix_sum(first, count):
            low = first - count + 1
            terms = [count / j for j in range(1, low)]
            terms += [(first - j) / j for j in range(low, first)]
            return fsum(terms + [-count * EULER_GAMMA])

        threshold = ergodic_module._SERIES_FROM
        for first, count in [(1, 1), (6, 4), (80, 64), (threshold, 1), (threshold + 15, 16)]:
            assert ergodic_module._psi_sum(first, count) == prefix_sum(first, count)

    @pytest.mark.parametrize(
        "first, count", [(2**13 + 1, 1), (2**13 + 16, 16), (2**16, 1), (2**53, 16), (10**18, 16)]
    )
    def test_series_matches_40_digit_digamma(self, first, count):
        reference = MP40.fsum(MP40.digamma(first - el) for el in range(count))
        assert relative_error(ergodic_module._psi_sum(first, count), reference) <= 1e-15

    @pytest.mark.parametrize("base", [10**8, 10**12, 2**53])
    def test_closed_forms_at_large_base_antenna_counts(self, base):
        # the harmonic prefix of psi(N) would take seconds at N = 1e8 and never end at 2**53
        profile = make_profile(base, [1, 2])
        start = time.perf_counter()
        values = [
            digamma_int(base),
            ergodic_dpc_logdet(profile),
            *(ergodic_block_logdet(profile, None, user) for user in range(2)),
        ]
        assert time.perf_counter() - start < 0.1
        ln2 = MP40.log(2)
        references = [
            MP40.digamma(base),
            MP40.fsum(MP40.digamma(base - el) for el in range(3)) / ln2,
            -MP40.digamma(base - 2) / ln2,
            -MP40.fsum(MP40.digamma(base - 1 - el) for el in range(2)) / ln2,
        ]
        for value, reference in zip(values, references):
            assert relative_error(value, reference) <= 1e-15

    def test_domain(self):
        with pytest.raises(ValidationError):
            digamma_int(0)
        with pytest.raises(ValidationError):
            digamma_int(-3)


class TestErgodicDpcLogdet:
    def test_single_antenna_value(self):
        profile = make_profile(2, [1])
        expected = (1.0 - EULER_GAMMA) / LN2
        assert ergodic_dpc_logdet(profile) == pytest.approx(expected, abs=1e-12)
        assert ergodic_dpc_logdet(profile) == pytest.approx(0.60995, abs=5e-5)

    def test_correlation_adds_its_logdet(self):
        profile = make_profile(5, [2, 2])
        correlation = CorrelationModel([np.eye(2), 2.0 * np.eye(2)])
        shift = ergodic_dpc_logdet(profile, correlation) - ergodic_dpc_logdet(profile)
        assert shift == pytest.approx(2.0, abs=1e-12)

    def test_monte_carlo_agreement(self):
        profile = make_profile(5, [2, 2])
        mean, stderr = sampled_gram_logdet2(profile, None, 10_000, seed=2)
        assert abs(mean - ergodic_dpc_logdet(profile)) < 3 * stderr

    @pytest.mark.parametrize("antennas, base", [((1, 2), 10**6), ((4,) * 16, 80), ((1,) * 64, 64)])
    def test_matches_30_digit_digamma_sum(self, antennas, base):
        profile = make_profile(base, antennas)
        reference = mp_psi_sum(base, sum(antennas)) / MP.log(2)
        assert relative_error(ergodic_dpc_logdet(profile), reference) <= 1e-13


class TestErgodicBlockLogdet:
    def test_single_user_is_negated_dpc_logdet(self):
        profile = make_profile(6, [4])
        correlation = CorrelationModel([random_hpd(np.random.default_rng(1), 4)])
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

    @pytest.mark.parametrize("antennas, base", [((1, 2), 10**6), ((4,) * 16, 80), ((1,) * 64, 64)])
    def test_matches_30_digit_digamma_sum(self, antennas, base):
        profile = make_profile(base, antennas)
        r = sum(antennas)
        for user, r_k in enumerate(antennas):
            reference = -mp_psi_sum(base - r + r_k, r_k) / MP.log(2)
            value = ergodic_block_logdet(profile, None, user)
            assert relative_error(value, reference) <= 1e-13


@pytest.mark.parametrize(
    "blocks",
    [[np.eye(2)] * 3, [np.eye(3), np.eye(2)]],
    ids=["three-blocks-for-two-users", "3x3-block-for-a-2-antenna-user"],
)
def test_closed_forms_reject_a_correlation_that_does_not_fit(blocks):
    profile = make_profile(6, [2, 2])
    correlation = CorrelationModel(blocks)
    with pytest.raises(ValidationError, match="do not match"):
        ergodic_dpc_logdet(profile, correlation)
    for user in range(profile.num_users):
        with pytest.raises(ValidationError, match="do not match"):
            ergodic_block_logdet(profile, correlation, user)


class TestErgodicRateLoss:
    def test_reference_two_user_values(self):
        assert ergodic_rate_loss(make_profile(3, [1, 2])) == pytest.approx(2.164, abs=5e-4)
        assert ergodic_rate_loss(make_profile(6, [2, 4])) == pytest.approx(4.857, abs=5e-4)
        assert ergodic_rate_loss(make_profile(5, [2, 3])) == pytest.approx(4.208, abs=5e-4)

    def test_takes_no_correlation_argument(self):
        profile = make_profile(5, [2, 2])
        correlation = CorrelationModel.scalar(profile, [1.0, 2.0])
        # the correlation terms cancel between the DPC and linear parts
        loss_from_parts = ergodic_dpc_logdet(profile, correlation) + sum(
            ergodic_block_logdet(profile, correlation, k) for k in range(profile.num_users)
        )
        assert loss_from_parts == pytest.approx(ergodic_rate_loss(profile), abs=1e-9)

    @pytest.mark.parametrize(
        "antennas, base",
        [
            ((1, 2), 10**5),
            ((1, 2), 10**6),
            ((2, 2), 10**6),
            ((3, 5, 7, 2), 300),
            ((1,) * 256, 256),
            ((4,) * 64, 256),
            ((3, 2, 1), 6),
        ],
    )
    def test_matches_30_digit_digamma_form(self, antennas, base):
        value = ergodic_rate_loss(make_profile(base, antennas))
        assert relative_error(value, mp_rate_loss(base, antennas)) <= 1e-14

    def test_single_user_loses_nothing(self):
        assert ergodic_rate_loss(make_profile(9, [4])) == 0.0
        assert ergodic_rate_loss(make_profile(1, [1])) == 0.0

    def test_user_order_does_not_matter(self):
        forward = ergodic_rate_loss(make_profile(12, [1, 2, 3, 4]))
        assert ergodic_rate_loss(make_profile(12, [4, 3, 2, 1])) == forward


class TestEqualAntennaForm:
    def test_reference_values(self):
        assert ergodic_rate_loss_equal(2, 2, 5) == pytest.approx(2.044, abs=5e-4)
        assert ergodic_rate_loss_equal(3, 2, 6) == pytest.approx(8.223, abs=5e-4)
        assert ergodic_rate_loss_equal(2, 3, 6) == pytest.approx(5.338, abs=5e-4)

    def test_matches_general_form(self, checks):
        assert checks["ergodic_special_cases"].passed

    def test_domain(self):
        with pytest.raises(ValidationError, match="at least as many"):
            ergodic_rate_loss_equal(3, 2, 5)


class TestSingleAntennaForm:
    """The equal-antenna form at one antenna each: (1/ln 2) sum_{l<K} l / (N - l)."""

    def test_reference_values(self):
        for single in (
            lambda k, n: ergodic_rate_loss_equal(k, 1, n),
            lambda k, n: ergodic_rate_loss(make_profile(n, [1] * k)),
        ):
            assert single(2, 2) == pytest.approx(1.0 / LN2, abs=1e-12)
            assert single(2, 2) == pytest.approx(1.443, abs=5e-4)
            assert single(6, 6) == pytest.approx(12.551, abs=5e-4)
            assert single(2, 101) == pytest.approx(0.01 / LN2, abs=1e-12)
            assert single(2, 101) == pytest.approx(0.014427, abs=1e-6)

    def test_exactly_equals_equal_antenna_form(self, checks):
        assert checks["ergodic_special_cases"].passed

    def test_domain(self):
        with pytest.raises(ValidationError, match="at least as many"):
            ergodic_rate_loss_equal(3, 1, 2)


class TestMonteCarloRateLoss:
    def test_matches_closed_form(self):
        profile = make_profile(5, [2, 2])
        estimate = monte_carlo_rate_loss(profile, None, trials=10_000, seed=1)
        assert abs(estimate.mean - 2.0438179745) < 3 * estimate.stderr
        assert estimate.discarded == 0

    def test_correlation_invariance(self):
        profile = make_profile(5, [2, 2])
        correlation = CorrelationModel([np.eye(2), 2.0 * np.eye(2)])
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
            channels = _draw(rng, profile, None, count)
            scalar += [
                instantaneous_rate_loss(
                    ChannelRealization(profile, [h[:, sl] for sl in profile.block_slices])
                )
                for h in channels
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

    def test_every_row_is_the_general_form(self):
        for cell in rate_loss_grid():
            if cell.rate_loss_bits is not None:
                profile = make_profile(cell.base_antennas, cell.user_antennas)
                assert cell.rate_loss_bits == ergodic_rate_loss(profile)

    def test_strictly_decreasing_in_base_antennas(self, checks):
        assert checks["ergodic_monotonic_in_base_antennas"].passed

    def test_fewer_users_with_more_antennas_lose_less(self, checks):
        assert checks["ergodic_qualitative_ratio"].passed
