import numpy as np
import pytest

from mimobc import (
    ChannelRealization,
    NumericalRankError,
    ValidationError,
    instantaneous_rate_loss,
    make_profile,
    sample_channel,
)
from mimobc._linalg import haar_unitary, hermitian_sqrt
from mimobc.mac import (
    MacCovarianceSet,
    asymptotic_rate_report,
    asymptotic_user_rate,
    dpc_asymptotic_sum_rate,
    exact_rate_report,
    optimal_power_split,
)
from mimobc.validation import random_hpd


def identity_channel(size: int) -> ChannelRealization:
    """Single user whose channel is the identity matrix."""
    return ChannelRealization(make_profile(size, [size]), [np.eye(size)])


def orthonormal_channel(base: int, antennas, seed: int = 0) -> ChannelRealization:
    """Channel with orthonormal columns (Gram equals the identity)."""
    profile = make_profile(base, antennas)
    rng = np.random.default_rng(seed)
    q = haar_unitary(base, rng)[:, : profile.total_antennas]
    blocks = [q[:, sl] for sl in profile.block_slices]
    return ChannelRealization(profile, blocks)


def block_orthogonal_channel(antennas) -> ChannelRealization:
    """Per-user channels living on disjoint antenna groups (pairwise orthogonal)."""
    total = sum(antennas)
    profile = make_profile(total, antennas)
    rng = np.random.default_rng(33)
    blocks = []
    offset = 0
    for r_k in antennas:
        block = np.zeros((total, r_k), dtype=complex)
        block[offset : offset + r_k] = (
            rng.standard_normal((r_k, r_k)) + 1j * rng.standard_normal((r_k, r_k))
        ) + 3.0 * np.eye(r_k)
        blocks.append(block)
        offset += r_k
    return ChannelRealization(profile, blocks)


def random_covariances(rng, profile, scale=1.0) -> MacCovarianceSet:
    return MacCovarianceSet(
        [scale * random_hpd(rng, r, ridge=0.1) for r in profile.user_antennas]
    )


# brute-force determinant oracle values for the seeded channel
# (base 4, antennas [2, 2], seed 42, even power split of P = 8):
# computed as log2 |I + inv(I + sum_{l != k} H_l Q_l H_l^H) H_k Q_k H_k^H|
# with explicit numpy inverse and determinant
SEEDED_RATE_ORACLE = (3.7279883434617767, 3.2643816810488766)


class TestExactUserRate:
    def test_scalar_unit_channel(self):
        channel = identity_channel(1)
        covariances = MacCovarianceSet([np.eye(1)])
        assert exact_rate_report(channel, covariances).rates[0] == pytest.approx(1.0, abs=1e-12)

    def test_parallel_awgn_channels(self):
        power = 9.0
        channel = identity_channel(3)
        covariances = MacCovarianceSet.uniform(channel.profile, 3 * power)
        expected = 3 * np.log2(1 + power)
        assert exact_rate_report(channel, covariances).rates[0] == pytest.approx(expected, abs=1e-10)

    def test_seeded_channel_against_determinant_oracle(self):
        profile = make_profile(4, [2, 2])
        channel = sample_channel(profile, seed=42)
        covariances = MacCovarianceSet.uniform(profile, 8.0)
        rates = exact_rate_report(channel, covariances).rates
        for k, frozen in enumerate(SEEDED_RATE_ORACLE):
            other = np.eye(4, dtype=complex)
            for l in range(2):
                if l != k:
                    h = channel.blocks[l]
                    other = other + h @ covariances.covariances[l] @ h.conj().T
            h_k = channel.blocks[k]
            mat = np.eye(4) + np.linalg.inv(other) @ (
                h_k @ covariances.covariances[k] @ h_k.conj().T
            )
            oracle = float(np.log2(abs(np.linalg.det(mat))))
            assert oracle == pytest.approx(frozen, abs=1e-10)
            assert rates[k] == pytest.approx(frozen, abs=1e-10)

    def test_dimension_mismatch(self):
        channel = sample_channel(make_profile(4, [2, 2]), seed=0)
        bad = MacCovarianceSet([np.eye(2), np.eye(1)])
        with pytest.raises(ValidationError):
            exact_rate_report(channel, bad)


class TestGramForm:
    def test_matches_direct_form_on_random_instances(self, checks):
        assert checks["mac_gram_form_equivalence"].passed

    def test_single_user_reduces_to_full_logdet(self):
        profile = make_profile(5, [3])
        channel = sample_channel(profile, seed=2)
        covariances = random_covariances(np.random.default_rng(3), profile)
        t = hermitian_sqrt(covariances.covariances[0])
        expected = np.log2(
            abs(np.linalg.det(np.eye(3) + t.conj().T @ channel.gram @ t))
        )
        assert exact_rate_report(channel, covariances).rates[0] == pytest.approx(
            expected, abs=1e-10
        )

    def test_zero_factor_gives_zero_rate(self):
        profile = make_profile(4, [2, 2])
        channel = sample_channel(profile, seed=5)
        covariances = MacCovarianceSet([np.zeros((2, 2)), np.eye(2)])
        assert exact_rate_report(channel, covariances).rates[0] == 0.0


class TestAsymptoticUserRate:
    def test_orthonormal_columns(self):
        channel = orthonormal_channel(5, [2, 2])
        power = 100.0
        level = power / 4
        for k in range(2):
            assert asymptotic_user_rate(channel, level, k) == pytest.approx(
                2 * np.log2(level), abs=1e-10
            )

    def test_converges_to_exact_rate(self):
        profile = make_profile(5, [2, 2])
        channel = sample_channel(profile, seed=3)
        power = 1e6
        covariances = MacCovarianceSet.uniform(profile, power)
        rates = exact_rate_report(channel, covariances).rates
        for k in range(2):
            exact = rates[k]
            asym = asymptotic_user_rate(channel, power / 4, k)
            assert abs(exact - asym) < 1e-3

    def test_block_orthogonal_matches_single_user(self):
        channel = block_orthogonal_channel([2, 2])
        level = 7.0
        for k in range(2):
            h = channel.blocks[k]
            expected = np.log2(abs(np.linalg.det(level * h.conj().T @ h)))
            assert asymptotic_user_rate(channel, level, k) == pytest.approx(expected, abs=1e-9)

    def test_requires_positive_level(self):
        channel = sample_channel(make_profile(4, [2, 2]), seed=1)
        with pytest.raises(ValidationError):
            asymptotic_user_rate(channel, 0.0, 0)

    def test_singular_gram_rejected(self):
        profile = make_profile(4, [2, 2])
        block = np.zeros((4, 2), dtype=complex)
        block[:, 0] = [1, 0, 0, 0]
        block[:, 1] = [1, 1e-9, 0, 0]
        channel = ChannelRealization(profile, [block, block[:, ::-1] + 0.5])
        with pytest.raises(NumericalRankError):
            asymptotic_user_rate(channel, 1.0, 0)


class TestOptimalPowerSplit:
    def test_equal_weights_even_split(self):
        profile = make_profile(5, [2, 2])
        assert optimal_power_split(profile, 20.0) == (5.0, 5.0)

    def test_weighted_split(self):
        profile = make_profile(2, [1, 1], weights=[2.0, 1.0])
        assert optimal_power_split(profile, 3.0) == pytest.approx((2.0, 1.0))

    def test_zero_weight_gets_no_power(self):
        profile = make_profile(4, [3, 1], weights=[1.0, 0.0])
        assert optimal_power_split(profile, 9.0) == pytest.approx((3.0, 0.0))

    def test_budget_is_spent(self):
        profile = make_profile(7, [2, 1, 3], weights=[0.3, 2.0, 1.2])
        levels = optimal_power_split(profile, 42.0)
        spent = sum(r * lam for r, lam in zip(profile.user_antennas, levels))
        assert spent == pytest.approx(42.0, abs=1e-10)

    def test_rejects_bad_inputs(self):
        profile = make_profile(4, [2, 2])
        with pytest.raises(ValidationError):
            optimal_power_split(profile, 0.0)

    @pytest.mark.parametrize("power", [1.0, 1000.0])
    def test_overflowing_weights_are_a_validation_error(self, power):
        # w r overflows the denominator: at 1000 every level is inf / inf = nan, at 1
        # every level is 1e308 / inf = 0; either way no user would get a finite rate
        profile = make_profile(4, [2, 2], weights=[1e308, 1e308])
        with pytest.raises(ValidationError, match="non-finite power levels"):
            optimal_power_split(profile, power)
        channel = sample_channel(profile, seed=1)
        with pytest.raises(ValidationError, match="non-finite power levels"):
            asymptotic_rate_report(channel, power)


class TestWeightedSumRate:
    def test_orthonormal_equal_weights(self):
        channel = orthonormal_channel(6, [2, 2])
        power = 64.0
        expected = 4 * np.log2(power / 4)
        assert asymptotic_rate_report(channel, power).weighted_sum == pytest.approx(
            expected, abs=1e-9
        )

    def test_equals_weighted_per_user_rates(self):
        profile = make_profile(6, [2, 1, 2], weights=[2.0, 0.5, 1.0])
        channel = sample_channel(profile, seed=10)
        power = 50.0
        levels = optimal_power_split(profile, power)
        expected = sum(
            w * asymptotic_user_rate(channel, lam, k)
            for k, (w, lam) in enumerate(zip(profile.weights, levels))
        )
        assert asymptotic_rate_report(channel, power).weighted_sum == expected

    def test_converges_to_exact_sum(self):
        profile = make_profile(5, [2, 2])
        channel = sample_channel(profile, seed=3)
        power = 1e4
        covariances = MacCovarianceSet.uniform(profile, power)
        exact_sum = exact_rate_report(channel, covariances).sum_rate
        assert abs(asymptotic_rate_report(channel, power).weighted_sum - exact_sum) < 1e-2

    def test_concavity_of_the_split(self, checks):
        assert checks["mac_power_split_concavity"].passed


class TestDpcAsymptote:
    def test_identity_channel(self):
        channel = identity_channel(3)
        power = 27.0
        assert dpc_asymptotic_sum_rate(channel, power) == pytest.approx(
            3 * np.log2(power / 3), abs=1e-10
        )

    def test_matches_cooperating_link_at_high_power(self):
        channel = sample_channel(make_profile(5, [2, 2]), seed=3)
        power = 1e6
        h = channel.composite
        cooperative = np.log2(
            abs(np.linalg.det(np.eye(5) + power / 4 * h @ h.conj().T))
        )
        assert abs(dpc_asymptotic_sum_rate(channel, power) - cooperative) < 1e-2

    def test_channel_scaling_shifts_logdet(self):
        profile = make_profile(5, [2, 2])
        channel = sample_channel(profile, seed=9)
        c = 3.0
        scaled = ChannelRealization(profile, [c * h for h in channel.blocks])
        shift = dpc_asymptotic_sum_rate(scaled, 10.0) - dpc_asymptotic_sum_rate(channel, 10.0)
        assert shift == pytest.approx(2 * 4 * np.log2(c), abs=1e-9)


class TestInstantaneousRateLoss:
    def test_block_orthogonal_channel_loses_nothing(self):
        channel = block_orthogonal_channel([2, 1, 2])
        assert abs(instantaneous_rate_loss(channel)) < 1e-10

    def test_equals_dpc_minus_linear_asymptote(self):
        channel = sample_channel(make_profile(4, [2, 2]), seed=7)
        power = 123.0
        identity = (
            dpc_asymptotic_sum_rate(channel, power)
            - asymptotic_rate_report(channel, power).weighted_sum
        )
        assert instantaneous_rate_loss(channel) == pytest.approx(identity, abs=1e-9)

    def test_nonnegative_on_random_channels(self, checks):
        assert checks["mac_rate_loss_nonnegative"].passed

    def test_invariant_under_correlation_shaping(self, checks):
        assert checks["mac_correlation_invariance"].passed


class TestEigenbasisIrrelevance:
    def test_rotated_covariances_reach_the_same_limit(self, checks):
        assert checks["mac_eigenbasis_irrelevance"].passed


class TestRateReports:
    def test_exact_report_sums(self):
        profile = make_profile(5, [2, 2], weights=[2.0, 1.0])
        channel = sample_channel(profile, seed=3)
        covariances = MacCovarianceSet.uniform(profile, 10.0)
        report = exact_rate_report(channel, covariances)
        assert report.sum_rate == pytest.approx(sum(report.rates))
        assert report.weighted_sum == pytest.approx(
            2.0 * report.rates[0] + 1.0 * report.rates[1]
        )

    def test_asymptotic_report_zero_weight_user(self):
        profile = make_profile(4, [2, 2], weights=[1.0, 0.0])
        channel = sample_channel(profile, seed=3)
        report = asymptotic_rate_report(channel, 100.0)
        assert report.rates[1] == float("-inf")

    def test_zero_weight_user_adds_nothing_to_the_weighted_sum(self):
        profile = make_profile(4, [2, 2], weights=[1.0, 0.0])
        channel = sample_channel(profile, seed=3)
        report = asymptotic_rate_report(channel, 100.0)
        assert report.weighted_sum == report.rates[0]


class TestMacCovarianceSet:
    def test_uniform_total_power(self):
        profile = make_profile(6, [2, 3])
        cset = MacCovarianceSet.uniform(profile, 30.0)
        assert cset.total_power == pytest.approx(30.0)

    def test_rejects_indefinite(self):
        with pytest.raises(ValidationError):
            MacCovarianceSet([np.diag([1.0, -0.1])])

    def test_keeps_read_only_copies_of_any_iterable(self):
        q = np.eye(2, dtype=complex)
        covariances = MacCovarianceSet(iter([q, 2.0 * q]))
        assert type(covariances.covariances) is tuple and len(covariances.covariances) == 2
        stored = covariances.covariances[0]
        assert not stored.flags.writeable and not np.shares_memory(stored, q)
        q[0, 0] = 5.0
        assert q.flags.writeable and stored[0, 0] == 1.0


class TestCovarianceSetChecks:
    """Each covariance is checked on its own and a failed check names it."""

    def test_each_check_names_the_offending_covariance(self):
        good = [np.eye(2), np.eye(1)]
        skew = np.array([[1.0, 1.0], [0.0, 1.0]])
        indefinite = np.diag([1.0, -1.0])
        nan = np.diag([1.0, np.nan])
        cases = [
            (lambda: MacCovarianceSet((*good, skew)), "covariance 2 is not Hermitian"),
            (lambda: MacCovarianceSet((*good, indefinite)), "covariance 2 is not positive semidefinite"),
            (lambda: MacCovarianceSet([*good, nan]), "covariance 2 has non-finite"),
        ]
        for build, message in cases:
            with pytest.raises(ValidationError, match=message):
                build()

    def test_semidefinite_tolerance_is_relative_to_the_largest_entry(self):
        # an eigenvalue -1e-8 and an asymmetry 1e-7 are within 1e-12 of the entry 1e6
        # and are accepted; against an entry 1 they are not
        accepted = MacCovarianceSet([np.diag([1e6, -1e-8]), np.eye(2)])
        assert accepted.total_power == pytest.approx(1e6 + 2)
        with pytest.raises(ValidationError, match="covariance 0 is not positive semidefinite"):
            MacCovarianceSet([np.diag([1.0, -1e-8]), np.eye(2)])
        MacCovarianceSet([np.array([[1e6, 1e-7], [0.0, 1.0]])])
        with pytest.raises(ValidationError, match="covariance 0 is not Hermitian"):
            MacCovarianceSet([np.array([[1.0, 1e-7], [0.0, 1.0]])])
