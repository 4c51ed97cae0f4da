import mpmath as mp
import numpy as np
import pytest

from mimobc import (
    ChannelRealization,
    CorrelationModel,
    derive_seed,
    make_profile,
    sample_channel,
    solve_bc,
)
from mimobc.bc import (
    MAX_BD_POWER_DB,
    _bc_exact_rates,
    _bd_directions,
    asymptotic_receiver,
    bc_covariance,
    bc_exact_user_rate,
    mmse_receiver_exact,
)
from mimobc.channel import _factor_grams, _sample_blocks
from mimobc.errors import ValidationError
from mimobc.mac import MacCovarianceSet, asymptotic_user_rate
from mimobc._linalg import (
    haar_unitary,
    hermitian_sqrt,
    hermitize,
    logdet2_hpd,
    normalize_eigenvector_phases,
    power_from_db,
)
from mimobc.validation import _eigenbasis_slack, random_hpd


def identity_channel(antennas) -> ChannelRealization:
    total = sum(antennas)
    profile = make_profile(total, antennas)
    eye = np.eye(total, dtype=complex)
    return ChannelRealization(
        profile, [eye[:, sl] for sl in profile.block_slices]
    )


def orthonormal_channel(base: int, antennas, seed: int = 1) -> ChannelRealization:
    profile = make_profile(base, antennas)
    rng = np.random.default_rng(seed)
    q = haar_unitary(base, rng)[:, : profile.total_antennas]
    return ChannelRealization(
        profile, [q[:, sl] for sl in profile.block_slices]
    )


EPS = np.finfo(float).eps

#: Profiles of the accuracy tests against mpmath: N from 1 to 8, one to three users.
ACCURACY_PROFILES = [
    (1, [1]), (3, [1, 2]), (5, [2, 2]), (6, [1, 1, 1]), (7, [2, 1, 3]), (8, [4, 4])
]


def to_mpmath(a):
    return mp.matrix([[mp.mpc(complex(x)) for x in row] for row in np.atleast_2d(a)])


def largest_error(got, expected):
    """Largest entry error relative to the largest entry of ``expected``."""
    return np.abs(got - expected).max() / np.abs(expected).max()


def mpmath_covariance(channel, power, user):
    """(P / r) R^H B^-1 R in 60 digits, from the float pseudo-inverse rows R and block B of G^-1."""
    with mp.workdps(60):
        rows = to_mpmath(channel.pseudo_inverse[channel.profile.block_slices[user]])
        block = to_mpmath(channel.gram_inverse_block(user))
        value = mp.mpf(power) / channel.profile.total_antennas * rows.H * block**-1 * rows
        return np.array(value.tolist(), dtype=complex)


def mpmath_receiver(channel, covariances, user):
    """T_k^H H_k^H (I + sum_l H_l Q_l H_l^H)^-1 in 60 digits, from the float H_l and Q_l."""
    with mp.workdps(60):
        system = mp.eye(channel.profile.base_antennas)
        for h, q in zip(channel.blocks, covariances.covariances):
            system += to_mpmath(h) * to_mpmath(q) * to_mpmath(h).H
        root = mp.sqrtm(to_mpmath(covariances.covariances[user]))
        value = (system**-1 * to_mpmath(channel.blocks[user]) * root).H
        return np.array(value.tolist(), dtype=complex)


def channel_with_singular_values(rng, base, antennas, values, right) -> ChannelRealization:
    """The channel U diag(values) right^H, with U the first r columns of a Haar unitary."""
    profile = make_profile(base, antennas)
    h = (haar_unitary(base, rng)[:, : profile.total_antennas] * values) @ right.conj().T
    return ChannelRealization(profile, [h[:, sl] for sl in profile.block_slices])


def well_conditioned_channels(rng):
    """Three channels with singular values in [1, 2] for every accuracy profile."""
    for base, antennas in ACCURACY_PROFILES:
        r = sum(antennas)
        for _ in range(3):
            yield channel_with_singular_values(
                rng, base, antennas, rng.uniform(1.0, 2.0, r), haar_unitary(r, rng)
            )


class TestMmseReceiver:
    def test_vanishing_factors_give_zero_filter(self):
        profile = make_profile(5, [2, 2])
        channel = sample_channel(profile, seed=1)
        # covariances of the factors 1e-9 I
        tiny = MacCovarianceSet([1e-18 * np.eye(2), 1e-18 * np.eye(2)])
        for k in range(2):
            assert np.linalg.norm(mmse_receiver_exact(channel, tiny, k)) < 1e-8

    def test_identity_channel_scalar_filter(self):
        channel = identity_channel([2, 2])
        t = 1.7
        # covariances of the factors t I, whose principal roots are t I
        covariances = MacCovarianceSet([t**2 * np.eye(2), t**2 * np.eye(2)])
        for k in range(2):
            expected = np.zeros((2, 4))
            sl = channel.profile.block_slices[k]
            expected[:, sl] = t / (1 + t**2) * np.eye(2)
            np.testing.assert_allclose(
                mmse_receiver_exact(channel, covariances, k), expected, atol=1e-12
            )

    def test_normal_equation_residual(self):
        profile = make_profile(6, [2, 3])
        channel = sample_channel(profile, seed=8)
        covariances = MacCovarianceSet.uniform(profile, 12.0)
        h = channel.composite
        factors = [hermitian_sqrt(q) for q in covariances.covariances]
        ht = np.concatenate([hk @ t for hk, t in zip(channel.blocks, factors)], axis=1)
        x = np.eye(6) + ht @ ht.conj().T
        for k in range(2):
            g = mmse_receiver_exact(channel, covariances, k)
            sl = channel.profile.block_slices[k]
            rhs = (ht.conj().T @ np.eye(6))[sl, :]
            assert np.linalg.norm(g @ x - rhs) < 1e-10

    def test_covariance_with_rounding_level_negative_eigenvalue(self):
        # the set accepts an eigenvalue -1e-8 against the entry 1e6, so the
        # receiver built from it must too: it clamps that eigenvalue to zero
        channel = sample_channel(make_profile(5, [2, 2]), seed=2)
        covariances = MacCovarianceSet([np.diag([1e6, -1e-8]), np.eye(2)])
        filters = [mmse_receiver_exact(channel, covariances, k) for k in range(2)]
        assert all(f.shape == (2, 5) and np.isfinite(f).all() for f in filters)

    def test_matches_mpmath(self):
        # the square root of Q_k included, numpy's LU solve stays within 1.5e-15 here and a
        # Cholesky solve within 1.4e-15
        rng = np.random.default_rng(3)
        for channel in well_conditioned_channels(rng):
            antennas = channel.profile.user_antennas
            covariances = MacCovarianceSet([random_hpd(rng, r) for r in antennas])
            for k in range(len(antennas)):
                expected = mpmath_receiver(channel, covariances, k)
                got = mmse_receiver_exact(channel, covariances, k)
                assert largest_error(got, expected) <= 2e-15

    @pytest.mark.parametrize("seed", range(4))
    def test_ill_conditioned_system_matches_mpmath(self, seed):
        # cond(I + sum_l H_l Q_l H_l^H) = 1e8: the error is bounded by cond eps, not by eps
        rng = np.random.default_rng(seed)
        channel = channel_with_singular_values(
            rng, 8, [3, 3], rng.uniform(1.0, 2.0, 6), haar_unitary(6, rng)
        )
        shapes = [random_hpd(rng, 3) for _ in range(2)]
        received = sum(h @ q @ h.conj().T for h, q in zip(channel.blocks, shapes))
        scale = (1e8 - 1.0) / np.linalg.eigvalsh(received)[-1]
        covariances = MacCovarianceSet([scale * q for q in shapes])
        system = np.eye(8) + sum(
            h @ q @ h.conj().T for h, q in zip(channel.blocks, covariances.covariances)
        )
        expected = mpmath_receiver(channel, covariances, 0)
        got = mmse_receiver_exact(channel, covariances, 0)
        assert largest_error(got, expected) <= np.linalg.cond(system) * EPS

    def test_overflowing_system_is_a_validation_error(self):
        profile = make_profile(5, [2, 2])
        channel = ChannelRealization(
            profile, [1e160 * h for h in sample_channel(profile, seed=3).blocks]
        )
        covariances = MacCovarianceSet.uniform(profile, 10.0)
        # the overflow surfaces as the typed failure alone: any escaping warning fails here
        with pytest.raises(ValidationError, match="MMSE receiver system has non-finite"):
            mmse_receiver_exact(channel, covariances, 0)


class TestAsymptoticReceiver:
    def test_identity_channel(self):
        channel = identity_channel([1, 2])
        power = 12.0
        for k in range(2):
            expected = np.zeros((channel.profile.user_antennas[k], 3))
            sl = channel.profile.block_slices[k]
            expected[:, sl] = np.sqrt(3 / power) * np.eye(channel.profile.user_antennas[k])
            np.testing.assert_allclose(
                asymptotic_receiver(channel, power, k), expected, atol=1e-12
            )

    def test_zero_forcing_identities(self):
        profile = make_profile(6, [2, 2])
        channel = sample_channel(profile, seed=4)
        power = 20.0
        scale = np.sqrt(4 / power)
        for k in range(2):
            g = asymptotic_receiver(channel, power, k)
            assert np.linalg.norm(g @ channel.blocks[k] - scale * np.eye(2)) < 1e-9
            other = channel.blocks[1 - k]
            assert np.linalg.norm(g @ other) < 1e-9

    def test_converges_to_exact_mmse_filter(self):
        profile = make_profile(5, [2, 2])
        channel = sample_channel(profile, seed=6)
        gaps = []
        for power in (1e2, 1e4, 1e6):
            covariances = MacCovarianceSet.uniform(profile, power)
            exact = mmse_receiver_exact(channel, covariances, 0)
            asym = asymptotic_receiver(channel, power, 0)
            gaps.append(np.linalg.norm(exact - asym) / np.linalg.norm(asym))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 1e-3


class TestDecorrelationBasis:
    def test_scalar_block(self):
        channel = sample_channel(make_profile(4, [1, 2]), seed=2)
        np.testing.assert_allclose(solve_bc(channel, 1.0).bases[0], np.eye(1))

    def test_unitary_and_diagonalizing(self):
        channel = sample_channel(make_profile(6, [3, 2]), seed=9)
        for k, w in enumerate(solve_bc(channel, 1.0).bases):
            assert np.linalg.norm(w.conj().T @ w - np.eye(w.shape[0])) < 1e-12
            rotated = w.conj().T @ channel.gram_inverse_block(k) @ w
            off = rotated - np.diag(np.diagonal(rotated))
            assert np.linalg.norm(off) < 1e-10
            # ascending eigenvalue order
            diag = np.diagonal(rotated).real
            assert all(b >= a for a, b in zip(diag, diag[1:]))

    def test_deterministic_phase_convention(self):
        channel = sample_channel(make_profile(6, [3, 2]), seed=9)
        w = solve_bc(channel, 1.0).bases[0]
        again = solve_bc(channel, 2.0).bases[0]
        np.testing.assert_array_equal(w, again)
        lead = np.abs(w).argmax(axis=0)
        lead_entries = w[lead, range(w.shape[1])]
        assert np.all(np.abs(lead_entries.imag) < 1e-12)
        assert np.all(lead_entries.real > 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_one_eigh_per_block_size_equals_the_per_user_construction(self, seed):
        # two block sizes with interleaved users: user 1 is alone in its group
        channel = sample_channel(make_profile(6, [2, 1, 2]), seed=seed)
        power = 6.0
        solution = solve_bc(channel, power)
        for k, sl in enumerate(channel.profile.block_slices):
            _, vectors = np.linalg.eigh(channel.gram_inverse_block(k))
            basis = normalize_eigenvector_phases(vectors)
            directions = channel.pseudo_inverse[sl, :].conj().T @ basis
            scales = np.linalg.norm(directions, axis=0)
            np.testing.assert_array_equal(solution.bases[k], basis)
            np.testing.assert_array_equal(solution.column_scales[k], scales)
            np.testing.assert_array_equal(
                solution.precoders[k], np.sqrt(power / 5) * directions / scales
            )


class TestStackedDirections:
    @pytest.mark.parametrize(
        "base, antennas", [(5, (2, 2)), (6, (2, 1, 2)), (6, (1, 4)), (12, (4, 3, 3))]
    )
    def test_a_stack_equals_each_channel_alone(self, base, antennas):
        profile = make_profile(base, antennas)
        correlation = CorrelationModel.scalar(profile, np.linspace(1.0, 2.0, len(antennas)))
        seeds = [derive_seed(7, t) for t in range(12)]
        channels = np.stack([_sample_blocks(profile, correlation, s) for s in seeds])
        stacked = _bd_directions(profile, channels, _factor_grams(channels, profile))
        for t, seed in enumerate(seeds):
            channel = sample_channel(profile, correlation, seed)
            alone = _bd_directions(profile, channel.composite[None], channel._gram_factors)
            for k, (mine, own) in enumerate(zip(stacked, alone)):
                for a, b in zip(mine, own):
                    if profile.total_antennas <= 8:
                        # every factor of either stack is inverted by the same substitution
                        np.testing.assert_array_equal(a[t], b[0])
                    else:
                        assert np.linalg.norm(a[t] - b[0]) <= 1e-12 * np.linalg.norm(b[0])


class TestScalingFactors:
    def test_identity_channel_value(self):
        channel = identity_channel([2, 2])
        power = 10.0
        np.testing.assert_allclose(
            solve_bc(channel, power).scaling_factors[0], power / 4 * np.ones(2), atol=1e-12
        )

    def test_linear_in_power(self):
        channel = sample_channel(make_profile(5, [2, 2]), seed=11)
        base = solve_bc(channel, 10.0).scaling_factors[1]
        doubled = solve_bc(channel, 20.0).scaling_factors[1]
        np.testing.assert_allclose(doubled, 2.0 * base, rtol=1e-12)

    def test_column_norms_follow(self):
        channel = sample_channel(make_profile(6, [2, 3]), seed=12)
        power = 7.0
        target = np.sqrt(power / 5)
        for p in solve_bc(channel, power).precoders:
            np.testing.assert_allclose(np.linalg.norm(p, axis=0), target, atol=1e-10)


class TestBcPrecoder:
    def test_orthonormal_channel_short_form(self):
        channel = orthonormal_channel(6, [2, 2])
        power = 8.0
        solution = solve_bc(channel, power)
        for k, (w, p) in enumerate(zip(solution.bases, solution.precoders)):
            sl = channel.profile.block_slices[k]
            expected = np.sqrt(power / 4) * channel.composite[:, sl] @ w
            np.testing.assert_allclose(p, expected, atol=1e-9)

    def test_block_diagonalization(self):
        channel = sample_channel(make_profile(7, [2, 3]), seed=13)
        power = 15.0
        for k, p in enumerate(solve_bc(channel, power).precoders):
            other = channel.blocks[1 - k]
            residual = np.linalg.norm(other.conj().T @ p)
            assert residual < 1e-9 * np.linalg.norm(other) * np.linalg.norm(p)

    def test_duality_rate_match(self):
        # the downlink rate written through the decorrelated scales equals the
        # rate written directly through the inverse Gram block
        channel = sample_channel(make_profile(5, [2, 2]), seed=3)
        power = 40.0
        for k, w in enumerate(solve_bc(channel, power).bases):
            block = channel.gram_inverse_block(k)
            squares = np.diagonal(hermitize(w.conj().T @ block @ w)).real
            via_scales = float(
                np.log2(np.abs(np.linalg.det(np.eye(2) + power / 4 * (w / squares) @ w.conj().T)))
            )
            direct = logdet2_hpd(
                np.eye(2) + power / 4 * np.linalg.inv(block)
            )
            assert via_scales == pytest.approx(direct, abs=1e-9)


class TestBdPowerBound:
    def test_a_power_above_the_bound_is_rejected(self):
        # unbounded, this channel's exact BD rate read 0.58 bits below its asymptote at 300 dB
        channel = sample_channel(make_profile(5, [2, 2]), seed=3)
        with pytest.raises(ValidationError, match="above 160 dB"):
            solve_bc(channel, 1e30)
        with pytest.raises(ValidationError, match="above 160 dB"):
            solve_bc(channel, np.nextafter(power_from_db(MAX_BD_POWER_DB), np.inf))

    @pytest.mark.parametrize("base, antennas", [(5, (2, 2)), (12, (4, 3, 3)), (6, (2, 2, 2))])
    def test_the_bound_is_within_rounding_of_the_asymptote(self, base, antennas):
        # r log2(P / r) - sum_k log2|[G^-1]_kk|, on the same channel
        profile = make_profile(base, antennas)
        power, r = power_from_db(MAX_BD_POWER_DB), profile.total_antennas
        for seed in range(20):
            channel = sample_channel(profile, seed=seed)
            asymptote = r * np.log2(power / r) - sum(channel.inverse_block_logdet2)
            assert abs(solve_bc(channel, power).sum_rate - asymptote) <= 1e-9


class TestBcCovariance:
    def test_single_user_projector(self):
        profile = make_profile(5, [3])
        channel = sample_channel(profile, seed=14)
        power = 9.0
        s = bc_covariance(channel, power, 0)
        h = channel.composite
        expected = power / 3 * h @ np.linalg.inv(channel.gram) @ h.conj().T
        np.testing.assert_allclose(s, expected, atol=1e-9)

    def test_idempotent_after_rescaling(self):
        channel = sample_channel(make_profile(6, [2, 2]), seed=15)
        power = 11.0
        for k in range(2):
            projector = 4 / power * bc_covariance(channel, power, k)
            assert np.linalg.norm(projector @ projector - projector) < 1e-9

    def test_trace_is_antenna_share_of_power(self):
        channel = sample_channel(make_profile(6, [2, 3]), seed=16)
        power = 25.0
        for k, r_k in enumerate(channel.profile.user_antennas):
            s = bc_covariance(channel, power, k)
            assert np.trace(s).real == pytest.approx(r_k * power / 5, abs=1e-9)

    def test_spectrum_is_flat(self):
        channel = sample_channel(make_profile(7, [2, 2]), seed=17)
        power = 14.0
        level = power / 4
        for k in range(2):
            eigen = np.linalg.eigvalsh(bc_covariance(channel, power, k))
            np.testing.assert_allclose(eigen[-2:], level, atol=1e-8)
            np.testing.assert_allclose(eigen[:-2], 0.0, atol=1e-8)

    def test_basis_invariance(self, checks):
        assert checks["bc_covariance_basis_invariance"].passed

    def test_matches_mpmath(self):
        # numpy's LU solve stays within 2.7e-16 here and a Cholesky solve within 4.1e-16
        for channel in well_conditioned_channels(np.random.default_rng(3)):
            for k in range(channel.profile.num_users):
                expected = mpmath_covariance(channel, 10.0, k)
                assert largest_error(bc_covariance(channel, 10.0, k), expected) <= 1e-15

    @pytest.mark.parametrize("seed", range(4))
    def test_ill_conditioned_block_matches_mpmath(self, seed):
        # with a block-diagonal right factor, user 0's block of (H^H H)^-1 has the
        # eigenvalues 1, 1e-4, 1e-8, so cond 1e8: the error is bounded by cond eps
        rng = np.random.default_rng(seed)
        right = np.zeros((6, 6), dtype=complex)
        right[:3, :3], right[3:, 3:] = haar_unitary(3, rng), haar_unitary(3, rng)
        values = np.array([1.0, 1e2, 1e4, 1.0, 1.0, 1.0])
        channel = channel_with_singular_values(rng, 8, [3, 3], values, right)
        expected = mpmath_covariance(channel, 10.0, 0)
        bound = np.linalg.cond(channel.gram_inverse_block(0)) * EPS
        assert largest_error(bc_covariance(channel, 10.0, 0), expected) <= bound


class TestBcExactUserRate:
    def test_interference_is_numerically_zero(self):
        channel = sample_channel(make_profile(5, [2, 2]), seed=3)
        solution = solve_bc(channel, 30.0)
        for k in range(2):
            h_k = channel.blocks[k]
            p_other = solution.precoders[1 - k]
            cross = h_k.conj().T @ p_other
            relative = (np.linalg.norm(cross) / (np.linalg.norm(h_k) * np.linalg.norm(p_other))) ** 2
            assert relative < 1e-18

    def test_converges_to_asymptotic_rate(self):
        channel = sample_channel(make_profile(5, [2, 2]), seed=3)
        for k in range(2):
            gaps = []
            for power in (1e2, 1e3, 1e4, 1e6):
                solution = solve_bc(channel, power)
                asym = asymptotic_user_rate(channel, power / 4, k)
                gaps.append(abs(solution.rates[k] - asym))
            assert all(b < a for a, b in zip(gaps, gaps[1:]))
            assert gaps[-1] < 1e-2

    def test_sum_rate_meets_the_uplink(self, checks):
        assert checks["bc_duality_rate_preservation"].passed

    @pytest.mark.parametrize("seed", range(3))
    def test_power_grid_matches_a_per_power_lu_evaluation(self, seed):
        # two antenna counts, so both user groups of the batched evaluation run
        channel = sample_channel(make_profile(6, [2, 1, 2]), seed=seed)
        directions = solve_bc(channel, 5.0).precoders
        gains = np.array([1e-3, 1.0, 1e2, 1e4])
        stacked = [d[None] for d in directions]
        rates = _bc_exact_rates(channel.profile, channel.composite[None], stacked, gains)[:, 0]
        assert rates.shape == (4, 3)
        for i, gain in enumerate(gains):
            for k, h_k in enumerate(channel.blocks):
                crosses = [h_k.conj().T @ (np.sqrt(gain) * d) for d in directions]
                noise = np.eye(h_k.shape[1]) + sum(
                    c @ c.conj().T for el, c in enumerate(crosses) if el != k
                )
                full = noise + crosses[k] @ crosses[k].conj().T
                expected = (np.linalg.slogdet(full)[1] - np.linalg.slogdet(noise)[1]) / np.log(2.0)
                assert rates[i, k] == pytest.approx(max(0.0, expected), rel=1e-12, abs=1e-12)
        for k in range(3):
            assert bc_exact_user_rate(channel, directions, k) == rates[1, k]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_precoder_is_rejected(self, bad):
        channel = sample_channel(make_profile(5, [2, 2]), seed=3)
        precoders = [p.copy() for p in solve_bc(channel, 30.0).precoders]
        precoders[1][0, 0] = bad
        with pytest.raises(ValidationError, match="precoder 1 has non-finite entries"):
            bc_exact_user_rate(channel, precoders, 0)


class TestEigenbasisOptimality:
    def test_eigenbasis_attains_equality(self):
        channel = sample_channel(make_profile(5, [2, 2]), seed=19)
        block = channel.gram_inverse_block(0)
        w = solve_bc(channel, 1.0).bases[0]
        squares = np.diagonal(hermitize(w.conj().T @ block @ w)).real
        slack = float(np.sum(np.log2(squares))) - logdet2_hpd(block)
        assert abs(slack) < 1e-9

    def test_scalar_block_always_equal(self):
        channel = sample_channel(make_profile(4, [1, 2]), seed=20)
        worst = _eigenbasis_slack(channel, 0, trials=20, seed=1)
        assert abs(worst) < 1e-9

    def test_random_bases_never_beat_the_eigenbasis(self, checks):
        assert checks["bc_eigenbasis_optimality"].passed


class TestBcSolutionInvariants:
    def test_invariants_on_random_channels(self, checks):
        assert checks["bc_solution_invariants"].passed
