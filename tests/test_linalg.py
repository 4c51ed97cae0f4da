from fractions import Fraction

import numpy as np
import pytest

from mimobc import (
    CorrelationModel,
    ValidationError,
    derive_seed,
    dual_mac_sum_capacity,
    make_profile,
    monte_carlo_rate_loss,
    sample_channel,
    solve_bc,
)
from mimobc.baseline import generate_curves, waterfill
from mimobc.bc import asymptotic_receiver, bc_covariance, bc_exact_user_rate, mmse_receiver_exact
from mimobc.ergodic import (
    digamma_int,
    ergodic_block_logdet,
    ergodic_rate_loss_equal,
    power_offset_db,
    rate_loss_grid,
)
from mimobc.mac import (
    MacCovarianceSet,
    asymptotic_user_rate,
    dpc_asymptotic_sum_rate,
    optimal_power_split,
)
from mimobc._linalg import SUBSTITUTION_MAX_SIZE as CUTOFF
from mimobc._linalg import _INVERSE_BLOCK as BLOCK
from mimobc._linalg import integer, invert_lower, positive_finite
from mimobc.validation import random_hpd


def cholesky_stack(rng, count, size):
    """Cholesky factors of ``count`` well-conditioned random HPD matrices of one size."""
    factors = [np.linalg.cholesky(random_hpd(rng, size)) for _ in range(count)]
    return np.array(factors, dtype=complex).reshape(count, size, size)


class TestInvertLower:
    """The triangular inverse: forward substitution on stacks of at least r factors or of
    factors of at most ``SUBSTITUTION_MAX_SIZE``, else block forward substitution."""

    @pytest.mark.parametrize(
        "count, size",
        [(200, 6), (6, 6), (7, 3), (3, 1), (1, 1), (5, 6), (1, 4), (1, CUTOFF),
         (1, CUTOFF + 1), (1, 64), (2, 16), (1, 20), (1, 65), (6, 16)],
    )
    def test_matches_the_lu_inverse(self, count, size):
        # (1, 20) and (1, 65) end on a ragged diagonal block; every other factor of a
        # stack is a strided stack, of three r = 16 factors for (6, 16)
        factors = cholesky_stack(np.random.default_rng(count * 100 + size), count, size)
        for stack in (factors, factors[::2]):
            inverse = invert_lower(stack)
            expected = np.linalg.inv(stack)
            assert inverse.shape == stack.shape and inverse.flags.c_contiguous
            for got, want in zip(inverse, expected):
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
                assert np.array_equal(got, np.tril(got))

    @pytest.mark.parametrize(
        "count, size, blocked",
        [
            (6, 6, False),
            (40, 3, False),
            (5, 6, False),
            (1, CUTOFF, False),
            (1, CUTOFF + 1, True),
            (CUTOFF, CUTOFF + 1, True),
            (CUTOFF + 1, CUTOFF + 1, False),
            (2, 16, True),
            (1, 64, True),
            (3, 20, True),
            (0, 64, False),
        ],
    )
    def test_the_shape_rule_picks_the_loop(self, block_inverses, count, size, blocked):
        # blocks only for a stack shorter than r of factors larger than the cutoff, all
        # diagonal blocks in one LU call; an empty stack inverts nothing
        invert_lower(cholesky_stack(np.random.default_rng(1), count, size))
        blocks = -(-size // BLOCK)
        assert block_inverses == ([(count, blocks, BLOCK, BLOCK)] if blocked else [])

    @pytest.mark.parametrize("count", [0, 3, 12])
    def test_complex_diagonals(self, count):
        # QR factors R^H may carry complex or negative diagonals
        rng = np.random.default_rng(count)
        size = 4
        noise = rng.standard_normal((count, size, size)) + 1j * rng.standard_normal((count, size, size))
        phases = np.exp(2j * np.pi * rng.random((count, size)))
        factors = np.tril(noise, -1) + phases[..., None] * (2.0 + np.eye(size)) * np.eye(size)
        inverse = invert_lower(factors)
        assert inverse.shape == (count, size, size) and inverse.flags.c_contiguous
        for got, factor in zip(inverse, factors):
            assert np.linalg.norm(got - np.linalg.inv(factor)) <= 1e-12 * np.linalg.norm(got)
            assert np.allclose(got @ factor, np.eye(size), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("size", [1, 4, 64])
    def test_empty_stack(self, size):
        inverse = invert_lower(np.empty((0, size, size), dtype=complex))
        assert inverse.shape == (0, size, size) and inverse.dtype == complex
        assert inverse.flags.c_contiguous

    def test_contiguous_result_from_a_strided_stack(self):
        # at r = 16 both views are shorter than r: the block loop
        for size in (3, 16):
            factors = cholesky_stack(np.random.default_rng(9), 8, size)
            for view in (factors[::2], factors[:1]):
                inverse = invert_lower(view)
                assert inverse.flags.c_contiguous
                assert inverse.view(np.float64).shape == (len(view), size, 2 * size)
                np.testing.assert_allclose(inverse, np.linalg.inv(view), rtol=1e-12, atol=0)


PROFILE = make_profile(5, [2, 2])
CHANNEL = sample_channel(PROFILE, seed=3)

#: Every entry point that takes a transmit power, power level, path gain or solver tolerance.
POWER_ENTRY_POINTS = {
    "dual_mac_sum_capacity tolerance": lambda t: dual_mac_sum_capacity(CHANNEL, 10.0, t),
    "generate_curves tolerance": lambda t: generate_curves(
        PROFILE, None, [0.0], trials=2, tolerance=t
    ),
    "dual_mac_sum_capacity": lambda p: dual_mac_sum_capacity(CHANNEL, p),
    "asymptotic_receiver": lambda p: asymptotic_receiver(CHANNEL, p, 0),
    "bc_covariance": lambda p: bc_covariance(CHANNEL, p, 0),
    "solve_bc": lambda p: solve_bc(CHANNEL, p),
    "optimal_power_split": lambda p: optimal_power_split(PROFILE, p),
    "dpc_asymptotic_sum_rate": lambda p: dpc_asymptotic_sum_rate(CHANNEL, p),
    "MacCovarianceSet.uniform": lambda p: MacCovarianceSet.uniform(PROFILE, p),
    "asymptotic_user_rate": lambda p: asymptotic_user_rate(CHANNEL, p, 0),
    "CorrelationModel.scalar": lambda p: CorrelationModel.scalar(PROFILE, [1.0, p]),
}

#: Every entry point that takes an antenna count, a seed, a trial count or an iteration cap.
INTEGER_ENTRY_POINTS = {
    "make_profile N": lambda n: make_profile(n, [1]),
    "make_profile antennas": lambda r: make_profile(5, [r, 2]),
    "sample_channel seed": lambda s: sample_channel(PROFILE, seed=s),
    "derive_seed seed": lambda s: derive_seed(s, 0),
    "derive_seed index": lambda i: derive_seed(1, i),
    "dual_mac_sum_capacity max_iterations": lambda m: dual_mac_sum_capacity(
        CHANNEL, 10.0, max_iterations=m
    ),
    "monte_carlo_rate_loss trials": lambda t: monte_carlo_rate_loss(PROFILE, trials=t),
    "monte_carlo_rate_loss seed": lambda s: monte_carlo_rate_loss(PROFILE, trials=2, seed=s),
    "generate_curves trials": lambda t: generate_curves(PROFILE, None, [0.0], trials=t),
    "generate_curves seed": lambda s: generate_curves(PROFILE, None, [0.0], trials=2, seed=s),
    "generate_curves max_iterations": lambda m: generate_curves(
        PROFILE, None, [0.0], trials=2, max_iterations=m
    ),
    "digamma_int": digamma_int,
    "ergodic_rate_loss_equal users": lambda k: ergodic_rate_loss_equal(k, 2, 6),
    "ergodic_rate_loss_equal antennas": lambda r: ergodic_rate_loss_equal(2, r, 6),
    "ergodic_rate_loss_equal N": lambda n: ergodic_rate_loss_equal(1, 2, n),
    "power_offset_db antenna total": lambda r: power_offset_db(1.0, r),
    "rate_loss_grid antennas": lambda r: rate_loss_grid([((r, 2), 5)]),
    "rate_loss_grid N": lambda n: rate_loss_grid([((1,), n)]),
}

#: Every entry point that takes a user index.
USER_ENTRY_POINTS = {
    "mmse_receiver_exact": lambda k: mmse_receiver_exact(
        CHANNEL, MacCovarianceSet.uniform(PROFILE, 1.0), k
    ),
    "asymptotic_receiver": lambda k: asymptotic_receiver(CHANNEL, 1.0, k),
    "bc_covariance": lambda k: bc_covariance(CHANNEL, 1.0, k),
    "bc_exact_user_rate": lambda k: bc_exact_user_rate(
        CHANNEL, solve_bc(CHANNEL, 1.0).precoders, k
    ),
    "ergodic_block_logdet": lambda k: ergodic_block_logdet(PROFILE, None, k),
    "asymptotic_user_rate": lambda k: asymptotic_user_rate(CHANNEL, 1.0, k),
    "ChannelRealization.gram_inverse_block": lambda k: CHANNEL.gram_inverse_block(k),
    "CorrelationModel.block_logdet2": lambda k: CorrelationModel.identity(PROFILE).block_logdet2(k),
}

#: Every entry point that takes a finite number of either sign.
FINITE_ENTRY_POINTS = {
    "waterfill budget": lambda b: waterfill(np.array([1.0, 2.0]), b),
    "power_offset_db rate loss": lambda loss: power_offset_db(loss, 4),
}


class TestPositiveFinite:
    @pytest.mark.parametrize("power", [float("nan"), float("inf"), -1.0, 0.0])
    @pytest.mark.parametrize("entry", sorted(POWER_ENTRY_POINTS))
    def test_entry_point_rejects(self, entry, power):
        with pytest.raises(ValidationError, match="positive and finite"):
            POWER_ENTRY_POINTS[entry](power)

    @pytest.mark.parametrize("power", ["10", True, np.True_, None, 1j])
    @pytest.mark.parametrize("entry", sorted(POWER_ENTRY_POINTS))
    def test_entry_point_rejects_a_non_number(self, entry, power):
        # float() would take "10" and True
        with pytest.raises(ValidationError, match="must be a number"):
            POWER_ENTRY_POINTS[entry](power)

    def test_accepts_positive_values(self):
        assert positive_finite(np.float64(2.5), "power") == 2.5
        assert type(positive_finite(3, "power")) is float

    def test_weights_and_grid_points_are_numbers(self):
        with pytest.raises(ValidationError, match="weight must be a number, got '1'"):
            make_profile(5, [2, 2], ["1", 1])
        with pytest.raises(ValidationError, match="grid point must be a number, got True"):
            generate_curves(PROFILE, None, [True], trials=2)


class TestInteger:
    @pytest.mark.parametrize("value", [2.5, "2", True, np.True_, float("nan"), float("inf")])
    @pytest.mark.parametrize("entry", sorted(INTEGER_ENTRY_POINTS))
    def test_entry_point_rejects(self, entry, value):
        # int() would truncate 2.5 and take "2" and True
        with pytest.raises(ValidationError, match="must be an integer"):
            INTEGER_ENTRY_POINTS[entry](value)

    @pytest.mark.parametrize("value", [2, 2.0, np.int64(2), np.float64(2.0)])
    @pytest.mark.parametrize("entry", sorted(INTEGER_ENTRY_POINTS))
    def test_entry_point_accepts_an_integral_value(self, entry, value):
        INTEGER_ENTRY_POINTS[entry](value)

    def test_integral_values_are_the_same_int(self):
        for value in (2, 2.0, np.int64(2), np.float64(2.0), Fraction(4, 2)):
            assert type(integer(value, "n")) is int and integer(value, "n") == 2
        assert integer((1 << 64) - 1, "seed") == (1 << 64) - 1
        assert derive_seed(2.0, np.int64(3)) == derive_seed(2, 3)


class TestUserIndex:
    @pytest.mark.parametrize("user", [1.5, True, "0", np.True_, None])
    @pytest.mark.parametrize("entry", sorted(USER_ENTRY_POINTS))
    def test_entry_point_rejects(self, entry, user):
        with pytest.raises(ValidationError, match="user index must be an integer"):
            USER_ENTRY_POINTS[entry](user)

    @pytest.mark.parametrize("user", [1, 1.0, np.int64(1)])
    @pytest.mark.parametrize("entry", sorted(USER_ENTRY_POINTS))
    def test_entry_point_accepts_an_integral_value(self, entry, user):
        assert np.all(np.asarray(USER_ENTRY_POINTS[entry](user)) == USER_ENTRY_POINTS[entry](1))


class TestFiniteNumber:
    @pytest.mark.parametrize("value", ["1", True, np.True_, None, 1j])
    @pytest.mark.parametrize("entry", sorted(FINITE_ENTRY_POINTS))
    def test_entry_point_rejects_a_non_number(self, entry, value):
        with pytest.raises(ValidationError, match="must be a number"):
            FINITE_ENTRY_POINTS[entry](value)

    @pytest.mark.parametrize("loss", [float("nan"), float("inf"), -float("inf")])
    def test_rate_loss_is_finite(self, loss):
        with pytest.raises(ValidationError, match="rate loss is non-finite"):
            power_offset_db(loss, 4)


class TestFiniteMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_correlation_and_covariance_entries(self, bad):
        block = np.eye(2, dtype=complex)
        block[1, 1] = bad
        builders = [
            lambda: CorrelationModel([np.eye(1), block]),
            lambda: MacCovarianceSet([block]),
            lambda: waterfill(np.array([1.0, bad]), 3.0),
            lambda: waterfill(np.array([1.0, 2.0]), bad),
        ]
        for build in builders:
            with pytest.raises(ValidationError, match="non-finite"):
                build()

