import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from mimobc import (
    CorrelationModel,
    MacCovarianceSet,
    ValidationError,
    asymptotic_receiver,
    asymptotic_user_rate,
    bc_covariance,
    bc_precoder,
    dpc_asymptotic_sum_rate,
    dual_mac_sum_capacity,
    make_profile,
    optimal_power_split,
    sample_channel,
    solve_bc,
)
from mimobc._linalg import positive_finite, solve_hpd

from conftest import random_hpd


class TestSolveHpd:
    def test_matches_scipy_cholesky_solve(self):
        rng = np.random.default_rng(3)
        for size in range(1, 9):
            a = random_hpd(rng, size)
            b = rng.standard_normal((size, 3)) + 1j * rng.standard_normal((size, 3))
            for rhs in (b, b[:, 0], b.real):
                expected = cho_solve(cho_factor(a), rhs)
                assert solve_hpd(a, rhs).tobytes() == expected.tobytes()

    def test_non_finite_input_raises_value_error(self):
        a = np.eye(3, dtype=complex)
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_hpd(np.where(np.eye(3) > 0, np.nan, 0.0), np.ones(3))
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_hpd(a, np.array([1.0, np.inf, 0.0]))

    def test_indefinite_matrix_raises_linalg_error(self):
        a = np.diag([1.0, -1.0, 2.0]).astype(complex)
        with pytest.raises(np.linalg.LinAlgError, match="2-th leading minor"):
            solve_hpd(a, np.eye(3))


PROFILE = make_profile(5, [2, 2])
CHANNEL = sample_channel(PROFILE, seed=3)

#: Every entry point that takes a transmit power, power level or path gain.
POWER_ENTRY_POINTS = {
    "dual_mac_sum_capacity": lambda p: dual_mac_sum_capacity(CHANNEL, p),
    "asymptotic_receiver": lambda p: asymptotic_receiver(CHANNEL, p, 0),
    "bc_precoder": lambda p: bc_precoder(CHANNEL, p, 0),
    "bc_covariance": lambda p: bc_covariance(CHANNEL, p, 0),
    "solve_bc": lambda p: solve_bc(CHANNEL, p),
    "optimal_power_split": lambda p: optimal_power_split(PROFILE, p),
    "dpc_asymptotic_sum_rate": lambda p: dpc_asymptotic_sum_rate(CHANNEL, p),
    "MacCovarianceSet.uniform": lambda p: MacCovarianceSet.uniform(PROFILE, p),
    "asymptotic_user_rate": lambda p: asymptotic_user_rate(CHANNEL, p, 0),
    "CorrelationModel.scalar": lambda p: CorrelationModel.scalar(PROFILE, [1.0, p]),
}


class TestPositiveFinite:
    @pytest.mark.parametrize("power", [float("nan"), float("inf"), -1.0, 0.0])
    @pytest.mark.parametrize("entry", sorted(POWER_ENTRY_POINTS))
    def test_entry_point_rejects(self, entry, power):
        with pytest.raises(ValidationError, match="positive and finite"):
            POWER_ENTRY_POINTS[entry](power)

    def test_accepts_positive_values(self):
        assert positive_finite(np.float64(2.5), "power") == 2.5
        assert type(positive_finite(3, "power")) is float


class TestFiniteMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_correlation_and_covariance_entries(self, bad):
        block = np.eye(2, dtype=complex)
        block[1, 1] = bad
        builders = [
            lambda: CorrelationModel.from_blocks([np.eye(1), block]),
            lambda: MacCovarianceSet.from_covariances([block]),
            lambda: MacCovarianceSet.from_factors([block]),
            lambda: MacCovarianceSet((block,), (np.eye(2),)),
            lambda: MacCovarianceSet((np.eye(2),), (block,)),
        ]
        for build in builders:
            with pytest.raises(ValidationError, match="non-finite"):
                build()
