import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from mimobc import (
    CorrelationModel,
    ValidationError,
    dual_mac_sum_capacity,
    make_profile,
    sample_channel,
    solve_bc,
)
from mimobc.baseline import waterfill
from mimobc.bc import asymptotic_receiver, bc_covariance
from mimobc.mac import (
    MacCovarianceSet,
    asymptotic_user_rate,
    dpc_asymptotic_sum_rate,
    optimal_power_split,
)
import mimobc._linalg as linalg_module
from mimobc._linalg import invert_lower, positive_finite, solve_hpd

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


def cholesky_stack(rng, count, size):
    """Cholesky factors of ``count`` well-conditioned random HPD matrices of one size."""
    return np.array([np.linalg.cholesky(random_hpd(rng, size)) for _ in range(count)])


class TestInvertLower:
    """The triangular inverse: forward substitution on stacks of at least r factors, else trtri."""

    @pytest.mark.parametrize(
        "count, size",
        [(200, 6), (6, 6), (7, 3), (3, 1), (1, 1), (5, 6), (1, 4), (1, 64), (2, 16)],
    )
    def test_matches_the_lu_inverse(self, count, size):
        factors = cholesky_stack(np.random.default_rng(count * 100 + size), count, size)
        inverse = invert_lower(factors)
        expected = np.linalg.inv(factors)
        assert inverse.shape == factors.shape and inverse.flags.c_contiguous
        for got, want in zip(inverse, expected):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            assert np.array_equal(got, np.tril(got))

    @pytest.mark.parametrize("count, size, lapack", [(6, 6, False), (40, 3, False), (5, 6, True)])
    def test_the_loop_follows_the_shorter_axis(self, monkeypatch, count, size, lapack):
        looked_up = []

        def lookup(names, arrays):
            looked_up.extend(names)
            return get_lapack_funcs(names, arrays)

        get_lapack_funcs = linalg_module.get_lapack_funcs
        monkeypatch.setattr(linalg_module, "get_lapack_funcs", lookup)
        invert_lower(cholesky_stack(np.random.default_rng(1), count, size))
        assert looked_up == (["trtri"] if lapack else [])

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
        factors = cholesky_stack(np.random.default_rng(9), 8, 3)
        for view in (factors[::2], factors[:1]):
            inverse = invert_lower(view)
            assert inverse.flags.c_contiguous
            assert inverse.view(np.float64).shape == (len(view), 3, 6)
            np.testing.assert_allclose(inverse, np.linalg.inv(view), rtol=1e-12, atol=0)


PROFILE = make_profile(5, [2, 2])
CHANNEL = sample_channel(PROFILE, seed=3)

#: Every entry point that takes a transmit power, power level or path gain.
POWER_ENTRY_POINTS = {
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
            lambda: MacCovarianceSet((block,)),
            lambda: waterfill(np.array([1.0, bad]), 3.0),
            lambda: waterfill(np.array([1.0, 2.0]), bad),
        ]
        for build in builders:
            with pytest.raises(ValidationError, match="non-finite"):
                build()

