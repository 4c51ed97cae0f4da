import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from mimobc._linalg import solve_hpd

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
