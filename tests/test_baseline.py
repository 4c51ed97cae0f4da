import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mimobc.baseline
import mimobc.bc
import mimobc.channel
from mimobc import (
    ChannelRealization,
    CorrelationModel,
    NumericalRankError,
    ValidationError,
    derive_seed,
    dual_mac_sum_capacity,
    make_profile,
    sample_channel,
    solve_bc,
)
from mimobc._linalg import haar_unitary, hermitize, power_from_db
from mimobc.baseline import _objective, generate_curves, waterfill

#: 60-digit arithmetic for the references, apart from the global mpmath context.
_MP = mpmath.MPContext()
_MP.dps = 60


def count_calls(monkeypatch, module, name: str) -> list:
    """Record every call of ``module.name``, replaced in each ``mimobc`` namespace holding it."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for holder in [m for key, m in sys.modules.items() if key.split(".")[0] == "mimobc"]:
        for key, value in list(vars(holder).items()):
            if value is original:
                monkeypatch.setattr(holder, key, counting)
    return calls


def mp_logdet2(a) -> float:
    """log2 |det a| of a matrix given as an mpmath matrix."""
    return float(_MP.log(abs(_MP.det(a)), 2))


def mp_matrix(a: np.ndarray):
    """The float matrix ``a`` as an exact mpmath matrix."""
    return _MP.matrix([[_MP.mpc(complex(x)) for x in row] for row in np.atleast_2d(a)])


def gram_with_condition(condition: float, seed: int) -> np.ndarray:
    """A 4 x 4 Hermitian Gram matrix with eigenvalues spread evenly in log from 1 to ``condition``."""
    u = haar_unitary(4, np.random.default_rng(seed))
    return hermitize((u * np.geomspace(1.0, condition, 4)) @ u.conj().T)


def block_covariance(power: float, seed: int) -> np.ndarray:
    """A composite covariance with two random PSD 2 x 2 blocks and trace ``power``."""
    rng = np.random.default_rng(seed)
    q = np.zeros((4, 4), dtype=complex)
    for sl in (slice(0, 2), slice(2, 4)):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q[sl, sl] = z @ z.conj().T
    return hermitize(q * (power / np.trace(q).real))


class TestWaterfill:
    def test_single_channel_takes_everything(self):
        np.testing.assert_allclose(waterfill(np.array([2.0]), 5.0), [5.0])

    def test_equal_gains_split_evenly(self):
        np.testing.assert_allclose(waterfill(np.array([1.0, 1.0, 1.0]), 6.0), [2.0, 2.0, 2.0])

    def test_weak_channel_shut_off(self):
        powers = waterfill(np.array([10.0, 0.01]), 0.5)
        assert powers[1] == 0.0
        assert powers[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("budget", [0.0, -1.0])
    def test_nonpositive_budget_gives_zeros(self, budget):
        assert not waterfill(np.array([1.0, 2.0]), budget).any()

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


@st.composite
def waterfill_cases(draw):
    unit = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))
    gains = np.array(draw(st.lists(unit, min_size=1, max_size=12)))
    scale = 10.0 ** draw(st.integers(-12, 12))
    return gains * scale, draw(st.floats(1e-6, 1e6))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(waterfill_cases())
def test_waterfill_meets_the_kkt_conditions(case):
    gains, budget = case
    powers = waterfill(gains, budget)
    usable = gains > 0.0
    assert np.all(powers[~usable] == 0.0)
    assert np.all(powers >= 0.0)
    if not usable.any():
        return
    active = powers > 0.0
    levels = powers[active] + 1.0 / gains[active]
    level = float(levels.max()) if active.any() else float(np.min(1.0 / gains[usable]))
    # rounding of the prefix sums and of level - 1/g, in float64
    tol = 4.0 * gains.size**2 * np.finfo(float).eps * max(level, budget)
    assert abs(powers.sum() - budget) <= tol
    np.testing.assert_allclose(levels, level, rtol=0.0, atol=tol)
    inactive = usable & ~active
    assert np.all(1.0 / gains[inactive] >= level - tol)


def numpy_waterfill(gains: np.ndarray, budget: float) -> np.ndarray:
    """``waterfill`` as numpy sort and cumsum, the arithmetic the Python-float loop keeps."""
    gains = np.asarray(gains, dtype=float)
    budget = float(budget)
    powers = np.zeros_like(gains)
    usable = gains > 0.0
    if budget <= 0 or not usable.any():
        return powers
    inverse = 1.0 / gains[usable]
    ascending = np.sort(inverse)
    levels = (budget + ascending.cumsum()) / np.arange(1, ascending.size + 1)
    valid = (levels > ascending).nonzero()[0]
    level = levels[valid[-1] if valid.size else 0]
    powers[usable] = np.maximum(0.0, level - inverse)
    return powers


@st.composite
def wide_waterfill_cases(draw):
    gain = st.one_of(
        st.just(0.0),
        # a subnormal gain's inverse overflows: the NaN power of inf - inf must match too
        st.just(5e-324),
        st.floats(1e-12, 1e12),
        st.floats(-1e12, -1e-12),
        st.integers(-12, 12).map(lambda e: 10.0**e),
    )
    gains = np.array(draw(st.lists(gain, min_size=1, max_size=64)))
    budget = draw(st.one_of(st.just(0.0), st.floats(-1.0, 1e14), st.sampled_from([1e-300, 1e14])))
    return gains, budget


@settings(derandomize=True, max_examples=500, deadline=None)
@given(wide_waterfill_cases())
def test_waterfill_is_bit_identical_to_the_numpy_form(case):
    gains, budget = case
    powers = waterfill(gains, budget)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = numpy_waterfill(gains, budget)
    assert powers.dtype == expected.dtype and powers.shape == expected.shape
    assert powers.tobytes() == expected.tobytes()


class TestGramFormAccuracy:
    """The r x r objective and the solver's sum rate against 60-digit references."""

    @pytest.mark.parametrize("power_db", [0.0, 40.0, 100.0, 140.0])
    @pytest.mark.parametrize(
        "condition, relative", [(1e2, 1e-10), (1e6, 1e-10), (1e9, 1e-6), (1e11, 1e-6)]
    )
    def test_objective_matches_mpmath(self, condition, relative, power_db):
        for seed in range(3):
            gram = gram_with_condition(condition, seed)
            q = block_covariance(10.0 ** (power_db / 10.0), seed)
            reference = mp_logdet2(_MP.eye(4) + mp_matrix(q) * mp_matrix(gram))
            value = float(_objective(gram, q))
            assert abs(value - reference) <= relative * max(1.0, abs(reference))
            # the stacked evaluation of the line search gives the same values
            assert _objective(gram, np.stack([q, q]))[1] == value

    @pytest.mark.parametrize("power_db", [60.0, 100.0, 140.0])
    def test_objective_of_a_channel_with_spare_antennas_matches_mpmath(self, power_db):
        # with N > r, I_N + H Q H^H keeps N - r unit eigenvalues next to ones
        # near the power; an N x N log-determinant loses bits there, the r x r
        # form does not
        profile = make_profile(5, [2, 2])
        for seed in range(5):
            channel = sample_channel(profile, seed=seed)
            q = block_covariance(10.0 ** (power_db / 10.0), seed)
            x = _MP.eye(5)
            for h, sl in zip(channel.blocks, profile.block_slices):
                x += mp_matrix(h) * mp_matrix(q[sl, sl]) * mp_matrix(h.conj().T)
            reference = mp_logdet2(x)
            assert abs(float(_objective(channel.gram, q)) - reference) <= 1e-10 * abs(reference)

    @pytest.mark.parametrize("power_db", [60.0, 100.0, 140.0])
    def test_sum_rate_is_the_objective_at_the_returned_covariances(self, seeded_channel, power_db):
        result = dual_mac_sum_capacity(seeded_channel, 10.0 ** (power_db / 10.0))
        n = seeded_channel.profile.base_antennas
        x = _MP.eye(n)
        for h, q in zip(seeded_channel.blocks, result.covariances.covariances):
            x += mp_matrix(h) * mp_matrix(q) * mp_matrix(h.conj().T)
        reference = mp_logdet2(x)
        assert abs(result.sum_rate_bits - reference) <= 1e-10 * abs(reference)


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

    def test_rank_deficient_channel_is_solved(self):
        profile = make_profile(5, [2, 2])
        h = sample_channel(profile, seed=30).composite.copy()
        h[:, 2] = h[:, 0]  # user 1 repeats a column of user 0
        channel = ChannelRealization(profile, [h[:, sl] for sl in profile.block_slices])
        with pytest.raises(NumericalRankError):
            channel.require_full_rank()
        result = dual_mac_sum_capacity(channel, 10.0)
        assert result.converged
        x = np.eye(5) + sum(
            hk @ q @ hk.conj().T for hk, q in zip(channel.blocks, result.covariances.covariances)
        )
        reference = np.linalg.slogdet(x)[1] / np.log(2.0)
        assert abs(result.sum_rate_bits - reference) <= 1e-10 * max(1.0, abs(reference))

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

    def test_reports_the_largest_gap_and_iteration_count_per_point(self, fig_setup):
        profile, correlation = fig_setup
        grid = [0.0, 20.0]
        points = generate_curves(profile, correlation, grid, trials=3, seed=6)
        for point, p_db in zip(points, grid):
            results = [
                dual_mac_sum_capacity(sample_channel(profile, correlation, derive_seed(6, t)),
                                      10.0 ** (p_db / 10.0))
                for t in range(3)
            ]
            assert point.max_iterations == max(r.iterations for r in results)
            assert point.max_gap_bits == max(r.optimality_gap_bits for r in results)

    def test_deterministic_given_seed(self, fig_setup):
        profile, correlation = fig_setup
        first = generate_curves(profile, correlation, [10.0, 20.0], trials=3, seed=5)
        second = generate_curves(profile, correlation, [10.0, 20.0], trials=3, seed=5)
        assert first == second

    def test_calls_the_solver_once_per_trial_and_power(self, fig_setup, monkeypatch):
        # the counts a per-function tracer of the curves workload relies on
        profile, correlation = fig_setup
        calls = {
            name: count_calls(monkeypatch, module, name)
            for module, name in [
                (mimobc.baseline, "dual_mac_sum_capacity"),
                (mimobc.baseline, "_certified_gap"),
                (mimobc.baseline, "_objective"),
                (mimobc.baseline, "waterfill"),
                (mimobc.channel, "_sample_blocks"),
                (mimobc.bc, "bc_covariance"),
            ]
        }
        grid = [float(p) for p in range(0, 41, 5)]
        generate_curves(profile, correlation, grid, trials=3, seed=1)
        counts = {name: len(made) for name, made in calls.items()}
        # each solve scores its start and waterfills at least once, so the
        # tracer's objective, waterfill and gap layers never read 0
        assert counts["_objective"] >= 27 and counts["waterfill"] >= 27
        del counts["_objective"], counts["waterfill"]
        assert counts == {
            "dual_mac_sum_capacity": 27, "_certified_gap": 27, "_sample_blocks": 3,
            "bc_covariance": 0,
        }

    @pytest.mark.parametrize(
        "base, antennas", [(5, (2, 2)), (6, (2, 1, 2)), (6, (1, 4)), (12, (4, 3, 3))]
    )
    def test_linear_rate_is_the_mean_of_the_per_channel_bd_sum_rates(self, base, antennas):
        profile = make_profile(base, antennas)
        correlation = CorrelationModel.scalar(profile, np.linspace(1.0, 2.0, len(antennas)))
        grid = [0.0, 20.0, 40.0]
        trials = 12
        points = generate_curves(profile, correlation, grid, trials=trials, seed=2)
        channels = [sample_channel(profile, correlation, derive_seed(2, t)) for t in range(trials)]
        for point in points:
            power = power_from_db(point.power_db)
            expected = np.mean([solve_bc(c, power).sum_rate for c in channels])
            assert point.linear_bd_sum_rate == pytest.approx(expected, rel=1e-12)

    def test_rank_deficient_trial_is_named(self, fig_setup, monkeypatch):
        profile, correlation = fig_setup
        draw = mimobc.baseline._sample_blocks

        def duplicate_a_column(profile, correlation, seed):
            h = draw(profile, correlation, seed)
            if seed == derive_seed(4, 66):
                h[:, 2] = h[:, 0]
            return h

        monkeypatch.setattr("mimobc.baseline._sample_blocks", duplicate_a_column)
        # trial 66 falls in the second stack of trials
        with pytest.raises(NumericalRankError, match="^trial 66: Gram matrix condition number"):
            generate_curves(profile, correlation, [10.0], trials=70, seed=4)
        # a flagged stack stops even when the trial alone passes the rank check
        monkeypatch.setattr(ChannelRealization, "require_full_rank", lambda channel: None)
        with pytest.raises(NumericalRankError, match="^trial 66: Gram matrix is rank deficient"):
            generate_curves(profile, correlation, [10.0], trials=70, seed=4)

    def test_builds_no_transmit_covariance(self, fig_setup, monkeypatch):
        # the BD rate needs only the precoder directions, never the covariances
        profile, correlation = fig_setup
        expected = generate_curves(profile, correlation, [10.0, 20.0], trials=2, seed=4)

        def fail(*args):
            raise AssertionError("generate_curves built a BD transmit covariance")

        monkeypatch.setattr("mimobc.bc.bc_covariance", fail)
        assert generate_curves(profile, correlation, [10.0, 20.0], trials=2, seed=4) == expected

    def test_power_bound_of_the_bd_rate(self, fig_setup):
        # unbounded, linear_exact - linear_affine read 2.405 to 250 dB and -3,567 at 3,000 dB
        profile, correlation = fig_setup
        for grid in ([300.0], [0.0, 160.5]):
            with pytest.raises(ValidationError, match="above 160 dB"):
                generate_curves(profile, correlation, grid, trials=2, seed=1)
        (point,) = generate_curves(profile, correlation, [160.0], trials=3, seed=1)
        asymptotes = [
            4 * np.log2(1e16 / 4)
            - sum(sample_channel(profile, correlation, derive_seed(1, t)).inverse_block_logdet2)
            for t in range(3)
        ]
        assert abs(point.linear_bd_sum_rate - np.mean(asymptotes)) <= 1e-9

    def test_rejects_bad_grid(self, fig_setup):
        profile, correlation = fig_setup
        with pytest.raises(ValidationError):
            generate_curves(profile, correlation, [], trials=2, seed=1)
        with pytest.raises(ValidationError):
            generate_curves(profile, correlation, [10.0, 10.0], trials=2, seed=1)
