"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass line with the measured margin; run with
``pytest tests/test_acceptance.py -v -s`` to see them.  Monte Carlo
criteria use frozen master seeds, so every run is a deterministic
reproduction of a verified statistical outcome.  Criteria that are
invariant checks of ``mimobc.validation`` assert on that check's result.
"""

import time

import numpy as np
import pytest

from mimobc import (
    CorrelationModel,
    make_profile,
    power_offset_db,
    sample_channel,
    solve_bc,
)
from mimobc.baseline import generate_curves
from mimobc.ergodic import rate_loss_grid
from mimobc.mac import MacCovarianceSet, asymptotic_rate_report, exact_rate_report
from mimobc.validation import check_ergodic_mc_agreement

from reference_table import REFERENCE_RATE_LOSS


def report(criterion: int, message: str) -> None:
    print(f"[criterion {criterion:2d}] PASS  {message}")


def assert_checks(checks, criterion: int, *names: str) -> None:
    for name in names:
        result = checks[name]
        assert result.passed, result.detail
        report(criterion, f"{name}: {result.detail}")


def test_criterion_01_reference_table_reproduction():
    """Closed forms reproduce every populated reference cell to three decimals, fast."""
    start = time.monotonic()
    cells = {
        (c.user_antennas, c.base_antennas): c.rate_loss_bits
        for c in rate_loss_grid()
        if c.rate_loss_bits is not None
    }
    elapsed = time.monotonic() - start
    assert set(cells) == set(REFERENCE_RATE_LOSS)
    worst = max(abs(cells[key] - printed) for key, printed in REFERENCE_RATE_LOSS.items())
    assert worst <= 5e-4
    assert elapsed < 1.0
    report(1, f"{len(cells)} populated cells, worst error {worst:.2e} bits, {elapsed * 1e3:.0f} ms")


def test_criterion_02_special_case_algebra(checks):
    """The equal-antenna corollary matches the general form within 1e-12.

    Covers up to four users of up to three antennas each and up to seven
    single-antenna users, at every N from the antenna total to 14.
    """
    assert_checks(checks, 2, "ergodic_special_cases")


def test_criterion_03_monte_carlo_vs_closed_form():
    """MC mean within 3 standard errors of the closed form for every populated cell.

    At least 1e4 trials per cell, 1e5 where N = r, through ``check_ergodic_mc_agreement``.
    """
    start = time.monotonic()
    margin, detail = check_ergodic_mc_agreement(10_000, seed=1)
    elapsed = time.monotonic() - start
    assert margin > 0.0, detail  # strictly inside 3 standard errors
    assert elapsed < 300.0
    report(3, f"ergodic_mc_agreement: {detail}, margin {margin:.3f}, {elapsed:.1f} s")


def test_criterion_04_rate_identity_equivalence(checks):
    """The Gram-form uplink rate agrees with an N x N reference on randomized instances."""
    assert_checks(checks, 4, "mac_gram_form_equivalence")


def test_criterion_05_duality_bd_construction(checks):
    """Downlink solution invariants on 1000 random channels with up to 8 antennas."""
    assert_checks(checks, 5, "bc_solution_invariants")


def test_criterion_06_asymptotic_convergence():
    """Exact downlink and uplink sums approach the affine expression monotonically."""
    profile = make_profile(5, [2, 2])
    channel = sample_channel(profile, seed=3)
    grid = (1e2, 1e3, 1e4, 1e6)
    bc_gaps = []
    mac_gaps = []
    for power in grid:
        asymptote = asymptotic_rate_report(channel, power).weighted_sum
        bc_gaps.append(abs(solve_bc(channel, power).sum_rate - asymptote))
        uniform = MacCovarianceSet.uniform(profile, power)
        mac_sum = exact_rate_report(channel, uniform).sum_rate
        mac_gaps.append(abs(mac_sum - asymptote))
    for gaps in (bc_gaps, mac_gaps):
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-2
    report(
        6,
        f"downlink gap {bc_gaps[0]:.1e} -> {bc_gaps[-1]:.1e}, "
        f"uplink gap {mac_gaps[0]:.1e} -> {mac_gaps[-1]:.1e} bits over the power grid",
    )


def test_criterion_07_reference_curve_regime():
    """Scaled reference-curve check: affine tightness from 20 dB, gap and offset at 40 dB."""
    profile = make_profile(5, [2, 2])
    correlation = CorrelationModel([np.eye(2), 2.0 * np.eye(2)])
    points = generate_curves(
        profile, correlation, [20.0, 25.0, 30.0, 35.0, 40.0], trials=200, seed=16
    )
    worst_affine = 0.0
    for p in points:
        worst_affine = max(
            worst_affine,
            abs(p.dpc_exact - p.dpc_affine),
            abs(p.linear_exact - p.linear_affine),
        )
    assert worst_affine <= 0.15
    gap = points[-1].dpc_exact - points[-1].linear_exact
    assert gap == pytest.approx(2.04, abs=0.15)
    offset = power_offset_db(gap, profile.total_antennas)
    assert offset == pytest.approx(1.54, abs=0.12)
    report(
        7,
        f"worst affine distance {worst_affine:.3f} bits (limit 0.15), "
        f"40 dB gap {gap:.3f} bits, power offset {offset:.3f} dB",
    )


def test_criterion_08_inequality_properties(checks):
    """Rate loss never negative; DPC never below linear; waterfilling monotone."""
    assert_checks(checks, 8, "mac_rate_loss_nonnegative", "baseline_monotone_and_bounds")


def test_criterion_09_correlation_invariance(checks):
    """Shaping by any correlation leaves the instantaneous rate loss untouched."""
    assert_checks(checks, 9, "mac_correlation_invariance")


def test_criterion_10_qualitative_antenna_tradeoff(checks):
    """Two three-antenna users lose about 65 percent of three two-antenna users."""
    assert_checks(checks, 10, "ergodic_qualitative_ratio")
