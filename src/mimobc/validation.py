"""Executable self-check suite covering every library invariant.

Each check returns a named result with a normalized margin: 1.0 means the
worst observed case sat at zero error, 0.0 means it sat exactly at the
tolerance, negative means failure.  The `validate` CLI subcommand runs all
checks and exits nonzero when any fails; the test suite asserts on the same
results, so every invariant has this one implementation.  ``check_<name>``
reports its result under ``<name>``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from math import log2, sqrt

import numpy as np

from ._linalg import haar_unitary, hermitize, logdet2_hpd
from .baseline import dual_mac_sum_capacity, generate_curves, waterfill
from .bc import bc_covariance, solve_bc
from .channel import (
    ChannelRealization,
    CorrelationModel,
    block_index_range,
    derive_seed,
    make_profile,
    sample_channel,
)
from .ergodic import (
    default_trials,
    ergodic_dpc_logdet,
    ergodic_block_logdet,
    ergodic_rate_loss,
    ergodic_rate_loss_equal,
    monte_carlo_rate_loss,
    rate_loss_grid,
)
from .mac import (
    MacCovarianceSet,
    asymptotic_user_rate,
    asymptotic_weighted_sum_rate,
    dpc_asymptotic_sum_rate,
    exact_rate_report,
    instantaneous_rate_loss,
    optimal_power_split,
)

__all__ = ["run_all_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str


def _margin(tolerance: float, error: float) -> float:
    """Normalized margin of an error against its bound; a zero bound admits no error."""
    if tolerance == 0.0:
        return 1.0 if error <= 0.0 else -1.0
    return (tolerance - error) / tolerance


def _tolerance_result(name: str, tolerance: float, worst: float, detail: str) -> CheckResult:
    margin = _margin(tolerance, worst)
    return CheckResult(name, margin >= 0.0, margin, detail)


def _worst_facet(name: str, facets) -> CheckResult:
    """Result of the facet with the smallest margin; facets are (label, tolerance, error, where)."""
    margin, label, tolerance, error, where = min(
        (_margin(tol, err), label, tol, err, where) for label, tol, err, where in facets
    )
    return CheckResult(
        name, margin >= 0.0, float(margin),
        f"{label} error {error:.3e} at tolerance {tolerance:.1e} ({where})",
    )


def random_profile(rng: np.random.Generator):
    """Random feasible profile: one to three users of one to three antennas, N <= 8."""
    num_users = int(rng.integers(1, 4))
    antennas = [int(rng.integers(1, 4)) for _ in range(num_users)]
    total = sum(antennas)
    if total > 8:
        return random_profile(rng)
    slack = int(rng.integers(0, 8 - total + 1))
    return make_profile(total + slack, antennas)


def random_hpd(rng: np.random.Generator, size: int, ridge: float = 0.5) -> np.ndarray:
    """Random Hermitian positive-definite matrix with a spectral floor of ``ridge``."""
    z = rng.standard_normal((size, size + 2)) + 1j * rng.standard_normal((size, size + 2))
    return hermitize(z @ z.conj().T / (size + 2)) + ridge * np.eye(size)


def _random_correlation(profile, rng: np.random.Generator) -> CorrelationModel:
    return CorrelationModel.from_blocks([random_hpd(rng, r) for r in profile.user_antennas])


def check_channel_determinism(seed: int) -> CheckResult:
    profile = make_profile(5, [2, 2])
    ok = True
    for correlation in (None, CorrelationModel.scalar(profile, [1.0, 2.0])):
        first = sample_channel(profile, correlation, seed)
        again = sample_channel(profile, correlation, seed)
        following = sample_channel(profile, correlation, seed + 1)
        ok = ok and all(np.array_equal(a, b) for a, b in zip(first.blocks, again.blocks))
        ok = ok and not np.array_equal(first.blocks[0], following.blocks[0])
    return CheckResult(
        "channel_determinism", ok, 1.0 if ok else -1.0,
        "same seed reproduces bit-identical channel blocks and seed + 1 draws new ones, "
        "with and without correlation",
    )


def check_channel_sqrt_roundtrip(seed: int) -> CheckResult:
    rng = np.random.default_rng(derive_seed(seed, 101))
    roundtrip = hermitian = 0.0
    for _ in range(50):
        sizes = rng.integers(1, 5, size=int(rng.integers(1, 4)))
        correlation = CorrelationModel.from_blocks([random_hpd(rng, int(r)) for r in sizes])
        for c, root in zip(correlation.blocks, correlation.sqrt_blocks):
            roundtrip = max(roundtrip, float(np.linalg.norm(root @ root - c)))
            hermitian = max(hermitian, float(np.linalg.norm(root - root.conj().T)))
    where = "Frobenius norm, 50 models of 1-3 blocks sized 1-4"
    return _worst_facet(
        "channel_sqrt_roundtrip",
        [
            ("C^(1/2) C^(1/2) - C", 1e-10, roundtrip, where),
            ("C^(1/2) - C^(1/2)^H", 1e-12, hermitian, where),
        ],
    )


def check_channel_composite_assembly(seed: int) -> CheckResult:
    rng = np.random.default_rng(derive_seed(seed, 102))
    ok = True
    for _ in range(20):
        profile = random_profile(rng)
        channel = sample_channel(profile, None, int(rng.integers(0, 2**32)))
        for k in range(profile.num_users):
            sl = block_index_range(profile, k)
            ok = ok and np.array_equal(channel.composite[:, sl], channel.blocks[k])
    return CheckResult(
        "channel_composite_assembly", ok, 1.0 if ok else -1.0,
        "composite column blocks equal the per-user matrices exactly",
    )


def check_channel_second_moment(seed: int) -> CheckResult:
    profile = make_profile(6, [3, 3])
    correlation = CorrelationModel.scalar(profile, [4.0, 4.0])
    entries = []
    for t in range(400):
        channel = sample_channel(profile, correlation, derive_seed(seed, 20_000 + t))
        entries.append(np.abs(channel.composite) ** 2)
    mean = float(np.mean(entries))
    deviation = abs(mean - 4.0) / 4.0
    return _tolerance_result(
        "channel_second_moment", 0.05, deviation,
        f"mean |entry|^2 = {mean:.4f} for target 4.0 over {400 * 36} entries",
    )


def _direct_user_rate(channel, covariances, user: int) -> float:
    """N x N reference for one user's exact uplink rate, independent of the library's r x r form.

    log2 |I + sum_l H_l Q_l H_l^H| - log2 |I + sum_{l != k} H_l Q_l H_l^H|,
    as a difference of Cholesky log-determinants, clamped at 0.
    """
    other = np.eye(channel.profile.base_antennas, dtype=complex)
    for k, (h, q) in enumerate(zip(channel.blocks, covariances.covariances)):
        if k != user:
            other += h @ q @ h.conj().T
    h_k = channel.blocks[user]
    full = other + h_k @ covariances.covariances[user] @ h_k.conj().T
    return max(0.0, logdet2_hpd(hermitize(full)) - logdet2_hpd(hermitize(other)))


def check_mac_gram_form_equivalence(seed: int) -> CheckResult:
    rng = np.random.default_rng(derive_seed(seed, 103))
    worst = 0.0
    for _ in range(120):
        profile = random_profile(rng)
        channel = sample_channel(profile, None, int(rng.integers(0, 2**32)))
        covariances = MacCovarianceSet.from_covariances(
            [rng.uniform(0.1, 10.0) * random_hpd(rng, r, ridge=0.0) for r in profile.user_antennas]
        )
        gram = exact_rate_report(channel, covariances).rates
        for k in range(profile.num_users):
            worst = max(worst, abs(_direct_user_rate(channel, covariances, k) - gram[k]))
    return _tolerance_result(
        "mac_gram_form_equivalence", 1e-10, worst,
        f"worst |direct - Gram form| over 120 instances: {worst:.3e}",
    )


def check_mac_rate_loss_nonnegative(seed: int) -> CheckResult:
    rng = np.random.default_rng(derive_seed(seed, 104))
    lowest = np.inf
    for _ in range(1000):
        profile = random_profile(rng)
        channel = sample_channel(profile, None, int(rng.integers(0, 2**32)))
        lowest = min(lowest, instantaneous_rate_loss(channel))
    worst = max(0.0, -lowest)
    return _tolerance_result(
        "mac_rate_loss_nonnegative", 1e-10, worst,
        f"lowest rate loss over 1000 channels: {lowest:.3e}",
    )


def check_mac_correlation_invariance(seed: int) -> CheckResult:
    if list(inspect.signature(ergodic_rate_loss).parameters) != ["profile"]:
        return CheckResult(
            "mac_correlation_invariance", False, -1.0,
            "the ergodic rate loss accepts a correlation input",
        )
    rng = np.random.default_rng(derive_seed(seed, 105))
    worst = 0.0
    for _ in range(300):
        profile = random_profile(rng)
        plain = sample_channel(profile, None, int(rng.integers(0, 2**32)))
        loss = instantaneous_rate_loss(plain)
        correlation = _random_correlation(profile, rng)
        # shape by the Hermitian roots and by the Cholesky factors
        for roots in (
            correlation.sqrt_blocks,
            [np.linalg.cholesky(c) for c in correlation.blocks],
        ):
            shaped = ChannelRealization.from_blocks(
                profile, [h @ root for h, root in zip(plain.blocks, roots)]
            )
            worst = max(worst, abs(loss - instantaneous_rate_loss(shaped)))
    return _tolerance_result(
        "mac_correlation_invariance", 1e-9, worst,
        f"worst per-realization shift of the rate loss under shaping: {worst:.3e}",
    )


def check_mac_power_split_concavity(seed: int) -> CheckResult:
    rng = np.random.default_rng(derive_seed(seed, 106))
    profile = make_profile(6, [2, 1, 2], weights=[2.0, 1.0, 1.5])
    channel = sample_channel(profile, None, derive_seed(seed, 107))
    total_power = 40.0
    optimum = asymptotic_weighted_sum_rate(channel, total_power)
    antennas = np.array(profile.user_antennas, dtype=float)
    split = optimal_power_split(profile, total_power)
    base = np.array(split.power_levels)
    worst = -np.inf
    tried = 0
    for _ in range(200):
        # random feasible perturbation keeping sum_k r_k lambda_k fixed
        direction = rng.standard_normal(profile.num_users)
        direction -= antennas * (direction @ antennas) / (antennas @ antennas)
        scale = 0.5 * float(np.min(base / np.maximum(np.abs(direction), 1e-12)))
        levels = base + scale * rng.uniform(0.1, 1.0) * direction
        if np.any(levels <= 0):
            continue
        value = sum(
            w * asymptotic_user_rate(channel, lam, k)
            for k, (w, lam) in enumerate(zip(profile.weights, levels))
        )
        worst = max(worst, value - optimum)
        tried += 1
        if tried == 100:
            break
    if tried < 100:
        return CheckResult(
            "mac_power_split_concavity", False, -1.0,
            f"only {tried} of 200 perturbations kept every power level positive",
        )
    return _tolerance_result(
        "mac_power_split_concavity", 1e-9, max(0.0, worst),
        f"best of 100 perturbed weighted sum rates is {worst:.3e} bits above the split",
    )


def check_mac_eigenbasis_irrelevance(seed: int) -> CheckResult:
    rng = np.random.default_rng(derive_seed(seed, 108))
    profile = make_profile(5, [2, 2])
    channel = sample_channel(profile, None, derive_seed(seed, 109))
    total_power = 1e6
    worst = 0.0
    for k in range(profile.num_users):
        level = total_power / profile.total_antennas
        reference = asymptotic_user_rate(channel, level, k)
        covs = []
        for j, r in enumerate(profile.user_antennas):
            spread = np.exp(rng.uniform(-0.7, 0.7, size=r))
            spread /= np.prod(spread) ** (1.0 / r)  # keep the determinant fixed
            v = haar_unitary(r, rng)
            covs.append(hermitize(level * (v * spread) @ v.conj().T))
        rotated = MacCovarianceSet.from_covariances(covs)
        worst = max(worst, abs(exact_rate_report(channel, rotated).rates[k] - reference))
    return _tolerance_result(
        "mac_eigenbasis_irrelevance", 1e-3, worst,
        f"worst exact-vs-asymptotic gap under rotated covariances at 1e6: {worst:.3e}",
    )


def check_bc_solution_invariants(seed: int) -> CheckResult:
    rng = np.random.default_rng(derive_seed(seed, 110))
    facets = []
    for i in range(1000):
        profile = random_profile(rng)
        channel = sample_channel(profile, None, int(rng.integers(0, 2**32)))
        total_power = float(10.0 ** rng.uniform(-1, 3))
        solution = solve_bc(channel, total_power)
        r = profile.total_antennas
        level = total_power / r
        where = f"channel {i}"
        bd_worst = 0.0
        for k, p in enumerate(solution.precoders):
            for l, h in enumerate(channel.blocks):
                if l != k:
                    bd_worst = max(
                        bd_worst,
                        float(
                            np.linalg.norm(h.conj().T @ p)
                            / (np.linalg.norm(h) * np.linalg.norm(p))
                        ),
                    )
            norms = np.linalg.norm(p, axis=0)
            s = solution.covariances[k]
            eigen = np.linalg.eigvalsh(s)
            r_k = profile.user_antennas[k]
            spectrum_err = max(
                float(np.max(np.abs(eigen[-r_k:] - level))) if r_k else 0.0,
                float(np.max(np.abs(eigen[: s.shape[0] - r_k]))) if s.shape[0] > r_k else 0.0,
            )
            projector = s / level
            facets += [
                ("column_norm", 1e-10, float(np.max(np.abs(norms - np.sqrt(level)))), where),
                ("spectrum", 1e-8 * max(1.0, level), spectrum_err, where),
                ("idempotent", 1e-9,
                 float(np.linalg.norm(projector @ projector - projector)), where),
            ]
        facets += [
            ("bd_residual", 1e-9, bd_worst, where),
            ("total_power", 1e-8 * max(1.0, total_power),
             abs(solution.total_transmit_power - total_power), where),
        ]
    return _worst_facet("bc_solution_invariants", facets)


def check_bc_duality_rate_preservation(seed: int) -> CheckResult:
    profile = make_profile(5, [2, 2])
    channel = sample_channel(profile, None, derive_seed(seed, 111))
    gaps = []
    for power in (1e2, 1e3, 1e4, 1e6):
        bd_sum = solve_bc(channel, power).sum_rate
        uniform = MacCovarianceSet.uniform(profile, power)
        mac_sum = exact_rate_report(channel, uniform).sum_rate
        gaps.append(abs(bd_sum - mac_sum))
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    worst = gaps[-1] if decreasing else np.inf
    return _tolerance_result(
        "bc_duality_rate_preservation", 5e-2, worst,
        "uplink/downlink sum-rate gaps along the power grid, strictly decreasing: "
        + ", ".join(f"{g:.2e}" for g in gaps),
    )


def _eigenbasis_slack(channel: ChannelRealization, user: int, trials: int, seed: int) -> float:
    """Minimum Hadamard slack of the decorrelation eigenbasis against random bases.

    For random unitary bases W, the log2-determinant of the diagonal squared
    scales satisfies sum_i log2 d_i^2(W) >= log2 |block| (Hadamard inequality
    on the positive-definite block), with equality exactly when W
    diagonalizes the block, so the downlink rate is largest on the
    eigenbasis.  Returns the minimum slack; the eigenbasis itself is trial
    zero.
    """
    block = channel.gram_inverse_block(user)
    reference = channel.inverse_block_logdet2[user]
    rng = np.random.default_rng(seed)
    bases = [solve_bc(channel, 1.0).bases[user]]
    bases.extend(haar_unitary(block.shape[0], rng) for _ in range(trials))
    worst = float("inf")
    for w in bases:
        squares = np.diagonal(hermitize(w.conj().T @ block @ w)).real
        worst = min(worst, float(np.sum(np.log2(squares))) - reference)
    return worst


def check_bc_eigenbasis_optimality(seed: int) -> CheckResult:
    profile = make_profile(6, [3, 2])
    channel = sample_channel(profile, None, derive_seed(seed, 112))
    worst = min(
        _eigenbasis_slack(channel, k, 100, seed=derive_seed(seed, 113 + k))
        for k in range(profile.num_users)
    )
    return _tolerance_result(
        "bc_eigenbasis_optimality", 1e-9, max(0.0, -worst),
        f"minimum Hadamard slack over 100 random bases per user: {worst:.3e}",
    )


def check_bc_covariance_basis_invariance(seed: int) -> CheckResult:
    rng = np.random.default_rng(derive_seed(seed, 114))
    profile = make_profile(6, [2, 3])
    channel = sample_channel(profile, None, derive_seed(seed, 115))
    bases = solve_bc(channel, 1.0).bases
    worst = 0.0
    for total_power in (12.0, 13.0):
        column_norm = sqrt(total_power / profile.total_antennas)
        for k, (sl, basis) in enumerate(zip(profile.block_slices, bases)):
            s = bc_covariance(channel, total_power, k)
            r_k = basis.shape[0]
            # alternative diagonalizing bases: permuted columns with random phases
            for _ in range(10):
                permuted = basis[:, rng.permutation(r_k)] * np.exp(
                    2j * np.pi * rng.uniform(size=r_k)
                )
                directions = channel.pseudo_inverse[sl, :].conj().T @ permuted
                p = column_norm * directions / np.linalg.norm(directions, axis=0)
                worst = max(worst, float(np.linalg.norm(p @ p.conj().T - s)))
    return _tolerance_result(
        "bc_covariance_basis_invariance", 1e-9, worst,
        f"worst |P P^H - S| over alternative diagonalizing bases: {worst:.3e}",
    )


def check_ergodic_special_cases() -> CheckResult:
    worst = 0.0
    for num_users in range(1, 8):
        # up to three antennas each for four users, one antenna each up to seven
        for antennas_each in range(1, 4 if num_users <= 4 else 2):
            for base in range(num_users * antennas_each, 15):
                general = ergodic_rate_loss(
                    make_profile(base, [antennas_each] * num_users)
                )
                equal = ergodic_rate_loss_equal(num_users, antennas_each, base)
                worst = max(worst, abs(general - equal))
    return _tolerance_result(
        "ergodic_special_cases", 1e-12, worst,
        f"worst |general - equal-antenna| over the parameter box: {worst:.3e}",
    )


def check_ergodic_correlation_cancellation(seed: int) -> CheckResult:
    rng = np.random.default_rng(derive_seed(seed, 116))
    profile = make_profile(7, [2, 3])
    correlation = _random_correlation(profile, rng)
    shift = sum(correlation.block_logdet2(k) for k in range(profile.num_users))
    dpc_shift = ergodic_dpc_logdet(profile, correlation) - ergodic_dpc_logdet(profile, None)
    block_shift = sum(
        ergodic_block_logdet(profile, correlation, k)
        - ergodic_block_logdet(profile, None, k)
        for k in range(profile.num_users)
    )
    worst = max(abs(dpc_shift - shift), abs(block_shift + shift))
    return _tolerance_result(
        "ergodic_correlation_cancellation", 1e-9, worst,
        "correlation shifts the DPC and linear terms by identical amounts",
    )


def check_ergodic_mc_agreement(trials: int, seed: int) -> CheckResult:
    worst_margin = np.inf
    worst_detail = ""
    index = 0
    for cell in rate_loss_grid():
        if cell.rate_loss_bits is None:
            continue
        profile = make_profile(cell.base_antennas, cell.user_antennas)
        cell_trials = default_trials(profile, trials)
        estimate = monte_carlo_rate_loss(
            profile, None, trials=cell_trials, seed=derive_seed(seed, 500 + index)
        )
        index += 1
        band = 3.0 * estimate.stderr
        deviation = abs(estimate.mean - cell.rate_loss_bits)
        margin = (band - deviation) / band
        if margin < worst_margin:
            worst_margin = margin
            worst_detail = (
                f"profile {cell.label} N={cell.base_antennas}: "
                f"MC {estimate.mean:.4f} vs closed form {cell.rate_loss_bits:.4f} "
                f"({deviation / estimate.stderr:.2f} standard errors, {cell_trials} trials)"
            )
    return CheckResult(
        "ergodic_mc_agreement", worst_margin >= 0.0, float(worst_margin), worst_detail
    )


def check_ergodic_monotonic_in_base_antennas() -> CheckResult:
    rows: dict[tuple[int, ...], list[float]] = {}
    for cell in rate_loss_grid():
        if cell.rate_loss_bits is not None:
            rows.setdefault(cell.user_antennas, []).append(cell.rate_loss_bits)
    ok = all(b < a for values in rows.values() for a, b in zip(values, values[1:]))
    return CheckResult(
        "ergodic_monotonic_in_base_antennas", ok, 1.0 if ok else -1.0,
        "adding base antennas strictly reduces the ergodic rate loss",
    )


def check_ergodic_qualitative_ratio() -> CheckResult:
    ratio = ergodic_rate_loss_equal(2, 3, 6) / ergodic_rate_loss_equal(3, 2, 6)
    deviation = abs(ratio - 0.65)
    return _tolerance_result(
        "ergodic_qualitative_ratio", 0.01, deviation,
        f"two users with three antennas lose {ratio:.4f} of the three-user loss",
    )


def check_baseline_single_user_waterfilling(seed: int) -> CheckResult:
    profile = make_profile(4, [3])
    channel = sample_channel(profile, None, derive_seed(seed, 117))
    gains = np.linalg.eigvalsh(channel.gram)
    worst = 0.0
    for power in (0.3, 0.5, 3.0, 5.0, 30.0, 50.0):
        result = dual_mac_sum_capacity(channel, power)
        if not result.converged:
            return CheckResult(
                "baseline_single_user_waterfilling", False, -1.0,
                f"solver did not converge at power {power}",
            )
        reference = float(np.sum(np.log2(1.0 + waterfill(gains, power) * gains)))
        worst = max(worst, abs(result.sum_rate_bits - reference))
    return _tolerance_result(
        "baseline_single_user_waterfilling", 1e-8, worst,
        f"worst gap to closed-form single-user waterfilling: {worst:.3e}",
    )


def check_baseline_monotone_and_bounds(seed: int) -> CheckResult:
    rng = np.random.default_rng(derive_seed(seed, 118))
    facets = []
    for i in range(400):
        profile = random_profile(rng)
        channel = sample_channel(profile, None, int(rng.integers(0, 2**32)))
        power = float(10.0 ** rng.uniform(-1, 4))
        result = dual_mac_sum_capacity(channel, power)
        history = np.array(result.objective_history)
        dip = float(np.max(np.maximum(0.0, history[:-1] - history[1:]))) if history.size > 1 else 0.0
        uniform = log2(
            np.abs(
                np.linalg.det(
                    np.eye(profile.base_antennas)
                    + power / profile.total_antennas
                    * channel.composite @ channel.composite.conj().T
                )
            )
        )
        linear = solve_bc(channel, power).sum_rate
        where = f"channel {i}, power {power:.2f}"
        facets += [
            ("objective_dip", 0.0, dip, where),
            ("uniform_lower_bound", 1e-8, max(0.0, uniform - result.sum_rate_bits), where),
            ("linear_not_above_dpc", 1e-9, max(0.0, linear - result.sum_rate_bits), where),
        ]
    return _worst_facet("baseline_monotone_and_bounds", facets)


def check_baseline_high_power_asymptote(seed: int) -> CheckResult:
    profile = make_profile(5, [2, 2])
    channel = sample_channel(profile, None, derive_seed(seed, 119))
    result = dual_mac_sum_capacity(channel, 1e6, tolerance=1e-10)
    gap = abs(result.sum_rate_bits - dpc_asymptotic_sum_rate(channel, 1e6))
    return _tolerance_result(
        "baseline_high_power_asymptote", 1e-2, gap,
        f"sum capacity sits {gap:.3e} bits from the affine DPC expression at 1e6",
    )


def check_baseline_affine_parallel(seed: int) -> CheckResult:
    profile = make_profile(5, [2, 2])
    correlation = CorrelationModel.scalar(profile, [1.0, 2.0])
    points = generate_curves(profile, correlation, [0.0, 10.0, 20.0], trials=2, seed=seed)
    loss = ergodic_rate_loss(profile)
    worst = max(abs(p.dpc_affine - p.linear_affine - loss) for p in points)
    return _tolerance_result(
        "baseline_affine_parallel", 1e-9, worst,
        "the affine curves are parallel with vertical distance equal to the "
        f"closed-form rate loss (worst deviation {worst:.3e})",
    )


#: Fewest Monte Carlo trials ``mimobc validate`` runs: below this, the 3-standard-error
#: band of ``check_ergodic_mc_agreement`` fails working code on most seeds (on seeds
#: 1-20 it held on 0 at 2 trials, 10 at 10, 17 at 30 and 19 at 100).
MIN_VALIDATE_TRIALS = 100


def run_all_checks(trials: int = 2000, seed: int = 1) -> list[CheckResult]:
    """Run every invariant check; `trials` scales the Monte Carlo workload."""
    return [
        check_channel_determinism(seed),
        check_channel_sqrt_roundtrip(seed),
        check_channel_composite_assembly(seed),
        check_channel_second_moment(seed),
        check_mac_gram_form_equivalence(seed),
        check_mac_rate_loss_nonnegative(seed),
        check_mac_correlation_invariance(seed),
        check_mac_power_split_concavity(seed),
        check_mac_eigenbasis_irrelevance(seed),
        check_bc_solution_invariants(seed),
        check_bc_duality_rate_preservation(seed),
        check_bc_eigenbasis_optimality(seed),
        check_bc_covariance_basis_invariance(seed),
        check_ergodic_special_cases(),
        check_ergodic_correlation_cancellation(seed),
        check_ergodic_mc_agreement(trials, seed),
        check_ergodic_monotonic_in_base_antennas(),
        check_ergodic_qualitative_ratio(),
        check_baseline_single_user_waterfilling(seed),
        check_baseline_monotone_and_bounds(seed),
        check_baseline_high_power_asymptote(seed),
        check_baseline_affine_parallel(seed),
    ]
