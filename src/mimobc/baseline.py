"""Finite-power DPC sum-capacity baseline and ergodic rate-curve generation.

The dual-uplink sum capacity max log2 |I + sum_k H_k Q_k H_k^H| subject to
sum_k tr(Q_k) <= P is a concave problem; it is solved here by sum-power
iterative waterfilling with a monotone safeguard: each iteration waterfills
all users simultaneously against their interference-whitened channels and
then line-searches along the resulting direction, so the objective never
decreases.  The curve generator averages the exact DPC and linear
block-diagonalization sum rates over channel draws and pairs them with
their closed-form affine approximations.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2

import numpy as np

from ._linalg import hermitize, logdet2_hpd, positive_finite, power_from_db, solve_hpd
from .bc import bc_exact_user_rate, solve_bc
from .channel import (
    ChannelRealization,
    CorrelationModel,
    SystemProfile,
    derive_seed,
    sample_channel,
)
from .ergodic import ergodic_block_logdet, ergodic_dpc_logdet
from .errors import ValidationError
from .mac import MacCovarianceSet

__all__ = [
    "CurvePoint",
    "SumCapacityResult",
    "dual_mac_sum_capacity",
    "generate_curves",
    "waterfill",
]

#: Line-search step sizes tried per iteration, largest first.
_STEPS = (1.0, 0.5, 0.25, 0.125, 0.0625, 2**-8, 2**-12, 2**-16)


def waterfill(gains: np.ndarray, budget: float) -> np.ndarray:
    """Exact water-filling power allocation over parallel channels.

    Maximizes sum_i log(1 + p_i g_i) subject to p >= 0, sum p = budget.
    Channels with nonpositive gain receive no power.
    """
    gains = np.asarray(gains, dtype=float)
    powers = np.zeros_like(gains)
    usable = gains > 0.0
    if budget <= 0 or not np.any(usable):
        return powers
    inverse = np.sort(1.0 / gains[usable])
    # water level with m active channels: mu = (budget + sum of m smallest
    # inverse gains) / m, valid while mu exceeds the m-th inverse gain
    prefix = np.cumsum(inverse)
    count = inverse.size
    for m in range(count, 0, -1):
        level = (budget + prefix[m - 1]) / m
        if level > inverse[m - 1]:
            break
    powers[usable] = np.maximum(0.0, level - 1.0 / gains[usable])
    return powers


@dataclass(frozen=True)
class SumCapacityResult:
    """Outcome of the iterative waterfilling solver."""

    covariances: MacCovarianceSet
    sum_rate_bits: float
    converged: bool
    iterations: int
    objective_history: tuple[float, ...]
    optimality_gap_bits: float

    @property
    def total_power(self) -> float:
        return self.covariances.total_power


def _objective(channel: ChannelRealization, covariances) -> float:
    n = channel.profile.base_antennas
    x = np.eye(n, dtype=complex)
    for h, q in zip(channel.blocks, covariances):
        x += h @ q @ h.conj().T
    return logdet2_hpd(hermitize(x))


def _gradient_blocks(channel: ChannelRealization, covariances) -> list[np.ndarray]:
    # d/dQ_k of ln |X| is H_k^H X^{-1} H_k with X = I + sum_l H_l Q_l H_l^H
    n = channel.profile.base_antennas
    x = np.eye(n, dtype=complex)
    for h, q in zip(channel.blocks, covariances):
        x += h @ q @ h.conj().T
    x = hermitize(x)
    return [hermitize(h.conj().T @ solve_hpd(x, h)) for h in channel.blocks]


def _certified_gap(channel: ChannelRealization, covariances, total_power: float) -> float:
    """Upper bound on the distance to the maximum, from concavity.

    For concave f, f(Q*) - f(Q) <= max over the feasible set of the linear
    form <grad f(Q), Q' - Q>; the maximizer puts the whole budget on the
    largest gradient eigenvalue across users.
    """
    grads = _gradient_blocks(channel, covariances)
    top = max(float(np.linalg.eigvalsh(g)[-1]) for g in grads)
    inner = sum(float(np.trace(g @ q).real) for g, q in zip(grads, covariances))
    return max(0.0, total_power * top - inner) / float(np.log(2.0))


def dual_mac_sum_capacity(
    channel: ChannelRealization,
    total_power: float,
    tolerance: float = 1e-8,
    max_iterations: int = 500,
) -> SumCapacityResult:
    """Maximize the dual-uplink sum rate under a total power constraint.

    Starts from the even allocation Q_k = (P / r) I and iterates simultaneous
    interference-whitened waterfilling with a backtracking line search, so the
    recorded objective history is non-decreasing.  Terminates once an accepted
    step improves the objective by less than ``tolerance`` bits (or no step
    improves it at all); hitting ``max_iterations`` returns the best iterate
    flagged as non-converged.
    """
    total_power = positive_finite(total_power, "transmit power")
    if not tolerance > 0:
        raise ValidationError(f"tolerance must be positive, got {tolerance}")
    if max_iterations < 1:
        raise ValidationError(f"need at least one iteration, got {max_iterations}")

    profile = channel.profile
    n = profile.base_antennas
    level = total_power / profile.total_antennas
    current = [level * np.eye(r, dtype=complex) for r in profile.user_antennas]
    history = [_objective(channel, current)]
    converged = False

    for _ in range(max_iterations):
        # simultaneous waterfilling against the interference of the others
        x = np.eye(n, dtype=complex)
        per_user = []
        for h, q in zip(channel.blocks, current):
            per_user.append(h @ q @ h.conj().T)
            x += per_user[-1]
        modes = []
        for k, h in enumerate(channel.blocks):
            z = hermitize(x - per_user[k])
            effective = hermitize(h.conj().T @ solve_hpd(z, h))
            values, vectors = np.linalg.eigh(effective)
            modes.append((np.clip(values, 0.0, None), vectors))
        gains = np.concatenate([values for values, _ in modes])
        powers = waterfill(gains, total_power)
        refilled = []
        offset = 0
        for values, vectors in modes:
            p = powers[offset : offset + values.size]
            offset += values.size
            refilled.append(hermitize((vectors * p) @ vectors.conj().T))

        # backtracking line search keeps the objective monotone for any K
        best_value = history[-1]
        best_candidate = None
        for step in _STEPS:
            candidate = [
                hermitize((1.0 - step) * q + step * s)
                for q, s in zip(current, refilled)
            ]
            value = _objective(channel, candidate)
            if value > best_value:
                best_value = value
                best_candidate = candidate
                break
        if best_candidate is None:
            # no step improves: at the maximum within numerical resolution
            converged = True
            break
        gain = best_value - history[-1]
        current = best_candidate
        history.append(best_value)
        if gain < tolerance:
            converged = True
            break

    gap = _certified_gap(channel, current, total_power)
    return SumCapacityResult(
        covariances=MacCovarianceSet.from_covariances(current),
        sum_rate_bits=history[-1],
        converged=converged,
        iterations=len(history) - 1,
        objective_history=tuple(history),
        optimality_gap_bits=gap,
    )


@dataclass(frozen=True)
class CurvePoint:
    """One transmit-power grid point of the ergodic rate curves."""

    power_db: float
    power_linear: float
    dpc_sum_capacity: float
    linear_bd_sum_rate: float
    dpc_affine: float
    linear_affine: float
    dpc_stderr: float
    linear_stderr: float
    nonconverged: int = 0


def _bd_sum_rate(channel: ChannelRealization, directions, total_power: float) -> float:
    """Exact downlink sum rate of the scaled block-diagonalizing precoders."""
    scale = np.sqrt(total_power / channel.profile.total_antennas)
    precoders = [scale * d for d in directions]
    return sum(
        bc_exact_user_rate(channel, precoders, k)
        for k in range(channel.profile.num_users)
    )


def generate_curves(
    profile: SystemProfile,
    correlation: CorrelationModel | None,
    power_grid_db,
    trials: int,
    seed: int = 0,
    tolerance: float = 1e-8,
    max_iterations: int = 500,
) -> list[CurvePoint]:
    """Monte Carlo rate curves versus transmit power, with affine companions.

    Per grid point, averages the finite-power DPC sum capacity and the exact
    linear block-diagonalization sum rate over ``trials`` channel draws
    (trial t uses the stream seeded with derive_seed(seed, t)), and evaluates
    both closed-form affine approximations.  Solver non-convergence is
    counted per point, never silently dropped.
    """
    grid = [float(p) for p in power_grid_db]
    if not grid:
        raise ValidationError("power grid must not be empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError(f"power grid must be strictly ascending, got {grid}")
    if trials < 2:
        raise ValidationError(f"need at least 2 trials, got {trials}")

    r = profile.total_antennas
    dpc_offset = ergodic_dpc_logdet(profile, correlation)
    linear_offset = -sum(
        ergodic_block_logdet(profile, correlation, k) for k in range(profile.num_users)
    )

    powers = [power_from_db(p) for p in grid]
    dpc_values = np.zeros((len(grid), trials))
    linear_values = np.zeros((len(grid), trials))
    nonconverged = [0] * len(grid)

    for t in range(trials):
        channel = sample_channel(profile, correlation, derive_seed(seed, t))
        # precoder directions are power-independent; only the scale changes
        directions = [p for p in solve_bc(channel, float(r)).precoders]
        for i, power in enumerate(powers):
            result = dual_mac_sum_capacity(channel, power, tolerance, max_iterations)
            if not result.converged:
                nonconverged[i] += 1
            dpc_values[i, t] = result.sum_rate_bits
            linear_values[i, t] = _bd_sum_rate(channel, directions, power)

    points = []
    for i, (p_db, power) in enumerate(zip(grid, powers)):
        slope_term = r * log2(power) - r * log2(r)
        points.append(
            CurvePoint(
                power_db=p_db,
                power_linear=power,
                dpc_sum_capacity=float(np.mean(dpc_values[i])),
                linear_bd_sum_rate=float(np.mean(linear_values[i])),
                dpc_affine=slope_term + dpc_offset,
                linear_affine=slope_term + linear_offset,
                dpc_stderr=float(np.std(dpc_values[i], ddof=1) / np.sqrt(trials)),
                linear_stderr=float(np.std(linear_values[i], ddof=1) / np.sqrt(trials)),
                nonconverged=nonconverged[i],
            )
        )
    return points
