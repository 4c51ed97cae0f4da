"""Finite-power DPC sum-capacity baseline and ergodic rate-curve generation.

The dual-uplink sum capacity max log2 |I + sum_k H_k Q_k H_k^H| subject to
sum_k tr(Q_k) <= P is a concave problem; it is solved here by sum-power
iterative waterfilling with a monotone safeguard: each iteration waterfills
all users simultaneously against their interference-whitened channels and
then line-searches along the resulting direction, so the objective never
decreases.

Every matrix of the solver is r x r.  The users' covariances form one block
diagonal composite covariance Q, and with the channel's Gram matrix
G = H^H H the objective is log2 |I_r + Q G| (Sylvester's determinant
identity), user k's whitened channel H_k^H (I + H Q_{-k} H^H)^{-1} H_k is
the kk block of (I + G Q_{-k})^{-1} G, Q_{-k} being Q without user k's
block, and the gradient is the same expression with the whole Q.  I + Q G is
invertible for every channel, so G need not be: rank-deficient channels are
solved as well.

The curve generator averages the exact DPC and linear block-diagonalization
sum rates over channel draws and pairs them with their closed-form affine
approximations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import isfinite

import numpy as np

from ._linalg import (
    LN2, finite, hermitize, integer, positive_finite, power_from_db, power_grid, trial_count
)
from .bc import _bd_rates
from .channel import (
    ChannelRealization,
    CorrelationModel,
    SystemProfile,
    _check_received_power,
    _factor_grams,
    _rank_message,
    derive_seed,
    sample_channel,
)
from .ergodic import _mean_and_stderr, ergodic_block_logdet, ergodic_dpc_logdet
from .errors import NumericalRankError, ValidationError
from .mac import MacCovarianceSet, _objective, _slope_term

__all__ = ["dual_mac_sum_capacity"]

#: The solver's default stopping tolerance in bits, also that of ``generate_curves``
#: and of the config's ``tolerance`` key.
DEFAULT_TOLERANCE = 1e-8

#: Most waterfilling iterations of one ``dual_mac_sum_capacity`` solve.
MAX_ITERATIONS = 500

#: Line-search step sizes tried per iteration, largest first.
_STEPS = (1.0, 0.5, 0.25, 0.125, 0.0625, 2**-8, 2**-12, 2**-16)

#: Trials of a ``generate_curves`` chunk, drawn, factored and rated under BD as
#: one stack; the bound keeps the stacks small at large N and r.
_CHUNK_TRIALS = 64

#: ``_STEPS`` shaped to weigh a stack of composite covariances, and their complements.
_STEP_WEIGHTS = np.array(_STEPS)[:, None, None]
_KEEP_WEIGHTS = 1.0 - _STEP_WEIGHTS


def waterfill(gains: np.ndarray, budget: float) -> np.ndarray:
    """Exact water-filling power allocation over parallel channels.

    Maximizes sum_i log(1 + p_i g_i) subject to p >= 0, sum p = budget.
    Channels with nonpositive gain receive no power, and no channel does when
    the budget is not positive.  A budget that is not a ``finite`` number, or
    a NaN or infinite gain, raises ValidationError.
    """
    gains = np.asarray(gains, dtype=float)
    budget = finite(budget, "waterfilling budget")
    values = gains.ravel().tolist()
    if not all(map(isfinite, values)):
        raise ValidationError("waterfilling gains have non-finite entries")
    # the arithmetic of a numpy sort and cumsum, on Python floats: on the few
    # gains of a solver iteration, numpy's per-call cost would dominate
    inverse = [1.0 / g if g > 0.0 else None for g in values]
    ascending = sorted(v for v in inverse if v is not None)
    if budget <= 0 or not ascending:
        return np.zeros_like(gains)
    # water level with m active channels: mu_m = (budget + sum of the m
    # smallest inverse gains) / m; channel m joins while mu_{m-1} exceeds its
    # inverse gain, and once one stays dry so do all after it
    level, running = budget + ascending[0], ascending[0]
    for m, v in enumerate(ascending[1:], 2):
        if level <= v:
            break
        running += v
        level = (budget + running) / m
    # np.maximum(0.0, level - v), which keeps a NaN
    powers = [0.0 if v is None or level - v <= 0.0 else level - v for v in inverse]
    return np.array(powers).reshape(gains.shape)


@dataclass(frozen=True)
class SumCapacityResult:
    """Outcome of the iterative waterfilling solver."""

    profile: SystemProfile = field(repr=False)
    #: The r x r block-diagonal composite covariance of every user.
    covariance: np.ndarray = field(repr=False)
    sum_rate_bits: float
    converged: bool
    objective_history: tuple[float, ...]
    optimality_gap_bits: float

    @property
    def iterations(self) -> int:
        """Accepted steps: one per entry of ``objective_history`` after the start."""
        return len(self.objective_history) - 1

    @cached_property
    def covariances(self) -> MacCovarianceSet:
        """Every user's diagonal block of ``covariance``, checked on first access."""
        return MacCovarianceSet(self.covariance[sl, sl] for sl in self.profile.block_slices)


def _certified_gap(
    gram: np.ndarray, covariance: np.ndarray, profile: SystemProfile, total_power: float
) -> float:
    """Upper bound on the distance to the maximum, from concavity.

    For concave f, f(Q*) - f(Q) <= max over the feasible set of the linear
    form <grad f(Q), Q' - Q>; the maximizer puts the whole budget on the
    largest gradient eigenvalue across users.  User k's gradient block is
    [(I + G Q)^{-1} G]_kk, and as Q is block diagonal the sum of
    tr(grad_k Q_k) is the trace of (I + G Q)^{-1} G Q.
    """
    gradient = np.linalg.solve(np.eye(gram.shape[-1]) + gram @ covariance, gram)
    top = max(
        float(np.linalg.eigvalsh(hermitize(gradient[rows[:, :, None], rows[:, None, :]])).max())
        for _, rows in profile._blocks_by_size
    )
    inner = float(np.trace(gradient @ covariance).real)
    return max(0.0, total_power * top - inner) / LN2


def dual_mac_sum_capacity(
    channel: ChannelRealization,
    total_power: float,
    tolerance: float = DEFAULT_TOLERANCE,
) -> SumCapacityResult:
    """Maximize the dual-uplink sum rate under a total power constraint.

    Starts from the even allocation Q_k = (P / r) I and iterates simultaneous
    interference-whitened waterfilling with a backtracking line search, so the
    recorded objective history is non-decreasing.  Each iteration whitens all
    users with one batched solve on the channel's r x r Gram matrix and scores
    every step size of the line search with one batched log-determinant of
    I + Q G; the first step that improves the objective is taken.  Terminates
    once an accepted step improves the objective by less than ``tolerance``
    bits (or no step improves it at all); hitting ``MAX_ITERATIONS`` returns
    the best iterate flagged as non-converged.  The channel need not have
    full rank.  ValidationError unless ``channel._check_received_power``
    admits the power.
    """
    total_power = positive_finite(total_power, "transmit power")
    tolerance = positive_finite(tolerance, "tolerance")
    _check_received_power(total_power, channel.squared_norm)

    profile = channel.profile
    gram = channel.gram
    r = profile.total_antennas
    identity = np.eye(r)
    # per group of users with one antenna count: S[blocks[i]] holds block k of
    # S[k] for each user k of the group, and M[blocks[i][1:]] the group's
    # diagonal blocks of a composite matrix M
    blocks = [
        (users[:, None, None], rows[:, :, None], rows[:, None, :])
        for users, rows in profile._blocks_by_size
    ]
    current = (total_power / r) * np.eye(r, dtype=complex)
    history = [float(_objective(gram, current))]
    converged = False

    for _ in range(MAX_ITERATIONS):
        # simultaneous waterfilling against the whitened channels: with the mask,
        # (G Q) * _other_columns[k] = G Q_{-k}, so one solve whitens every user,
        # and one eigh per block size gives their modes
        whitened = np.linalg.solve(identity + (gram @ current) * profile._other_columns, gram)
        modes = [np.linalg.eigh(hermitize(whitened[index])) for index in blocks]
        powers = waterfill(np.concatenate([gains.ravel() for gains, _ in modes]), total_power)
        refilled = np.zeros((r, r), dtype=complex)
        offset = 0
        for index, (gains, vectors) in zip(blocks, modes):
            p = powers[offset : offset + gains.size].reshape(gains.shape)
            offset += gains.size
            refilled[index[1:]] = (vectors * p[:, None, :]) @ vectors.conj().swapaxes(-1, -2)
        refilled = hermitize(refilled)
        # backtracking line search keeps the objective monotone for any K; the
        # candidates are exactly Hermitian as convex combinations of two such
        candidates = _KEEP_WEIGHTS * current + _STEP_WEIGHTS * refilled
        values = _objective(gram, candidates)
        improving = (values > history[-1]).nonzero()[0]
        if not improving.size:
            # no step improves: at the maximum within numerical resolution
            converged = True
            break
        best = improving[0]
        gain = values[best] - history[-1]
        current = candidates[best]
        history.append(float(values[best]))
        if gain < tolerance:
            converged = True
            break

    gap = _certified_gap(gram, current, profile, total_power)
    return SumCapacityResult(
        profile=profile,
        covariance=current,
        sum_rate_bits=history[-1],
        converged=converged,
        objective_history=tuple(history),
        optimality_gap_bits=gap,
    )


@dataclass(frozen=True)
class CurvePoint:
    """One transmit-power grid point of the ergodic rate curves; its fields are the columns."""

    P_dB: float
    dpc_exact: float
    linear_exact: float
    dpc_affine: float
    linear_affine: float
    dpc_stderr: float
    linear_stderr: float
    nonconverged: int
    #: The most iterations and the largest certified gap of this point's solves.
    max_iterations: int
    max_gap_bits: float


def generate_curves(
    profile: SystemProfile,
    correlation: CorrelationModel | None,
    power_grid_db,
    trials: int,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[CurvePoint]:
    """Monte Carlo rate curves versus transmit power, with affine companions.

    Per grid point, averages the finite-power DPC sum capacity and the exact
    linear block-diagonalization sum rate over ``trials`` channel draws
    (trial t uses the stream seeded with derive_seed(seed, t)), and evaluates
    both closed-form affine approximations.  Solver non-convergence is
    counted per point, never silently dropped, next to the most iterations
    and the largest certified gap of the point's solves.  A draw on which the
    top grid power fails ``channel._check_received_power`` raises
    ValidationError, and a rank-deficient draw NumericalRankError, before
    its chunk is rated.
    """
    grid = power_grid(power_grid_db, "power grid")
    trials, seed = trial_count(trials), integer(seed, "seed")
    tolerance = positive_finite(tolerance, "tolerance")

    r = profile.total_antennas
    dpc_offset = ergodic_dpc_logdet(profile, correlation)
    linear_offset = -sum(
        ergodic_block_logdet(profile, correlation, k) for k in range(profile.num_users)
    )

    powers = [power_from_db(p) for p in grid]
    # one (power, trial) entry per solve and BD rate
    dpc, linear, gaps = (np.zeros((len(grid), trials)) for _ in range(3))
    iterations = np.zeros((len(grid), trials), dtype=int)
    converged = np.zeros((len(grid), trials), dtype=bool)

    gains = np.divide(powers, r)
    for start in range(0, trials, _CHUNK_TRIALS):
        stop = min(start + _CHUNK_TRIALS, trials)
        chunk = range(start, stop)
        realizations = [sample_channel(profile, correlation, derive_seed(seed, t)) for t in chunk]
        factors = _factor_grams(np.stack([c.composite for c in realizations]), profile)
        if not factors.full_rank.all():
            # every later step needs a factor per trial, so the chunk stops here
            bad = int(np.argmin(factors.full_rank))
            condition = realizations[bad].gram_condition
            raise NumericalRankError(f"trial {chunk[bad]}: {_rank_message(condition)}")
        _check_received_power(max(powers), max(c.squared_norm for c in realizations))
        linear[:, start:stop] = _bd_rates(profile, factors.inverse, gains).sum(axis=-1)
        for t, channel in zip(chunk, realizations):
            for i, power in enumerate(powers):
                result = dual_mac_sum_capacity(channel, power, tolerance)
                dpc[i, t] = result.sum_rate_bits
                gaps[i, t] = result.optimality_gap_bits
                iterations[i, t] = result.iterations
                converged[i, t] = result.converged

    points = []
    for i, (p_db, power) in enumerate(zip(grid, powers)):
        slope_term = _slope_term(r, power)
        dpc_mean, dpc_stderr = _mean_and_stderr(dpc[i])
        linear_mean, linear_stderr = _mean_and_stderr(linear[i])
        points.append(
            CurvePoint(
                P_dB=p_db,
                dpc_exact=dpc_mean,
                linear_exact=linear_mean,
                dpc_affine=slope_term + dpc_offset,
                linear_affine=slope_term + linear_offset,
                dpc_stderr=dpc_stderr,
                linear_stderr=linear_stderr,
                nonconverged=int(np.count_nonzero(~converged[i])),
                max_iterations=int(iterations[i].max()),
                max_gap_bits=float(gaps[i].max()),
            )
        )
    return points
