"""Ergodic rate analysis for Gaussian channels.

Closed forms for the expected log-determinants that drive the high-power
rate expressions, built from the Digamma function at integer arguments
(the Gram matrix of an i.i.d. complex Gaussian channel is Wishart and the
diagonal blocks of its inverse are again inverse Wishart), plus Monte Carlo
estimators that validate them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from math import fsum

import numpy as np

from ._linalg import LN2, integer
from .channel import (
    CorrelationModel,
    SystemProfile,
    block_index_range,
    check_correlation,
    derive_seed,
    make_profile,
    _draw,
)
from .errors import ConfigurationError, DomainError, NumericalRankError, ValidationError
from .mac import _batch_rate_loss

__all__ = [
    "digamma_int",
    "ergodic_block_logdet",
    "ergodic_dpc_logdet",
    "ergodic_rate_loss",
    "monte_carlo_rate_loss",
    "power_offset_db",
]

#: Euler-Mascheroni constant.
EULER_GAMMA = 0.57721566490153286060651209

#: Fraction of Monte Carlo trials that may be discarded for numerical rank loss.
_DISCARD_FRACTION = 1e-3

#: Trials per Monte Carlo batch.  Part of the estimator's stream definition:
#: batch b draws its trials from the Philox stream keyed derive_seed(seed, b),
#: so changing the batch size changes every estimate for a given seed.
_BATCH = 1024


def _psi_sum(first: int, count: int) -> float:
    """sum_{l<count} psi(first - l) for integers first >= count >= 1.

    Each psi(n) is the harmonic prefix H_{n-1} less gamma.  Collecting the
    weight of each 1/j over the count prefixes gives, with
    low = first - count + 1, count H_{low-1} + sum_{j=low}^{first-1} (first - j)/j
    - count gamma: positive terms rounded once each and summed exactly.
    """
    low = first - count + 1
    terms = chain(
        (count / j for j in range(1, low)),
        ((first - j) / j for j in range(low, first)),
        (-count * EULER_GAMMA,),
    )
    return fsum(terms)


def digamma_int(n: int) -> float:
    """Digamma function at a positive integer: psi(n) = -gamma + sum_{j<n} 1/j."""
    if int(n) != n or n < 1:
        raise DomainError(f"digamma recursion needs a positive integer, got {n!r}")
    return _psi_sum(int(n), 1)


def ergodic_dpc_logdet(
    profile: SystemProfile, correlation: CorrelationModel | None = None
) -> float:
    """Expected log2-determinant of the composite Gram matrix, in bits.

    Equals (1/ln 2) sum_{l=0}^{r-1} psi(N - l) plus the log2-determinants of
    the per-user correlation blocks; correlations only shift the curve.
    """
    check_correlation(profile, correlation)
    total = _psi_sum(profile.base_antennas, profile.total_antennas) / LN2
    if correlation is not None:
        total += sum(correlation.block_logdet2(k) for k in range(profile.num_users))
    return total


def ergodic_block_logdet(
    profile: SystemProfile, correlation: CorrelationModel | None, user: int
) -> float:
    """Expected log2-determinant of one diagonal block of the inverse Gram matrix.

    The uncorrelated block is inverse Wishart with N - r + r_k degrees of
    freedom, giving -(1/ln 2) sum_{l=0}^{r_k-1} psi(N - r + r_k - l); the
    user's correlation block contributes -log2 |C_k|.
    """
    block_index_range(profile, user)
    check_correlation(profile, correlation)
    r_k = profile.user_antennas[user]
    first = profile.base_antennas - profile.total_antennas + r_k
    total = -_psi_sum(first, r_k) / LN2
    if correlation is not None:
        total -= correlation.block_logdet2(user)
    return total


def ergodic_rate_loss(profile: SystemProfile) -> float:
    """Expected rate loss of linear filtering below DPC, in bits.

    The Digamma difference E log|G| + sum_k E log|[G^-1]_kk| equals
    (1/ln 2) sum_k sum_{i=1}^{r_k} sum_{j<o_k} 1/(N - r + i + j) with
    o_k = r_1 + ... + r_{k-1}, because psi(a + o) - psi(a) = sum_{j<o} 1/(a + j).
    Collecting the integer weight w(s) of each 1/(N - r + s) leaves r - 1
    positive terms, summed exactly.  Takes no correlation argument: path
    losses and antenna correlations affect both strategies identically and
    cancel in the difference.
    """
    base, r = profile.base_antennas, profile.total_antennas
    # user k adds the trapezoid min(s, r_k, o_k, r_k + o_k - s) to w(s), whose
    # second differences are +1, -1, -1, +1 at s = 0, r_k, o_k, r_k + o_k
    kinks = [0] * (r + 1)
    kinks[0] = profile.num_users
    offset = 0
    for r_k in profile.user_antennas:
        kinks[r_k] -= 1
        kinks[offset] -= 1
        kinks[offset + r_k] += 1
        offset += r_k
    weights = accumulate(accumulate(kinks[: r - 1]))  # w(1), ..., w(r - 1)
    return fsum([w / (base - r + s) for s, w in enumerate(weights, 1)]) / LN2


def ergodic_rate_loss_equal(num_users: int, antennas_each: int, base_antennas: int) -> float:
    """Expected rate loss when every one of K users has the same antenna count.

    Evaluates (1/ln 2) [sum_{l=1}^{(K-1) rbar} l / (N - l)
    + sum_{l=1}^{rbar-1} (K-1) l / (N - K rbar + l)]; the second sum is empty
    for single-antenna users.
    """
    if num_users < 1:
        raise DomainError(f"need at least one user, got {num_users}")
    if antennas_each < 1:
        raise DomainError(f"antenna count must be positive, got {antennas_each}")
    if base_antennas < num_users * antennas_each:
        raise DomainError(
            f"closed forms need at least as many base antennas ({base_antennas}) "
            f"as terminal antennas in sum ({num_users * antennas_each})"
        )
    total = 0.0
    for el in range(1, (num_users - 1) * antennas_each + 1):
        total += el / (base_antennas - el)
    for el in range(1, antennas_each):
        total += (num_users - 1) * el / (base_antennas - num_users * antennas_each + el)
    return total / LN2


def power_offset_db(rate_loss_bits: float, total_antennas: int) -> float:
    """Horizontal shift in dB between two parallel high-power rate curves.

    Two affine rate curves of slope r separated vertically by ``rate_loss_bits``
    are separated horizontally by (loss / r) * 10 log10(2) dB.
    """
    if total_antennas < 1:
        raise ValidationError(f"antenna total must be positive, got {total_antennas}")
    return rate_loss_bits / total_antennas * 10.0 * np.log10(2.0)


def default_trials(profile: SystemProfile, base: int = 10_000) -> int:
    """Default Monte Carlo trial count; scaled by 10 at the fully loaded boundary.

    With no spare base antennas the inverse-Wishart log moments are heavy
    tailed and the estimator needs more samples for the same precision.
    """
    if profile.base_antennas == profile.total_antennas:
        return 10 * base
    return base


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample mean with its standard error and the sampling bookkeeping."""

    mean: float
    stderr: float
    trials: int
    seed: int
    discarded: int = 0

    def __post_init__(self) -> None:
        if self.trials < 2:
            raise ValidationError(f"need at least 2 trials, got {self.trials}")


def monte_carlo_rate_loss(
    profile: SystemProfile,
    correlation: CorrelationModel | None = None,
    trials: int | None = None,
    seed: int = 0,
) -> MonteCarloEstimate:
    """Monte Carlo estimate of the expected instantaneous rate loss.

    Trials run in batches of ``_BATCH``: batch b draws its whole stack of
    channels from one Philox stream keyed ``derive_seed(seed, b)``, so the
    estimate is reproducible and does not depend on the order in which
    batches are evaluated; values are accumulated in trial order.  Each stack,
    and each redraw, is screened for numerical rank and evaluated by one call
    of the rate-loss kernel.  Rank-deficient draws are redrawn, one at a
    time in trial order, from a single reserve Philox stream keyed
    ``derive_seed(seed, number_of_batches)``, capped at 0.1% of the trial
    count.
    """
    trials = default_trials(profile) if trials is None else integer(trials, "trials")
    seed = integer(seed, "seed")
    if trials < 2:
        raise ValidationError(f"need at least 2 trials, got {trials}")
    max_discards = int(_DISCARD_FRACTION * trials)
    discarded = 0
    values = np.empty(trials, dtype=float)
    batches = -(-trials // _BATCH)
    reserve = None

    for batch in range(batches):
        start = batch * _BATCH
        count = min(_BATCH, trials - start)
        rng = np.random.Generator(np.random.Philox(key=derive_seed(seed, batch)))
        channels = _draw(rng, profile, correlation, count)
        factors = _batch_rate_loss(channels, profile)
        batch_values = values[start : start + count]
        batch_values[factors.full_rank] = factors.rate_loss
        for i in np.flatnonzero(~factors.full_rank):
            if reserve is None:
                reserve = np.random.Generator(np.random.Philox(key=derive_seed(seed, batches)))
            while True:
                discarded += 1
                if discarded > max_discards:
                    raise NumericalRankError(
                        f"more than {max_discards} rank-deficient draws in "
                        f"{trials} trials"
                    )
                channels = _draw(reserve, profile, correlation, 1)
                redrawn = _batch_rate_loss(channels, profile)
                if redrawn.full_rank[0]:
                    batch_values[i] = redrawn.rate_loss[0]
                    break

    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / np.sqrt(trials))
    return MonteCarloEstimate(mean, stderr, trials, seed, discarded)


@dataclass(frozen=True)
class RateLossCell:
    """One cell of the ergodic rate-loss reference grid."""

    user_antennas: tuple[int, ...]
    base_antennas: int
    rate_loss_bits: float | None  # None where the profile is infeasible

    @property
    def label(self) -> str:
        return ",".join(str(r) for r in self.user_antennas)


#: Antenna profiles of the built-in reference grid: equal-antenna systems
#: first, then two-user systems with distinct antenna counts.
GRID_PROFILES: tuple[tuple[int, ...], ...] = (
    (1, 1),
    (1, 1, 1),
    (1, 1, 1, 1),
    (1, 1, 1, 1, 1),
    (1, 1, 1, 1, 1, 1),
    (2, 2),
    (3, 3),
    (2, 2, 2),
    (1, 2),
    (1, 3),
    (1, 4),
    (2, 3),
    (2, 4),
)

#: Base-station antenna counts spanned by the reference grid.
GRID_BASE_ANTENNAS: tuple[int, ...] = (2, 3, 4, 5, 6)


def rate_loss_grid(extra_profiles=()) -> list[RateLossCell]:
    """Closed-form ergodic rate loss over the built-in grid of antenna profiles.

    Every row is ``ergodic_rate_loss(make_profile(N, antennas))``; a row whose
    profile has fewer base than terminal antennas carries ``None``, and any
    other invalid profile raises.  ``extra_profiles`` are
    (user_antennas, base_antennas) pairs appended after the grid.
    """
    requested = [(antennas, n) for antennas in GRID_PROFILES for n in GRID_BASE_ANTENNAS]
    requested.extend(
        (tuple(int(r) for r in antennas), int(n)) for antennas, n in extra_profiles
    )
    cells: list[RateLossCell] = []
    for antennas, n in requested:
        try:
            value = ergodic_rate_loss(make_profile(n, antennas))
        except ConfigurationError:  # more terminal than base antennas
            value = None
        cells.append(RateLossCell(antennas, n, value))
    return cells
