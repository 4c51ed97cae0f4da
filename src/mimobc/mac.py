"""Rate computations in the dual uplink (multiple access) channel.

Covers the exact per-user rates with inter-user interference, evaluated on
the channel's r x r Gram matrix, the high-power asymptotes that decouple the
users, the weight-proportional asymptotic power split, the dirty-paper-coding
sum-rate asymptote, and the power-independent rate loss of linear filtering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite, log2

import numpy as np

from ._linalg import LN2, hermitian_input, positive_finite
from .channel import (
    ChannelRealization,
    GramFactors,
    SystemProfile,
    _factor_grams,
    _readonly,
    user_index,
)
from .errors import ValidationError

__all__ = ["instantaneous_rate_loss"]


@dataclass(frozen=True)
class MacCovarianceSet:
    """Per-user uplink transmit covariances Q_k, each Hermitian positive semidefinite.

    Takes any iterable of array-likes and keeps a checked, read-only copy of each.
    """

    covariances: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self) -> None:
        covariances = (
            _readonly(hermitian_input(q, f"covariance {k}", definite=False))
            for k, q in enumerate(self.covariances)
        )
        object.__setattr__(self, "covariances", tuple(covariances))
        if not np.isfinite(self.total_power):
            raise ValidationError("total transmit power is not finite")

    @classmethod
    def uniform(cls, profile: SystemProfile, total_power: float) -> "MacCovarianceSet":
        """Even split over all antennas: Q_k = (P / r) I for every user."""
        level = positive_finite(total_power, "transmit power") / profile.total_antennas
        return cls(level * np.eye(r, dtype=complex) for r in profile.user_antennas)

    @property
    def total_power(self) -> float:
        # an overflowing sum reads inf, which the constructor reports, not numpy's warning
        with np.errstate(over="ignore"):
            return float(sum(q.trace().real for q in self.covariances))


@dataclass(frozen=True)
class RateReport:
    """Per-user rates in bits/s/Hz plus their plain and weighted sums."""

    rates: tuple[float, ...]
    weights: tuple[float, ...]

    @property
    def sum_rate(self) -> float:
        return float(sum(self.rates))

    @property
    def weighted_sum(self) -> float:
        """Weighted sum of the rates; a zero-weight user adds nothing, even at -inf."""
        return float(sum(w * r for w, r in zip(self.weights, self.rates) if w > 0))


def _check_dims(channel: ChannelRealization, covariances: MacCovarianceSet) -> None:
    antennas = channel.profile.user_antennas
    if len(covariances.covariances) != len(antennas):
        raise ValidationError(
            f"{len(covariances.covariances)} covariances for {len(antennas)} users"
        )
    for k, (q, r_k) in enumerate(zip(covariances.covariances, antennas)):
        if q.shape != (r_k, r_k):
            raise ValidationError(f"covariance {k} has shape {q.shape}, expected ({r_k}, {r_k})")


def asymptotic_user_rate(
    channel: ChannelRealization, power_level: float, user: int
) -> float:
    """High-power per-user rate, independent of all other users' covariances.

    Returns r_k log2(power_level) - log2 |user block of (H^H H)^{-1}|.
    """
    user = user_index(channel.profile.num_users, user)
    power_level = positive_finite(power_level, "power level")
    return _user_asymptote(
        channel.profile.user_antennas[user], power_level, channel.inverse_block_logdet2[user]
    )


def _user_asymptote(antennas: int, power_level: float, block_logdet2: float) -> float:
    """r_k log2(power_level) - log2|[G^-1]_kk|, one user's high-power rate."""
    return antennas * log2(power_level) - block_logdet2


def _slope_term(total_antennas: int, total_power: float) -> float:
    """r log2(P) - r log2(r), the power-dependent part of the DPC and linear asymptotes."""
    r = total_antennas
    return r * log2(total_power) - r * log2(r)


def _asymptotes(
    profile: SystemProfile, levels, total_power: float, gram_logdet2: float, block_logdet2
) -> tuple[tuple[float, ...], float]:
    """The high-power rates of one channel from log2|G| and every user's log2|[G^-1]_kk|.

    Returns each user's asymptotic rate at its power level of ``levels``
    (-inf for a user without power) and the DPC sum-rate asymptote at
    ``total_power``.
    """
    rates = tuple(
        _user_asymptote(r_k, level, block) if level > 0 else float("-inf")
        for r_k, level, block in zip(profile.user_antennas, levels, block_logdet2)
    )
    return rates, _slope_term(profile.total_antennas, total_power) + gram_logdet2


def optimal_power_split(profile: SystemProfile, total_power: float) -> tuple[float, ...]:
    """Weight-proportional power levels that maximize the asymptotic weighted sum rate.

    User k spreads w_k P / sum_l w_l r_l evenly over its r_k antennas, so the
    levels spend the whole budget P.  ValidationError if the weights and the
    power take a level out of the float range.
    """
    total_power = positive_finite(total_power, "transmit power")
    denominator = sum(w * r for w, r in zip(profile.weights, profile.user_antennas))
    levels = tuple(w * total_power / denominator for w in profile.weights)
    if not all(map(isfinite, (denominator, *levels))):
        raise ValidationError(f"non-finite power levels {levels} from weights {profile.weights}")
    return levels


def dpc_asymptotic_sum_rate(channel: ChannelRealization, total_power: float) -> float:
    """High-power sum rate of dirty paper coding: the cooperating point-to-point limit."""
    total_power = positive_finite(total_power, "transmit power")
    return _slope_term(channel.profile.total_antennas, total_power) + channel.gram_logdet2


def instantaneous_rate_loss(channel: ChannelRealization) -> float:
    """Power-independent asymptotic sum-rate gap of linear filtering below DPC.

    Returns sum_k log2 |block_k (H^H H)^{-1}| + log2 |H^H H|, which is
    nonnegative by a block Hadamard inequality and zero exactly when the
    per-user channels are pairwise orthogonal.
    """
    return float(channel._gram_factors.rate_loss[0])


def _objective(gram: np.ndarray, covariance: np.ndarray) -> np.ndarray:
    """log2 |I + Q G| for a composite covariance Q, or for each of a stack of them.

    By Sylvester's determinant identity this is log2 |I + H Q H^H| with
    G = H^H H, but every matrix is r x r: the N - r unit eigenvalues of the
    N x N form, which cost it digits at high power, never appear.
    """
    return np.linalg.slogdet(np.eye(gram.shape[-1]) + covariance @ gram)[1] / LN2


def exact_rate_report(
    channel: ChannelRealization, covariances: MacCovarianceSet
) -> RateReport:
    """Exact uplink rates of every user with all other users acting as noise.

    User k's rate log2 |I + (I + sum_{l != k} H_l Q_l H_l^H)^{-1} H_k Q_k
    H_k^H| is log2 |I + Q G| - log2 |I + Q_{-k} G|, Q being the block
    diagonal composite covariance and Q_{-k} the same without user k's
    block; one batched log-determinant evaluates all K + 1 terms.  Rates
    are clamped at 0, so a user with a zero covariance gets exactly 0.
    """
    _check_dims(channel, covariances)
    profile = channel.profile
    r = profile.total_antennas
    composite = np.zeros((r, r), dtype=complex)
    for sl, q in zip(profile.block_slices, covariances.covariances):
        composite[sl, sl] = q
    stack = np.concatenate([composite[None], composite * profile._other_columns])
    values = _objective(channel.gram, stack)
    rates = np.maximum(values[0] - values[1:], 0.0)
    return RateReport(tuple(rates.tolist()), profile.weights)


def asymptotic_rate_report(channel: ChannelRealization, total_power: float) -> RateReport:
    """Per-user asymptotic rates at the optimal split; zero-weight users get -inf."""
    profile = channel.profile
    levels = optimal_power_split(profile, total_power)
    rates, _ = _asymptotes(
        profile, levels, total_power, channel.gram_logdet2, channel.inverse_block_logdet2
    )
    return RateReport(rates, profile.weights)


def _batch_rate_loss(channels: np.ndarray, profile: SystemProfile) -> GramFactors:
    """The rate-loss kernel ``channel._factor_grams`` on a ``(B, N, r)`` stack of channels H.

    Returns the stack's full-rank mask and, for its full-rank draws in stack
    order, log2|G|, every user's log2|[G^-1]_kk| and the rate loss, their sum;
    rank-deficient draws get no values.  The entry point of the Monte Carlo
    estimators and of the ``rate-loss`` rows, kept apart from the kernel so
    the benchmark tracer can time these two paths by this name.
    """
    return _factor_grams(channels, profile)
