"""Rate computations in the dual uplink (multiple access) channel.

Covers the exact per-user rates with inter-user interference, evaluated on
the channel's r x r Gram matrix, the high-power asymptotes that decouple the
users, the weight-proportional asymptotic power split, the dirty-paper-coding
sum-rate asymptote, and the power-independent rate loss of linear filtering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log2

import numpy as np

from ._linalg import LN2, is_hermitian, positive_finite
from .channel import (
    ChannelRealization,
    GramFactors,
    SystemProfile,
    _factor_grams,
    block_index_range,
)
from .errors import ValidationError

__all__ = ["instantaneous_rate_loss"]

#: Tolerance for PSD checks on user covariances, relative to the largest entry.
_PSD_TOL = 1e-12


def _stacks_by_shape(matrices, what: str) -> list[tuple[list[int], np.ndarray]]:
    """Per distinct shape, in order of appearance: the matrices' indices and their complex stack.

    Raises ValidationError, naming matrix k as ``f"{what} {k}"``, for the
    first one with a NaN or infinite entry.
    """
    groups: dict[tuple, list[int]] = {}
    for k, m in enumerate(matrices):
        groups.setdefault(np.shape(m), []).append(k)
    stacks = []
    for users in groups.values():
        stack = np.asarray([matrices[k] for k in users], dtype=complex)
        finite = np.isfinite(stack)
        if not finite.all():
            first = int(np.argmin(finite.reshape(len(users), -1).all(axis=1)))
            raise ValidationError(f"{what} {users[first]} has non-finite entries")
        stacks.append((users, stack))
    return stacks


@dataclass(frozen=True)
class MacCovarianceSet:
    """Per-user uplink transmit covariances Q_k, each Hermitian positive semidefinite."""

    covariances: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self) -> None:
        # the checks run once per group of equally shaped matrices
        stacks = _stacks_by_shape(self.covariances, "covariance")
        for k, q in enumerate(self.covariances):
            if q.ndim != 2 or q.shape[0] != q.shape[1]:
                raise ValidationError(f"covariance {k} is not square: shape {q.shape}")
        for users, stack in stacks:
            if not stack.shape[-1]:
                continue
            scale = np.maximum(1.0, np.abs(stack).max(axis=(-2, -1)))
            for failed, what in (
                (~is_hermitian(stack, _PSD_TOL), "Hermitian"),
                (np.linalg.eigvalsh(stack)[:, 0] < -_PSD_TOL * scale, "positive semidefinite"),
            ):
                if failed.any():
                    raise ValidationError(f"covariance {users[int(np.argmax(failed))]} is not {what}")
        if not np.isfinite(self.total_power):
            raise ValidationError("total transmit power is not finite")

    @classmethod
    def from_covariances(cls, covariances) -> "MacCovarianceSet":
        """Build from Hermitian PSD covariances, given as anything ``np.asarray`` takes."""
        return cls(tuple(np.asarray(q, dtype=complex) for q in covariances))

    @classmethod
    def uniform(cls, profile: SystemProfile, total_power: float) -> "MacCovarianceSet":
        """Even split over all antennas: Q_k = (P / r) I for every user."""
        level = positive_finite(total_power, "transmit power") / profile.total_antennas
        return cls(tuple(level * np.eye(r, dtype=complex) for r in profile.user_antennas))

    @property
    def total_power(self) -> float:
        return float(sum(q.trace().real for q in self.covariances))


@dataclass(frozen=True)
class MacAsymptoticSolution:
    """Asymptotically optimal per-user power levels in the dual uplink.

    Each user spreads its share evenly over its antennas, so the implied
    covariances are scaled identities.
    """

    profile: SystemProfile
    power_levels: tuple[float, ...]
    total_power: float

    def __post_init__(self) -> None:
        spent = sum(r * lam for r, lam in zip(self.profile.user_antennas, self.power_levels))
        if abs(spent - self.total_power) > 1e-10 * max(1.0, self.total_power):
            raise ValidationError(
                f"power levels spend {spent} of a {self.total_power} budget"
            )
        if any(lam < 0 for lam in self.power_levels):
            raise ValidationError("power levels must be nonnegative")

    def covariances(self) -> MacCovarianceSet:
        return MacCovarianceSet(
            tuple(
                lam * np.eye(r, dtype=complex)
                for lam, r in zip(self.power_levels, self.profile.user_antennas)
            )
        )


@dataclass(frozen=True)
class RateReport:
    """Per-user rates in bits/s/Hz plus their plain and weighted sums."""

    rates: tuple[float, ...]
    weights: tuple[float, ...]
    asymptotic: bool

    def __post_init__(self) -> None:
        if len(self.rates) != len(self.weights):
            raise ValidationError("rate and weight counts differ")
        # exact rates are mutual informations and cannot be negative;
        # asymptotic values are affine approximations and may be
        if not self.asymptotic and any(r < -1e-12 for r in self.rates):
            raise ValidationError(f"negative exact rate in {self.rates}")

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
    block_index_range(channel.profile, user)
    power_level = positive_finite(power_level, "power level")
    return _user_asymptote(
        channel.profile.user_antennas[user], power_level, channel.inverse_block_logdet2[user]
    )


def _user_asymptote(antennas: int, power_level: float, block_logdet2: float) -> float:
    """r_k log2(power_level) - log2|[G^-1]_kk|, one user's high-power rate."""
    return antennas * log2(power_level) - block_logdet2


def _asymptotes(
    split: MacAsymptoticSolution, gram_logdet2: float, block_logdet2
) -> tuple[tuple[float, ...], float]:
    """The high-power rates of one channel from log2|G| and every user's log2|[G^-1]_kk|.

    Returns each user's asymptotic rate at the power levels of ``split``
    (-inf for a user without power) and the DPC sum-rate asymptote at the
    split's total power.
    """
    profile = split.profile
    rates = tuple(
        _user_asymptote(r_k, level, block) if level > 0 else float("-inf")
        for r_k, level, block in zip(profile.user_antennas, split.power_levels, block_logdet2)
    )
    r = profile.total_antennas
    return rates, r * log2(split.total_power) - r * log2(r) + gram_logdet2


def optimal_power_split(profile: SystemProfile, total_power: float) -> MacAsymptoticSolution:
    """Weight-proportional power levels that maximize the asymptotic weighted sum rate."""
    total_power = positive_finite(total_power, "transmit power")
    denominator = sum(w * r for w, r in zip(profile.weights, profile.user_antennas))
    if denominator <= 0:
        raise ValidationError("all rate weights are zero")
    levels = tuple(w * total_power / denominator for w in profile.weights)
    return MacAsymptoticSolution(profile, levels, float(total_power))


def asymptotic_weighted_sum_rate(channel: ChannelRealization, total_power: float) -> float:
    """Asymptotic weighted sum rate at the optimal power split.

    Zero-weight users receive no power and contribute nothing.
    """
    return asymptotic_rate_report(channel, total_power).weighted_sum


def dpc_asymptotic_sum_rate(channel: ChannelRealization, total_power: float) -> float:
    """High-power sum rate of dirty paper coding: the cooperating point-to-point limit."""
    split = optimal_power_split(channel.profile, total_power)
    return _asymptotes(split, channel.gram_logdet2, channel.inverse_block_logdet2)[1]


def instantaneous_rate_loss(channel: ChannelRealization) -> float:
    """Power-independent asymptotic sum-rate gap of linear filtering below DPC.

    Returns sum_k log2 |block_k (H^H H)^{-1}| + log2 |H^H H|, which is
    nonnegative by a block Hadamard inequality and zero exactly when the
    per-user channels are pairwise orthogonal.
    """
    channel.require_full_rank()
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
    return RateReport(tuple(rates.tolist()), profile.weights, asymptotic=False)


def asymptotic_rate_report(channel: ChannelRealization, total_power: float) -> RateReport:
    """Per-user asymptotic rates at the optimal split; zero-weight users get -inf."""
    split = optimal_power_split(channel.profile, total_power)
    rates, _ = _asymptotes(split, channel.gram_logdet2, channel.inverse_block_logdet2)
    return RateReport(rates, channel.profile.weights, asymptotic=True)


def _batch_rate_loss(channels: np.ndarray, profile: SystemProfile) -> GramFactors:
    """The rate-loss kernel ``channel._factor_grams`` on a ``(B, N, r)`` stack of channels H.

    Forms the Gram matrices G = H^H H and returns their factors: the stack's
    full-rank mask and, for its full-rank draws in stack order, log2|G|, every
    user's log2|[G^-1]_kk| and the rate loss, their sum; rank-deficient draws
    get no values.  The entry point of the Monte Carlo estimators and of the
    ``rate-loss`` rows.
    """
    # not hermitized: the Cholesky and eigvalsh of the kernel read one triangle
    grams = channels.conj().swapaxes(-1, -2) @ channels
    return _factor_grams(channels, grams, profile)
