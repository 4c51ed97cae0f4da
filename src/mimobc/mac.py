"""Rate computations in the dual uplink (multiple access) channel.

Covers the exact per-user rate with inter-user interference, the equivalent
Gram-matrix determinant form, the high-power asymptotes that decouple the
users, the weight-proportional asymptotic power split, the dirty-paper-coding
sum-rate asymptote, and the power-independent rate loss of linear filtering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log2

import numpy as np

from ._linalg import (
    finite_matrix,
    hermitian_sqrt,
    hermitize,
    is_hermitian,
    logdet2_hpd,
    positive_finite,
    solve_hpd,
)
from .channel import ChannelRealization, SystemProfile, _factor_grams
from .errors import ValidationError

__all__ = [
    "MacAsymptoticSolution",
    "MacCovarianceSet",
    "RateReport",
    "asymptotic_rate_report",
    "asymptotic_user_rate",
    "asymptotic_weighted_sum_rate",
    "dpc_asymptotic_sum_rate",
    "exact_rate_report",
    "exact_user_rate",
    "exact_user_rate_gram_form",
    "instantaneous_rate_loss",
    "optimal_power_split",
]

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
    """Per-user uplink transmit covariances Q_k together with factors T_k.

    The factors satisfy Q_k = T_k T_k^H; the composite factor is block
    diagonal with the T_k on its diagonal.
    """

    covariances: tuple[np.ndarray, ...] = field(repr=False)
    factors: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.covariances) != len(self.factors):
            raise ValidationError("covariance and factor counts differ")
        # the checks run once per group of equally shaped matrices
        stacks = _stacks_by_shape(self.covariances, "covariance")
        _stacks_by_shape(self.factors, "factor")
        for k, (q, t) in enumerate(zip(self.covariances, self.factors)):
            if q.ndim != 2 or q.shape[0] != q.shape[1]:
                raise ValidationError(f"covariance {k} is not square: shape {q.shape}")
            if t.shape[0] != q.shape[0]:
                raise ValidationError(f"factor {k} has {t.shape[0]} rows for a {q.shape} covariance")
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
        """Build from Hermitian PSD covariances, factoring each via its principal root."""
        covs = tuple(np.asarray(q, dtype=complex) for q in covariances)
        factors = [None] * len(covs)
        for users, stack in _stacks_by_shape(covs, "covariance"):
            roots = hermitian_sqrt(stack, [f"covariance {k}" for k in users])
            for k, root in zip(users, roots):
                factors[k] = root
        return cls(covs, tuple(factors))

    @classmethod
    def from_factors(cls, factors) -> "MacCovarianceSet":
        facs = tuple(finite_matrix(t, f"factor {k}") for k, t in enumerate(factors))
        covs = tuple(hermitize(t @ t.conj().T) for t in facs)
        return cls(covs, facs)

    @classmethod
    def uniform(cls, profile: SystemProfile, total_power: float) -> "MacCovarianceSet":
        """Even split over all antennas: Q_k = (P / r) I for every user."""
        level = positive_finite(total_power, "transmit power") / profile.total_antennas
        covs = tuple(level * np.eye(r, dtype=complex) for r in profile.user_antennas)
        factors = tuple(np.sqrt(level) * np.eye(r, dtype=complex) for r in profile.user_antennas)
        return cls(covs, factors)

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
        covs = tuple(
            lam * np.eye(r, dtype=complex)
            for lam, r in zip(self.power_levels, self.profile.user_antennas)
        )
        factors = tuple(
            np.sqrt(lam) * np.eye(r, dtype=complex)
            for lam, r in zip(self.power_levels, self.profile.user_antennas)
        )
        return MacCovarianceSet(covs, factors)


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
        return float(sum(w * r for w, r in zip(self.weights, self.rates)))


def _check_user(channel: ChannelRealization, user: int) -> None:
    if not 0 <= user < channel.profile.num_users:
        raise IndexError(
            f"user index {user} out of range for {channel.profile.num_users} users"
        )


def _check_dims(channel: ChannelRealization, covariances: MacCovarianceSet) -> None:
    antennas = channel.profile.user_antennas
    if len(covariances.covariances) != len(antennas):
        raise ValidationError(
            f"{len(covariances.covariances)} covariances for {len(antennas)} users"
        )
    for k, (q, r_k) in enumerate(zip(covariances.covariances, antennas)):
        if q.shape != (r_k, r_k):
            raise ValidationError(f"covariance {k} has shape {q.shape}, expected ({r_k}, {r_k})")


def exact_user_rate(
    channel: ChannelRealization, covariances: MacCovarianceSet, user: int
) -> float:
    """Exact uplink rate of one user with all other users acting as noise.

    Returns log2 |I + (I + sum_{l != k} H_l Q_l H_l^H)^{-1} H_k Q_k H_k^H|
    in bits/s/Hz, evaluated as a difference of Cholesky log-determinants.
    """
    _check_user(channel, user)
    _check_dims(channel, covariances)
    n = channel.profile.base_antennas
    other = np.eye(n, dtype=complex)
    for k, (h, q) in enumerate(zip(channel.blocks, covariances.covariances)):
        if k != user:
            other += h @ q @ h.conj().T
    h_k = channel.blocks[user]
    full = other + h_k @ covariances.covariances[user] @ h_k.conj().T
    rate = logdet2_hpd(hermitize(full)) - logdet2_hpd(hermitize(other))
    return max(0.0, rate)


def exact_user_rate_gram_form(
    channel: ChannelRealization, covariances: MacCovarianceSet, user: int
) -> float:
    """Exact uplink rate via the composite Gram form.

    Returns -log2 of the determinant of the user's diagonal block of
    (I_b + T^H H^H H T)^{-1}, with T the block-diagonal composite factor.
    Algebraically identical to :func:`exact_user_rate` for Q_k = T_k T_k^H.
    """
    _check_user(channel, user)
    _check_dims(channel, covariances)
    factors = covariances.factors
    cols = [t.shape[1] for t in factors]
    total = sum(cols)
    # H T assembled without materializing the block-diagonal composite factor
    ht = np.concatenate([h @ t for h, t in zip(channel.blocks, factors)], axis=1)
    m = np.eye(total, dtype=complex) + hermitize(ht.conj().T @ ht)
    offset = sum(cols[:user])
    sl = slice(offset, offset + cols[user])
    rhs = np.zeros((total, cols[user]), dtype=complex)
    rhs[sl] = np.eye(cols[user])
    block = hermitize(solve_hpd(m, rhs)[sl, :])
    return -logdet2_hpd(block)


def asymptotic_user_rate(
    channel: ChannelRealization, power_level: float, user: int
) -> float:
    """High-power per-user rate, independent of all other users' covariances.

    Returns r_k log2(power_level) - log2 |user block of (H^H H)^{-1}|.
    """
    _check_user(channel, user)
    power_level = positive_finite(power_level, "power level")
    r_k = channel.profile.user_antennas[user]
    return r_k * log2(power_level) - channel.inverse_block_logdet2[user]


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
    profile = channel.profile
    split = optimal_power_split(profile, total_power)
    total = 0.0
    for k, (w, level) in enumerate(zip(profile.weights, split.power_levels)):
        if w > 0:
            total += w * asymptotic_user_rate(channel, level, k)
    return total


def dpc_asymptotic_sum_rate(channel: ChannelRealization, total_power: float) -> float:
    """High-power sum rate of dirty paper coding: the cooperating point-to-point limit."""
    total_power = positive_finite(total_power, "transmit power")
    r = channel.profile.total_antennas
    return r * log2(total_power) - r * log2(r) + channel.gram_logdet2


def instantaneous_rate_loss(channel: ChannelRealization) -> float:
    """Power-independent asymptotic sum-rate gap of linear filtering below DPC.

    Returns sum_k log2 |block_k (H^H H)^{-1}| + log2 |H^H H|, which is
    nonnegative by a block Hadamard inequality and zero exactly when the
    per-user channels are pairwise orthogonal.
    """
    channel.require_full_rank()
    return float(channel._gram_factors.rate_loss[0])


def exact_rate_report(
    channel: ChannelRealization, covariances: MacCovarianceSet
) -> RateReport:
    rates = tuple(
        exact_user_rate(channel, covariances, k) for k in range(channel.profile.num_users)
    )
    return RateReport(rates, channel.profile.weights, asymptotic=False)


def asymptotic_rate_report(channel: ChannelRealization, total_power: float) -> RateReport:
    """Per-user asymptotic rates at the optimal split; zero-weight users get -inf."""
    profile = channel.profile
    split = optimal_power_split(profile, total_power)
    rates = tuple(
        asymptotic_user_rate(channel, level, k) if level > 0 else float("-inf")
        for k, level in enumerate(split.power_levels)
    )
    return RateReport(rates, profile.weights, asymptotic=True)


def _batch_rate_loss(
    channels: np.ndarray, profile: SystemProfile
) -> tuple[np.ndarray, np.ndarray]:
    """Rate loss over a ``(B, N, r)`` stack of composite channels, screened for numerical rank.

    Returns the stack's full-rank mask and, for its full-rank draws in stack
    order, log2|G| + sum_k log2|[G^-1]_kk| with G = H^H H, both from one call
    of the rate-loss kernel ``channel._factor_grams``; rank-deficient draws
    get no value.  The entry point of the Monte Carlo estimators.
    """
    grams = hermitize(channels.conj().swapaxes(-1, -2) @ channels)
    factors = _factor_grams(channels, grams, profile)
    return factors.full_rank, factors.rate_loss
