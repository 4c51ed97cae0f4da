"""Downlink (broadcast) precoding derived from the dual uplink solution.

Converting the asymptotically optimal uplink covariances through the rate
duality yields closed-form downlink precoders that block-diagonalize the
channel: user k's precoder lies in the null space of every other user's
channel.  The per-user transmit covariances come out as weighted orthogonal
projectors, and the downlink achieves the same asymptotic sum rate as the
dual uplink.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from ._linalg import (
    finite_matrix,
    hermitian_sqrt,
    hermitize,
    logdet2_hpd,
    normalize_eigenvector_phases,
    positive_finite,
    power_from_db,
)
from .channel import ChannelRealization, GramFactors, SystemProfile, block_index_range, user_index
from .errors import DegeneracyError, ValidationError
from .mac import MacCovarianceSet, _check_dims

__all__ = ["solve_bc"]

#: Largest transmit power, in dB, of the exact BD rate.  The precoders leave a
#: rounding-level residual interference that the exact rate scales by the
#: power: the rate's distance to its asymptote bottoms out near 1e-13 bits at
#: 150-160 dB and grows tenfold per 10 dB above, past 1 bit by 290 dB.
MAX_BD_POWER_DB = 160.0


def _bd_power(total_power) -> float:
    """``total_power`` if it is ``positive_finite`` and at most ``MAX_BD_POWER_DB``."""
    total_power = positive_finite(total_power, "transmit power")
    if total_power > power_from_db(MAX_BD_POWER_DB):
        raise ValidationError(f"transmit power {total_power:g} is above {MAX_BD_POWER_DB:g} dB")
    return total_power


def mmse_receiver_exact(
    channel: ChannelRealization, covariances: MacCovarianceSet, user: int
) -> np.ndarray:
    """MMSE receive filter of one user in the dual uplink.

    Returns T_k^H H_k^H (I + sum_l H_l Q_l H_l^H)^{-1} as an r_k x N matrix,
    with T_k the principal square root of the user's covariance Q_k;
    ValidationError if the system I + sum_l H_l Q_l H_l^H overflows.
    """
    user = user_index(channel.profile.num_users, user)
    _check_dims(channel, covariances)
    n = channel.profile.base_antennas
    # an overflowing sum is reported by the finiteness check below, not by numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        received = sum(h @ q @ h.conj().T for h, q in zip(channel.blocks, covariances.covariances))
    a = finite_matrix(np.eye(n, dtype=complex) + hermitize(received), "MMSE receiver system")
    rhs = channel.blocks[user] @ hermitian_sqrt(covariances.covariances[user])
    return np.linalg.solve(a, rhs).conj().T


def asymptotic_receiver(
    channel: ChannelRealization, total_power: float, user: int
) -> np.ndarray:
    """High-power limit of the MMSE receiver under the even power split.

    Returns sqrt(r / P) times the user's row block of the channel
    pseudo-inverse, which zero-forces all other users exactly.
    """
    sl = block_index_range(channel.profile, user)
    total_power = positive_finite(total_power, "transmit power")
    scale = sqrt(channel.profile.total_antennas / total_power)
    return scale * channel.pseudo_inverse[sl, :]


def _bd_directions(
    profile: SystemProfile, channels: np.ndarray, factors: GramFactors
) -> list[tuple[np.ndarray, ...]]:
    """Every user's BD (bases W_k, directions H (H^H H)^{-1} E_k W_k, their column norms).

    ``channels`` is a ``(T, N, r)`` stack of full-rank composite channels H
    and ``factors`` their ``channel._factor_grams``; user k's entry holds
    ``(T, r_k, r_k)`` bases, ``(T, N, r_k)`` directions and ``(T, r_k)`` norms.
    The decorrelation basis W_k is the unitary eigenbasis of the user's block
    of the inverse Gram matrix, one ``eigh`` per block size for the whole
    stack.  Columns are ordered by ascending eigenvalue; each column's phase is
    fixed by making its largest-magnitude entry real positive, so the output
    is deterministic up to degenerate eigenvalues.  The column norms are the
    diagonal renormalizer: their squares are the diagonal of W^H (block of
    (H^H H)^{-1}) W, computed as the actual norms.
    """
    gram_inverse = factors.inverse
    pseudo_inverse = factors.pseudo_inverse(channels)
    pieces: list = [None] * profile.num_users
    for users, rows in profile._blocks_by_size:
        _, vectors = np.linalg.eigh(gram_inverse[:, rows[:, :, None], rows[:, None, :]])
        bases = normalize_eigenvector_phases(vectors)  # (T, m, r_k, r_k)
        # H (H^H H)^{-1} E_k is the conjugate transpose of the pseudo-inverse row block
        directions = pseudo_inverse[:, rows].conj().swapaxes(-1, -2) @ bases
        scales = np.linalg.norm(directions, axis=-2)
        for j, k in enumerate(users):
            if np.any(scales[:, j] <= 0.0):
                raise DegeneracyError(f"nonpositive column scale for user {k}")
            pieces[k] = (bases[:, j], directions[:, j], scales[:, j])
    return pieces


def bc_covariance(
    channel: ChannelRealization, total_power: float, user: int
) -> np.ndarray:
    """Downlink transmit covariance of one user: a weighted orthogonal projector.

    Returns (P / r) H^{+H} E_k (E_k^T (H^H H)^{-1} E_k)^{-1} E_k^T H^+, which
    is basis-free, has r_k eigenvalues equal to P / r and N - r_k zeros, and
    equals P_k P_k^H for every block-diagonalizing basis choice.
    """
    sl = block_index_range(channel.profile, user)
    total_power = positive_finite(total_power, "transmit power")
    rows = channel.pseudo_inverse[sl, :]
    block = channel.gram_inverse_block(user)
    scale = total_power / channel.profile.total_antennas
    return hermitize(scale * rows.conj().T @ np.linalg.solve(block, rows))


def _bc_exact_rates(
    profile: SystemProfile, channels: np.ndarray, precoders, gains
) -> np.ndarray:
    """Exact downlink rates of every user of a stack with the precoders' powers scaled by each gain.

    ``channels`` is a ``(T, N, r)`` stack of composite channels and
    ``precoders`` holds every user's ``(T, N, columns)`` stack.  Returns a
    ``(len(gains), T, K)`` array whose entry (i, t, k) is log2 |I + (I + g_i
    A_k)^{-1} g_i S_k| of channel t, clamped at 0, with A_k = sum_{l != k}
    H_k^H P_l P_l^H H_k and S_k = H_k^H P_k P_k^H H_k formed once; every gain,
    channel and the users of one antenna count share one batched Cholesky
    log-determinant.
    """
    if len(precoders) != profile.num_users:
        raise ValidationError(f"{len(precoders)} precoders for {profile.num_users} users")
    for k, p in enumerate(precoders):
        finite_matrix(p, f"precoder {k}")
        if p.shape[-2] != profile.base_antennas:
            raise ValidationError(f"precoder {k} has {p.shape[-2]} rows, expected "
                                  f"{profile.base_antennas}")
    owner = np.repeat(np.arange(profile.num_users), [p.shape[-1] for p in precoders])
    cross = channels.conj().swapaxes(-1, -2) @ np.concatenate(precoders, axis=-1)  # H^H P
    gains = np.asarray(gains, dtype=float)[:, None, None, None, None]
    rates = np.empty((gains.shape[0], len(channels), profile.num_users))
    for users, rows in profile._blocks_by_size:
        own = owner == users[:, None, None]  # (m, 1, columns)
        block = cross[:, rows]  # (T, m, r_k, columns)
        interference, signal = np.where(own, 0.0, block), np.where(own, block, 0.0)
        noise = np.eye(rows.shape[1]) + gains * hermitize(
            interference @ interference.conj().swapaxes(-1, -2)
        )
        full = noise + gains * hermitize(signal @ signal.conj().swapaxes(-1, -2))
        rates[:, :, users] = logdet2_hpd(full) - logdet2_hpd(noise)
    return np.maximum(rates, 0.0)


def bc_exact_user_rate(
    channel: ChannelRealization, precoders, user: int
) -> float:
    """Exact downlink rate of one user with all other precoded signals as noise.

    Evaluates log2 |I + (I + sum_{l != k} H_k^H P_l P_l^H H_k)^{-1}
    H_k^H P_k P_k^H H_k| without assuming the interference terms vanish, so
    block diagonalization is verified rather than presumed.
    """
    user = user_index(channel.profile.num_users, user)
    stacked = [np.asarray(p)[None] for p in precoders]
    rates = _bc_exact_rates(channel.profile, channel.composite[None], stacked, [1.0])
    return float(rates[0, 0, user])


@dataclass(frozen=True)
class BcSolution:
    """Complete downlink solution at one transmit power.

    Holds, per user, the precoder, the decorrelation basis, the positive
    diagonal column scales, the transmit covariance, and the exact achieved
    rate.
    """

    total_power: float
    precoders: tuple[np.ndarray, ...] = field(repr=False)
    bases: tuple[np.ndarray, ...] = field(repr=False)
    column_scales: tuple[np.ndarray, ...] = field(repr=False)
    covariances: tuple[np.ndarray, ...] = field(repr=False)
    rates: tuple[float, ...]

    @property
    def sum_rate(self) -> float:
        return float(sum(self.rates))

    @property
    def scaling_factors(self) -> tuple[np.ndarray, ...]:
        """Duality scaling factors of every user: (P / r) over the column scales."""
        per_stream = self.total_power / sum(len(scales) for scales in self.column_scales)
        return tuple(per_stream / scales for scales in self.column_scales)

    @property
    def total_transmit_power(self) -> float:
        return float(sum(np.trace(s).real for s in self.covariances))


def solve_bc(channel: ChannelRealization, total_power: float) -> BcSolution:
    """The block-diagonalizing downlink solution of one channel, at most ``MAX_BD_POWER_DB``."""
    total_power = _bd_power(total_power)
    profile = channel.profile
    column_norm = sqrt(total_power / profile.total_antennas)
    channel.require_full_rank()
    pieces = _bd_directions(profile, channel.composite[None], channel._gram_factors)
    bases, directions, scales = zip(*[(w[0], d[0], c[0]) for w, d, c in pieces])
    precoders = tuple(column_norm * d / c for d, c in zip(directions, scales))
    covariances = tuple(
        bc_covariance(channel, total_power, k) for k in range(profile.num_users)
    )
    rates = _bc_exact_rates(profile, channel.composite[None], [p[None] for p in precoders], [1.0])
    return BcSolution(
        total_power=total_power,
        precoders=precoders,
        bases=bases,
        column_scales=scales,
        covariances=covariances,
        rates=tuple(rates[0, 0].tolist()),
    )
