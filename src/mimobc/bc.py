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
    LN2,
    finite_matrix,
    hermitian_sqrt,
    hermitize,
    logdet2_hpd,
    normalize_eigenvector_phases,
    positive_finite,
)
from .channel import (
    ChannelRealization,
    SystemProfile,
    _check_received_power,
    block_index_range,
    user_index,
)
from .errors import ValidationError
from .mac import MacCovarianceSet, _check_dims

__all__ = ["solve_bc"]


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


def _bd_directions(channel: ChannelRealization) -> list[tuple[np.ndarray, ...]]:
    """Every user's BD (basis W_k, directions H (H^H H)^{-1} E_k W_k, their column norms).

    The decorrelation basis W_k is the unitary eigenbasis of the user's block
    of the inverse Gram matrix, one ``eigh`` per block size.  Columns are
    ordered by ascending eigenvalue; each column's phase is fixed by making
    its largest-magnitude entry real positive, so the output is deterministic
    up to degenerate eigenvalues.  The column norms are the diagonal
    renormalizer: their squares are the diagonal of W^H (block of
    (H^H H)^{-1}) W, computed as the actual norms.  They are positive: each
    square is an eigenvalue of [G^-1]_kk, at least 1 / lambda_max(G) for a
    finite G.
    """
    pieces: list = [None] * channel.profile.num_users
    for users, rows in channel.profile._blocks_by_size:
        _, vectors = np.linalg.eigh(channel.gram_inverse[rows[:, :, None], rows[:, None, :]])
        bases = normalize_eigenvector_phases(vectors)  # (m, r_k, r_k)
        # H (H^H H)^{-1} E_k is the conjugate transpose of the pseudo-inverse row block
        directions = channel.pseudo_inverse[rows].conj().swapaxes(-1, -2) @ bases
        scales = np.linalg.norm(directions, axis=-2)
        for j, k in enumerate(users):
            pieces[k] = (bases[j], directions[j], scales[j])
    return pieces


def _bd_rates(profile: SystemProfile, gram_inverse: np.ndarray, gains) -> np.ndarray:
    """BD rates of every user of a ``(T, r, r)`` stack of G^-1 at each gain g = P / r.

    Under BD no user sees another user's streams, and user k's streams see
    the gains 1 / lambda_ki, the eigenvalues lambda_ki of [G^-1]_kk being the
    squared column norms of ``_bd_directions``.  Returns the ``(len(gains),
    T, K)`` rates sum_i log2(1 + g / lambda_ki), from one ``eigvalsh`` per
    block size, in ``log1p``, which keeps their relative accuracy at low power.
    """
    gains = np.asarray(gains, dtype=float)[:, None, None, None]
    rates = np.empty((gains.shape[0], len(gram_inverse), profile.num_users))
    for users, rows in profile._blocks_by_size:
        eigenvalues = np.linalg.eigvalsh(gram_inverse[:, rows[:, :, None], rows[:, None, :]])
        rates[:, :, users] = np.log1p(gains / eigenvalues).sum(axis=-1) / LN2
    return rates


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
    return hermitize(scale * (rows.conj().T @ np.linalg.solve(block, rows)))


def bc_exact_user_rate(
    channel: ChannelRealization, precoders, user: int
) -> float:
    """Exact downlink rate of one user with all other precoded signals as noise.

    Evaluates log2 |I + (I + A_k)^{-1} S_k|, clamped at 0, with
    A_k = sum_{l != k} H_k^H P_l P_l^H H_k and S_k = H_k^H P_k P_k^H H_k,
    without assuming the interference terms vanish, so block diagonalization
    is verified rather than presumed; ValidationError if I + A_k + S_k overflows.
    """
    profile = channel.profile
    user = user_index(profile.num_users, user)
    if len(precoders) != profile.num_users:
        raise ValidationError(f"{len(precoders)} precoders for {profile.num_users} users")
    precoders = [finite_matrix(p, f"precoder {k}") for k, p in enumerate(precoders)]
    for k, p in enumerate(precoders):
        if p.ndim != 2:
            raise ValidationError(f"precoder {k} is not a matrix: shape {p.shape}")
        if p.shape[0] != profile.base_antennas:
            raise ValidationError(f"precoder {k} has {p.shape[0]} rows, expected "
                                  f"{profile.base_antennas}")
    own = np.repeat(np.arange(profile.num_users), [p.shape[1] for p in precoders]) == user
    # an overflowing product is reported by the finiteness check below, not by numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        cross = channel.blocks[user].conj().T @ np.concatenate(precoders, axis=1)  # H_k^H P
        interference, signal = cross[:, ~own], cross[:, own]
        noise = np.eye(cross.shape[0]) + hermitize(interference @ interference.conj().T)
        full = finite_matrix(noise + hermitize(signal @ signal.conj().T), "downlink rate system")
    return max(0.0, logdet2_hpd(full) - logdet2_hpd(noise))


@dataclass(frozen=True)
class BcSolution:
    """Complete downlink solution at one transmit power.

    Holds, per user, the precoder, the decorrelation basis, the positive
    diagonal column scales, the transmit covariance, and the BD rate
    (``_bd_rates``).
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
    """The block-diagonalizing downlink solution of one channel.

    ValidationError unless ``channel._check_received_power`` admits the power.
    """
    total_power = positive_finite(total_power, "transmit power")
    _check_received_power(total_power, channel.squared_norm)
    profile = channel.profile
    column_norm = sqrt(total_power / profile.total_antennas)
    bases, directions, scales = zip(*_bd_directions(channel))
    precoders = tuple(column_norm * d / c for d, c in zip(directions, scales))
    covariances = tuple(
        bc_covariance(channel, total_power, k) for k in range(profile.num_users)
    )
    rates = _bd_rates(profile, channel.gram_inverse[None], [total_power / profile.total_antennas])
    return BcSolution(
        total_power=total_power,
        precoders=precoders,
        bases=bases,
        column_scales=scales,
        covariances=covariances,
        rates=tuple(rates[0, 0].tolist()),
    )
