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
    haar_unitary,
    hermitize,
    logdet2_hpd,
    normalize_eigenvector_phases,
    positive_finite,
    solve_hpd,
)
from .channel import ChannelRealization, block_index_range
from .errors import DegeneracyError, ValidationError
from .mac import MacCovarianceSet, _check_dims, _check_user

__all__ = [
    "BcSolution",
    "asymptotic_receiver",
    "bc_covariance",
    "bc_exact_user_rate",
    "bc_precoder",
    "decorrelation_basis",
    "eigenbasis_optimality_check",
    "mmse_receiver_exact",
    "scaling_factors",
    "solve_bc",
]


def mmse_receiver_exact(
    channel: ChannelRealization, covariances: MacCovarianceSet, user: int
) -> np.ndarray:
    """MMSE receive filter of one user in the dual uplink.

    Returns T_k^H H_k^H (I + H T T^H H^H)^{-1} as a B_k x N matrix.
    """
    _check_user(channel, user)
    _check_dims(channel, covariances)
    n = channel.profile.base_antennas
    ht = np.concatenate(
        [h @ t for h, t in zip(channel.blocks, covariances.factors)], axis=1
    )
    a = np.eye(n, dtype=complex) + hermitize(ht @ ht.conj().T)
    rhs = channel.blocks[user] @ covariances.factors[user]
    return solve_hpd(a, rhs).conj().T


def asymptotic_receiver(
    channel: ChannelRealization, total_power: float, user: int
) -> np.ndarray:
    """High-power limit of the MMSE receiver under the even power split.

    Returns sqrt(r / P) times the user's row block of the channel
    pseudo-inverse, which zero-forces all other users exactly.
    """
    _check_user(channel, user)
    total_power = positive_finite(total_power, "transmit power")
    sl = block_index_range(channel.profile, user)
    scale = sqrt(channel.profile.total_antennas / total_power)
    return scale * channel.pseudo_inverse[sl, :]


def decorrelation_basis(channel: ChannelRealization, user: int) -> np.ndarray:
    """Unitary eigenbasis of the user's block of the inverse Gram matrix.

    Columns are ordered by ascending eigenvalue; each column's phase is fixed
    by making its largest-magnitude entry real positive, so the output is
    deterministic up to degenerate eigenvalues.
    """
    _check_user(channel, user)
    block = channel.gram_inverse_block(user)
    _, vectors = np.linalg.eigh(block)
    return normalize_eigenvector_phases(vectors)


def scaling_factors(
    channel: ChannelRealization,
    total_power: float,
    user: int,
    basis: np.ndarray | None = None,
) -> np.ndarray:
    """Duality scaling factors: sqrt(P / r) over the decorrelated receiver row norms."""
    receiver = asymptotic_receiver(channel, total_power, user)
    if basis is None:
        basis = decorrelation_basis(channel, user)
    rows = basis.conj().T @ receiver
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms <= 0.0):
        raise DegeneracyError(f"zero receiver row for user {user}")
    return sqrt(total_power / channel.profile.total_antennas) / norms


def _basis_directions_scales(
    channel: ChannelRealization, user: int, basis: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if basis is None:
        basis = decorrelation_basis(channel, user)
    sl = block_index_range(channel.profile, user)
    # H (H^H H)^{-1} E_k is the conjugate transpose of the pseudo-inverse row block
    directions = channel.pseudo_inverse[sl, :].conj().T @ basis
    # the diagonal renormalizer: its squared entries are the diagonal of
    # W^H (block of (H^H H)^{-1}) W, computed here as the actual column norms
    scales = np.linalg.norm(directions, axis=0)
    if np.any(scales <= 0.0):
        raise DegeneracyError(f"nonpositive column scale for user {user}")
    return basis, directions, scales


def bc_precoder(
    channel: ChannelRealization,
    total_power: float,
    user: int,
    basis: np.ndarray | None = None,
) -> np.ndarray:
    """Closed-form block-diagonalizing downlink precoder of one user.

    Returns sqrt(P / r) H (H^H H)^{-1} E_k W_k D_k^{-1} where the diagonal
    D_k renormalizes every column to norm sqrt(P / r).  The default basis
    W_k is the decorrelation eigenbasis; any other unitary yields a valid
    precoder but a lower rate.
    """
    _check_user(channel, user)
    total_power = positive_finite(total_power, "transmit power")
    _, directions, scales = _basis_directions_scales(channel, user, basis)
    return sqrt(total_power / channel.profile.total_antennas) * directions / scales


def bc_covariance(
    channel: ChannelRealization, total_power: float, user: int
) -> np.ndarray:
    """Downlink transmit covariance of one user: a weighted orthogonal projector.

    Returns (P / r) H^{+H} E_k (E_k^T (H^H H)^{-1} E_k)^{-1} E_k^T H^+, which
    is basis-free, has r_k eigenvalues equal to P / r and N - r_k zeros, and
    equals P_k P_k^H for every block-diagonalizing basis choice.
    """
    _check_user(channel, user)
    total_power = positive_finite(total_power, "transmit power")
    sl = block_index_range(channel.profile, user)
    rows = channel.pseudo_inverse[sl, :]
    block = channel.gram_inverse_block(user)
    scale = total_power / channel.profile.total_antennas
    return hermitize(scale * rows.conj().T @ solve_hpd(block, rows))


def _bc_exact_rates(channel: ChannelRealization, precoders, gains) -> np.ndarray:
    """Exact downlink rates of every user with the precoders' powers scaled by each gain.

    Returns a ``(len(gains), K)`` array whose entry (i, k) is log2 |I + (I +
    g_i A_k)^{-1} g_i S_k|, clamped at 0, with A_k = sum_{l != k} H_k^H P_l
    P_l^H H_k and S_k = H_k^H P_k P_k^H H_k formed once; every gain and the
    users of one antenna count share one batched Cholesky log-determinant.
    """
    profile = channel.profile
    if len(precoders) != profile.num_users:
        raise ValidationError(f"{len(precoders)} precoders for {profile.num_users} users")
    for _l, p in enumerate(precoders):
        if p.shape[0] != profile.base_antennas:
            raise ValidationError(f"precoder {_l} has {p.shape[0]} rows, expected "
                                  f"{profile.base_antennas}")
    owner = np.repeat(np.arange(profile.num_users), [p.shape[1] for p in precoders])
    cross = channel.composite.conj().T @ np.concatenate(precoders, axis=1)  # H^H P
    gains = np.asarray(gains, dtype=float)[:, None, None, None]
    rates = np.empty((gains.shape[0], profile.num_users))
    for users, rows in profile._blocks_by_size:
        own = owner == np.array(users)[:, None, None]  # (m, 1, columns)
        block = cross[rows]  # (m, r_k, columns)
        interference, signal = np.where(own, 0.0, block), np.where(own, block, 0.0)
        noise = np.eye(rows.shape[1]) + gains * hermitize(
            interference @ interference.conj().swapaxes(-1, -2)
        )
        full = noise + gains * hermitize(signal @ signal.conj().swapaxes(-1, -2))
        rates[:, users] = logdet2_hpd(full) - logdet2_hpd(noise)
    return np.maximum(rates, 0.0)


def bc_exact_user_rate(
    channel: ChannelRealization, precoders, user: int
) -> float:
    """Exact downlink rate of one user with all other precoded signals as noise.

    Evaluates log2 |I + (I + sum_{l != k} H_k^H P_l P_l^H H_k)^{-1}
    H_k^H P_k P_k^H H_k| without assuming the interference terms vanish, so
    block diagonalization is verified rather than presumed.
    """
    _check_user(channel, user)
    return float(_bc_exact_rates(channel, precoders, [1.0])[0, user])


def eigenbasis_optimality_check(
    channel: ChannelRealization, user: int, trials: int, seed: int = 0
) -> tuple[bool, float]:
    """Verify that the decorrelation eigenbasis maximizes the downlink rate.

    For random unitary bases W, the log2-determinant of the diagonal squared
    scales satisfies sum_i log2 d_i^2(W) >= log2 |block| (Hadamard inequality
    on the positive-definite block), with equality exactly when W
    diagonalizes the block.  Returns (all slacks nonnegative within 1e-9,
    minimum observed slack); the eigenbasis itself is included as trial zero.
    """
    _check_user(channel, user)
    if trials < 1:
        raise ValidationError(f"need at least one trial, got {trials}")
    block = channel.gram_inverse_block(user)
    r_k = block.shape[0]
    reference = channel.inverse_block_logdet2[user]
    rng = np.random.default_rng(int(seed) & ((1 << 64) - 1))
    worst = float("inf")
    bases = [decorrelation_basis(channel, user)]
    bases.extend(haar_unitary(r_k, rng) for _ in range(trials))
    for w in bases:
        squares = np.diagonal(hermitize(w.conj().T @ block @ w)).real
        slack = float(np.sum(np.log2(squares))) - reference
        worst = min(worst, slack)
    return worst >= -1e-9, worst


@dataclass(frozen=True)
class BcSolution:
    """Complete downlink solution at one transmit power.

    Holds, per user, the precoder, the decorrelation basis, the positive
    diagonal column scales, the transmit covariance, and the exact achieved
    rate.  The duality scaling factors equal (P / r) / column_scales; see
    :func:`scaling_factors`.
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
    def total_transmit_power(self) -> float:
        return float(sum(np.trace(s).real for s in self.covariances))


def solve_bc(channel: ChannelRealization, total_power: float) -> BcSolution:
    """Build the full block-diagonalizing downlink solution for one channel."""
    total_power = positive_finite(total_power, "transmit power")
    num_users = channel.profile.num_users
    bases = []
    scales = []
    precoders = []
    covariances = []
    column_norm = sqrt(total_power / channel.profile.total_antennas)
    for k in range(num_users):
        basis, directions, scale = _basis_directions_scales(channel, k, None)
        bases.append(basis)
        scales.append(scale)
        precoders.append(column_norm * directions / scale)
        covariances.append(bc_covariance(channel, total_power, k))
    rates = tuple(_bc_exact_rates(channel, precoders, [1.0])[0].tolist())
    return BcSolution(
        total_power=total_power,
        precoders=tuple(precoders),
        bases=tuple(bases),
        column_scales=tuple(scales),
        covariances=tuple(covariances),
        rates=rates,
    )
