"""Antenna/user profiles and correlated complex Gaussian channel sampling.

The downlink serves K multi-antenna terminals from one base station with
``base_antennas`` transmit antennas; user k contributes one block of
``user_antennas[k]`` columns to the composite channel matrix.  Channels are
drawn entrywise as unit-variance circularly-symmetric complex Gaussians and
right-multiplied by the Hermitian square root of a per-user correlation
matrix, which also models near-far path-loss differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from math import isfinite
from typing import NamedTuple

import numpy as np

from ._linalg import (
    finite_matrix,
    hermitian_input,
    hermitian_sqrt,
    hermitize,
    integer,
    invert_lower,
    log2_diagonal,
    logdet2_hpd,
    number,
    positive_finite,
)
from .errors import ConfigurationError, NumericalRankError, ValidationError

__all__ = [
    "COND_LIMIT",
    "ChannelRealization",
    "CorrelationModel",
    "derive_seed",
    "make_profile",
    "sample_channel",
]

#: Gram matrices with a larger 2-norm condition number are treated as rank deficient.
COND_LIMIT = 1e12

_MASK64 = (1 << 64) - 1


def _well_conditioned(eigenvalues: np.ndarray) -> np.ndarray:
    """Full-rank test on ascending Gram eigenvalues along the last axis.

    True where the smallest eigenvalue is positive and the largest is at most
    ``COND_LIMIT`` times it; the one conditioning rule of the package.
    """
    smallest = eigenvalues[..., 0]
    return (smallest > 0.0) & (eigenvalues[..., -1] <= COND_LIMIT * smallest)


#: A Gram matrix with tr(G) tr(G^-1) at most this fraction of ``COND_LIMIT`` is
#: full rank without its eigenvalues: the product bounds the condition number
#: from above, and the margin absorbs the rounding of tr(G^-1).
_TRACE_MARGIN = 1e-3

#: Full-rank draws with tr(G) tr(G^-1) above this many times r are factored from
#: a QR of the channel instead: the Cholesky factor of G = H^H H carries an error
#: of about cond(G) eps, the QR factor of H one of about cond(H) eps, the square
#: root of that.
_QR_BOUND = 1e3


class GramFactors(NamedTuple):
    """One triangular factorization G = L L^H per Gram matrix of a stack, and its products.

    ``full_rank`` covers the whole stack; the other fields hold the full-rank
    draws only, in stack order.
    """

    full_rank: np.ndarray  # (B,) bool
    chol: np.ndarray  # (A, r, r) lower-triangular L with L L^H = G
    inv_chol: np.ndarray  # (A, r, r) L^-1
    logdet2: np.ndarray  # (A,) log2|G|
    block_logdet2: np.ndarray  # (A, K) log2|[G^-1]_kk| per user k

    @property
    def inverse(self) -> np.ndarray:
        """G^-1 = L^-H L^-1, hermitized against roundoff."""
        return hermitize(self.inv_chol.conj().swapaxes(-1, -2) @ self.inv_chol)

    def pseudo_inverse(self, channels: np.ndarray) -> np.ndarray:
        """(H^H H)^-1 H^H = L^-H (L^-1 H^H) of each channel H of a stack of the full-rank draws."""
        inv_chol = self.inv_chol
        return inv_chol.conj().swapaxes(-1, -2) @ (inv_chol @ channels.conj().swapaxes(-1, -2))

    @property
    def rate_loss(self) -> np.ndarray:
        """log2|G| + sum_k log2|[G^-1]_kk|, the rate loss of linear filtering, per draw."""
        loss = self.logdet2
        for k in range(self.block_logdet2.shape[1]):
            loss = loss + self.block_logdet2[:, k]
        return loss


def _squared_norm(a: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of a contiguous complex stack."""
    return np.square(a.view(np.float64)).sum(axis=(-2, -1))


def _factor_grams(channels: np.ndarray, profile: "SystemProfile") -> GramFactors:
    """Screen the Gram matrices G = H^H H of a stack of channels and factor its full-rank draws.

    ``channels`` is the ``(B, N, r)`` stack of composite channels H.  G is
    formed here, for every caller, by one batched product and is not
    symmetrized: only its lower triangle is read (and the real part of its
    diagonal).  The rank rule is
    ``_well_conditioned`` on the eigenvalues of G.  One Cholesky factor L per
    draw and its triangular inverse (``invert_lower``, in numpy for every stack
    shape) give
    tr(G) tr(G^-1) = ||L||_F^2 ||L^-1||_F^2, an upper bound on
    lambda_max / lambda_min, so a draw whose product is at most
    ``_TRACE_MARGIN * COND_LIMIT`` is accepted at once; ``eigvalsh`` decides
    the rest, and the whole stack when a Cholesky fails (numpy then raises for
    the entire stack).  A full-rank draw whose product exceeds ``_QR_BOUND * r``
    takes L = R^H from a QR of H instead.  User k's block [G^-1]_kk = C^H C,
    with C the user's columns of L^-1; the blocks of one size are factored by
    one batched Cholesky, or by QRs of C on the draws that took a QR.
    """
    grams = channels.conj().swapaxes(-1, -2) @ channels
    try:
        chol = np.linalg.cholesky(grams)
        full_rank = None
    except np.linalg.LinAlgError:
        full_rank = _well_conditioned(np.linalg.eigvalsh(grams))
        channels, grams = channels[full_rank], grams[full_rank]
        chol = np.linalg.cholesky(grams)
    inv_chol = invert_lower(chol)
    bound = _squared_norm(chol) * _squared_norm(inv_chol)
    if full_rank is None:
        full_rank = bound <= _TRACE_MARGIN * COND_LIMIT
        if not full_rank.all():
            unsure = np.flatnonzero(~full_rank)
            full_rank[unsure] = _well_conditioned(np.linalg.eigvalsh(grams[unsure]))
            channels, chol, inv_chol = channels[full_rank], chol[full_rank], inv_chol[full_rank]
            bound = bound[full_rank]
    exact = np.flatnonzero(bound > _QR_BOUND * profile.total_antennas)
    if exact.size:
        chol[exact] = np.linalg.qr(channels[exact], mode="r").conj().swapaxes(-1, -2)
        inv_chol[exact] = invert_lower(chol[exact])
    block_logdet2 = np.empty((len(chol), profile.num_users))
    for users, rows in profile._blocks_by_size:
        columns = inv_chol[:, :, rows].transpose(0, 2, 1, 3)  # (A, m, r, r_k)
        blocks = columns.conj().swapaxes(-1, -2) @ columns
        block_logdet2[:, users] = log2_diagonal(np.linalg.cholesky(blocks))
        if exact.size:
            block_logdet2[np.ix_(exact, users)] = log2_diagonal(
                np.linalg.qr(columns[exact], mode="r")
            )
    return GramFactors(full_rank, chol, inv_chol, log2_diagonal(chol), block_logdet2)


def derive_seed(master_seed: int, index: int) -> int:
    """Mix a master seed with a trial counter into an independent 64-bit seed.

    SplitMix64 finalizer.  The mapping is pure integer arithmetic, so derived
    streams are identical on every platform and independent of the order in
    which trials are evaluated.
    """
    seed, index = integer(master_seed, "seed"), integer(index, "index")
    z = (seed + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _equal_runs(sizes) -> tuple[tuple[int, int], ...]:
    """(size, length) of every run of consecutive equal entries of ``sizes``, in order."""
    return tuple((size, len(list(run))) for size, run in groupby(sizes))


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only C-contiguous copy of ``a``, so no array the caller holds is frozen or shared."""
    out = np.array(a, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SystemProfile:
    """Base-station antenna count, per-user antenna counts, and rate weights.

    The base station must have at least as many antennas as all terminals
    combined; every user runs one data stream per antenna.
    """

    base_antennas: int
    user_antennas: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        antennas, weights = self.user_antennas, self.weights
        if not antennas:
            raise ValidationError("at least one user is required")
        if min(antennas) < 1:
            raise ValidationError(f"antenna counts must be positive, got {antennas}")
        # every count up to 2**53 is exact in float64, and no larger channel can be drawn
        if not 1 <= self.base_antennas <= 2**53:
            raise ValidationError(f"base antennas must be in [1, 2**53], got {self.base_antennas}")
        if len(weights) != len(antennas):
            raise ValidationError(f"{len(weights)} weights for {len(antennas)} users")
        if not all(map(isfinite, weights)):
            raise ValidationError(f"weights must be finite, got {weights}")
        if min(weights) < 0:
            raise ValidationError(f"weights must be nonnegative, got {weights}")
        if max(weights) <= 0:
            raise ValidationError("at least one weight must be positive")
        total = sum(antennas)
        if self.base_antennas < total:
            raise ConfigurationError(
                f"base station has {self.base_antennas} antennas but terminals "
                f"have {total} in sum; the base must have at least as many"
            )

    @property
    def num_users(self) -> int:
        return len(self.user_antennas)

    @property
    def total_antennas(self) -> int:
        """Total number of terminal antennas (column count of the composite channel)."""
        return sum(self.user_antennas)

    @cached_property
    def block_slices(self) -> tuple[slice, ...]:
        edges = np.concatenate(([0], np.cumsum(self.user_antennas)))
        return tuple(slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]))

    @cached_property
    def _antenna_runs(self) -> tuple[tuple[int, int], ...]:
        """``_equal_runs`` of the user antenna counts: the sampler's unit of work."""
        return _equal_runs(self.user_antennas)

    @cached_property
    def _blocks_by_size(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Users grouped by antenna count: each group's ``(m,)`` users and ``(m, r_k)`` row indices.

        ``M[rows[:, :, None], rows[:, None, :]]`` is the ``(m, r_k, r_k)``
        stack of the group's diagonal blocks of an r x r composite matrix M.
        """
        groups: dict[int, list[int]] = {}
        for k, r_k in enumerate(self.user_antennas):
            groups.setdefault(r_k, []).append(k)
        slices = self.block_slices
        return tuple(
            (np.array(users), np.array([np.arange(slices[k].start, slices[k].stop) for k in users]))
            for users in groups.values()
        )

    @cached_property
    def _other_columns(self) -> np.ndarray:
        """``(K, 1, r)`` mask: 1.0 on the columns outside user k's block, 0.0 on its own."""
        owner = np.repeat(np.arange(self.num_users), self.user_antennas)
        return (owner != np.arange(self.num_users)[:, None]).astype(float)[:, None, :]


def make_profile(
    base_antennas: int,
    user_antennas,
    weights=None,
) -> SystemProfile:
    """Validate and build a system profile; weights default to all ones."""
    antennas = tuple(integer(r, "antennas") for r in user_antennas)
    if weights is None:
        weights = (1.0,) * len(antennas)
    weights = tuple(number(w, "weight") for w in weights)
    return SystemProfile(integer(base_antennas, "N"), antennas, weights)


def user_index(users: int, user: int) -> int:
    """``user`` as an ``integer``; IndexError unless it is a 0-based index of ``users`` users."""
    user = integer(user, "user index")
    if not 0 <= user < users:
        raise IndexError(f"user index {user} out of range for {users} users")
    return user


def block_index_range(profile: SystemProfile, user: int) -> slice:
    """Row/column range of ``user`` (a ``user_index``) inside composite r x r matrices.

    Selecting these rows and columns of a composite matrix extracts the
    user's diagonal block without ever materializing a 0/1 selector matrix.
    """
    return profile.block_slices[user_index(profile.num_users, user)]


@dataclass(frozen=True)
class CorrelationModel:
    """Per-user Hermitian positive-definite antenna correlation matrices.

    A scalar block c_k * I models a pure near-far effect where c_k is the
    inverse path loss of user k.  Takes any iterable of array-likes and keeps
    a checked, read-only copy of each.
    """

    blocks: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self) -> None:
        blocks = (
            _readonly(hermitian_input(c, f"correlation block {k}", definite=True))
            for k, c in enumerate(self.blocks)
        )
        object.__setattr__(self, "blocks", tuple(blocks))

    @classmethod
    def identity(cls, profile: SystemProfile) -> "CorrelationModel":
        """Uncorrelated channels: C_k = I for every user."""
        return cls(np.eye(r, dtype=complex) for r in profile.user_antennas)

    @classmethod
    def scalar(cls, profile: SystemProfile, gains) -> "CorrelationModel":
        """Pure near-far model: C_k = c_k * I with positive per-user gains c_k."""
        gains = tuple(positive_finite(g, f"path gain {k}") for k, g in enumerate(gains))
        if len(gains) != profile.num_users:
            raise ValidationError(f"{len(gains)} gains for {profile.num_users} users")
        return cls(g * np.eye(r, dtype=complex) for g, r in zip(gains, profile.user_antennas))

    @property
    def antennas(self) -> tuple[int, ...]:
        return tuple(c.shape[0] for c in self.blocks)

    @cached_property
    def sqrt_blocks(self) -> tuple[np.ndarray, ...]:
        """Hermitian principal square roots of every block."""
        return tuple(_readonly(hermitian_sqrt(c)) for c in self.blocks)

    @cached_property
    def _root_runs(self) -> tuple[np.ndarray, ...]:
        """``sqrt_blocks`` stacked per run of consecutive equal-size blocks: ``(m, r_k, r_k)``."""
        roots, start, stacks = self.sqrt_blocks, 0, []
        for _, m in _equal_runs(self.antennas):
            stacks.append(_readonly(np.stack(roots[start : start + m])))
            start += m
        return tuple(stacks)

    def block_logdet2(self, user: int) -> float:
        """log2-determinant of the correlation block of ``user`` (a ``user_index``)."""
        return logdet2_hpd(self.blocks[user_index(len(self.blocks), user)])


@dataclass(frozen=True)
class ChannelRealization:
    """Per-user channel matrices plus cached composite and Gram products.

    Takes the profile and any iterable of array-likes, one ``(N, r_k)`` block
    per user, and keeps a checked, read-only copy of each.  Immutable after
    construction; all derived matrices are cached lazily and exposed as
    read-only arrays, so realizations are safe to share across threads.
    """

    profile: SystemProfile
    blocks: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self) -> None:
        blocks, users = tuple(self.blocks), self.profile.num_users
        if len(blocks) != users:
            raise ValidationError(f"{len(blocks)} channel blocks for {users} users")
        converted = []
        for k, (block, r_k) in enumerate(zip(blocks, self.profile.user_antennas)):
            h = finite_matrix(block, f"channel block {k}")
            expected = (self.profile.base_antennas, r_k)
            if h.shape != expected:
                raise ValidationError(
                    f"channel block {k} has shape {h.shape}, expected {expected}"
                )
            converted.append(_readonly(h))
        object.__setattr__(self, "blocks", tuple(converted))

    @classmethod
    def _from_composite(cls, profile: SystemProfile, composite) -> "ChannelRealization":
        """The realization of an ``(N, r)`` composite channel, checked once.

        A read-only copy of the composite is cached as ``composite``, and the
        user blocks are read-only views of its columns.
        """
        h = _readonly(finite_matrix(composite, "channel"))
        expected = (profile.base_antennas, profile.total_antennas)
        if h.shape != expected:
            raise ValidationError(f"channel has shape {h.shape}, expected {expected}")
        channel = object.__new__(cls)
        object.__setattr__(channel, "profile", profile)
        object.__setattr__(channel, "blocks", tuple(h[:, sl] for sl in profile.block_slices))
        channel.__dict__["composite"] = h
        return channel

    @cached_property
    def composite(self) -> np.ndarray:
        """N x r matrix whose column blocks are the per-user channels."""
        return _readonly(np.concatenate(self.blocks, axis=1))

    @cached_property
    def gram(self) -> np.ndarray:
        """Hermitian r x r Gram matrix of the composite channel."""
        h = self.composite
        return _readonly(hermitize(h.conj().T @ h))

    @cached_property
    def _gram_factors(self) -> GramFactors:
        """The rate-loss kernel ``_factor_grams`` on this channel, a stack of one."""
        return _factor_grams(self.composite[None], self.profile)

    @cached_property
    def gram_condition(self) -> float:
        """2-norm condition number of the Gram matrix; ``inf`` unless it is positive definite."""
        eigenvalues = np.linalg.eigvalsh(self.gram)
        smallest = float(eigenvalues[0])
        if smallest <= 0.0:
            return float("inf")
        return float(eigenvalues[-1]) / smallest

    def require_full_rank(self) -> None:
        """Raise unless the Gram matrix is numerically invertible (``_well_conditioned``)."""
        if not self._gram_factors.full_rank[0]:
            raise NumericalRankError(
                f"Gram matrix condition number {self.gram_condition:.3e} "
                f"exceeds limit {COND_LIMIT:.0e}"
            )

    @cached_property
    def gram_logdet2(self) -> float:
        """log2-determinant of the Gram matrix."""
        self.require_full_rank()
        return float(self._gram_factors.logdet2[0])

    @cached_property
    def gram_inverse(self) -> np.ndarray:
        self.require_full_rank()
        return _readonly(self._gram_factors.inverse[0])

    @cached_property
    def pseudo_inverse(self) -> np.ndarray:
        """Left pseudo-inverse (H^H H)^{-1} H^H (valid since N >= r)."""
        self.require_full_rank()
        return _readonly(self._gram_factors.pseudo_inverse(self.composite[None])[0])

    def gram_inverse_block(self, user: int) -> np.ndarray:
        """User's diagonal block of the inverse Gram matrix."""
        sl = block_index_range(self.profile, user)
        return self.gram_inverse[sl, sl]

    @cached_property
    def inverse_block_logdet2(self) -> tuple[float, ...]:
        """log2-determinant of every user's diagonal block of the inverse Gram matrix."""
        self.require_full_rank()
        return tuple(self._gram_factors.block_logdet2[0].tolist())


def check_correlation(profile: SystemProfile, correlation: CorrelationModel | None) -> None:
    """ValidationError unless ``correlation`` is None or holds one r_k x r_k block per user."""
    if correlation is not None and correlation.antennas != profile.user_antennas:
        raise ValidationError(
            f"correlation blocks sized {correlation.antennas} do not match "
            f"user antennas {profile.user_antennas}"
        )


def _draw(
    rng: np.random.Generator,
    profile: SystemProfile,
    correlation: CorrelationModel | None,
    count: int,
) -> np.ndarray:
    """Draw ``count`` composite channels from ``rng`` as one ``(count, N, r)`` stack.

    One call draws every standard normal; split in user order, user k's
    ``(count, 2, N, r_k)`` block gives the real and then the imaginary parts
    of ``count`` raw matrices (unit variance per complex entry), which are
    right-multiplied by the user's correlation root and fill the user's
    columns.  A run of m consecutive users with equal antenna counts is
    assembled at once, shaped by one batched product with its stacked roots
    and written into its m r_k columns; the values are those of one user at a
    time.  With ``count == 1`` this is the stream of ``sample_channel``.
    """
    check_correlation(profile, correlation)
    roots = None if correlation is None else correlation._root_runs
    n = profile.base_antennas
    normals = rng.standard_normal(count * 2 * n * profile.total_antennas)
    channels = np.empty((count, n, profile.total_antennas), dtype=complex)
    end = column = 0
    for j, (r_k, m) in enumerate(profile._antenna_runs):
        start, end = end, end + m * count * 2 * n * r_k
        parts = normals[start:end].reshape(m, count, 2, n, r_k)
        raw = (parts[:, :, 0] + 1j * parts[:, :, 1]) * np.sqrt(0.5)
        if roots is not None:
            raw = (raw.reshape(m, count * n, r_k) @ roots[j]).reshape(m, count, n, r_k)
        run = channels[:, :, column : column + m * r_k].reshape(count, n, m, r_k, copy=False)
        run[...] = raw.transpose(1, 2, 0, 3)
        column += m * r_k
    return channels


def _sample_blocks(
    profile: SystemProfile, correlation: CorrelationModel | None, seed: int
) -> np.ndarray:
    """The ``(N, r)`` composite channel of one draw from its own ``seed``."""
    rng = np.random.default_rng(seed & _MASK64)
    return _draw(rng, profile, correlation, 1)[0]


def sample_channel(
    profile: SystemProfile,
    correlation: CorrelationModel | None = None,
    seed: int = 0,
) -> ChannelRealization:
    """Draw one channel realization.

    Entries of the raw per-user matrices are i.i.d. circularly-symmetric
    complex Gaussian with unit variance per entry; each block is then
    right-multiplied by the Hermitian square root of that user's correlation
    matrix.  Identical (profile, correlation, seed) inputs yield bit-identical
    output; seeds are interpreted modulo 2**64.
    """
    composite = _sample_blocks(profile, correlation, integer(seed, "seed"))
    return ChannelRealization._from_composite(profile, composite)
