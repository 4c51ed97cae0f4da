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
from math import isfinite

import numpy as np

from ._linalg import hermitian_sqrt, hermitize, is_hermitian, logdet2_hpd, solve_hpd
from .errors import ConfigurationError, NumericalRankError, ValidationError

__all__ = [
    "COND_LIMIT",
    "ChannelRealization",
    "CorrelationModel",
    "SystemProfile",
    "block_index_range",
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


def derive_seed(master_seed: int, index: int) -> int:
    """Mix a master seed with a trial counter into an independent 64-bit seed.

    SplitMix64 finalizer.  The mapping is pure integer arithmetic, so derived
    streams are identical on every platform and independent of the order in
    which trials are evaluated.
    """
    z = (int(master_seed) + 0x9E3779B97F4A7C15 * (int(index) + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a)
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
        if not self.user_antennas:
            raise ValidationError("at least one user is required")
        if any(r < 1 for r in self.user_antennas):
            raise ValidationError(f"antenna counts must be positive, got {self.user_antennas}")
        if self.base_antennas < 1:
            raise ValidationError(f"base antenna count must be positive, got {self.base_antennas}")
        if len(self.weights) != len(self.user_antennas):
            raise ValidationError(
                f"{len(self.weights)} weights for {len(self.user_antennas)} users"
            )
        if not all(isfinite(w) for w in self.weights):
            raise ValidationError(f"weights must be finite, got {self.weights}")
        if any(w < 0 for w in self.weights):
            raise ValidationError(f"weights must be nonnegative, got {self.weights}")
        if not any(w > 0 for w in self.weights):
            raise ValidationError("at least one weight must be positive")
        total = sum(self.user_antennas)
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


def make_profile(
    base_antennas: int,
    user_antennas,
    weights=None,
) -> SystemProfile:
    """Validate and build a system profile; weights default to all ones."""
    antennas = tuple(int(r) for r in user_antennas)
    if weights is None:
        weights = (1.0,) * len(antennas)
    return SystemProfile(int(base_antennas), antennas, tuple(float(w) for w in weights))


def block_index_range(profile: SystemProfile, user: int) -> slice:
    """Row/column range of ``user`` (0-based) inside composite r x r matrices.

    Selecting these rows and columns of a composite matrix extracts the
    user's diagonal block without ever materializing a 0/1 selector matrix.
    """
    if not 0 <= user < profile.num_users:
        raise IndexError(f"user index {user} out of range for {profile.num_users} users")
    return profile.block_slices[user]


@dataclass(frozen=True)
class CorrelationModel:
    """Per-user Hermitian positive-definite antenna correlation matrices.

    A scalar block c_k * I models a pure near-far effect where c_k is the
    inverse path loss of user k.
    """

    blocks: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self) -> None:
        converted = []
        for k, block in enumerate(self.blocks):
            c = np.asarray(block, dtype=complex)
            if c.ndim != 2 or c.shape[0] != c.shape[1]:
                raise ValidationError(f"correlation block {k} is not square: shape {c.shape}")
            if not is_hermitian(c):
                raise ValidationError(f"correlation block {k} is not Hermitian")
            if float(np.linalg.eigvalsh(c)[0]) <= 0.0:
                raise ValidationError(f"correlation block {k} is not positive definite")
            converted.append(_readonly(c))
        object.__setattr__(self, "blocks", tuple(converted))

    @classmethod
    def identity(cls, profile: SystemProfile) -> "CorrelationModel":
        """Uncorrelated channels: C_k = I for every user."""
        return cls(tuple(np.eye(r, dtype=complex) for r in profile.user_antennas))

    @classmethod
    def scalar(cls, profile: SystemProfile, gains) -> "CorrelationModel":
        """Pure near-far model: C_k = c_k * I with positive per-user gains c_k."""
        gains = tuple(float(g) for g in gains)
        if len(gains) != profile.num_users:
            raise ValidationError(f"{len(gains)} gains for {profile.num_users} users")
        if any(g <= 0 for g in gains):
            raise ValidationError(f"path gains must be positive, got {gains}")
        return cls(
            tuple(g * np.eye(r, dtype=complex) for g, r in zip(gains, profile.user_antennas))
        )

    @classmethod
    def from_blocks(cls, blocks) -> "CorrelationModel":
        return cls(tuple(blocks))

    @property
    def antennas(self) -> tuple[int, ...]:
        return tuple(c.shape[0] for c in self.blocks)

    @cached_property
    def sqrt_blocks(self) -> tuple[np.ndarray, ...]:
        """Hermitian principal square roots of every block."""
        return tuple(
            _readonly(hermitian_sqrt(c, f"correlation block {k}"))
            for k, c in enumerate(self.blocks)
        )

    def block_logdet2(self, user: int) -> float:
        """log2-determinant of one correlation block."""
        return logdet2_hpd(self.blocks[user])


@dataclass(frozen=True)
class ChannelRealization:
    """Per-user channel matrices plus cached composite and Gram products.

    Immutable after construction; all derived matrices are cached lazily and
    exposed as read-only arrays, so realizations are safe to share across
    threads.
    """

    profile: SystemProfile
    blocks: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.blocks) != self.profile.num_users:
            raise ValidationError(
                f"{len(self.blocks)} channel blocks for {self.profile.num_users} users"
            )
        converted = []
        for k, (block, r_k) in enumerate(zip(self.blocks, self.profile.user_antennas)):
            h = np.asarray(block, dtype=complex)
            expected = (self.profile.base_antennas, r_k)
            if h.shape != expected:
                raise ValidationError(
                    f"channel block {k} has shape {h.shape}, expected {expected}"
                )
            if not np.isfinite(h).all():
                raise ValidationError(f"channel block {k} has non-finite entries")
            converted.append(_readonly(h))
        object.__setattr__(self, "blocks", tuple(converted))

    @classmethod
    def from_blocks(cls, profile: SystemProfile, blocks) -> "ChannelRealization":
        return cls(profile, tuple(blocks))

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
    def gram_eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of the Gram matrix."""
        return _readonly(np.linalg.eigvalsh(self.gram))

    @cached_property
    def gram_condition(self) -> float:
        smallest = float(self.gram_eigenvalues[0])
        if smallest <= 0.0:
            return float("inf")
        return float(self.gram_eigenvalues[-1]) / smallest

    def require_full_rank(self) -> None:
        """Raise unless the Gram matrix is numerically invertible."""
        if not _well_conditioned(self.gram_eigenvalues):
            raise NumericalRankError(
                f"Gram matrix condition number {self.gram_condition:.3e} "
                f"exceeds limit {COND_LIMIT:.0e}"
            )

    @cached_property
    def gram_logdet2(self) -> float:
        """log2-determinant of the Gram matrix."""
        self.require_full_rank()
        return logdet2_hpd(self.gram)

    @cached_property
    def gram_inverse(self) -> np.ndarray:
        self.require_full_rank()
        eye = np.eye(self.profile.total_antennas, dtype=complex)
        return _readonly(hermitize(solve_hpd(self.gram, eye)))

    @cached_property
    def pseudo_inverse(self) -> np.ndarray:
        """Left pseudo-inverse (H^H H)^{-1} H^H via Cholesky solve (valid since N >= r)."""
        self.require_full_rank()
        return _readonly(solve_hpd(self.gram, self.composite.conj().T))

    def gram_inverse_block(self, user: int) -> np.ndarray:
        """User's diagonal block of the inverse Gram matrix."""
        sl = block_index_range(self.profile, user)
        return hermitize(self.gram_inverse[sl, sl])


def _draw(
    rng: np.random.Generator, profile: SystemProfile, sqrt_blocks, count: int
) -> list[np.ndarray]:
    """Draw ``count`` channels from ``rng`` as per-user ``(count, N, r_k)`` stacks.

    User by user, one ``(count, 2, N, r_k)`` block of standard normals gives
    the real and then the imaginary parts of ``count`` raw matrices (unit
    variance per complex entry), which are right-multiplied by the user's
    correlation root.  With ``count == 1`` this is the stream of
    ``sample_channel``.
    """
    n = profile.base_antennas
    blocks = []
    for k, r_k in enumerate(profile.user_antennas):
        parts = rng.standard_normal((count, 2, n, r_k))
        raw = (parts[:, 0] + 1j * parts[:, 1]) * np.sqrt(0.5)
        if sqrt_blocks is not None:
            raw = (raw.reshape(count * n, r_k) @ sqrt_blocks[k]).reshape(count, n, r_k)
        blocks.append(raw)
    return blocks


def _sample_blocks(profile: SystemProfile, sqrt_blocks, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(int(seed) & _MASK64)
    return [block[0] for block in _draw(rng, profile, sqrt_blocks, 1)]


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
    roots = None
    if correlation is not None:
        if correlation.antennas != profile.user_antennas:
            raise ValidationError(
                f"correlation blocks sized {correlation.antennas} do not match "
                f"user antennas {profile.user_antennas}"
            )
        roots = correlation.sqrt_blocks
    return ChannelRealization(profile, tuple(_sample_blocks(profile, roots, seed)))
