"""Shared complex linear-algebra helpers and the finiteness checks on inputs."""

from __future__ import annotations

from contextlib import suppress
from math import inf, isfinite

import numpy as np

from .errors import ValidationError

LN2 = float(np.log(2.0))

#: Tolerance of the Hermitian and semidefinite input checks, relative to the
#: matrix's largest entry (at least 1).
HERMITIAN_TOL = 1e-12

#: ``invert_lower`` inverts factors of at most this size by forward substitution
#: even one at a time: its cost grows with r (about 20 us at r = 2 to 65 us at
#: r = 8, one factor), while the block inverse of a shorter stack costs about
#: 60 us at any r up to ``_INVERSE_BLOCK``, and the two cross at r = 7-8.
SUBSTITUTION_MAX_SIZE = 8

#: Diagonal block size of ``invert_lower``'s block forward substitution.  On
#: one r = 64 factor (x86_64, one BLAS thread): LU on 16 x 16 blocks about
#: 165 us, on 8 x 8 or 32 x 32 blocks about 190 us; numpy has no LAPACK ``trtri``.
_INVERSE_BLOCK = 16


def number(value, what: str) -> float:
    """``value`` as a float; ValidationError for a boolean, a string or a non-numeric value."""
    if not isinstance(value, (bool, np.bool_, str)):
        with suppress(TypeError, ValueError, OverflowError):
            return float(value)
    raise ValidationError(f"{what} must be a number, got {value!r}")


def integer(value, what: str) -> int:
    """``value`` as an int; ValidationError for a boolean, a string or a non-integral number."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    with suppress(ValidationError):
        if number(value, what).is_integer():
            return int(value)
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def finite(value, what: str) -> float:
    """``value`` as a float; ValidationError unless it is a finite ``number``."""
    value = number(value, what)
    if not isfinite(value):
        raise ValidationError(f"{what} is non-finite: {value}")
    return value


def positive_finite(value, what: str) -> float:
    """``value`` as a float; ValidationError unless it is a positive and finite ``number``."""
    value = number(value, what)
    if not 0.0 < value < inf:
        raise ValidationError(f"{what} must be positive and finite, got {value}")
    return value


def trial_count(value) -> int:
    """``value`` as an ``integer`` number of Monte Carlo trials; ValidationError below 2."""
    trials = integer(value, "trials")
    if trials < 2:
        raise ValidationError(f"need at least 2 trials, got {trials}")
    return trials


def power_from_db(db: float) -> float:
    """Linear power 10^(db / 10); ``inf`` where the float range overflows."""
    try:
        return 10.0 ** (float(db) / 10.0)
    except OverflowError:
        return inf


def linear_power(db, what: str) -> float:
    """``power_from_db`` of a ``number`` of dB; ValidationError unless it is ``positive_finite``."""
    db = number(db, what)
    return positive_finite(power_from_db(db), f"{what} {db} dB as a linear power")


def power_grid(points, what: str) -> tuple[float, ...]:
    """A power grid's dB points as floats.

    ValidationError unless ``points`` is a non-empty, strictly ascending
    sequence of numbers, each with a ``linear_power``.
    """
    try:
        grid = tuple(number(p, f"{what} point") for p in points)
    except TypeError as exc:
        raise ValidationError(f"{what} must be a list of dB values, got {points!r}") from exc
    if not grid:
        raise ValidationError(f"{what} must not be empty")
    for db in grid:
        linear_power(db, f"{what} point")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError(f"{what} must be strictly ascending, got {list(grid)}")
    return grid


def finite_matrix(a, what: str) -> np.ndarray:
    """``a`` as a complex array; ValidationError if any entry is NaN or infinite."""
    out = np.asarray(a, dtype=complex)
    if not np.isfinite(out).all():
        raise ValidationError(f"{what} has non-finite entries")
    return out


def hermitize(a: np.ndarray) -> np.ndarray:
    """Symmetrize a square matrix or a stack of them against roundoff, without overflow."""
    half = 0.5 * a
    return half + half.conj().swapaxes(-1, -2)


def hermitian_input(a, what: str, definite: bool) -> np.ndarray:
    """``a`` as a complex matrix, checked where a Hermitian input enters.

    ValidationError, naming the matrix by ``what``, unless it is finite, square
    and Hermitian within ``HERMITIAN_TOL`` times its largest entry magnitude (at
    least 1), with a smallest eigenvalue > 0 if ``definite`` and otherwise at
    least -``HERMITIAN_TOL`` times that scale.
    """
    m = finite_matrix(a, what)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{what} is not square: shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    if np.abs(m - m.conj().T).max(initial=0.0) > HERMITIAN_TOL * scale:
        raise ValidationError(f"{what} is not Hermitian")
    lowest = float(np.linalg.eigvalsh(m)[0]) if len(m) else inf
    if (lowest <= 0.0) if definite else (lowest < -HERMITIAN_TOL * scale):
        raise ValidationError(f"{what} is not positive {'definite' if definite else 'semidefinite'}")
    return m


def log2_diagonal(factor: np.ndarray) -> np.ndarray:
    """log2|R^H R| from a stack of triangular factors R (or their adjoints)."""
    return 2.0 * np.log(np.abs(np.diagonal(factor, axis1=-2, axis2=-1))).sum(axis=-1) / LN2


def logdet2_hpd(a: np.ndarray):
    """log2-determinant of a Hermitian positive-definite matrix via Cholesky.

    On a stack of matrices, an array with one value per matrix.
    """
    value = log2_diagonal(np.linalg.cholesky(a))
    return float(value) if a.ndim == 2 else value


def invert_lower(factors: np.ndarray) -> np.ndarray:
    """Inverse of every nonsingular lower-triangular matrix of a ``(B, r, r)`` stack.

    The factors' entries above the diagonal must be zero; their diagonals may
    be complex.  Returns a new C-contiguous, exactly lower-triangular stack.
    A stack of at least r factors, or of factors of at most
    ``SUBSTITUTION_MAX_SIZE``, is inverted by forward substitution, row i of
    every L^-1 at once in step i.  A shorter stack of larger factors is
    inverted by block forward substitution on ``_INVERSE_BLOCK`` rows: one
    batched LU inverse of all diagonal blocks, the last one padded with the
    identity, then block row I of every L^-1 at once in step I.  Either way the
    inverse costs about a third of the flops of an LU inverse of the whole
    factor.
    """
    count, r = factors.shape[0], factors.shape[-1]
    out = np.zeros(factors.shape, dtype=factors.dtype)
    if not count:
        return out
    if count >= r or r <= SUBSTITUTION_MAX_SIZE:
        inv_diag = 1.0 / np.diagonal(factors, axis1=-2, axis2=-1)
        diagonal = np.arange(r)
        out[:, diagonal, diagonal] = inv_diag
        scales = -inv_diag[:, :, None, None]
        for i in range(1, r):
            # X[i, :i] = -L[i, :i] X[:i, :i] / L[i, i], from L X = I with X lower-triangular
            row = out[:, i : i + 1, :i]
            np.matmul(factors[:, i : i + 1, :i], out[:, :i, :i], out=row)
            row *= scales[:, i]
        return out
    b = _INVERSE_BLOCK
    edges = [*range(0, r, b), r]
    spans = list(zip(edges, edges[1:]))
    blocks = np.zeros((count, len(spans), b, b), dtype=factors.dtype)
    if r % b:
        blocks[:, -1] = np.eye(b)
    for j, (lo, hi) in enumerate(spans):
        blocks[:, j, : hi - lo, : hi - lo] = factors[:, lo:hi, lo:hi]
    # LU leaves rounding above the diagonal of a triangular inverse
    inverses = np.tril(np.linalg.inv(blocks))
    for j, (lo, hi) in enumerate(spans):
        inverse = inverses[:, j, : hi - lo, : hi - lo]
        out[:, lo:hi, lo:hi] = inverse
        if lo:
            # X[I, :s] = -X_II (L[I, :s] X[:s, :s]), from L X = I with X lower-triangular
            np.matmul(-inverse, factors[:, lo:hi, :lo] @ out[:, :lo, :lo], out=out[:, lo:hi, :lo])
    return out


def hermitian_sqrt(a: np.ndarray) -> np.ndarray:
    """Principal Hermitian square root of a positive semidefinite matrix via eigendecomposition.

    The input is checked where it entered (``hermitian_input``); eigenvalues
    that rounding left below zero are clamped to zero.
    """
    values, vectors = np.linalg.eigh(hermitize(a))
    return hermitize((vectors * np.sqrt(np.maximum(values, 0.0))) @ vectors.conj().T)


def normalize_eigenvector_phases(vectors: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude entry real positive, in a matrix or a stack."""
    leading = np.argmax(np.abs(vectors), axis=-2)[..., None, :]
    lead = np.take_along_axis(vectors, leading, axis=-2)
    return vectors / (lead / np.abs(lead))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary matrix (QR of a complex Gaussian)."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))
