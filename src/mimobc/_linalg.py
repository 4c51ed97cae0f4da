"""Shared complex linear-algebra helpers and the finiteness checks on inputs."""

from __future__ import annotations

from math import inf

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .errors import ValidationError

LN2 = float(np.log(2.0))

#: Relative tolerance for Hermitian symmetry checks.
HERMITIAN_TOL = 1e-12

#: Eigenvalues of a nominally PSD matrix may undershoot zero by this much.
PSD_CLAMP = 1e-12


def positive_finite(value, what: str) -> float:
    """``value`` as a float; ValidationError unless it is positive and finite (not NaN)."""
    value = float(value)
    if not 0.0 < value < inf:
        raise ValidationError(f"{what} must be positive and finite, got {value}")
    return value


def power_from_db(db: float) -> float:
    """Linear power 10^(db / 10); ``inf`` where the float range overflows."""
    try:
        return 10.0 ** (float(db) / 10.0)
    except OverflowError:
        return inf


def finite_matrix(a, what: str) -> np.ndarray:
    """``a`` as a complex array; ValidationError if any entry is NaN or infinite."""
    out = np.asarray(a, dtype=complex)
    if not np.isfinite(out).all():
        raise ValidationError(f"{what} has non-finite entries")
    return out


def hermitize(a: np.ndarray) -> np.ndarray:
    """Symmetrize a square matrix (or stack of them) against roundoff."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def is_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL):
    """True when A equals A^H within ``tol`` relative to the largest entry.

    On a stack of matrices, a boolean array with one verdict per matrix.
    """
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        return False
    axes = (-2, -1)
    scale = np.maximum(1.0, np.abs(a).max(axis=axes, initial=0.0))
    defect = np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=axes, initial=0.0)
    ok = defect <= tol * scale
    return bool(ok) if a.ndim == 2 else ok


def logdet2_hpd(a: np.ndarray):
    """log2-determinant of a Hermitian positive-definite matrix via Cholesky.

    On a stack of matrices, an array with one value per matrix.
    """
    chol = np.linalg.cholesky(a)
    value = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1).real), axis=-1) / LN2
    return float(value) if a.ndim == 2 else value


def solve_hpd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A X = B with A Hermitian positive definite.

    Calls LAPACK ``potrf``/``potrs`` directly (upper Cholesky factor, as
    ``scipy.linalg.cho_factor``/``cho_solve`` do, with the same results)
    because the scipy wrappers cost as much as the factorization on the
    small matrices used here.  Raises ``ValueError`` for non-finite input and
    ``numpy.linalg.LinAlgError`` when A is not positive definite.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    (potrf,) = get_lapack_funcs(("potrf",), (a,))
    factor, info = potrf(a, lower=False, overwrite_a=False, clean=False)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite"
        )
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal potrf")
    return solve_cholesky(factor, b, lower=False)


def solve_cholesky(factor: np.ndarray, b: np.ndarray, lower: bool = True) -> np.ndarray:
    """Solve A X = B from a Cholesky factor of A: L with A = L L^H, or U with A = U^H U.

    LAPACK ``potrs``, which reads only the factor's own triangle.
    """
    (potrs,) = get_lapack_funcs(("potrs",), (factor, b))
    x, info = potrs(factor, b, lower=lower, overwrite_b=False)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal potrs")
    return x


def invert_lower(factors: np.ndarray) -> np.ndarray:
    """Inverse of every nonsingular lower-triangular matrix of a ``(B, r, r)`` stack.

    The factors' entries above the diagonal must be zero; their diagonals may
    be complex.  Returns a new C-contiguous stack.  The Python loop runs over
    the shorter axis: a stack of at least r factors is inverted by forward
    substitution, row i of every L^-1 at once in step i; a shorter one by
    LAPACK ``trtri``, one factor at a time.  Either way the inverse costs
    about a third of the flops of an LU inverse.
    """
    count, r = factors.shape[0], factors.shape[-1]
    out = np.zeros(factors.shape, dtype=factors.dtype)
    if count >= r:
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
    (trtri,) = get_lapack_funcs(("trtri",), (factors,))
    for factor, inverse in zip(factors, out):
        x, info = trtri(factor, lower=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"trtri failed with info={info}")
        inverse[...] = x
    return out


def hermitian_sqrt(a: np.ndarray, what="matrix") -> np.ndarray:
    """Principal Hermitian square root via eigendecomposition, of a matrix or a stack.

    Eigenvalues in [-PSD_CLAMP, 0] are clamped to zero; anything more negative
    means the input is not positive semidefinite and raises ValidationError,
    naming the matrix by ``what`` (for a stack, a sequence of one name per
    matrix).
    """
    values, vectors = np.linalg.eigh(hermitize(a))
    if values.shape[-1]:
        bad = values[..., 0] < -PSD_CLAMP
        if bad.any():
            first = int(np.argmax(bad))
            name = what if isinstance(what, str) else what[first]
            raise ValidationError(
                f"{name} is not positive semidefinite "
                f"(min eigenvalue {values[..., 0].flat[first]:.3e})"
            )
    scaled = vectors * np.sqrt(np.maximum(values, 0.0))[..., None, :]
    return hermitize(scaled @ vectors.conj().swapaxes(-1, -2))


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
