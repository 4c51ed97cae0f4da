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


def finite_matrix(a, what: str) -> np.ndarray:
    """``a`` as a complex array; ValidationError if any entry is NaN or infinite."""
    out = np.asarray(a, dtype=complex)
    if not np.isfinite(out).all():
        raise ValidationError(f"{what} has non-finite entries")
    return out


def hermitize(a: np.ndarray) -> np.ndarray:
    """Symmetrize a square matrix (or stack of them) against roundoff."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def is_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    """True when A equals A^H within ``tol`` relative to the largest entry."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    return float(np.max(np.abs(a - a.conj().T))) <= tol * scale if a.size else True


def logdet2_hpd(a: np.ndarray) -> float:
    """log2-determinant of a Hermitian positive-definite matrix via Cholesky."""
    chol = np.linalg.cholesky(a)
    return 2.0 * float(np.sum(np.log(np.diagonal(chol).real))) / LN2


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
    (potrs,) = get_lapack_funcs(("potrs",), (factor, b))
    x, info = potrs(factor, b, lower=False, overwrite_b=False)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal potrs")
    return x


def hermitian_sqrt(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Principal Hermitian square root via eigendecomposition.

    Eigenvalues in [-PSD_CLAMP, 0] are clamped to zero; anything more negative
    means the input is not positive semidefinite and raises ValidationError.
    """
    values, vectors = np.linalg.eigh(hermitize(a))
    if values.size and float(values[0]) < -PSD_CLAMP:
        raise ValidationError(
            f"{what} is not positive semidefinite (min eigenvalue {values[0]:.3e})"
        )
    root = (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.conj().T
    return hermitize(root)


def normalize_eigenvector_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    return vectors / (lead / np.abs(lead))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary matrix (QR of a complex Gaussian)."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))
