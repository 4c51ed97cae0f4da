"""Correctness references computed apart from the program.

The Digamma closed forms are evaluated with mpmath at 30 digits, and the
per-channel quantities with plain numpy (``slogdet``, ``eigvalsh``), so a
fault in the program's own Cholesky, Digamma or batching code cannot hide
in the reference it is checked against.
"""

from __future__ import annotations

import mpmath
import numpy as np

_CTX = mpmath.MPContext()
_CTX.dps = 30
_LN2 = _CTX.log(2)


def digamma(n: int) -> float:
    """psi(n) at 30 digits, rounded to a float."""
    return float(_CTX.digamma(n))


def _psi_sum(first: int, count: int):
    # sum_{l=0}^{count-1} psi(first - l)
    return _CTX.fsum(_CTX.digamma(first - el) for el in range(count))


def rate_loss_closed_form(base_antennas: int, antennas) -> float:
    """E[rate loss] in bits for i.i.d. channels: the Wishart / inverse-Wishart log moments.

    (1/ln 2) [sum_{l<r} psi(N - l) - sum_k sum_{l<r_k} psi(N - r + r_k - l)].
    """
    r = sum(antennas)
    total = _psi_sum(base_antennas, r)
    for r_k in antennas:
        total -= _psi_sum(base_antennas - r + r_k, r_k)
    return float(total / _LN2)


def affine_offsets(base_antennas: int, antennas, gains) -> tuple[float, float]:
    """Constant terms of the DPC and linear affine curves, in bits, for C_k = c_k I.

    DPC: E log2|G| = (1/ln 2) sum_{l<r} psi(N - l) + sum_k r_k log2 c_k.
    Linear: -sum_k E log2|[G^-1]_kk|
          = sum_k [(1/ln 2) sum_{l<r_k} psi(N - r + r_k - l) + r_k log2 c_k].
    """
    r = sum(antennas)
    gain_bits = _CTX.fsum(r_k * _CTX.log(c, 2) for r_k, c in zip(antennas, gains))
    dpc = _psi_sum(base_antennas, r) / _LN2 + gain_bits
    linear = (
        _CTX.fsum(_psi_sum(base_antennas - r + r_k, r_k) for r_k in antennas) / _LN2
        + gain_bits
    )
    return float(dpc), float(linear)


def affine_slope_term(total_antennas: int, power_db: float) -> float:
    """r log2 P - r log2 r with P = 10^(power_db / 10)."""
    power = _CTX.power(10, _CTX.mpf(power_db) / 10)
    return float(total_antennas * (_CTX.log(power, 2) - _CTX.log(total_antennas, 2)))


def rate_loss_bits(composite: np.ndarray, antennas) -> float:
    """log2|G| + sum_k log2|[G^-1]_kk| with G = H^H H, by LU ``slogdet``."""
    return gram_logdet_bits(composite) + sum(inverse_block_logdets(composite, antennas))


def inverse_block_logdets(composite: np.ndarray, antennas) -> list[float]:
    """log2|[G^-1]_kk| for every user k."""
    inverse = np.linalg.inv(composite.conj().T @ composite)
    edges = np.concatenate(([0], np.cumsum(antennas)))
    return [
        float(np.linalg.slogdet(inverse[a:b, a:b])[1] / np.log(2.0))
        for a, b in zip(edges[:-1], edges[1:])
    ]


def gram_logdet_bits(composite: np.ndarray) -> float:
    return float(np.linalg.slogdet(composite.conj().T @ composite)[1] / np.log(2.0))


def dpc_bounds(composite: np.ndarray, power: float) -> tuple[float, float]:
    """Uniform-power and full-power bounds on the DPC sum capacity, in bits.

    log2|I + (P/r) H^H H| <= C(P) <= log2|I + P H^H H|: the lower bound is the
    even split, the upper bound gives every stream the whole budget.
    """
    r = composite.shape[1]
    eig = np.clip(np.linalg.eigvalsh(composite.conj().T @ composite), 0.0, None)
    lower = float(np.sum(np.log2(1.0 + power / r * eig)))
    upper = float(np.sum(np.log2(1.0 + power * eig)))
    return lower, upper
