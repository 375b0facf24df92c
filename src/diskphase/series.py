"""Truncated power-series arithmetic used by the factorisation pipeline.

Series are plain 1-d complex arrays of Taylor coefficients, lowest order
first. All operations truncate to the requested length.
"""

from __future__ import annotations

import numpy as np


def series_mul(a: np.ndarray, b: np.ndarray, length: int) -> np.ndarray:
    """Cauchy product truncated to `length` coefficients."""
    full = np.convolve(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    out = np.zeros(length, dtype=complex)
    k = min(length, full.size)
    out[:k] = full[:k]
    return out


def series_div(a: np.ndarray, b: np.ndarray, length: int) -> np.ndarray:
    """Quotient c with b * c = a to `length` terms (requires b[0] != 0).

    1/b comes from Newton's iteration r <- r - r (b r - 1), which doubles
    the number of correct terms per step (Brent & Kung, J. ACM 25, 1978);
    b r - 1 vanishes below the current order, so only its upper half is kept.
    """
    b = np.asarray(b, dtype=complex)
    if b[0] == 0:
        raise ZeroDivisionError("leading series coefficient is zero")
    r = np.array([1.0 / b[0]])
    k = 1
    while k < length:
        k2 = min(2 * k, length)
        e = series_mul(b[:k2], r, k2)[k:]
        r = np.concatenate((r, -series_mul(r, e, k2 - k)))
        k = k2
    return series_mul(a, r, length)


def series_eval(coeffs: np.ndarray, z):
    """Horner evaluation of sum_n coeffs[n] z^n (scalar or array z)."""
    return np.polyval(np.asarray(coeffs, dtype=complex)[::-1], z)
