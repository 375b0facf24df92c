"""Truncated power-series arithmetic used by the factorisation pipeline.

Series are plain 1-d complex arrays of Taylor coefficients, lowest order
first. All operations truncate to the requested length.

Products of two operands that both reach 512 terms (after the cut to the
requested length) are taken by a zero-padded FFT, O(N log N); shorter ones
by `np.convolve`, whose bits they keep. An FFT product rounds relative to
the largest coefficients of its operands, not to each output coefficient
(Bernstein, "Fast multiplication and its applications", 2008): its error
stays within a few eps * |a|_2 |b|_2 (tests/test_series.py), so the small
tail coefficients of a product carry an absolute, not a relative, error.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# both operands at least this long take the FFT product. Squared operands
# of 256 terms cost about the same either way (44 us convolve, 47 us FFT),
# of 512 terms 135 against 76 us; products under it keep their bits.
_FFT_MIN_TERMS = 512


def series_mul(a: np.ndarray, b: np.ndarray, length: int) -> np.ndarray:
    """Cauchy product truncated to `length` coefficients."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.zeros(length, dtype=complex)
    if min(a.size, b.size, length) >= _FFT_MIN_TERMS:
        a, b = a[:length], b[:length]
        size = 1 << (a.size + b.size - 2).bit_length()  # next_pow2(len a + len b - 1)
        full = _fft_product(a, b, size)
    else:
        full = np.convolve(a, b)
    k = min(length, a.size + b.size - 1)
    out[:k] = full[:k]
    return out


def _fft_product(a: np.ndarray, b: np.ndarray, size: int) -> np.ndarray:
    """Cyclic product of size `size` by FFT, without overflow in the transforms.

    Operands near the float range are first scaled by exact powers of two
    (max|Re|, |Im| into [1/2, 1)) and the product scaled back; in the
    normal range nothing is scaled, so the bits do not change.
    """
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    a_max = float(np.abs(a.view(float)).max())
    b_max = float(np.abs(b.view(float)).max())
    # each transform stays within |a|_1 <= sqrt(2) len(a) a_max, their product
    # within 2 len(a) len(b) a_max b_max, and the inverse before its 1/size
    # within size times that
    ea = eb = 0
    if not a_max * b_max * (2.0 * a.size * b.size * size) < sys.float_info.max:
        ea, eb = math.frexp(a_max)[1], math.frexp(b_max)[1]
        a = np.ldexp(a.view(float), -ea).view(complex)
        b = np.ldexp(b.view(float), -eb).view(complex)
    full = np.fft.ifft(np.fft.fft(a, size) * np.fft.fft(b, size))
    if ea + eb:
        np.ldexp(full.view(float), ea + eb, out=full.view(float))
    return full


def series_div(a: np.ndarray, b: np.ndarray, length: int) -> np.ndarray:
    """Quotient c with b * c = a to `length` terms (requires b[0] != 0).

    1/b comes from Newton's iteration r <- r - r (b r - 1), which doubles
    the number of correct terms per step (Brent & Kung, J. ACM 25, 1978);
    b r - 1 vanishes below the current order, so only its upper half is kept.
    The steps whose operands reach 512 terms, and the final product, take
    the FFT route of `series_mul`; below that the quotient keeps its bits.
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
