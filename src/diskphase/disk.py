"""Analytic disk functions, boundary samples, kernels, phase distributions.

The analytic function of a state f is Z(f;z) = sum_n conj(f_n) z^n on the
open unit disk; its radial boundary values live on the unit circle and are
sampled here on a midpoint grid theta_j = -pi + (2j+1) pi / M. Midpoints
keep the sampled |boundary| away from the exact root angles of the catalog
states, so the clamped log stays finite and integrable singularities only
cost documented quadrature accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AliasingError, DomainError, IllConditionedError
from .series import series_eval
from .states import FockState

# ln|.| samples are clamped below at this value (e^-700 ~ 1e-304).
LOG_FLOOR = -700.0


def next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


def default_grid_size(truncation: int, top: int = 0) -> int:
    """The default midpoint grid: the smallest power of two that is >= 4 N,
    >= 8 and > top, so that harmonics up to `top` are resolved."""
    return next_pow2(max(4 * truncation, 8, top + 1))


def midpoint_grid(grid_size: int) -> np.ndarray:
    j = np.arange(grid_size)
    return -np.pi + (2 * j + 1) * np.pi / grid_size


@lru_cache(maxsize=8)
def _twist_table(grid_size: int) -> np.ndarray:
    """Read-only twist_n for every n < M, filled once per grid size."""
    twist = np.exp(1j * np.pi * np.arange(grid_size) / grid_size)
    twist[1::2] *= -1.0
    twist.setflags(write=False)
    return twist


@lru_cache(maxsize=8)
def circle_points(grid_size: int) -> np.ndarray:
    """Read-only e^{i theta_j} on the midpoint grid, filled once per grid size."""
    points = np.exp(1j * midpoint_grid(grid_size))
    points.setflags(write=False)
    return points


def _twist(length: int, grid_size: int) -> np.ndarray:
    """twist_n = (-1)^n e^{i pi n / M}, n < length, so that on the midpoint grid
    e^{i n theta_j} = twist_n e^{2 pi i n j / M}.

    The sign is exact and the angle is below pi; the equal e^{i pi n (1/M - 1)}
    rounds an angle near pi n and is off by about n pi eps. The result is a
    read-only slice of the table cached for M.
    """
    return _twist_table(grid_size)[:length]


def circle_values(coeffs: np.ndarray, grid_size: int) -> np.ndarray:
    """sum_n coeffs[..., n] e^{i n theta_j} on the midpoint grid via zero-padded FFT.

    Works along the last axis, so each row of a 2-d array is one series.
    Only the first L = coeffs.shape[-1] padded entries are nonzero, so only
    they are twisted.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    m = grid_size
    length = coeffs.shape[-1]
    if length > m:
        raise AliasingError(f"grid {m} smaller than series length {length}")
    a = np.zeros(coeffs.shape[:-1] + (m,), dtype=complex)
    np.multiply(coeffs, _twist(length, m), out=a[..., :length])
    out = np.fft.ifft(a, axis=-1)
    out *= m
    return out


def hermitian_circle_values(coeffs: np.ndarray, grid_size: int) -> np.ndarray:
    """sum_{|n| < L} c_n e^{i n theta_j} on the midpoint grid for c_{-n} = conj(c_n).

    Only the half c_0..c_{L-1} = coeffs[..., :L] is given, and one real
    inverse FFT of M // 2 + 1 bins per row makes the real output; Im c_0 is
    ignored. Harmonics past M / 2 fold onto bin M - n as their conjugates,
    and the Nyquist bin of an even grid, where n = M / 2 meets -n, holds
    twice the real part.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    m = grid_size
    length = coeffs.shape[-1]
    if length > m:
        raise AliasingError(f"grid {m} smaller than series length {length}")
    bins = m // 2 + 1
    live = min(length, bins)
    twist = _twist(length, m)
    spec = np.zeros(coeffs.shape[:-1] + (bins,), dtype=complex)
    np.multiply(coeffs[..., :live], twist[:live], out=spec[..., :live])
    if length > bins:
        folded = np.conj(coeffs[..., bins:] * twist[bins:])
        spec[..., m - length + 1 : m - bins + 1] += folded[..., ::-1]
    if m % 2 == 0 and length > m // 2:
        spec[..., -1] = 2.0 * spec[..., -1].real
    return np.fft.irfft(spec, n=m, axis=-1, norm="forward")


def circle_coefficients(values: np.ndarray, length: int) -> np.ndarray:
    """The first `length` Fourier coefficients of midpoint-grid samples.

    Inverse of `circle_values`: c_k = conj(twist_k) FFT_k / M, twisted for
    k < length only.
    """
    m = np.shape(values)[-1]
    if length > m:
        raise AliasingError(f"grid {m} smaller than series length {length}")
    live = np.fft.fft(values)[..., :length]
    return np.conj(_twist(length, m)) * (live / m)


@dataclass(frozen=True, eq=False)
class BoundarySamples:
    """Boundary function samples on the midpoint grid, plus clamped log-modulus."""

    grid_size: int
    theta: np.ndarray
    values: np.ndarray
    log_abs: np.ndarray

    def __post_init__(self) -> None:
        for name in ("theta", "values", "log_abs"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def boundary(state: FockState, grid_size: int | None = None) -> BoundarySamples:
    """Sample the boundary function of `state` on a midpoint grid.

    Requires grid_size >= 2 N (and a power of two) so |values|^2, of
    bandwidth 2N, is alias-free.
    """
    n = state.truncation
    m = default_grid_size(n) if grid_size is None else int(grid_size)
    if m & (m - 1):
        raise DomainError(f"grid size {m} is not a power of two")
    if m < 2 * n:
        raise AliasingError(f"grid {m} < 2 x truncation {n}")
    values = circle_values(np.conj(state.coeffs), m)
    log_abs = np.maximum(np.log(np.maximum(np.abs(values), 1e-300)), LOG_FLOOR)
    return BoundarySamples(m, midpoint_grid(m), values, log_abs)


def eval_Z(state: FockState, z):
    """Evaluate the analytic function at interior points (|z| < 1)."""
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z) >= 1.0):
        raise DomainError("eval_Z requires |z| < 1; use boundary() on the circle")
    out = series_eval(np.conj(state.coeffs), z)
    return complex(out) if out.ndim == 0 else out


def phase_distribution(state: FockState, grid_size: int | None = None) -> np.ndarray:
    """P(theta_j) = |boundary|^2 / (2 pi) on the midpoint grid."""
    samples = boundary(state, grid_size)
    return np.abs(samples.values) ** 2 / (2.0 * np.pi)


def _check_radius(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if np.any(r < 0) or np.any(r >= 1):
        raise DomainError("kernel radius must satisfy 0 <= r < 1")
    return r


def cauchy(r, theta):
    """C(r, theta) = 1 / (1 - r e^{i theta})."""
    r = _check_radius(r)
    return 1.0 / (1.0 - r * np.exp(1j * np.asarray(theta, dtype=float)))


def poisson(r, theta):
    """Real part of 2C - 1 (the approximate-identity kernel on the circle)."""
    return (2.0 * cauchy(r, theta) - 1.0).real


def conjugate(r, theta):
    """Imaginary part of 2C - 1 (harmonic conjugate of the kernel above)."""
    return (2.0 * cauchy(r, theta) - 1.0).imag


def reconstruct_from_boundary(samples: BoundarySamples, z: complex) -> complex:
    """Recover Z(z) from boundary samples by quadrature against the Cauchy kernel.

    Periodic trapezoid on the midpoint grid; aliasing error decays like
    |z|^M, so keep |z| <= 0.99.
    """
    z = complex(z)
    if abs(z) > 0.99:
        raise IllConditionedError("reconstruction needs |z| <= 0.99")
    kernel = 1.0 / (1.0 - z * np.exp(-1j * samples.theta))
    return complex(np.mean(kernel * samples.values))
