"""Factorial-weighted analytic representation on the complex plane.

A state maps to U(u) = sum_n conj(f_n) u^n / n!, an entire function related
to the disk function by a Laplace transform: Z(z) = (1/z) * LT[U](1/z) for
Re z > 0. Under the inverse transform the multiplicative inner/outer split
becomes a convolution along the segment [0, u], with the outer part picking
up a point mass at u = 0.

Delta atoms follow the symmetric convention: a delta sitting at an endpoint
of an integration range contributes half its weight. That makes LT[2 delta]
= 1 and keeps U(0) = conj(f_0) for zero-free (outer) states.

Transform maps between coefficient sequences use the exact termwise rule
int_0^inf u^n e^{-u/z} du = n! z^{n+1}; only the forward integral itself is
ever discretised (Gauss-Laguerre on the ray through z), so the integral
identity can be tested against the exact series route.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IllConditionedError
from .factorization import FactoredState
from .series import series_eval
from .states import FockState

_GL_ORDER = 64
_REPRESENTED = 171  # 1/n! is a normal double for n < 171, then underflows
_LOG_TOL = math.log(1e-10)  # accuracy target of a truncated tail
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)

# Trapezoid rule for K0(x) = int_0^inf e^{-x cosh t} dt (Trefethen & Weideman,
# SIAM Rev. 56, 2014): with step 0.05 on [0, 22] it is within 5e-15 relative
# of K0 for 1e-6 <= x <= 100; past x ~ 200 the step no longer resolves the
# integrand's width 1/sqrt(x), and below 1e-6 the tail past t = 22 counts.
_K0_STEP = 0.05
_K0_COSH = np.cosh(np.arange(0.0, 22.0 + _K0_STEP / 2, _K0_STEP))
_K0_WEIGHTS = np.full(_K0_COSH.size, _K0_STEP)
_K0_WEIGHTS[0] /= 2
_K0_SMALL = 1e-6
_EULER_GAMMA = 0.5772156649015329
# I0(x) K0(x) switches from the trapezoid to its large-x expansion here,
# where six terms of the expansion are within 1e-16.
_I0K0_EXPANSION_FROM = 100.0


def _inverse_factorials(count: int) -> np.ndarray:
    """1/n! for n < count, correctly rounded; 0 once it underflows (n >= 178).

    int / int true division rounds correctly at any size of n!.
    """
    out = np.zeros(count)
    factorial = 1
    for n in range(count):
        factorial *= max(n, 1)
        out[n] = 1 / factorial
        if out[n] == 0.0:
            break
    return out


@dataclass(frozen=True, eq=False)
class BGFunction:
    """Point mass at u = 0 plus a smooth Taylor series in u."""

    atom: complex
    smooth: np.ndarray
    radius_hint: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.smooth, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "smooth", arr)

    def __call__(self, u):
        """Evaluate the smooth part (the atom is a distribution, not a value)."""
        u = np.asarray(u, dtype=complex)
        if np.any(np.abs(u) > self.radius_hint):
            warnings.warn(
                "evaluation beyond the validated radius "
                f"{self.radius_hint:.3g}; truncation error may exceed 1e-10",
                stacklevel=2,
            )
        return series_eval(self.smooth, u)


def _tail_model(smooth: np.ndarray) -> tuple[float, int, float]:
    """(log|f_d|, d, log rho) of the geometric tail f_{d+k} ~ f_d rho^k.

    d is the last n < 171 where g_n = f_n / n! is a normal double (a
    subnormal has too few bits); rho is the mean rate since the last such
    n <= d/2, which averages out the zeros of a parity state and the beats
    of a superposition. Without two such terms rho is infinite.
    """
    c = np.abs(np.asarray(smooth))[:_REPRESENTED]
    n = np.flatnonzero(c >= np.finfo(float).tiny)
    if n.size < 2:
        return 0.0, 0, math.inf
    m, d = int(np.max(n[n <= n[-1] // 2], initial=n[0])), int(n[-1])
    log_fm, log_fd = (math.log(c[k]) + math.lgamma(k + 1.0) for k in (m, d))
    return log_fd, d, (log_fd - log_fm) / (d - m)


def _log_tail(log_a: float, d: int, log_ratio: float, r):
    """log of sum_{k>=1} a r^d q^k = a r^d q/(1-q), q = ratio r; inf once q >= 1."""
    log_q = log_ratio + np.log(r)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_sum = log_a + d * np.log(r) + log_q - np.log(-np.expm1(log_q))
    return np.where(log_q < 0.0, log_sum, np.inf)


def _validated_radius(smooth: np.ndarray, source: np.ndarray) -> float:
    """Largest |u| (capped at 1e6) where the dropped tail stays below 1e-10.

    Past the tail model's d, g_{d+k} = f_{d+k} / (d+k)! <= g_d (rho/(d+1))^k.
    A source with a zero tail past the terms smooth = source_n / n! (n < 171)
    represents is an exact polynomial, which validates up to the cap.
    """
    last = np.flatnonzero(np.asarray(smooth)[:_REPRESENTED]).max(initial=0)
    if last == 0 or (last < source.size - 1 and not source[last + 1 :].any()):
        return 1e6  # exact polynomial: no truncated tail
    log_f, d, log_rho = _tail_model(smooth)
    log_g, log_ratio = log_f - math.lgamma(d + 1.0), log_rho - math.log(d + 1)
    t = 1.0
    while t < 1e6 and _log_tail(log_g, d, log_ratio, t) <= _LOG_TOL:
        t *= 1.25
    return t / 1.25


def _smooth_part(atom: complex, source: np.ndarray) -> BGFunction:
    """The point mass `atom` plus the series g_n = source_n / n!."""
    smooth = source * _inverse_factorials(source.size)
    return BGFunction(atom, smooth, _validated_radius(smooth, source))


def bg_function(state: FockState) -> BGFunction:
    """Representation of a plain state: no atom, g_n = conj(f_n)/n!."""
    return _smooth_part(0.0, np.conj(state.coeffs))


def _segment_quadrature(b, panels: int):
    """Gauss-Legendre nodes x = t b and weights on each segment [0, b], along
    a new last axis: every segment maps the same nodes t on [0, 1]."""
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    t = (mid[:, None] + half * _GL_NODES[None, :]).ravel()
    w = np.broadcast_to(half * _GL_WEIGHTS, (panels, _GL_ORDER)).ravel()
    b = np.asarray(b)[..., None]
    return b * t, b * w


@functools.cache
def _laguerre_rule(count: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.laguerre.laggauss(count)


def laplace_to_disk(bgf: BGFunction, z):
    """(1/z) int_0^inf U(u) e^{-u/z} du by Gauss-Laguerre on the ray u = t z.

    Valid for Re z > 0. U is a polynomial of degree d <= 177 (1/n! underflows
    past that), so by Cauchy's theorem the integral is int_0^inf U(t z) e^{-t}
    dt, which floor(d/2) + 1 Gauss-Laguerre nodes integrate exactly; every
    point of an array shares them. On the ray sum_k w_k |U(t_k z)| <=
    sum_n |f_n| |z|^n, the series' own condition number, bounds the rounding.
    Terms of a long source that 1/n! dropped are estimated from the geometric
    tail model, and a point where they may exceed 1e-10 is refused as
    ill-conditioned.
    """
    z = np.asarray(z, dtype=complex)
    if (z.real <= 0.0).any():
        raise DomainError("the transform integral needs Re z > 0")
    if (abs(z) >= 1.0).any():
        raise DomainError("|z| must be < 1")
    smooth = bgf.smooth
    if smooth.size > _REPRESENTED and bgf.radius_hint < 1e6:
        if (_log_tail(*_tail_model(smooth), abs(z)) > _LOG_TOL).any():
            raise IllConditionedError(
                "terms of the series lost to the underflow of 1/n! may exceed "
                "1e-10 at this z"
            )
    degree = np.flatnonzero(smooth).max(initial=0)
    t, w = _laguerre_rule(degree // 2 + 1)
    return series_eval(smooth[: degree + 1], z[..., None] * t) @ w + 0.5 * bgf.atom / z


def bg_factor_parts(fac: FactoredState) -> tuple[BGFunction, BGFunction]:
    """Map the outer/inner Taylor series into the transformed picture.

    The inner series c maps through the inverse transform of z * Z_in to the
    smooth function sum c_n u^n / n!. The outer series b maps through the
    inverse transform of Z_out itself (no z factor): the constant term
    becomes the atom 2 b_0 and b_{n} lands on u^{n-1} / (n-1)!.
    """
    return (
        _smooth_part(0.0, fac.inner_coeffs),
        _smooth_part(2.0 * complex(fac.outer_coeffs[0]), fac.outer_coeffs[1:]),
    )


def bg_convolve(u_in: BGFunction, u_out: BGFunction, u):
    """int_0^u U_in(x) U_out(u - x) dx along the straight segment.

    Endpoint atoms contribute half weight: the atom of U_out sits at x = u,
    the (normally absent) atom of U_in at x = 0. The points of an array u
    share the nodes t u, with one panel per unit of the largest |u|.
    """
    u = np.asarray(u, dtype=complex)
    x, w = _segment_quadrature(u, max(2, int(abs(u).max(initial=0.0)) + 2))
    vals = u_in(x) * u_out(u[..., None] - x)
    total = 0.5 * u_out.atom * u_in(u)
    total += 0.5 * u_in.atom * u_out(u)
    return total + np.sum(w * vals, axis=-1)


def bg_shifted(state: FockState, m: int, u):
    """Transformed function of the m-fold shifted state.

    The shift multiplies the disk function by z^m. The convolution of two
    transformed functions maps to z times the product of their disk
    functions, so for m >= 1 this is U(f) convolved with u^{m-1}/(m-1)!, the
    transform of z^{m-1}: `bg_shifted_from_outer` of U(f) with m - 1 (U(f)
    has no atom). m = 0 just evaluates U(f;u). u is a point or an array of
    points.
    """
    if m < 0:
        raise DomainError("shift must be non-negative")
    bgf = bg_function(state)
    if m == 0:
        return bgf(u)
    return bg_shifted_from_outer(bgf, m - 1, u)


def bg_shifted_from_outer(u_out: BGFunction, m: int, u):
    """Same shifted function, built from the outer factor part instead.

    `bg_convolve` of the transformed inner monomial u^m/m! with U_out, that
    is (1/m!) int_0^u (u-x)^m U_out(x) dx with the atom at x = 0 entering
    with half weight; u is a point or an array of points. m >= 171, where
    1/m! is no longer a normal double, is refused.
    """
    if m < 0:
        raise DomainError("shift must be non-negative")
    if m >= _REPRESENTED:
        raise DomainError(f"1/{m}! of the monomial u^{m}/{m}! is not a normal double")
    monomial = np.zeros(m + 1)
    monomial[m] = 1 / math.factorial(m)
    return bg_convolve(BGFunction(0.0, monomial, 1e6), u_out, u)


def _k0(x) -> np.ndarray:
    """Modified Bessel K0 elementwise for 0 < x <= 100.

    Trapezoid sum at the module nodes; below 1e-6, the small-x series
    -(ln(x/2) + gamma) I0(x) + x^2/4 to O(x^4 ln x).
    """
    x = np.asarray(x, dtype=float)
    trapezoid = np.exp(-x[..., None] * _K0_COSH) @ _K0_WEIGHTS
    small = np.minimum(x, _K0_SMALL)
    quarter = small * small / 4
    series = -(np.log(small / 2) + _EULER_GAMMA) * (1 + quarter) + quarter
    return np.where(x < _K0_SMALL, series, trapezoid)


def _i0k0_expansion(x: float) -> float:
    """I0(x) K0(x) for x >= 100 from its large-x expansion (DLMF 10.40.6, nu = 0).

    1/(2x) sum_k a_k / (2x)^{2k} with a_k = a_{k-1} (2k-1)^3 / (2k): every
    term is positive, and six reach 1e-16 relative at x = 100.
    """
    r = 1.0 / (2.0 * x)
    term = total = 1.0
    for k in range(1, 7):
        term *= (2 * k - 1) ** 3 / (2 * k) * r * r
        total += term
    return total * r


def bg_measure_weight(u: complex) -> float:
    """Density (2/pi) K0(2|u|) I0(2|u|) of the plane measure resolving identity.

    Diverges logarithmically (but integrably) at u = 0, which is therefore
    rejected; quadratures must route around it. The density decays like
    1/(2 pi |u|); past 2|u| = 100 it comes from the large-argument
    expansion of I0 K0, so neither Bessel factor overflows or underflows.
    """
    a = abs(complex(u))
    if a == 0.0:
        raise DomainError("weight is singular at u = 0 (integrable); avoid the point")
    x = 2.0 * a
    if x >= _I0K0_EXPANSION_FROM:
        return 2.0 / np.pi * _i0k0_expansion(x)
    return float(2.0 / np.pi * _k0(x) * np.i0(x))
