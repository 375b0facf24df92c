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
ever discretised (Gauss-Legendre panels), so the integral identity can be
tested against the exact series route.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IllConditionedError
from .factorization import FactoredState
from .series import series_eval
from .states import FockState

_GL_ORDER = 64
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)


def _log_factorial(n: np.ndarray) -> np.ndarray:
    """log n! elementwise, from math.lgamma (scipy.special stays unloaded)."""
    return np.array([math.lgamma(k + 1.0) for k in n.tolist()])


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
        out = series_eval(self.smooth, u)
        return complex(out) if out.ndim == 0 else out


def _validated_radius(smooth: np.ndarray) -> float:
    """Largest |u| (capped at 1e6) where the dropped tail stays below 1e-10.

    The next-coefficient magnitude is estimated by geometric extrapolation
    of the trailing coefficients; a polynomial with a zero tail validates
    everywhere up to the cap.
    """
    c = np.abs(np.asarray(smooth))
    nz = np.nonzero(c > 0)[0]
    if nz.size == 0:
        return 1e6
    last = nz[-1]
    if last < smooth.size - 1 or last == 0:
        return 1e6  # exact polynomial: no truncated tail
    ratio = min(1.0, c[last] / c[last - 1] if c[last - 1] > 0 else 1.0)
    # first dropped term ~ c_last * ratio * t^{last+1}, geometric beyond
    log_tol = math.log(1e-10)
    log_c = math.log(c[last]) + math.log(max(ratio, 1e-300))
    t = 1.0
    while t < 1e6:
        q = ratio * t
        if q >= 0.999:
            break
        if log_c + (last + 1) * math.log(t) - math.log1p(-q) > log_tol:
            break
        t *= 1.25
    return t / 1.25


def bg_function(state: FockState) -> BGFunction:
    """Representation of a plain state: no atom, g_n = conj(f_n)/n!."""
    smooth = np.conj(state.coeffs) * _inverse_factorials(state.truncation)
    return BGFunction(0.0, smooth, _validated_radius(smooth))


def _growth_rate(smooth: np.ndarray) -> float:
    """Exponential-type estimate limsup |n! g_n|^{1/n} of the smooth part.

    Taken in logs, so n! never has to be formed.
    """
    c = np.abs(np.asarray(smooth))
    n = np.arange(max(8, c.size // 2), c.size)
    n = n[c[n] > 0]
    if n.size == 0:
        return 0.0
    return float(np.exp(np.max((np.log(c[n]) + _log_factorial(n)) / n)))


def _segment_quadrature(a: complex, b: complex, panels: int):
    """Gauss-Legendre nodes/weights on the straight segment from a to b."""
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    t = (mid[:, None] + half * _GL_NODES[None, :]).ravel()
    w = np.broadcast_to(half * _GL_WEIGHTS, (panels, _GL_ORDER)).ravel()
    return a + (b - a) * t, (b - a) * w


def laplace_to_disk(bgf: BGFunction, z: complex) -> complex:
    """(1/z) int_0^inf U(u) e^{-u/z} du by panelled Gauss-Legendre quadrature.

    Valid for Re z > 0. The horizon is set where the integrand's decay
    margin (Re(1/z) minus the growth rate of U) has suppressed the tail
    below ~1e-13; too small a margin is refused as ill-conditioned.
    """
    z = complex(z)
    if z.real <= 0.0:
        raise DomainError("the transform integral needs Re z > 0")
    if abs(z) >= 1.0:
        raise DomainError("|z| must be < 1")
    decay = (1.0 / z).real
    margin = decay - _growth_rate(bgf.smooth)
    if margin < 0.05:
        raise IllConditionedError(
            "Re(1/z) too close to the growth rate of U; integral is not "
            "numerically resolvable at this z"
        )
    horizon = (34.0 + 0.5 * math.log1p(bgf.smooth.size)) / margin
    osc = abs((1.0 / z).imag)
    width = min(1.0, 2.0 * np.pi / (4.0 * osc + 1e-12), horizon)
    panels = max(8, int(math.ceil(horizon / width)))
    u, w = _segment_quadrature(0.0, horizon, panels)
    integrand = series_eval(bgf.smooth, u) * np.exp(-u / z)
    total = np.sum(w * integrand) + 0.5 * bgf.atom
    return complex(total / z)


def bg_factor_parts(fac: FactoredState) -> tuple[BGFunction, BGFunction]:
    """Map the outer/inner Taylor series into the transformed picture.

    The inner series c maps through the inverse transform of z * Z_in to the
    smooth function sum c_n u^n / n!. The outer series b maps through the
    inverse transform of Z_out itself (no z factor): the constant term
    becomes the atom 2 b_0 and b_{n} lands on u^{n-1} / (n-1)!.
    """
    n = fac.inner_coeffs.size
    inv = _inverse_factorials(n)
    in_smooth = fac.inner_coeffs * inv
    out_smooth = fac.outer_coeffs[1:] * inv[:-1]
    u_in = BGFunction(0.0, in_smooth, _validated_radius(in_smooth))
    u_out = BGFunction(
        2.0 * complex(fac.outer_coeffs[0]), out_smooth, _validated_radius(out_smooth)
    )
    return u_in, u_out


def bg_convolve(u_in: BGFunction, u_out: BGFunction, u: complex) -> complex:
    """int_0^u U_in(x) U_out(u - x) dx along the straight segment.

    Endpoint atoms contribute half weight: the atom of U_out sits at x = u,
    the (normally absent) atom of U_in at x = 0.
    """
    u = complex(u)
    total = 0.5 * u_out.atom * complex(series_eval(u_in.smooth, u))
    total += 0.5 * u_in.atom * complex(series_eval(u_out.smooth, u))
    if u != 0.0:
        x, w = _segment_quadrature(0.0, u, max(2, int(abs(u)) + 2))
        vals = series_eval(u_in.smooth, x) * series_eval(u_out.smooth, u - x)
        total += complex(np.sum(w * vals))
    return total


def bg_shifted(state: FockState, m: int, u: complex) -> complex:
    """Transformed function of the m-fold shifted state, as an integral.

    For m >= 1 this is (1/(m-1)!) int_0^u (u-x)^{m-1} U(f;x) dx; m = 0 just
    evaluates U(f;u).
    """
    if m < 0:
        raise DomainError("shift must be non-negative")
    u = complex(u)
    bgf = bg_function(state)
    if m == 0:
        return complex(series_eval(bgf.smooth, u))
    if u == 0.0:
        return 0.0
    x, w = _segment_quadrature(0.0, u, max(2, int(abs(u)) + 2))
    vals = (u - x) ** (m - 1) * series_eval(bgf.smooth, x)
    return complex(np.sum(w * vals) / math.factorial(m - 1))


def bg_shifted_from_outer(u_out: BGFunction, m: int, u: complex) -> complex:
    """Same shifted function, built from the outer factor part instead.

    (1/m!) int_0^u (u-x)^m U_out(x) dx, the atom at x = 0 entering with
    half weight.
    """
    if m < 0:
        raise DomainError("shift must be non-negative")
    u = complex(u)
    total = 0.5 * u_out.atom * u**m
    if u != 0.0:
        x, w = _segment_quadrature(0.0, u, max(2, int(abs(u)) + 2))
        total += complex(np.sum(w * (u - x) ** m * series_eval(u_out.smooth, x)))
    return complex(total / math.factorial(m))


def bg_measure_weight(u: complex) -> float:
    """Density (2/pi) K0(2|u|) I0(2|u|) of the plane measure resolving identity.

    Diverges logarithmically (but integrably) at u = 0, which is therefore
    rejected; quadratures must route around it.
    """
    a = abs(complex(u))
    if a == 0.0:
        raise DomainError("weight is singular at u = 0 (integrable); avoid the point")
    from scipy.special import k0  # a ~0.3 s import, so loaded only here

    return float(2.0 / np.pi * k0(2.0 * a) * np.i0(2.0 * a))
