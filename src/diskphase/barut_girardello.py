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
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IllConditionedError
from .factorization import FactoredState
from .states import FockState

_GL_ORDER = 64
# numpy's laggauss keeps its log-moment error below 2.3e-12 up to 180 nodes
# and returns NaN weights from 190 on
_LAGUERRE_MAX = 180
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


def _factorial_series(coeffs: np.ndarray, u):
    """sum_n coeffs[n] u^n / n! in the nested form f_0 + (u/1)(f_1 + (u/2)(f_2 + ...)).

    The sum stops at the last nonzero coefficient and never forms n! or
    1/n!, so no term underflows. Each step multiplies by u and divides the
    real and imaginary parts by n (one rounding each, unlike a complex
    division); its rounding stays within a few eps * d * sum |f_n| |u|^n / n!.
    """
    u = np.asarray(u, dtype=complex)
    d = int(np.flatnonzero(coeffs).max(initial=0))
    c = coeffs[: d + 1].tolist() or [0j]
    acc = np.full(u.size, c[d] + 0j, dtype=complex)  # + 0j: no -0.0 from conj
    parts, x = acc.view(float), u.ravel()
    for n in range(d, 0, -1):
        acc *= x
        parts /= n
        acc += c[n - 1]
    return acc.reshape(u.shape)[()]


@dataclass(frozen=True, eq=False)
class BGFunction:
    """Point mass at u = 0 plus the entire function sum_n coeffs[n] u^n / n!.

    `coeffs` are the source coefficients themselves (conj(f_n) for a state),
    not divided by n!.
    """

    atom: complex
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.coeffs, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def __call__(self, u):
        """Evaluate the smooth part (the atom is a distribution, not a value)."""
        return _factorial_series(self.coeffs, u)


def bg_function(state: FockState) -> BGFunction:
    """Representation of a plain state: no atom, coefficients conj(f_n)."""
    return BGFunction(0.0, np.conj(state.coeffs))


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

    Valid for Re z > 0, |z| < 1. The trailing terms n > d whose mass
    sum |f_n| r^n, r = max|z|, is at most eps times the whole sum are
    dropped; the tail-to-head ratio grows with r, so that bound holds at
    every point of an array. By Cauchy's theorem the integral is
    int_0^inf U(t z) e^{-t} dt, which floor(d/2) + 1 Gauss-Laguerre nodes
    integrate exactly; every point shares them. On the ray
    sum_k w_k |U(t_k z)| <= sum_n |f_n| |z|^n, the series' own condition
    number, bounds the rounding. A series that needs more nodes than
    numpy's rule supplies accurately (180) is refused as ill-conditioned.
    """
    z = np.asarray(z, dtype=complex)
    if (z.real <= 0.0).any():
        raise DomainError("the transform integral needs Re z > 0")
    if (abs(z) >= 1.0).any():
        raise DomainError("|z| must be < 1")
    coeffs = bgf.coeffs
    mass = np.abs(coeffs) * abs(z).max(initial=0.0) ** np.arange(coeffs.size)
    tail = np.cumsum(mass[::-1])[::-1]  # tail[n] = sum_{k >= n} mass[k]
    bound = np.finfo(float).eps * tail[:1].sum()
    degree = max(int(np.count_nonzero(tail > bound)) - 1, 0)
    nodes = degree // 2 + 1
    if nodes > _LAGUERRE_MAX:
        raise IllConditionedError(
            f"the series needs {nodes} Gauss-Laguerre nodes at this z; "
            f"at most {_LAGUERRE_MAX} are accurate"
        )
    t, w = _laguerre_rule(nodes)
    return _factorial_series(coeffs[: degree + 1], z[..., None] * t) @ w + 0.5 * bgf.atom / z


def bg_factor_parts(fac: FactoredState) -> tuple[BGFunction, BGFunction]:
    """Map the outer/inner Taylor series into the transformed picture.

    The inner series c maps through the inverse transform of z * Z_in to the
    smooth function sum c_n u^n / n!. The outer series b maps through the
    inverse transform of Z_out itself (no z factor): the constant term
    becomes the atom 2 b_0 and b_{n} lands on u^{n-1} / (n-1)!.
    """
    return (
        BGFunction(0.0, fac.inner_coeffs),
        BGFunction(2.0 * complex(fac.outer_coeffs[0]), fac.outer_coeffs[1:]),
    )


def bg_convolve(u_in: BGFunction, u_out: BGFunction, u):
    """int_0^u U_in(x) U_out(u - x) dx along the straight segment.

    Endpoint atoms contribute half weight: the atom of U_out sits at x = u,
    the (normally absent) atom of U_in at x = 0, whose term U_out(u) is
    evaluated only when that atom is nonzero. The points of an array u
    share the nodes t u, with one panel per unit of the largest |u|.
    """
    u = np.asarray(u, dtype=complex)
    x, w = _segment_quadrature(u, max(2, int(abs(u).max(initial=0.0)) + 2))
    vals = u_in(x) * u_out(u[..., None] - x)
    total = 0.5 * u_out.atom * u_in(u)
    if u_in.atom:
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
    with half weight; u is a point or an array of points.
    """
    if m < 0:
        raise DomainError("shift must be non-negative")
    return bg_convolve(BGFunction(0.0, np.eye(1, m + 1, m)[0]), u_out, u)


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
