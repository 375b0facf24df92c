"""Minimum-phase / all-pass splitting of disk functions.

The outer (minimum-phase) part is exp of the analytic completion of
ln|boundary|, obtained cepstrally: Fourier-analyse the sampled log-modulus,
keep the analytic half, exponentiate it pointwise on the 2M midpoint grid
and take the coefficients back by one FFT. The inner (all-pass) part is the
quotient of truncated series Z / outer, with 1/outer by Newton doubling;
outer * inner reproduces the coefficients to rounding level. Products of
two operands of 512 terms or more, in the quotient and in that check, are
FFT products (`series.series_mul`), which round relative to the largest
coefficient: at N = 512-2048 the inner series stays within 5.4e-15 of the
all-`np.convolve` quotient and the residual within 5.5e-15. Below 512
terms the bits are those of `np.convolve`.
The disk zeros are the roots of the coefficient polynomial inside
|z| < r = 1 - edge_margin.
After the tail of l1 mass <= eps * max|f| is dropped, the argument
principle counts the zeros inside |z| = 1 and |z| = r (both circles in one
FFT), the contour power sums on |z| = r, which are the first 2k Fourier
coefficients of the log-derivative samples and so one FFT, give a k x k
Hankel pencil for the k zeros, and Newton polishes them on the polynomial.
Companion-matrix eigenvalues of the trimmed polynomial are the fallback
whenever that result is not certified: a non-integer count, differing
counts (a root in the edge annulus), k > 32, Newton failing, a zero leaving
|z| < r or two zeros coinciding.

Quadrature of ln|boundary| is the one genuinely lossy step: states whose
boundary function vanishes somewhere on the circle (integrable log
singularity) leave an O(1/M) alias in every Fourier coefficient. The
pipeline therefore evaluates the log-spectrum on grids M and 2M and
Richardson-extrapolates the 1/M term away (2 phi_2M - phi_M), which makes
the mean (hence the outer defect) exact to rounding for the
root-of-unity zero patterns of the catalog. The pointwise inner modulus
does not share that exactness: for the vacuum-plus-|m> states its worst
deviation from 1 on the circle is about 7e-3 (m = 1), 8e-2 (m = 3), 0.55
(m = 5) and 0.59 (m = 7), the same at N = 64 and N = 256 on the default
grid. `inner_boundary_deviation` reports the measured figure on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disk import (
    BoundarySamples,
    boundary,
    circle_coefficients,
    circle_values,
    default_grid_size,
)
from .errors import DomainError, IllConditionedError, SpecError
from .series import series_div, series_mul
from .states import FockState

DEFAULT_EDGE_MARGIN = 1e-3
DEFAULT_OUTER_TOL = 1e-6
DEFAULT_SINGULAR_TOL = 1e-2
_CLUSTER_RADIUS = 1e-7
# leading coefficients at or below this (relative) size count as an exact
# monomial factor rather than a tiny Blaschke zero
_MONOMIAL_EPS = 1e-14
_EPS = float(np.finfo(float).eps)
# certificate of the contour zero solve; failing any part falls back to
# companion-matrix eigenvalues
_COUNT_TOL = 1e-6
_MAX_CONTOUR_ZEROS = 32
_MIN_CONTOUR_GRID = 1024
_NEWTON_STEPS = 50
_NEWTON_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PhiSeries:
    """Taylor coefficients of the analytic completion of ln|boundary|."""

    phi: np.ndarray
    grid_size: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.phi, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "phi", arr)


def compute_phi(samples: BoundarySamples, length: int) -> PhiSeries:
    """Cepstral coefficients: phi_0 = mean(log|.|), phi_k = 2 c_k for k >= 1.

    c_k = (1/M) sum_j log_abs_j e^{-i k theta_j}; the factor-2 half-spectrum
    convention makes Re sum_k phi_k e^{i k theta} reproduce log_abs.
    """
    m = samples.grid_size
    if length > m // 2:
        raise SpecError(f"series length {length} exceeds grid Nyquist {m // 2}")
    phi = 2.0 * circle_coefficients(samples.log_abs, length)
    phi[0] = float(np.mean(samples.log_abs))
    return PhiSeries(phi, m)


def refined_phi(
    state: FockState, length: int, grid_size: int | None = None
) -> PhiSeries:
    """Cepstral series Richardson-extrapolated from grids M and 2M.

    The O(1/M) quadrature alias cancels in 2 phi_2M - phi_M.
    """
    base = default_grid_size(state.truncation) if grid_size is None else int(grid_size)
    coarse = compute_phi(boundary(state, base), length).phi
    fine = compute_phi(boundary(state, 2 * base), length).phi
    return PhiSeries(2.0 * fine - coarse, base)


def outer_part(phi: PhiSeries, length: int) -> np.ndarray:
    """Taylor series of exp(phi); leading coefficient e^{phi_0} > 0.

    exp is taken pointwise on the 2M midpoint grid, the finest grid the
    refined series was sampled on, and one FFT returns the coefficients.
    The leading one is set to e^{phi_0} exactly, free of the grid alias.
    """
    m = 2 * phi.grid_size
    outer = circle_coefficients(np.exp(circle_values(phi.phi, m)), length)
    outer[0] = np.exp(phi.phi[0].real)
    return outer


def inner_part(state: FockState, outer: np.ndarray) -> np.ndarray:
    """Deconvolve conj(coefficients) by the outer series (Z / Z_out)."""
    return series_div(np.conj(state.coeffs), outer, state.truncation)


def _defect(mean_log_abs: float, value_at_zero: float) -> float:
    """Mean of ln|boundary| minus ln|Z(0)|, with quadrature noise clamped."""
    if value_at_zero == 0.0:
        return math.inf
    defect = mean_log_abs - math.log(value_at_zero)
    if -1e-8 <= defect < 0.0:
        return 0.0
    return defect


def outer_defect(state: FockState, grid_size: int | None = None) -> float:
    """Mean of ln|boundary| minus ln|Z(0)|; zero iff the state is outer.

    The mean is phi_0 of the refined log-spectrum. Returns +inf when f_0 = 0
    (the log diverges; factor the monomial out first). Small negatives from
    quadrature noise are clamped to 0 down to -1e-8; anything more negative
    is returned as-is as a warning sign.
    """
    mean = refined_phi(state, 1, grid_size).phi[0].real
    return _defect(float(mean), abs(state.coeffs[0]))


@dataclass(frozen=True, eq=False)
class DiskZeros:
    """Clustered polynomial roots inside the disk, plus unreliable edge roots."""

    zeros: tuple[tuple[complex, int], ...]
    near_edge: tuple[complex, ...]


def _cluster(roots: np.ndarray) -> list[tuple[complex, int]]:
    """Group roots within _CLUSTER_RADIUS of a cluster's running mean.

    Roots are taken by increasing modulus; each cluster keeps its mean and
    recomputes it only when a member joins.
    """
    clusters: list[list[complex]] = []
    means: list[complex] = []
    for r in sorted(roots, key=lambda w: (abs(w), w.real, w.imag)):
        for i, mean in enumerate(means):
            if abs(r - mean) <= _CLUSTER_RADIUS:
                clusters[i].append(r)
                means[i] = np.mean(clusters[i])
                break
        else:
            clusters.append([r])
            means.append(r)
    return [(complex(mean), len(ms)) for mean, ms in zip(means, clusters)]


def _trim_tail(poly: np.ndarray, scale: float) -> np.ndarray:
    """Drop the trailing coefficients whose l1 mass is <= eps * scale."""
    tail = np.cumsum(np.abs(poly[::-1]))[::-1]
    return poly[: int(np.count_nonzero(tail > _EPS * scale))]


def _winding(
    poly: np.ndarray, radius: float, grid: int
) -> tuple[complex, complex, np.ndarray]:
    """Zero counts inside |z| = 1 and |z| = radius, and the samples of z Z'/Z
    on |z| = radius.

    Each count is the mean of z Z'/Z over its circle (argument principle).
    Z and z Z' on both circles are the four rows of one transform.
    """
    n = np.arange(poly.size)
    rows = np.empty((4, poly.size), dtype=complex)
    rows[0] = poly
    rows[1] = poly * radius**n
    rows[2:] = n * rows[:2]
    values = circle_values(rows, grid)
    log_derivative = values[2:] / values[:2]
    outer_count, count = np.mean(log_derivative, axis=1)
    return complex(outer_count), complex(count), log_derivative[1]


def _newton(poly: np.ndarray, z: np.ndarray) -> np.ndarray | None:
    """Newton-polish the roots `z` of sum poly[n] z^n; None if one fails.

    The powers z^n are running products along the rows of one k x L array.
    """
    dpoly = np.arange(1, poly.size) * poly[1:]
    powers = np.empty((z.size, poly.size), dtype=complex)
    powers[:, 0] = 1.0

    def step(z: np.ndarray) -> np.ndarray:
        powers[:, 1:] = z[:, None]
        np.cumprod(powers, axis=1, out=powers)
        return (powers @ poly) / (powers[:, :-1] @ dpoly)

    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_STEPS):
            delta = step(z)
            z = z - delta
            if np.all(np.abs(delta) <= _NEWTON_TOL):
                return z - step(z)
    return None


def _power_sums(log_derivative: np.ndarray, radius: float, count: int) -> np.ndarray:
    """s_j = mean(z^j L) over the midpoint grid of |z| = radius, j < count.

    The mean of e^{i j theta} L is the conjugate of the j-th Fourier
    coefficient of conj(L), so one FFT gives every s_j.
    """
    coefficients = circle_coefficients(np.conj(log_derivative), count)
    return radius ** np.arange(count) * np.conj(coefficients)


def _contour_zeros(poly: np.ndarray, radius: float) -> np.ndarray | None:
    """The zeros of sum poly[n] z^n inside |z| < radius, or None when unsure.

    Counts the zeros inside |z| = 1 and |z| = radius by the argument
    principle, takes the power sums s_j = mean(z^j z Z'/Z) on |z| = radius
    and solves the k x k Hankel pencil (H1 - lambda H0) for the k zeros
    (Delves & Lyness 1967; Kravanja & Van Barel 2000), then Newton-polishes
    them on the polynomial. None means the certificate failed: a count is
    not an integer, a zero lies between the circles, k is large, Newton
    does not converge, a zero leaves |z| < radius, or two zeros coincide.
    """
    grid = max(default_grid_size(poly.size), _MIN_CONTOUR_GRID)
    with np.errstate(all="ignore"):
        outer_count, count, log_derivative = _winding(poly, radius, grid)
    if not np.isfinite(count + outer_count):  # Z vanishes at a grid point
        return None
    k = round(count.real)
    if (
        abs(count - k) > _COUNT_TOL
        or abs(outer_count - k) > _COUNT_TOL
        or k > _MAX_CONTOUR_ZEROS
    ):
        return None
    if k == 0:
        return np.array([], dtype=complex)
    sums = _power_sums(log_derivative, radius, 2 * k)
    hankel = sums[np.add.outer(np.arange(k), np.arange(k + 1))]
    try:
        seeds = np.linalg.eigvals(np.linalg.solve(hankel[:, :k], hankel[:, 1:]))
    except np.linalg.LinAlgError:
        return None
    roots = _newton(poly, seeds)
    if roots is None or np.any(np.abs(roots) >= radius):
        return None
    gaps = np.abs(roots[:, None] - roots[None, :]) + np.eye(k)
    if np.any(gaps <= _CLUSTER_RADIUS):
        return None
    return roots


def blaschke_zeros(
    state: FockState, edge_margin: float = DEFAULT_EDGE_MARGIN
) -> DiskZeros:
    """Roots of the coefficient polynomial inside |z| < 1 - edge_margin.

    Exact leading zero coefficients are reported as a root at the origin
    (the monomial factor). Roots in the annulus 1 - edge_margin <= |z| < 1
    are listed separately: at that distance they cannot be told apart from
    truncation artifacts. The tail of l1 mass <= eps * max|f| is dropped
    first; the disk zeros come from `_contour_zeros` when its certificate
    holds and from the companion-matrix eigenvalues of the trimmed
    polynomial otherwise. `edge_margin` must lie in (0, 1) (DomainError).
    """
    if not 0.0 < edge_margin < 1.0:
        raise DomainError(f"edge_margin {edge_margin} must lie in (0, 1)")
    poly = np.conj(state.coeffs)
    scale = float(np.max(np.abs(poly)))
    if scale == 0.0:
        raise DomainError("coefficient vector is identically zero")
    # Roots are scale-free: an exact power-of-two rescale to max|f| in
    # [1/2, 1) keeps subnormal coefficients from underflowing the contour
    # sums or overflowing the companion matrix.
    exponent = math.frexp(scale)[1]
    poly = np.ldexp(poly.real, -exponent) + 1j * np.ldexp(poly.imag, -exponent)
    scale = math.ldexp(scale, -exponent)
    lead = 0
    while abs(poly[lead]) <= _MONOMIAL_EPS * scale:
        lead += 1
    trimmed = _trim_tail(poly[lead:], scale)
    radius = 1.0 - edge_margin
    roots = _contour_zeros(trimmed, radius)
    if roots is None:
        try:
            roots = np.roots(trimmed[::-1])
        except np.linalg.LinAlgError as exc:
            raise IllConditionedError(
                f"companion-matrix root solve failed: {exc}"
            ) from exc
    inside = roots[np.abs(roots) < radius]
    edge = roots[(np.abs(roots) >= radius) & (np.abs(roots) < 1.0)]
    zeros = _cluster(inside)
    if lead:
        zeros.insert(0, (0.0 + 0.0j, lead))
    return DiskZeros(tuple(zeros), tuple(complex(w) for w in edge))


def blaschke_factor(gamma: complex, length: int) -> np.ndarray:
    """Taylor series of (gamma*/|gamma|) (gamma - z) / (1 - gamma* z)."""
    gamma = complex(gamma)
    if gamma == 0:
        raise DomainError("gamma = 0 is the monomial z; handle it separately")
    if abs(gamma) >= 1.0:
        raise DomainError("Blaschke zeros must lie inside the unit disk")
    g = np.conj(gamma)
    powers = np.cumprod(np.concatenate(([1.0 + 0j], np.full(length - 1, g))))
    coeffs = gamma * powers
    coeffs[1:] -= powers[:-1]
    return (g / abs(gamma)) * coeffs


def blaschke_product(
    zeros: list[tuple[complex, int]] | tuple[tuple[complex, int], ...],
    length: int,
) -> np.ndarray:
    """Truncated Taylor series of the product of unimodular-normalised factors."""
    out = np.zeros(length, dtype=complex)
    out[0] = 1.0
    for gamma, mult in zeros:
        if mult < 1:
            raise DomainError("zero multiplicities must be positive")
        factor = blaschke_factor(gamma, length)
        for _ in range(mult):
            out = series_mul(out, factor, length)
    return out


@dataclass(frozen=True, eq=False)
class FactoredState:
    """Outer/inner Taylor series with diagnostics of the split.

    `zeros` lists the clustered disk zeros with nonzero modulus;
    `monomial_degree` is the multiplicity of the zero at the origin, kept
    apart because the normalised factor degenerates there. `outer_defect`
    is +inf when f_0 = 0. `singular_defect` is what remains of the defect
    after the monomial and the listed zeros are accounted for; a value
    above the threshold flags a suspected zero-free (singular) inner factor.
    """

    outer_coeffs: np.ndarray
    inner_coeffs: np.ndarray
    phi: PhiSeries
    zeros: tuple[tuple[complex, int], ...]
    monomial_degree: int
    near_edge: tuple[complex, ...]
    outer_defect: float
    singular_defect: float
    singular_suspected: bool
    reconstruction_residual: float
    inner_boundary_deviation: float
    grid_size: int
    truncation: int

    def __post_init__(self) -> None:
        for name in ("outer_coeffs", "inner_coeffs"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def factorize(
    state: FockState,
    grid_size: int | None = None,
    edge_margin: float = DEFAULT_EDGE_MARGIN,
) -> FactoredState:
    """Full pipeline: boundary -> phi -> outer -> inner -> zeros -> diagnostics."""
    n = state.truncation
    base = default_grid_size(n) if grid_size is None else int(grid_size)
    phi = refined_phi(state, n, base)
    outer = outer_part(phi, n)
    inner = inner_part(state, outer)
    if not (np.isfinite(outer).all() and np.isfinite(inner).all()):
        raise IllConditionedError("the outer or inner series is not finite")

    extraction = blaschke_zeros(state, edge_margin)
    monomial = 0
    zeros = []
    for gamma, mult in extraction.zeros:
        if gamma == 0:
            monomial += mult
        else:
            zeros.append((gamma, mult))

    target = np.conj(state.coeffs)
    residual = float(np.max(np.abs(series_mul(outer, inner, n) - target)))
    inner_dev = float(
        np.max(np.abs(np.abs(circle_values(inner, 2 * base)) - 1.0))
    )

    mean_log_abs = float(phi.phi[0].real)
    defect = _defect(mean_log_abs, abs(state.coeffs[0]))
    # defect with the origin zeros divided out: ln|boundary| is unchanged,
    # the value at 0 becomes the first surviving coefficient
    if monomial:
        after_monomial = mean_log_abs - math.log(abs(target[monomial]))
    else:
        after_monomial = defect
    accounted = sum(p * math.log(1.0 / abs(g)) for g, p in zeros)
    singular_defect = after_monomial - accounted
    return FactoredState(
        outer_coeffs=outer,
        inner_coeffs=inner,
        phi=phi,
        zeros=tuple(zeros),
        monomial_degree=monomial,
        near_edge=extraction.near_edge,
        outer_defect=defect,
        singular_defect=singular_defect,
        singular_suspected=bool(singular_defect > DEFAULT_SINGULAR_TOL),
        reconstruction_residual=residual,
        inner_boundary_deviation=inner_dev,
        grid_size=base,
        truncation=n,
    )


def is_outer(
    state: FockState,
    outer_tol: float = DEFAULT_OUTER_TOL,
    grid_size: int | None = None,
) -> bool:
    """Outer-criterion classifier: defect below tolerance."""
    return outer_defect(state, grid_size=grid_size) < outer_tol


def complex_pairs(z) -> list:
    """[re, im] for a complex scalar, a list of such pairs for an array."""
    return np.stack([np.real(z), np.imag(z)], -1).tolist()


def factorization_report(fac: FactoredState) -> dict:
    """JSON-ready report of a factorisation (complex numbers as [re, im])."""
    return {
        "outer_coeffs": complex_pairs(fac.outer_coeffs),
        "inner_coeffs": complex_pairs(fac.inner_coeffs),
        "zeros": [
            {"gamma": complex_pairs(g), "multiplicity": int(p)} for g, p in fac.zeros
        ],
        "monomial_degree": int(fac.monomial_degree),
        "near_edge_zeros": complex_pairs(fac.near_edge),
        "outer_defect": (
            float(fac.outer_defect) if math.isfinite(fac.outer_defect) else None
        ),
        "singular_defect": float(fac.singular_defect),
        "singular_suspected": bool(fac.singular_suspected),
        "reconstruction_residual": float(fac.reconstruction_residual),
        "inner_boundary_deviation": float(fac.inner_boundary_deviation),
        "grid": {"N": int(fac.truncation), "M": int(fac.grid_size)},
    }
