"""Inner/outer splitting of disk functions.

The disk function Z of a finite state is a polynomial, and the inner
factor of a polynomial is exactly z^m times the finite Blaschke product B
of its zeros in the open disk: there is no singular inner factor (Garnett,
Bounded Analytic Functions, ch. II; Duren, Theory of H^p Spaces, 1970).
`factorize` therefore takes the zeros first. It samples Z once on the
midpoint grid M >= 2N, builds B there pointwise, and takes the outer
series as the first N Fourier coefficients of Z / B, one FFT; that is
exact up to rounding, since Z / (z^m B) is a polynomial of degree < N.
The inner series is the first N Taylor coefficients of z^m B: zeros with
|gamma|^(M - N) <= eps go into the same FFT of B's grid samples, whose
fold-back onto the first N coefficients then stays below eps, and zeros
nearer the circle into the series product `blaschke_product`. Both series
are rotated so that outer[0] > 0. Jensen's formula gives the outer defect
as the sum of ln(1/|gamma|) over the zeros of B.
Each root decides its own side of the circle: with r its rounding radius
(`_rounding_radii`), it is inside when 1 - |gamma| > c r, outside when
|gamma| - 1 > c r, and on the circle otherwise (c = _SIDE_FACTOR). B takes
the roots inside. A root on the circle stays in the outer series and is
listed in `near_edge` when c r <= DEFAULT_OUTER_TOL; a larger c r is
refused, since the coefficients then do not decide on which side of the
circle it lies.

After the tail of l1 mass <= eps * max|f| is dropped, the argument
principle counts the zeros inside |z| = 1 and |z| = rho (both circles in
one FFT), the contour power sums on |z| = rho, which are the first 2k
Fourier coefficients of the log-derivative samples and so one FFT, give a
k x k Hankel pencil for the k zeros, and Newton polishes them on the
polynomial. The radius rho = 1 - 1e-3 only certifies that solve.
Companion-matrix eigenvalues of the trimmed polynomial are the fallback
whenever that result is not certified: a non-integer count, differing
counts (a root near the circle), k > 32, Newton failing, a zero leaving
|z| < rho or two zeros coinciding. The simple fallback roots no more than
DEFAULT_OUTER_TOL outside the circle are Newton-polished on the polynomial
before their side is decided; the roots farther out are outside.

The cepstral route stays available beside `factorize`, which uses none of
it: `compute_phi` takes the log-spectrum (the analytic completion of
ln|boundary|) on one grid, which `weyl.transformation_check` reads;
`refined_phi` extrapolates it from two grids, `outer_part` exponentiates
it, `inner_part` divides by the result, and `outer_defect` reads its mean.
No library path calls these four.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disk import (
    BoundarySamples,
    boundary,
    circle_coefficients,
    circle_points,
    circle_values,
    default_grid_size,
)
from .errors import DomainError, IllConditionedError, SpecError
from .series import series_div, series_mul
from .states import FockState

DEFAULT_OUTER_TOL = 1e-6
DEFAULT_SINGULAR_TOL = 1e-2
_CLUSTER_RADIUS = 1e-7
# leading coefficients at or below this (relative) size count as an exact
# monomial factor rather than a tiny Blaschke zero
_MONOMIAL_EPS = 1e-14
_EPS = float(np.finfo(float).eps)
# a root more than this many rounding radii from the unit circle is on
# the side it was computed on: the coefficients' rounding and the dropped
# tail (<= eps max|f|) can each move a root near the circle by one radius
_SIDE_FACTOR = 2.0
# certificate of the contour zero solve; failing any part falls back to
# companion-matrix eigenvalues
_CONTOUR_RADIUS = 1.0 - 1e-3
_COUNT_TOL = 1e-6
_MAX_CONTOUR_ZEROS = 32
_MIN_CONTOUR_GRID = 1024
_NEWTON_STEPS = 50
_NEWTON_TOL = 1e-12
# cells of one block of the gamma^n table behind the rounding radii
_RADII_CELLS = 1 << 16


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
    """Clustered polynomial roots inside the unit circle, and the roots on it.

    `near_edge` lists the roots within _SIDE_FACTOR rounding radii of the
    circle, a p-fold one p times.
    """

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


def _powers(
    z: np.ndarray, length: int, out: np.ndarray | None = None
) -> np.ndarray:
    """The table z[:, None] ** arange(length), as running products along
    its rows; filled into `out` when given."""
    if out is None:
        out = np.empty((z.size, length), dtype=complex)
    out[:, 0] = 1.0
    out[:, 1:] = z[:, None]
    return np.cumprod(out, axis=1, out=out)


def _newton(poly: np.ndarray, z: np.ndarray) -> np.ndarray | None:
    """Newton-polish the roots `z` of sum poly[n] z^n; None if one fails.

    Every step refills one k x L table of the powers z^n (`_powers`).
    """
    dpoly = np.arange(1, poly.size) * poly[1:]
    powers = np.empty((z.size, poly.size), dtype=complex)

    def step(z: np.ndarray) -> np.ndarray:
        _powers(z, poly.size, powers)
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


def _contour_zeros(poly: np.ndarray) -> np.ndarray | None:
    """The zeros of sum poly[n] z^n inside |z| < 1, or None when unsure.

    Counts the zeros inside |z| = 1 and |z| = rho = _CONTOUR_RADIUS by the
    argument principle, takes the power sums s_j = mean(z^j z Z'/Z) on
    |z| = rho and solves the k x k Hankel pencil (H1 - lambda H0) for the k zeros
    (Delves & Lyness 1967; Kravanja & Van Barel 2000), then Newton-polishes
    them on the polynomial. None means the certificate failed: a count is
    not an integer, a zero lies between the circles, k is large, Newton
    does not converge, a zero leaves |z| < rho, or two zeros coincide.
    """
    radius = _CONTOUR_RADIUS
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
    if roots is None or np.any(np.abs(roots) >= radius) or not _distinct(roots):
        return None
    return roots


def _distinct(roots: np.ndarray) -> bool:
    """No two of `roots` within _CLUSTER_RADIUS of each other."""
    gaps = np.abs(roots[:, None] - roots[None, :]) + np.eye(roots.size)
    return not np.any(gaps <= _CLUSTER_RADIUS)


def _polished(
    poly: np.ndarray, zeros: list[tuple[complex, int]]
) -> list[tuple[complex, int]]:
    """Clustered `zeros` with the simple ones Newton-polished on `poly`.

    Newton is only linear at a multiple zero, where the cluster mean is
    the better estimate, so those keep their mean. Every zero stays as it
    is when none is simple, Newton fails, or two polished zeros coincide.
    """
    simple = [i for i, (_, mult) in enumerate(zeros) if mult == 1]
    if not simple:
        return zeros
    polished = _newton(poly, np.array([zeros[i][0] for i in simple]))
    if polished is None or not _distinct(polished):
        return zeros
    out = list(zeros)
    for i, gamma in zip(simple, polished):
        out[i] = (complex(gamma), 1)
    return out


def _rescaled(poly: np.ndarray, scale: float) -> tuple[np.ndarray, float]:
    """`poly` and its largest modulus `scale` times the exact power of two
    that brings `scale` into [1/2, 1)."""
    exponent = math.frexp(scale)[1]
    poly = np.ldexp(poly.real, -exponent) + 1j * np.ldexp(poly.imag, -exponent)
    return poly, math.ldexp(scale, -exponent)


def blaschke_zeros(state: FockState) -> DiskZeros:
    """Roots of the coefficient polynomial inside the unit circle, and on it.

    Exact leading zero coefficients are reported as a root at the origin
    (the monomial factor). The tail of l1 mass <= eps * max|f| is dropped
    first; the roots come from `_contour_zeros` when its certificate holds
    and from the companion-matrix eigenvalues of the trimmed polynomial
    otherwise, the simple ones no more than DEFAULT_OUTER_TOL outside the
    circle Newton-polished (`_polished`). A root gamma with rounding radius
    r (`_rounding_radii`) is inside when 1 - |gamma| > c r and outside when
    |gamma| - 1 > c r (c = _SIDE_FACTOR). Otherwise it is on the circle:
    listed in `near_edge` when c r <= DEFAULT_OUTER_TOL, and refused with
    IllConditionedError when c r is larger.
    """
    poly = np.conj(state.coeffs)
    scale = float(np.max(np.abs(poly)))
    if scale == 0.0:
        raise DomainError("coefficient vector is identically zero")
    # Roots are scale-free: the rescale keeps subnormal coefficients from
    # underflowing the contour sums or overflowing the companion matrix.
    poly, scale = _rescaled(poly, scale)
    lead = 0
    while abs(poly[lead]) <= _MONOMIAL_EPS * scale:
        lead += 1
    trimmed = _trim_tail(poly[lead:], scale)
    roots = _contour_zeros(trimmed)
    if roots is None:
        try:
            roots = np.roots(trimmed[::-1])
        except np.linalg.LinAlgError as exc:
            raise IllConditionedError(
                f"companion-matrix root solve failed: {exc}"
            ) from exc
        roots = roots[np.abs(roots) <= 1.0 + DEFAULT_OUTER_TOL]
        zeros = _polished(trimmed, _cluster(roots))
    else:
        zeros = _cluster(roots)
    inside, edge = [], []
    for (g, p), r in zip(zeros, _SIDE_FACTOR * _rounding_radii(trimmed, zeros)):
        gap = 1.0 - abs(g)
        if abs(gap) <= r and r > DEFAULT_OUTER_TOL:
            raise IllConditionedError(
                f"zero {g:.6g} is {gap:.2g} from the unit circle, within "
                f"{_SIDE_FACTOR:g} times its rounding radius {r / _SIDE_FACTOR:.2g}"
            )
        if gap > r:
            inside.append((g, p))
        elif abs(gap) <= r:
            edge += [g] * p
    if lead:
        inside.insert(0, (0.0 + 0.0j, lead))
    return DiskZeros(tuple(inside), tuple(edge))


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
    apart because the normalised factor degenerates there. The inner series
    is z^m times the Blaschke product of `zeros`; the roots in `near_edge`,
    on the unit circle to within c r <= DEFAULT_OUTER_TOL (see
    `blaschke_zeros`), stay in the outer series. `outer_defect` is the sum
    of ln(1/|gamma|) over `zeros`, +inf with a monomial. `singular_defect`
    is the mean of ln|boundary| (Richardson-extrapolated from grids M and
    2M) less ln|f_m| (f_m the first nonzero coefficient) and the sum over
    `zeros`: for a finite state it measures quadrature error and at most
    c r per `near_edge` root, and a value above the threshold flags a
    suspected zero-free (singular) inner factor. `inner_boundary_deviation`
    is max ||inner| - 1| on the grid 2M.
    """

    outer_coeffs: np.ndarray
    inner_coeffs: np.ndarray
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


def _rounding_radii(poly: np.ndarray, zeros) -> np.ndarray:
    """How far relative coefficient errors of eps can move each zero.

    A zero gamma of multiplicity p moves by up to
    (eps sum_n |f_n| |gamma|^n / |Z^(p)(gamma) / p!|)^(1/p) (Mosier 1986 for
    p = 1), and rounding gamma itself moves it by eps |gamma| more. `poly`
    comes rescaled (`_rescaled`), so the sums neither underflow nor
    overflow. The powers gamma^n (`_powers`) are tabled a block of zeros at
    a time.
    """
    gammas = np.array([g for g, _ in zeros], dtype=complex)
    mults = np.array([p for _, p in zeros])
    size = np.empty(gammas.size)
    lead = np.empty(gammas.size, dtype=complex)
    # Taylor coefficient of order p at gamma: sum_n C(n + p, p) f_{n+p} gamma^n
    shifted = {}
    for p in set(mults.tolist()):
        n = np.arange(poly.size - p)
        binom = np.ones(n.size)
        for j in range(1, p + 1):
            binom *= (n + j) / j
        shifted[p] = binom * poly[p:]
    rows = max(1, _RADII_CELLS // poly.size)
    for start in range(0, gammas.size, rows):
        block = slice(start, start + rows)
        powers = _powers(gammas[block], poly.size)
        size[block] = np.abs(powers) @ np.abs(poly)
        for p, coeffs in shifted.items():
            rows_p = mults[block] == p
            lead[block][rows_p] = powers[rows_p, : poly.size - p] @ coeffs
    with np.errstate(divide="ignore"):
        return (_EPS * size / np.abs(lead)) ** (1.0 / mults) + _EPS * np.abs(gammas)


def _blaschke_values(zeros, points: np.ndarray) -> np.ndarray:
    """prod of ((conj g / |g|) (g - z) / (1 - conj(g) z))^p at `points`."""
    values = np.ones(points.size, dtype=complex)
    for g, p in zeros:
        factor = (g - points) / (1.0 - np.conj(g) * points)
        factor *= np.conj(g) / abs(g)
        for _ in range(p):
            values *= factor
    return values


def factorize(state: FockState, grid_size: int | None = None) -> FactoredState:
    """Full pipeline: zeros -> B on the boundary grid -> outer Z / B, inner B
    -> diagnostics.

    B is built from the roots that `blaschke_zeros` decides are inside the
    circle; the roots on it stay in the outer series (see `FactoredState`).
    Raises IllConditionedError, from `blaschke_zeros`, when a root lies too
    near the circle for the coefficients to decide its side.
    """
    n = state.truncation
    base = default_grid_size(n) if grid_size is None else int(grid_size)
    extraction = blaschke_zeros(state)
    monomial = sum(p for g, p in extraction.zeros if g == 0)
    zeros = tuple((g, p) for g, p in extraction.zeros if g != 0)
    target = np.conj(state.coeffs)
    samples = boundary(state, base)
    if zeros:
        points = circle_points(base)
        # B's coefficients decay like |g|^k, so the grid folds them back onto
        # the first N below eps except for zeros near the circle, whose
        # factors are multiplied in as series
        near = [abs(g) ** (base - n) > _EPS for g, _ in zeros]
        fast = [z for z, s in zip(zeros, near) if not s]
        slow = [z for z, s in zip(zeros, near) if s]
        b_fast = _blaschke_values(fast, points)
        b = b_fast * _blaschke_values(slow, points)
        quotient, b_series = circle_coefficients(
            np.stack((samples.values / b, b_fast)), n
        )
        if slow:
            b_series = series_mul(b_series, blaschke_product(slow, n), n)
    else:
        quotient, b_series = target, blaschke_product((), n)
    # Z = z^m Z_1, and Z_1 / B is a polynomial of degree N - 1 - m: its
    # coefficients are those of Z / B from m on
    lead = quotient[monomial]
    phase = np.exp(-1j * np.angle(lead))  # lead may be subnormal
    outer = np.zeros(n, dtype=complex)
    outer[: n - monomial] = phase * quotient[monomial:]
    outer[0] = abs(lead)
    inner = np.zeros(n, dtype=complex)
    inner[monomial:] = b_series[: n - monomial] / phase

    residual = float(np.max(np.abs(series_mul(outer, inner, n) - target)))
    fine = 2 * base
    inner_dev = float(np.max(np.abs(np.abs(circle_values(inner, fine)) - 1.0)))
    # Jensen's formula: the mean of ln|Z| on the circle exceeds ln|Z(0)| by
    # sum ln(1/|g|) over the disk zeros. The midpoint mean carries an O(1/M)
    # alias where Z vanishes on the circle (m ln 2 / M for 1 + z^m when m
    # divides M), which 2 mean_2M - mean_M cancels.
    jensen = sum(p * math.log(1.0 / abs(g)) for g, p in zeros)
    coarse = float(np.mean(samples.log_abs))
    mean_log_abs = 2.0 * float(np.mean(boundary(state, fine).log_abs)) - coarse
    singular_defect = mean_log_abs - math.log(abs(target[monomial])) - jensen
    return FactoredState(
        outer_coeffs=outer,
        inner_coeffs=inner,
        zeros=zeros,
        monomial_degree=monomial,
        near_edge=extraction.near_edge,
        outer_defect=math.inf if monomial else jensen,
        singular_defect=singular_defect,
        singular_suspected=bool(singular_defect > DEFAULT_SINGULAR_TOL),
        reconstruction_residual=residual,
        inner_boundary_deviation=inner_dev,
        grid_size=base,
        truncation=n,
    )


def complex_pairs(z) -> list:
    """[re, im] for a complex scalar, a list of such pairs for an array."""
    return np.stack([np.real(z), np.imag(z)], -1).tolist()


def factorization_report(fac: FactoredState) -> dict:
    """JSON-ready report of a factorisation (complex numbers as [re, im]).

    `outer` is read off the zero list: true when B is empty and there is no
    monomial, so that the inner factor is a unimodular constant. Roots in
    `near_edge` leave a state outer, since an outer function may vanish on
    the circle.
    """
    return {
        "outer": not fac.zeros and fac.monomial_degree == 0,
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
