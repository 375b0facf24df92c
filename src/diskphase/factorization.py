"""Minimum-phase / all-pass splitting of disk functions.

The outer (minimum-phase) part is exp of the analytic completion of
ln|boundary|, obtained cepstrally: Fourier-analyse the sampled log-modulus,
keep the analytic half, exponentiate the resulting Taylor series. The inner
(all-pass) part follows by coefficient deconvolution, and its disk zeros are
extracted from the coefficient polynomial via companion-matrix eigenvalues.

Quadrature of ln|boundary| is the one genuinely lossy step: states whose
boundary function vanishes somewhere on the circle (integrable log
singularity) leave an O(1/M) alias in every Fourier coefficient. The
pipeline therefore evaluates the log-spectrum on nested grids M, 2M, ... and
Richardson-extrapolates the 1/M term away; `refine_levels=2` is the default
and makes the mean (hence the outer defect) exact to rounding for the
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

from .disk import BoundarySamples, boundary, circle_values, default_grid_size
from .errors import DomainError, SpecError
from .series import series_div, series_exp, series_mul
from .states import FockState

DEFAULT_EDGE_MARGIN = 1e-3
DEFAULT_OUTER_TOL = 1e-6
DEFAULT_SINGULAR_TOL = 1e-2
_CLUSTER_RADIUS = 1e-7
# leading coefficients at or below this (relative) size count as an exact
# monomial factor rather than a tiny Blaschke zero
_MONOMIAL_EPS = 1e-14


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
    spectrum = np.fft.fft(samples.log_abs) / m
    k = np.arange(m)
    # midpoint-grid twist: c_k = (-1)^k e^{-i pi k / M} FFT_k / M
    chat = (-1.0) ** k * np.exp(-1j * np.pi * k / m) * spectrum
    phi = np.zeros(length, dtype=complex)
    phi[0] = float(np.mean(samples.log_abs))
    phi[1:] = 2.0 * chat[1:length]
    return PhiSeries(phi, m)


def _richardson(values: list[np.ndarray], grids: list[int]) -> np.ndarray:
    """Neville elimination of a c_1/M + c_2/M^2 + ... error model."""
    h = [1.0 / g for g in grids]
    tab = [np.asarray(v, dtype=complex) for v in values]
    depth = len(tab)
    for span in range(1, depth):
        tab = [
            (h[j] * tab[j + 1] - h[j + span] * tab[j]) / (h[j] - h[j + span])
            for j in range(depth - span)
        ]
    return tab[0]


def refined_phi(
    state: FockState,
    length: int,
    grid_size: int | None = None,
    refine_levels: int = 2,
) -> PhiSeries:
    """Richardson-extrapolated cepstral series over grids M, 2M, ..."""
    base = default_grid_size(state.truncation) if grid_size is None else int(grid_size)
    if refine_levels < 1:
        raise SpecError("refine_levels must be >= 1")
    grids = [base << level for level in range(refine_levels)]
    phis = [compute_phi(boundary(state, g), length).phi for g in grids]
    if refine_levels == 1:
        return PhiSeries(phis[0], base)
    return PhiSeries(_richardson(phis, grids), base)


def outer_part(phi: PhiSeries, length: int) -> np.ndarray:
    """Taylor series of exp(phi); leading coefficient e^{phi_0} > 0."""
    return series_exp(phi.phi, length)


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


def outer_defect(
    state: FockState,
    grid_size: int | None = None,
    refine_levels: int = 2,
) -> float:
    """Mean of ln|boundary| minus ln|Z(0)|; zero iff the state is outer.

    The mean is phi_0 of the refined log-spectrum. Returns +inf when f_0 = 0
    (the log diverges; factor the monomial out first). Small negatives from
    quadrature noise are clamped to 0 down to -1e-8; anything more negative
    is returned as-is as a warning sign.
    """
    mean = refined_phi(state, 1, grid_size, refine_levels).phi[0].real
    return _defect(float(mean), abs(state.coeffs[0]))


@dataclass(frozen=True, eq=False)
class DiskZeros:
    """Clustered polynomial roots inside the disk, plus unreliable edge roots."""

    zeros: tuple[tuple[complex, int], ...]
    near_edge: tuple[complex, ...]


def _cluster(roots: np.ndarray) -> list[tuple[complex, int]]:
    clusters: list[list[complex]] = []
    for r in sorted(roots, key=lambda w: (abs(w), w.real, w.imag)):
        for members in clusters:
            if abs(r - np.mean(members)) <= _CLUSTER_RADIUS:
                members.append(r)
                break
        else:
            clusters.append([r])
    return [(complex(np.mean(ms)), len(ms)) for ms in clusters]


def blaschke_zeros(
    state: FockState, edge_margin: float = DEFAULT_EDGE_MARGIN
) -> DiskZeros:
    """Roots of the coefficient polynomial inside |z| < 1 - edge_margin.

    Exact leading zero coefficients are reported as a root at the origin
    (the monomial factor). Roots in the annulus 1 - edge_margin <= |z| < 1
    are listed separately: at that distance they cannot be told apart from
    truncation artifacts.
    """
    poly = np.conj(state.coeffs)
    scale = float(np.max(np.abs(poly)))
    if scale == 0.0:
        raise DomainError("coefficient vector is identically zero")
    lead = 0
    while abs(poly[lead]) <= _MONOMIAL_EPS * scale:
        lead += 1
    trimmed = np.trim_zeros(poly[lead:], trim="b")
    roots = np.roots(trimmed[::-1]) if trimmed.size > 1 else np.array([])
    inside = roots[np.abs(roots) < 1.0 - edge_margin]
    edge = roots[(np.abs(roots) >= 1.0 - edge_margin) & (np.abs(roots) < 1.0)]
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
    singular_tol: float = DEFAULT_SINGULAR_TOL,
    refine_levels: int = 2,
) -> FactoredState:
    """Full pipeline: boundary -> phi -> outer -> inner -> zeros -> diagnostics."""
    n = state.truncation
    base = default_grid_size(n) if grid_size is None else int(grid_size)
    phi = refined_phi(state, n, base, refine_levels)
    outer = outer_part(phi, n)
    inner = inner_part(state, outer)

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
        after_monomial = defect if math.isfinite(defect) else 0.0
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
        singular_suspected=bool(singular_defect > singular_tol),
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


def factorization_report(fac: FactoredState) -> dict:
    """JSON-ready report of a factorisation (complex numbers as [re, im])."""

    def c2p(z: complex) -> list[float]:
        return [float(np.real(z)), float(np.imag(z))]

    return {
        "outer_coeffs": [c2p(z) for z in fac.outer_coeffs],
        "inner_coeffs": [c2p(z) for z in fac.inner_coeffs],
        "zeros": [
            {"gamma": c2p(g), "multiplicity": int(p)} for g, p in fac.zeros
        ],
        "monomial_degree": int(fac.monomial_degree),
        "near_edge_zeros": [c2p(z) for z in fac.near_edge],
        "outer_defect": (
            float(fac.outer_defect) if math.isfinite(fac.outer_defect) else None
        ),
        "singular_defect": float(fac.singular_defect),
        "singular_suspected": bool(fac.singular_suspected),
        "reconstruction_residual": float(fac.reconstruction_residual),
        "inner_boundary_deviation": float(fac.inner_boundary_deviation),
        "grid": {"N": int(fac.truncation), "M": int(fac.grid_size)},
    }
