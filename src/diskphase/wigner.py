"""Joint number-phase quasi-probability function and its closed forms.

Row n of S(f; n, theta) is a trigonometric polynomial whose coefficients are
the integer and half-integer antidiagonals of the coefficient outer product
f (x) conj(f) that straddle level n. One table of these coefficients, built
by a single gather, serves every evaluation. The table is Hermitian,
C[n, -h] = conj(C[n, h]), so only its h >= 0 half is built: Horner sums it
at arbitrary angles, and one real inverse FFT per level
(`disk.hermitian_circle_values`) on the lattice. With [a, b] the first and
last nonzero coefficient of the state (its support), row n vanishes unless
a <= n <= b and is nonzero only up to h = 2 min(n - a, b - n) + 1, so each
table stops at the harmonics its levels hold, and the lattice transforms
levels a..b alone, a block of levels at a time: a run holds its output
plus one block. S is real by construction, may go negative, and its
marginals are the number and phase distributions.
The per-level double sum and the equivalent circle-integral form are
deliberately left to the test suite as independent oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .disk import (
    default_grid_size,
    hermitian_circle_values,
    midpoint_grid,
    phase_distribution,
)
from .errors import DiskPhaseError, DomainError, SpecError
from .series import series_eval
from .states import FockState, number_distribution, pi_superposition_norm
from .weyl import WeylElement, apply

_IMAG_RESIDUE_TOL = 1e-12
# cells of one block of lattice levels. A block's table, spectrum and values
# stay a small part of the output; N <= 128 lattices (128 x 512) are one block.
_BLOCK_CELLS = 1 << 16


def _coefficient_table(coeffs: np.ndarray, levels: range, top: int) -> np.ndarray:
    """Fourier coefficients C[n, h] of 2 pi S(n, .), harmonics h = 0..top.

    C[n, h] = f[n - ceil(h/2)] conj(f[n + floor(h/2)]): even h pair the
    integer antidiagonal through level n, odd h the half-integer one. Indices
    outside the state read zeros from the padding. The h < 0 half is
    C[n, -h] = conj(C[n, h]) and is not stored. Both factors are strided
    windows on the padded stretch f[start - half .. stop + half) of the
    state, so the gather makes no index arrays and allocates in proportion
    to the table, not to the levels it starts from.
    """
    f = np.asarray(coeffs, dtype=complex)
    start, stop = levels.start, levels.stop
    half = top // 2 + 1  # even h = 2p and odd h = 2p + 1 for p < half
    # window[j] = f[start - half + j]; level n = start + k reads f[n - p] =
    # down[k + 1, p], f[n - 1 - p] = down[k, p] and conj(f[n + p]) = up[k, p]
    window = np.zeros(len(levels) + 2 * half, dtype=complex)
    lo, hi = max(start - half, 0), min(stop + half, f.size)
    if lo < hi:
        window[lo - start + half : hi - start + half] = f[lo:hi]
    down = sliding_window_view(window, half)[:, ::-1]
    up = sliding_window_view(np.conj(window), half)[half : half + len(levels)]
    table = np.empty((len(levels), top + 1), dtype=complex)
    even, odd = table[:, 0::2], table[:, 1::2]
    np.multiply(down[1 : len(levels) + 1], up, out=even)
    np.multiply(down[: len(levels), : odd.shape[1]], up[:, : odd.shape[1]], out=odd)
    return table


def _support(coeffs: np.ndarray) -> tuple[int, int]:
    """First and last index of a nonzero coefficient; (0, -1) if there is none."""
    live = np.flatnonzero(coeffs)
    return (int(live[0]), int(live[-1])) if live.size else (0, -1)


def _live_table(
    coeffs: np.ndarray, levels: range, top: int, support: tuple[int, int]
) -> np.ndarray:
    """`_coefficient_table` up to the highest harmonic, at most `top`, that
    can be nonzero on `levels`.

    C[n, h] pairs f[n - ceil(h/2)] with f[n + floor(h/2)], so on the support
    [a, b] = `_support(coeffs)` row n lives on h <= 2 min(n - a, b - n) + 1;
    rows outside the support keep h = 0 alone, where |f_n|^2 = 0. The
    harmonics cut off are zeros, and the lattice and the Horner sum of the
    shorter table have the same bits.
    """
    a, b = support
    reach = min(levels.stop - 1 - a, b - levels.start, (b - a) // 2)
    return _coefficient_table(coeffs, levels, max(0, min(top, 2 * reach + 1)))


def _blocks(levels: range, grid_size: int):
    """`levels` in consecutive ranges of _BLOCK_CELLS // M rows (>= 1)."""
    rows = max(1, _BLOCK_CELLS // grid_size)
    return (
        range(a, min(a + rows, levels.stop))
        for a in range(levels.start, levels.stop, rows)
    )


def _lattice(table: np.ndarray, grid_size: int) -> np.ndarray:
    """Rows of the half table summed on the midpoint grid, over h = -top..top.

    The real transform takes the Hermitian symmetry for granted, so the one
    entry that can still break it is checked: C[n, 0] = |f_n|^2 is exactly
    real, and an imaginary residue there means the conjugation is wrong.
    """
    residue = float(np.max(np.abs(table[:, 0].imag), initial=0.0))
    if residue >= _IMAG_RESIDUE_TOL:
        raise DiskPhaseError(
            f"imaginary residue {residue:.3e} exceeds {_IMAG_RESIDUE_TOL:.0e}; "
            "coefficient conjugation is suspect"
        )
    values = hermitian_circle_values(table, grid_size)
    values /= 2.0 * np.pi
    return values


def _grid_size(truncation: int, n_max: int, grid_size: int | None) -> int:
    """The given grid, or `default_grid_size` for N and the top harmonic.

    Either way the grid exceeds the top harmonic 2 n_max + 1; a given grid
    is checked here, before the coefficient table is built.
    """
    top = 2 * n_max + 1
    if grid_size is None:
        return default_grid_size(truncation, top)
    if grid_size <= top:
        raise SpecError(f"grid {grid_size} cannot resolve harmonics up to {top}")
    return int(grid_size)


def wigner(state: FockState, n: int, theta):
    """Value of the joint function at level n and angle(s) theta."""
    if n < 0:
        raise DomainError("level n must be non-negative")
    theta = np.asarray(theta, dtype=float)
    row = _live_table(
        state.coeffs, range(n, n + 1), 2 * n + 1, _support(state.coeffs)
    )[0]
    # the h < 0 half conjugates the h > 0 one; h = 0 is counted once
    total = series_eval(row, np.exp(1j * theta))
    out = (2.0 * np.real(total) - row[0].real) / (2.0 * np.pi)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class WignerGrid:
    """S values on a (level, midpoint-angle) lattice with marginal accessors."""

    n_max: int
    theta: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        for name in ("theta", "values"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def number_marginal(self) -> np.ndarray:
        """Integral over the angle (periodic trapezoid) per level."""
        return (2.0 * np.pi / self.theta.size) * self.values.sum(axis=1)

    def phase_marginal(self) -> np.ndarray:
        """Sum over levels per angle."""
        return self.values.sum(axis=0)


def wigner_grid(
    state: FockState, n_max: int | None = None, grid_size: int | None = None
) -> WignerGrid:
    """Fill the lattice from the coefficient table, one real inverse FFT per
    level of the state's support [a, b]; the rows outside it are zero.

    The levels a..min(b, n_max) go in blocks of about _BLOCK_CELLS cells,
    each table cut to the harmonics its levels can hold, so the peak memory
    is the output plus one block. With n_max >= N - 1 both marginals are
    exact (the function vanishes for n >= N). For an exact angle marginal
    the grid must exceed the top harmonic 2 n_max + 1, as the default
    `default_grid_size(N, 2 n_max + 1)` does.
    """
    if n_max is None:
        n_max = state.truncation - 1
    if n_max < 0:
        raise DomainError("n_max must be non-negative")
    m = _grid_size(state.truncation, n_max, grid_size)
    top = 2 * n_max + 1
    support = _support(state.coeffs)
    live = range(support[0], min(support[1], n_max) + 1)
    # irfft of an all-zero spectrum is +0.0, so the dead rows keep their bits
    values = np.empty((n_max + 1, m))
    values[: live.start] = 0.0
    values[live.stop :] = 0.0
    for block in _blocks(live, m):
        values[block.start : block.stop] = _lattice(
            _live_table(state.coeffs, block, top, support), m
        )
    return WignerGrid(n_max, midpoint_grid(m), values)


def marginal_residuals(state: FockState, grid: WignerGrid) -> tuple[float, float]:
    """Max deviations of the lattice marginals from the state's distributions.

    The number marginal is compared with |f_n|^2 (zero past the truncation),
    the phase marginal with `phase_distribution` on the lattice's grid.
    """
    expected = np.zeros(grid.n_max + 1)
    k = min(grid.n_max + 1, state.truncation)
    expected[:k] = number_distribution(state)[:k]
    number = float(np.max(np.abs(grid.number_marginal() - expected)))
    phase = grid.phase_marginal() - phase_distribution(state, grid.theta.size)
    return number, float(np.max(np.abs(phase)))


def chebyshev_u(k: int, x):
    """Second-kind Chebyshev polynomial via the three-term recurrence.

    Negative orders are defined as identically zero (the convention the
    closed forms below rely on at small n).
    """
    x = np.asarray(x, dtype=float)
    if k < 0:
        return np.zeros_like(x)
    prev = np.ones_like(x)
    if k == 0:
        return prev
    cur = 2.0 * x
    for _ in range(k - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def closed_form(kind: str, params: dict, n: int, theta):
    """Printed closed forms for the catalog states.

    The second (odd-harmonic) term is omitted at n = 0 throughout, matching
    the `chebyshev_u(k<0) = 0` convention.
    """
    theta = np.asarray(theta, dtype=float)
    if n < 0:
        raise DomainError("level n must be non-negative")

    if kind == "number":
        m = int(params["m"])
        out = np.full_like(theta, 1.0 / (2 * np.pi) if n == m else 0.0)
    elif kind == "number_out":
        m = int(params["m"])
        if m < 1:
            raise DomainError("the vacuum superposition needs m >= 1")
        k = m // 2 if m % 2 == 0 else (m + 1) // 2
        out = (
            float(n == 0)
            + float(n == m)
            + 2.0 * float(n == k) * np.cos(m * theta)
        ) / (4.0 * np.pi)
    elif kind == "su11_cs":
        z = complex(params["z"])
        r, phase = abs(z), math.atan2(z.imag, z.real)
        x = np.cos(theta - phase)
        val = r ** (2 * n) * chebyshev_u(2 * n, x)
        if n > 0:
            val = val + r ** (2 * n - 1) * chebyshev_u(2 * n - 1, x)
        out = (1.0 - r * r) / (2.0 * np.pi) * val
    elif kind == "bg":
        u = complex(params["u"])
        a, phase = abs(u), math.atan2(u.imag, u.real)
        c = 2.0 * a * np.cos(theta - phase)
        val = c ** (2 * n) / math.factorial(2 * n)
        if n > 0:
            val = val + c ** (2 * n - 1) / math.factorial(2 * n - 1)
        out = val / (2.0 * np.pi * np.i0(2.0 * a))
    elif kind == "blaschke":
        z = complex(params["z"])
        r, phase = abs(z), math.atan2(z.imag, z.real)
        x = np.cos(theta - phase)
        t1 = r ** (2 * n - 3) * chebyshev_u(2 * n - 3, x) if 2 * n - 3 >= 0 else 0.0
        t2 = (
            (1.0 - 2.0 * r * x) * r ** (2 * n - 2) * chebyshev_u(2 * n - 2, x)
            if 2 * n - 2 >= 0
            else 0.0
        )
        t3 = (
            (r * r - 2.0 * r * x) * r ** (2 * n - 1) * chebyshev_u(2 * n - 1, x)
            if 2 * n - 1 >= 0
            else 0.0
        )
        t4 = r ** (2 * n + 2) * chebyshev_u(2 * n, x)
        out = (t1 + t2 + t3 + t4) / (2.0 * np.pi)
    elif kind == "pi_superposition":
        z = complex(params["z"])
        tau = float(params["tau"])
        r, phase = abs(z), math.atan2(z.imag, z.real)
        amp2 = 4.0 * (1.0 - r * r) / pi_superposition_norm(z, tau)
        x = np.cos(2.0 * (theta - phase))
        val = math.cos(tau / 2.0) ** 2 * r ** (2 * n) * chebyshev_u(n, x)
        if n >= 1:
            val = val + (
                r * r * math.sin(tau / 2.0) ** 2
                - r * math.sin(tau) * np.sin(theta - phase)
            ) * r ** (2 * (n - 1)) * chebyshev_u(n - 1, x)
        out = amp2 / (2.0 * np.pi) * val
    else:
        raise SpecError(f"unknown closed-form tag {kind!r}")
    return float(out) if out.ndim == 0 else out


def shift_covariance_check(
    state: FockState,
    w: WeylElement,
    n_max: int | None = None,
    grid_size: int | None = None,
) -> float:
    """Max deviation from S(g; n, theta) = S(f; n-m, theta-beta).

    Levels below the shift must vanish; above it the function is the
    original one displaced on the lattice. The default grid is sized from
    the unshifted N, as `diskphase wigner --weyl` sizes it. Both sides are
    compared block by block of levels, as `wigner_grid` fills them, so no
    full lattice is held.
    """
    shifted = apply(w, state)
    if n_max is None:
        n_max = shifted.truncation - 1
    m = _grid_size(state.truncation, n_max, grid_size)
    top = 2 * n_max + 1
    # the rotation by beta twists harmonic h by e^{-i h beta}
    twist = np.exp(-1j * w.beta * np.arange(top + 1))
    support, shifted_support = _support(state.coeffs), _support(shifted.coeffs)
    deviation = 0.0
    for block in _blocks(range(n_max + 1), m):
        lhs = _lattice(_live_table(shifted.coeffs, block, top, shifted_support), m)
        levels = range(max(block.start - w.m, 0), max(block.stop - w.m, 0))
        moved = _live_table(state.coeffs, levels, top, support)
        moved *= twist[: moved.shape[1]]
        below = len(block) - len(levels)  # rows below the shift vanish
        diff = lhs[below:] - _lattice(moved, m)
        deviation = max(
            deviation,
            np.max(np.abs(lhs[:below]), initial=0.0),
            np.max(np.abs(diff, out=diff), initial=0.0),
        )
    return float(deviation)
