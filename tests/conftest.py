"""Shared strategies and helpers for the test suite."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import assume
from hypothesis.strategies import composite

from diskphase import FockState
from diskphase.disk import circle_values, midpoint_grid


@composite
def normalized_states(draw, min_size=2, max_size=32):
    """A random unit-norm coefficient vector wrapped as a state."""
    n = draw(st.integers(min_size, max_size))
    parts = draw(
        st.lists(
            st.tuples(
                st.floats(-1, 1, allow_nan=False),
                st.floats(-1, 1, allow_nan=False),
            ),
            min_size=n,
            max_size=n,
        )
    )
    c = np.array([complex(re, im) for re, im in parts])
    norm = np.linalg.norm(c)
    assume(norm > 1e-3)
    return FockState(c / norm, 0.0)


@composite
def disk_points(draw, max_radius=0.9):
    r = draw(st.floats(0, max_radius, allow_nan=False))
    phi = draw(st.floats(-np.pi, np.pi, allow_nan=False))
    return r * np.exp(1j * phi)


def boundary_direct(state, thetas):
    """Reference boundary evaluation by plain summation (no FFT)."""
    n = np.arange(state.truncation)
    return np.exp(1j * np.outer(np.asarray(thetas), n)) @ np.conj(state.coeffs)


def series_mul_oracle(a, b, length):
    """Cauchy product truncated to `length` terms, by `np.convolve` at any size."""
    full = np.convolve(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    out = np.zeros(length, dtype=complex)
    k = min(length, full.size)
    out[:k] = full[:k]
    return out


def series_div_oracle(a, b, length):
    """Newton-doubling quotient with every product by `np.convolve`: the
    library's quotient as it is below the FFT crossover, at any size."""
    b = np.asarray(b, dtype=complex)
    r = np.array([1.0 / b[0]])
    k = 1
    while k < length:
        k2 = min(2 * k, length)
        e = series_mul_oracle(b[:k2], r, k2)[k:]
        r = np.concatenate((r, -series_mul_oracle(r, e, k2 - k)))
        k = k2
    return series_mul_oracle(a, r, length)


def series_div_substitution_oracle(a, b, length):
    """Quotient c with b * c = a by forward substitution, one term at a time."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    c = np.zeros(length, dtype=complex)
    c[0] = (a[0] if a.size else 0.0) / b[0]
    for n in range(1, length):
        an = a[n] if n < a.size else 0.0
        m = min(n, b.size - 1)
        acc = np.dot(b[1 : m + 1], c[n - 1 :: -1][:m]) if m else 0.0
        c[n] = (an - acc) / b[0]
    return c


def series_exp_oracle(phi, length):
    """exp of a power series by the derivative recurrence.

    b_0 = e^{phi_0},  n b_n = sum_{k=1..n} k phi_k b_{n-k}.
    """
    phi = np.asarray(phi, dtype=complex)
    b = np.zeros(length, dtype=complex)
    b[0] = np.exp(phi[0])
    kphi = np.arange(phi.size) * phi
    for n in range(1, length):
        m = min(n, phi.size - 1)
        b[n] = np.dot(kphi[1 : m + 1], b[n - 1 :: -1][:m]) / n if m else 0.0
    return b


def circle_values_oracle(coeffs, grid_size):
    """Midpoint-grid values by twisting the whole zero-padded array of length M."""
    coeffs = np.asarray(coeffs, dtype=complex)
    m = grid_size
    a = np.zeros(coeffs.shape[:-1] + (m,), dtype=complex)
    a[..., : coeffs.shape[-1]] = coeffs
    n = np.arange(m)
    a *= (-1.0) ** n * np.exp(1j * np.pi * n / m)
    return m * np.fft.ifft(a, axis=-1)


def circle_coefficients_oracle(values, length):
    """Fourier coefficients by twisting all M FFT outputs, then keeping `length`."""
    m = np.shape(values)[-1]
    k = np.arange(m)
    twisted = (-1.0) ** k * np.exp(-1j * np.pi * k / m) * (np.fft.fft(values) / m)
    return twisted[..., :length]


def two_sided_table_oracle(coeffs, levels, top):
    """Coefficients C[n, h] for h = -top..top, gathered by index arrays.

    C[n, h] = f[n - ceil(h/2)] conj(f[n + floor(h/2)]), both halves stored.
    """
    f = np.asarray(coeffs, dtype=complex)
    rows = np.asarray(levels)[:, None]
    h = np.arange(-top, top + 1)
    lo = (top + 1) // 2  # largest ceil(h/2), so the lowest index lands on 0
    size = max(f.size, int(rows.max(initial=0)) + top // 2 + 1)
    padded = np.zeros(lo + size, dtype=complex)
    padded[lo : lo + f.size] = f
    right = lo + rows + h // 2
    return padded[right - h] * np.conj(padded[right])


def two_fft_lattice_oracle(table, grid_size):
    """Rows of a two-sided table over 2 pi on the midpoint grid, by two
    complex FFTs: one of the h >= 0 half, one of the conjugated h < 0 half."""
    top = table.shape[1] // 2
    lower = np.conj(table[:, top::-1])
    lower[:, 0] = 0.0
    values = circle_values(table[:, top:], grid_size) + np.conj(
        circle_values(lower, grid_size)
    )
    return values.real / (2.0 * np.pi)


def power_sums_oracle(log_derivative, radius, count):
    """s_j = mean(z^j L) on |z| = radius from a count x M table of powers."""
    z = radius * np.exp(1j * midpoint_grid(np.shape(log_derivative)[-1]))
    return np.mean(z ** np.arange(count)[:, None] * log_derivative, axis=1)


def winding_oracle(poly, radius, grid):
    """Zero count inside |z| = radius and the samples of z Z'/Z there, one
    circle per pair of transforms."""
    scaled = poly * radius ** np.arange(poly.size)
    values = circle_values(scaled, grid)
    log_derivative = circle_values(np.arange(poly.size) * scaled, grid) / values
    return complex(np.mean(log_derivative)), log_derivative


def cluster_oracle(roots, radius):
    """Clusters by increasing modulus, each member compared with the mean of
    its cluster recomputed from the members every time."""
    clusters = []
    for r in sorted(roots, key=lambda w: (abs(w), w.real, w.imag)):
        for members in clusters:
            if abs(r - np.mean(members)) <= radius:
                members.append(r)
                break
        else:
            clusters.append([r])
    return [(complex(np.mean(ms)), len(ms)) for ms in clusters]


def bit_equal(a, b) -> bool:
    """Equal shape and equal float components, compared as float views."""
    a = np.ascontiguousarray(a, dtype=complex)
    b = np.ascontiguousarray(b, dtype=complex)
    return a.shape == b.shape and np.array_equal(a.view(float), b.view(float))
