"""Shared strategies and helpers for the test suite."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import assume
from hypothesis.strategies import composite

from diskphase import FockState


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


def series_div_oracle(a, b, length):
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
    a *= np.exp(1j * np.pi * n * (1.0 / m - 1.0))
    return m * np.fft.ifft(a, axis=-1)


def circle_coefficients_oracle(values, length):
    """Fourier coefficients by twisting all M FFT outputs, then keeping `length`."""
    m = np.shape(values)[-1]
    k = np.arange(m)
    twisted = (-1.0) ** k * np.exp(-1j * np.pi * k / m) * (np.fft.fft(values) / m)
    return twisted[..., :length]


def bit_equal(a, b) -> bool:
    """Equal shape and equal float components, compared as float views."""
    a = np.ascontiguousarray(a, dtype=complex)
    b = np.ascontiguousarray(b, dtype=complex)
    return a.shape == b.shape and np.array_equal(a.view(float), b.view(float))
