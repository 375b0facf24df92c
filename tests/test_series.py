"""Truncated series products and quotients against term-by-term oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskphase.series import series_div, series_mul

from tests.conftest import (
    bit_equal,
    series_div_oracle,
    series_div_substitution_oracle,
    series_mul_oracle,
)

EPS = float(np.finfo(float).eps)
# FFT products stay within this many eps * |a|_2 |b|_2 of np.convolve (both
# operands cut to the product's length). A sweep of 3000 random operand
# pairs of 512-2600 terms (plain, geometrically decaying and rescaled by up
# to 1e+-100) reached 0.79; coherent operands such as e^{0.3 i n} reached
# 3.2 at 2047 terms.
FFT_ERROR_BOUND = 8.0


def complex_arrays(min_size, max_size):
    parts = st.floats(-1, 1, allow_nan=False)
    return st.lists(
        st.builds(complex, parts, parts), min_size=min_size, max_size=max_size
    ).map(lambda v: np.array(v, dtype=complex))


def seeded_series(seed, size, decay=1.0):
    """Random complex coefficients damped by decay^n."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return v * decay ** np.arange(size)


def assert_fft_product(a, b, length):
    got = series_mul(a, b, length)
    want = series_mul_oracle(a, b, length)
    scale = np.linalg.norm(a[:length]) * np.linalg.norm(b[:length])
    assert np.max(np.abs(got - want)) <= FFT_ERROR_BOUND * EPS * scale


class TestSeriesMul:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 511),
        st.integers(1, 1100),
        st.integers(1, 1200),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_bits_of_convolve_below_crossover(self, short, other, length, swap, seed):
        # one operand under 512 terms keeps np.convolve, however long the other
        a, b = seeded_series(seed, short), seeded_series(seed + 1, other)
        if swap:
            a, b = b, a
        assert bit_equal(series_mul(a, b, length), series_mul_oracle(a, b, length))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(512, 2600),
        st.integers(512, 2600),
        st.integers(0, 2**32 - 1),
        st.floats(0.99, 1.0),
        st.data(),
    )
    def test_fft_error_within_operand_norms(self, na, nb, seed, decay, data):
        length = data.draw(st.integers(512, na + nb + 8))
        a, b = seeded_series(seed, na, decay), seeded_series(seed + 1, nb)
        assert_fft_product(a, b, length)

    @pytest.mark.parametrize(
        "na, nb, length",
        [
            (511, 511, 1021),
            (511, 2048, 2048),
            (1024, 1024, 511),  # the cut to `length` decides
            (600, 2048, 511),
        ],
    )
    def test_convolve_route_at_the_edge(self, na, nb, length):
        a, b = seeded_series(na, na), seeded_series(nb, nb)
        assert bit_equal(series_mul(a, b, length), series_mul_oracle(a, b, length))

    @pytest.mark.parametrize(
        "na, nb, length",
        [
            (512, 512, 1023),
            (513, 513, 513),
            (512, 513, 700),
            (2048, 512, 1000),
            (1024, 700, 513),  # both operands cut to 513 terms
            (513, 600, 4096),  # length past the full product
        ],
    )
    def test_fft_route_at_the_edge(self, na, nb, length, monkeypatch):
        a, b = seeded_series(na, na), seeded_series(nb, nb)
        assert_fft_product(a, b, length)

        def refuse(*args):
            raise AssertionError("np.convolve called at or above the crossover")

        monkeypatch.setattr(np, "convolve", refuse)
        series_mul(a, b, length)

    def test_fft_product_near_the_float_range_stays_finite(self):
        # the transforms reach |a|_1 |b|_1, past the float range here, while
        # np.convolve stays finite
        a, b = seeded_series(1, 1024), seeded_series(2, 1024)
        got = series_mul(1e304 * a, b, 1024)
        assert np.isfinite(got).all()
        scale = 1e304 * np.linalg.norm(a) * np.linalg.norm(b)
        want = series_mul_oracle(1e304 * a, b, 1024)
        assert np.max(np.abs(got - want)) <= FFT_ERROR_BOUND * EPS * scale

    def test_rescaled_fft_product_keeps_the_bits(self):
        # the rescale is by powers of two, so it scales the product exactly
        a, b = seeded_series(3, 1024), seeded_series(4, 700)
        got = series_mul(2.0**1000 * a, b, 1024)
        assert bit_equal(got, 2.0**1000 * series_mul(a, b, 1024))


class TestSeriesDiv:
    @settings(max_examples=60, deadline=None)
    @given(
        complex_arrays(1, 40),
        complex_arrays(1, 40),
        st.floats(0.5, 2.0),
        st.integers(1, 70),
    )
    def test_newton_matches_forward_substitution(self, a, b, lead, length):
        # |b_0| dominates the rest, so 1/b is a convergent series on the
        # disk and both routes stay at rounding level
        b = b / max(1.0, np.sum(np.abs(b[1:])) / (0.5 * lead))
        b[0] = lead
        got = series_div(a, b, length)
        want = series_div_substitution_oracle(a, b, length)
        scale = max(1.0, float(np.max(np.abs(want))))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("length", [1, 2, 3, 7, 64, 100])
    def test_quotient_times_divisor(self, length):
        rng = np.random.default_rng(length)
        b = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        b[0] = 4.0 * length
        a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        c = series_div(a, b, length)
        padded = np.zeros(length, dtype=complex)
        padded[: min(5, length)] = a[:length]
        np.testing.assert_allclose(series_mul(b, c, length), padded, atol=1e-15)

    def test_geometric_series(self):
        c = series_div([1.0], [1.0, -0.5], 20)
        np.testing.assert_allclose(c, 0.5 ** np.arange(20), rtol=1e-15)

    @pytest.mark.parametrize("n", [512, 1024, 2048])
    @pytest.mark.parametrize("decay", [1.0, 0.99])
    def test_fft_quotient_matches_convolve_quotient(self, n, decay):
        a = seeded_series(n, n, decay)
        b = seeded_series(n + 1, n, decay)
        # |b_0| dominates the rest, so 1/b converges on the closed disk
        b[0] = 2.0 * np.sum(np.abs(b[1:]))
        got = series_div(a, b, n)
        want = series_div_oracle(a, b, n)
        scale = max(1.0, float(np.max(np.abs(want))))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * scale)

    def test_quotient_below_crossover_keeps_convolve_bits(self):
        a, b = seeded_series(1, 256), seeded_series(2, 256)
        b[0] = 64.0
        assert bit_equal(series_div(a, b, 256), series_div_oracle(a, b, 256))

    def test_zero_leading_coefficient(self):
        with pytest.raises(ZeroDivisionError):
            series_div([1.0], [0.0, 1.0], 4)
