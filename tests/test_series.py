"""Truncated series products and quotients against term-by-term oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskphase.series import series_div, series_mul

from tests.conftest import series_div_oracle


def complex_arrays(min_size, max_size):
    parts = st.floats(-1, 1, allow_nan=False)
    return st.lists(
        st.builds(complex, parts, parts), min_size=min_size, max_size=max_size
    ).map(lambda v: np.array(v, dtype=complex))


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
        want = series_div_oracle(a, b, length)
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

    def test_zero_leading_coefficient(self):
        with pytest.raises(ZeroDivisionError):
            series_div([1.0], [0.0, 1.0], 4)
