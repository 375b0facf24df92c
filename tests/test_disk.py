"""Disk evaluation, boundary sampling, kernels, quadrature reconstruction."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import i0

from diskphase import (
    AliasingError,
    DomainError,
    FockState,
    IllConditionedError,
    boundary,
    cauchy,
    conjugate,
    default_grid_size,
    eval_Z,
    make_bg,
    make_blaschke_state,
    make_number,
    make_su11_cs,
    midpoint_grid,
    phase_distribution,
    poisson,
    raw_state,
    reconstruct_from_boundary,
    superpose,
)
from diskphase import disk as disk_module
from diskphase.disk import circle_coefficients, circle_values, hermitian_circle_values
from tests.conftest import (
    bit_equal,
    boundary_direct,
    circle_coefficients_oracle,
    circle_values_oracle,
    disk_points,
    normalized_states,
)


class TestEvalZ:
    def test_number_state_monomial(self):
        for m in (0, 1, 3):
            s = make_number(m, 8)
            for z in (0.2, 0.5j, -0.3 + 0.3j):
                assert eval_Z(s, z) == pytest.approx(z**m)

    def test_coherent_closed_form(self):
        z0, z = 0.5, 0.3j
        s = make_su11_cs(z0, 128)
        expected = math.sqrt(0.75) / (1 - np.conj(z0) * z)
        assert eval_Z(s, z) == pytest.approx(expected, abs=1e-12)

    def test_origin_gives_conjugate_f0(self):
        s = make_su11_cs(0.3 + 0.2j, 16)
        assert eval_Z(s, 0.0) == np.conj(s.coeffs[0])

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            eval_Z(make_number(0, 4), 1.0)

    @given(normalized_states(max_size=16), normalized_states(max_size=16))
    @settings(max_examples=25)
    def test_multiplicative_on_convolved_coefficients(self, f, g):
        """Coefficient convolution multiplies the disk functions."""
        prod = np.convolve(np.conj(f.coeffs), np.conj(g.coeffs))
        z = 0.4 * np.exp(0.7j)
        lhs = np.polyval(prod[::-1], z)
        assert lhs == pytest.approx(eval_Z(f, z) * eval_Z(g, z), abs=1e-10)


class TestBoundary:
    def test_vacuum_constant(self):
        samples = boundary(make_number(0, 8), 32)
        np.testing.assert_allclose(samples.values, 1.0)

    def test_matches_direct_summation(self):
        s = make_su11_cs(0.45 + 0.3j, 48)
        samples = boundary(s, 256)
        np.testing.assert_allclose(
            samples.values, boundary_direct(s, samples.theta), atol=1e-12
        )

    def test_vacuum_plus_number_profile(self):
        m = 3
        s = superpose([make_number(0, 16), make_number(m, 16)], [1, 1])
        samples = boundary(s, 64)
        expected = (1 + np.exp(1j * m * samples.theta)) / math.sqrt(2)
        np.testing.assert_allclose(samples.values, expected, atol=1e-12)

    def test_factorial_state_profile(self):
        s = make_bg(1.0, 24)
        samples = boundary(s, 64)
        expected = np.exp(np.exp(1j * samples.theta)) / math.sqrt(i0(2.0))
        np.testing.assert_allclose(samples.values, expected, atol=1e-10)

    def test_aliasing_guard(self):
        with pytest.raises(AliasingError):
            boundary(make_number(0, 64), 64)

    def test_power_of_two_guard(self):
        with pytest.raises(DomainError):
            boundary(make_number(0, 8), 48)

    @given(normalized_states())
    @settings(max_examples=30)
    def test_parseval(self, state):
        samples = boundary(state)
        mass = np.mean(np.abs(samples.values) ** 2)
        assert mass == pytest.approx(1.0 - state.norm_defect, abs=1e-8)

    @given(normalized_states(max_size=16), normalized_states(max_size=16))
    @settings(max_examples=25)
    def test_inner_product_identity(self, f, g):
        """Boundary quadrature reproduces the coefficient inner product."""
        m = 128
        fp, gp = f.padded(16), g.padded(16)
        quad = np.mean(boundary(gp, m).values * np.conj(boundary(fp, m).values))
        direct = np.sum(np.conj(gp.coeffs) * fp.coeffs)
        assert quad == pytest.approx(direct, abs=1e-8)

    def test_log_abs_clamped(self):
        s = make_number(1, 8)  # boundary value vanishes nowhere on midpoints
        samples = boundary(s, 32)
        assert np.all(samples.log_abs >= -700.0)


class TestPhaseDistribution:
    def test_number_state_uniform(self):
        p = phase_distribution(make_number(4, 16), 64)
        np.testing.assert_allclose(p, 1.0 / (2 * np.pi), atol=1e-12)

    def test_blaschke_uniform(self):
        p = phase_distribution(make_blaschke_state(0.5, 64), 256)
        np.testing.assert_allclose(p, 1.0 / (2 * np.pi), atol=1e-12)

    def test_coherent_poisson_profile(self):
        r, phi = 0.5, 0.9
        s = make_su11_cs(r * np.exp(1j * phi), 128)
        theta = midpoint_grid(512)
        expected = poisson(r, theta - phi) / (2 * np.pi)
        np.testing.assert_allclose(
            phase_distribution(s, 512), expected, atol=1e-10
        )

    def test_mass(self):
        s = make_su11_cs(0.7, 64)
        p = phase_distribution(s, 512)
        total = (2 * np.pi / 512) * np.sum(p)
        assert total == pytest.approx(1.0 - s.norm_defect, abs=1e-8)


class TestKernels:
    def test_center_values(self):
        assert cauchy(0.0, 1.3) == pytest.approx(1.0)
        assert poisson(0.0, 1.3) == pytest.approx(1.0)
        assert conjugate(0.0, 1.3) == pytest.approx(0.0)

    def test_poisson_evaluated(self):
        assert poisson(0.5, 0.0) == pytest.approx(3.0)

    def test_conjugate_cotangent_limit(self):
        val = conjugate(0.999, 0.5)
        assert val == pytest.approx(1.0 / math.tan(0.25), rel=1e-2)

    def test_exact_decomposition(self):
        r, theta = 0.73, np.linspace(-3, 3, 11)
        k = 2.0 * cauchy(r, theta) - 1.0
        assert np.array_equal(poisson(r, theta), k.real)
        assert np.array_equal(conjugate(r, theta), k.imag)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            poisson(1.0, 0.2)


class TestReconstruction:
    def test_vacuum(self):
        samples = boundary(make_number(0, 8), 64)
        assert reconstruct_from_boundary(samples, 0.37 + 0.2j) == pytest.approx(1.0)

    def test_one_photon_oracle(self):
        samples = boundary(make_number(1, 64), 1024)
        val = reconstruct_from_boundary(samples, 0.4)
        assert abs(val - 0.4) < 1e-8

    def test_coherent_closed_form(self):
        s = make_su11_cs(0.5, 64)
        samples = boundary(s, 1024)
        val = reconstruct_from_boundary(samples, 0.3)
        assert val == pytest.approx(math.sqrt(0.75) / 0.85, abs=1e-8)

    @given(normalized_states(max_size=24), disk_points(max_radius=0.6))
    @settings(max_examples=25)
    def test_agrees_with_direct_evaluation(self, state, z):
        samples = boundary(state.padded(24), 512)
        assert reconstruct_from_boundary(samples, z) == pytest.approx(
            eval_Z(state, z), abs=1e-6
        )

    def test_near_circle_rejected(self):
        samples = boundary(make_number(0, 8), 64)
        with pytest.raises(IllConditionedError):
            reconstruct_from_boundary(samples, 0.999)


def test_raw_state_roundtrip_through_boundary():
    c = np.array([0.5, 0.4j, -0.3, 0.2 + 0.1j])
    s = raw_state(c / np.linalg.norm(c))
    samples = boundary(s, 16)
    np.testing.assert_allclose(samples.values, boundary_direct(s, samples.theta),
                               atol=1e-13)


class TestDefaultGridSize:
    @pytest.mark.parametrize(
        "truncation, top, grid",
        [(1, 0, 8), (2, 0, 8), (3, 0, 16), (64, 0, 256), (16, 81, 128),
         (16, 63, 64), (16, 64, 128), (64, 131, 256), (2048, 4099, 8192)],
    )
    def test_smallest_power_of_two_over_4n_8_and_top(self, truncation, top, grid):
        assert default_grid_size(truncation, top) == grid
        if top == 0:
            assert default_grid_size(truncation) == grid


class TestCircleCoefficients:
    @settings(max_examples=40, deadline=None)
    @given(normalized_states(max_size=64), st.integers(0, 3))
    # a twist angle near pi n left 1.8e-14 here
    @example(FockState(1j * np.eye(48)[47]), 0)
    def test_round_trip(self, state, extra):
        c = np.conj(state.coeffs)
        m = max(8, 1 << (c.size - 1).bit_length()) << extra
        back = circle_coefficients(circle_values(c, m), c.size)
        np.testing.assert_allclose(back, c, rtol=0, atol=1e-14)

    def test_rows_and_full_length(self):
        c = np.array([[1.0, 2.0j, -0.5], [0.0, 0.0, 3.0]])
        back = circle_coefficients(circle_values(c, 8), 8)
        np.testing.assert_allclose(back[:, :3], c, atol=1e-15)
        np.testing.assert_allclose(back[:, 3:], 0.0, atol=1e-15)

    def test_length_beyond_grid(self):
        with pytest.raises(AliasingError):
            circle_coefficients(np.ones(8), 9)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18, reason="long double is no wider than double"
)
def test_circle_values_twist_is_accurate_at_high_order():
    """Against the same FFT fed an extended-precision twist, at N = 2048.

    A twist e^{i pi n (1/M - 1)} rounds its angle near pi n and was off by
    8.8e-13 here; (-1)^n e^{i pi n / M} stays at rounding level (9e-16).
    """
    n_coeffs, m = 2048, 8192
    rng = np.random.default_rng(2048)
    c = rng.normal(size=n_coeffs) + 1j * rng.normal(size=n_coeffs)
    c /= np.linalg.norm(c)
    n = np.arange(n_coeffs).astype(np.longdouble)
    angle = np.arccos(np.longdouble(-1)) * n * (np.longdouble(1) / m - 1)
    a = np.zeros(m, dtype=np.clongdouble)
    a[:n_coeffs] = c * (np.cos(angle) + 1j * np.sin(angle))
    reference = m * np.fft.ifft(a)
    assert np.max(np.abs(circle_values(c, m) - reference)) < 1e-14




@pytest.mark.parametrize(
    "length, m",
    [(1, 8), (8, 8), (5, 9), (97, 97), (64, 256), (257, 512), (1024, 1024),
     (300, 4096), (2048, 8192)],
)
def test_twist_is_a_cached_read_only_slice(length, m):
    """The cached twist equals the formula evaluated for n < length alone, bit
    for bit, on power-of-two grids and on the odd and prime grids the real
    transform also takes; longer and shorter slices share one table."""
    twist = np.exp(1j * np.pi * np.arange(length) / m)
    twist[1::2] *= -1.0
    for _ in range(2):
        cached = disk_module._twist(length, m)
        assert bit_equal(cached, twist)
        assert not cached.flags.writeable
    assert bit_equal(disk_module._twist(m, m)[:length], twist)

@st.composite
def live_bands(draw):
    """A grid size m in [8, 4096], a series length 1 <= L <= m, 1-d or 2-d."""
    m = draw(st.integers(8, 4096))
    rows = draw(st.sampled_from([(), (1,), (3,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return m, rows + (draw(st.integers(1, m)),), rng


class TestLiveBandTwist:
    """The helpers twist only the live band, with the full-grid twist's bits."""

    @settings(max_examples=60, deadline=None)
    @given(live_bands())
    def test_circle_values_bits(self, case):
        m, shape, rng = case
        coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert bit_equal(circle_values(coeffs, m), circle_values_oracle(coeffs, m))

    @settings(max_examples=60, deadline=None)
    @given(live_bands(), st.booleans())
    def test_circle_coefficients_bits(self, case, real):
        m, shape, rng = case
        grid_shape = shape[:-1] + (m,)
        values = rng.normal(size=grid_shape)
        if not real:
            values = values + 1j * rng.normal(size=grid_shape)
        length = shape[-1]
        assert bit_equal(
            circle_coefficients(values, length), circle_coefficients_oracle(values, length)
        )


@settings(max_examples=60, deadline=None)
@given(live_bands())
def test_hermitian_circle_values_against_full_series(case):
    """The real transform of the n >= 0 half, folded bins and odd grids
    included, against the complex series c_0 + 2 Re sum_{n >= 1} c_n e^{i n theta}."""
    m, shape, rng = case
    coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    coeffs[..., 0] = coeffs[..., 0].real
    expected = 2.0 * circle_values_oracle(coeffs, m).real - coeffs[..., :1].real
    scale = np.abs(coeffs).sum(axis=-1, keepdims=True)
    got = hermitian_circle_values(coeffs, m)
    assert got.shape == expected.shape
    # FFT rounding on both sides, largest on prime grids (Bluestein's
    # algorithm), was at most 1.7e-15 of sum |c_n| over 400 random cases
    assert np.all(np.abs(got - expected) <= 1e-14 * scale)
