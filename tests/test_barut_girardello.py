"""Transformed-plane representation: transform bridge, convolution split, atoms."""

import math

import numpy as np
import pytest
from scipy.special import factorial

from diskphase import (
    DomainError,
    IllConditionedError,
    bg_convolve,
    bg_factor_parts,
    bg_function,
    bg_measure_weight,
    bg_shifted,
    bg_shifted_from_outer,
    eval_Z,
    factorize,
    laplace_to_disk,
    make_bg,
    make_blaschke_state,
    make_number,
    make_pi_superposition,
    make_su11_cs,
    raw_state,
    shift,
    superpose,
)
from diskphase import barut_girardello as bg_module
from diskphase.series import series_eval
from diskphase.verification import build_catalog


class TestBGFunction:
    def test_number_state_monomial(self):
        u = bg_function(make_number(3, 8))
        expected = np.zeros(8)
        expected[3] = 1.0 / 6.0
        np.testing.assert_allclose(u.smooth, expected)
        assert u.atom == 0

    def test_vacuum_constant(self):
        u = bg_function(make_number(0, 4))
        np.testing.assert_allclose(u.smooth, [1, 0, 0, 0])
        assert u(0.7 + 0.2j) == pytest.approx(1.0)

    def test_factorial_state_series(self):
        # eigenstate coefficients u0^n/n! pick up another 1/n!, giving the
        # squared-factorial series sum (u0* u)^n / (n!)^2
        u0 = 1.0
        ufn = bg_function(make_bg(u0, 40))
        from scipy.special import i0

        for u in (0.5, 1.2j, 1.0 - 0.7j):
            expected = sum(
                (np.conj(u0) * u) ** n / math.factorial(n) ** 2 for n in range(40)
            ) / math.sqrt(i0(2.0))
            assert ufn(u) == pytest.approx(expected, abs=1e-12)

    def test_radius_warning(self):
        ufn = bg_function(make_su11_cs(0.8, 32))
        with pytest.warns(UserWarning):
            ufn(ufn.radius_hint * 4.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_next_to_last_coefficient_does_not_overflow(self):
        ufn = bg_function(raw_state(np.array([1e-320, 1.0])))
        assert ufn.radius_hint > 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_overflow_past_170_factorial(self):
        # n! overflows a double for n > 170; 1/n! must underflow quietly
        ufn = bg_function(make_su11_cs(0.5, 256))
        assert np.all(np.isfinite(ufn.smooth))
        assert laplace_to_disk(ufn, 0.3) == pytest.approx(
            eval_Z(make_su11_cs(0.5, 256), 0.3), abs=1e-10
        )

    @pytest.mark.parametrize("z, n", [(0.9, 512), (0.5, 256), (0.5, 171)])
    def test_underflowed_tail_is_not_an_exact_polynomial(self, z, n):
        state = make_su11_cs(z, n)
        # g_n = conj(f_n)/n! underflows to 0 past n ~ 150-178; the radius must
        # bound the tail it dropped, sum |f_n| r^n / n!, below 1e-10
        ufn = bg_function(state)
        r = ufn.radius_hint
        assert r < 1e6
        dropped = np.flatnonzero(ufn.smooth == 0)
        log_terms = [
            math.log(abs(state.coeffs[n])) + n * math.log(r) - math.lgamma(n + 1.0)
            for n in dropped
        ]
        assert sum(math.exp(t) for t in log_terms) < 1e-10

    @pytest.mark.parametrize("m, n", [(5, 256), (0, 256), (0, 1)])
    def test_exact_polynomial_validates_to_the_cap(self, m, n):
        assert bg_function(make_number(m, n)).radius_hint == 1e6

    def test_subnormal_last_coefficient_of_a_polynomial_validates_to_the_cap(self):
        # g_2 = 5e-311 is subnormal, but nothing past it was dropped
        ufn = bg_function(raw_state(np.array([1.0, 0.0, 1e-310, 0.0])))
        assert ufn.radius_hint == 1e6


class TestLaplaceToDisk:
    def test_number_state_powers(self):
        for m in (0, 1, 3):
            ufn = bg_function(make_number(m, 16))
            assert laplace_to_disk(ufn, 0.4) == pytest.approx(0.4**m, abs=1e-10)

    def test_vacuum_everywhere(self):
        ufn = bg_function(make_number(0, 8))
        for z in (0.2, 0.3 + 0.1j, 0.45 - 0.2j):
            assert laplace_to_disk(ufn, z) == pytest.approx(1.0, abs=1e-10)

    def test_coherent_against_direct_evaluation(self):
        s = make_su11_cs(0.5, 64)
        ufn = bg_function(s)
        z = 0.3 + 0.1j
        assert laplace_to_disk(ufn, z) == pytest.approx(eval_Z(s, z), abs=1e-6)

    def test_left_half_plane_rejected(self):
        ufn = bg_function(make_number(0, 8))
        with pytest.raises(DomainError):
            laplace_to_disk(ufn, -0.2 + 0.1j)

    def test_slow_decay_off_the_axis_matches_the_series(self):
        # Re(1/z) = 0.65 is below the growth rate ~0.8 of U, so e^{-u/z}
        # never tames U on the real axis; on the ray through z it does
        s = make_su11_cs(0.8, 64)
        assert laplace_to_disk(bg_function(s), 0.6 + 0.75j) == pytest.approx(
            eval_Z(s, 0.6 + 0.75j), abs=1e-12
        )

    @pytest.mark.parametrize(
        "state",
        [pytest.param(e.state, id=e.name) for e in build_catalog(64)]
        + [pytest.param(make_number(m, 64), id=f"number[{m}]") for m in range(9, 21)],
    )
    def test_documented_domain_matches_the_series(self, state):
        # |z| <= 0.95, Re z > 0: the catalog at N = 64 and number[m], m <= 20
        rng = np.random.default_rng(16)
        r = 0.95 * (1.0 - rng.random(40))
        z = np.append(r * np.exp(1j * np.pi * (rng.random(40) - 0.5)), 0.05 + 0.6j)
        got = laplace_to_disk(bg_function(state), z)
        np.testing.assert_allclose(got, eval_Z(state, z), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("a, z", [(0.99, 0.95), (0.98, 0.9)])
    def test_tail_lost_to_underflow_is_refused(self, a, z):
        # 1/n! drops every f_n with n >= 178, and sum_{n>=178} f_n z^n is
        # 4.3e-5 (a = 0.99) and 3.3e-10 (a = 0.98) here
        with pytest.raises(IllConditionedError):
            laplace_to_disk(bg_function(make_su11_cs(a, 256)), z)

    def test_state_with_no_represented_term_is_refused(self):
        # 1/n! zeroes g_180 of |180>, so the series is all zero but Z = 0.9^180
        with pytest.raises(IllConditionedError):
            laplace_to_disk(bg_function(make_number(180, 256)), 0.9)

    @pytest.mark.parametrize(
        "state",
        [make_su11_cs(0.8, 256), make_pi_superposition(0.8, 3 * math.pi / 4, 256)],
    )
    def test_negligible_lost_tail_is_computed(self, state):
        # the tail rate is fitted to normal doubles over half the represented
        # terms: the subnormal g_n of su11_cs and the beating |f_n| of the
        # superposition would each fake a rate near or above 1/|z|
        z = np.array([0.3, 0.6, 0.9, 0.5 + 0.5j, 0.2 + 0.7j])
        got = laplace_to_disk(bg_function(state), z)
        np.testing.assert_allclose(got, eval_Z(state, z), rtol=0, atol=1e-11)

    @pytest.mark.parametrize("n", [256, 512, 1024])
    def test_growth_rate_past_the_underflow_of_inverse_factorials(self, n):
        # the growth estimate reads coefficients 1/n! still represents; for
        # N >= 352 the top half of the series is all zeros
        s = make_su11_cs(0.9, n)
        assert laplace_to_disk(bg_function(s), 0.95) == pytest.approx(
            eval_Z(s, 0.95), abs=1e-8
        )

    def test_roundtrip_catalog_sample(self):
        states = [
            make_bg(2j, 64),
            make_blaschke_state(0.5, 64),
            make_pi_superposition(0.8, 3 * math.pi / 4, 64),
        ]
        zs = [0.2, 0.3 + 0.1j, 0.25 - 0.08j, 0.4]
        for s in states:
            ufn = bg_function(s)
            for z in zs:
                assert laplace_to_disk(ufn, z) == pytest.approx(
                    eval_Z(s, z), abs=1e-6
                )


class TestFactorParts:
    def test_number_state_atom_and_monomial(self):
        for m in (0, 2, 5):
            fac = factorize(make_number(m, 32))
            u_in, u_out = bg_factor_parts(fac)
            assert u_out.atom == pytest.approx(2.0, abs=1e-13)
            np.testing.assert_allclose(u_out.smooth, 0.0, atol=1e-13)
            expected = np.zeros(32)
            expected[m] = 1.0 / math.factorial(m)
            np.testing.assert_allclose(u_in.smooth, expected, atol=1e-13)

    def test_outer_state_split(self):
        s = make_su11_cs(0.5, 64)
        fac = factorize(s, grid_size=512)
        u_in, u_out = bg_factor_parts(fac)
        # trivial inner part, atom twice the leading outer coefficient
        np.testing.assert_allclose(u_in.smooth, np.eye(64)[0], atol=1e-11)
        assert u_out.atom == pytest.approx(2.0 * np.conj(s.coeffs[0]), abs=1e-12)

    def test_blaschke_state_parts(self):
        fac = factorize(make_blaschke_state(0.5, 32))
        u_in, u_out = bg_factor_parts(fac)
        assert u_out.atom == pytest.approx(2.0, abs=1e-10)
        np.testing.assert_allclose(
            u_in.smooth, fac.inner_coeffs / factorial(np.arange(32)), atol=1e-13
        )

    def test_outer_part_integrates_back(self):
        """For an outer state, half the atom plus the integrated smooth part
        rebuilds the state's transformed function, termwise."""
        s = make_su11_cs(0.5, 48)
        ufn = bg_function(s)
        _, u_out = bg_factor_parts(factorize(s, grid_size=512))
        assert 0.5 * u_out.atom == pytest.approx(ufn.smooth[0], abs=1e-12)
        integrated = u_out.smooth / np.arange(1, 48)
        np.testing.assert_allclose(integrated, ufn.smooth[1:], atol=1e-12)

    def test_series_mapping_roundtrip(self):
        """Termwise transform of the parts reproduces the series exactly."""
        fac = factorize(make_pi_superposition(0.8, 3 * math.pi / 4, 48))
        u_in, u_out = bg_factor_parts(fac)
        facts = factorial(np.arange(48))
        np.testing.assert_allclose(
            u_in.smooth * facts, fac.inner_coeffs, rtol=1e-13, atol=1e-30
        )
        np.testing.assert_allclose(
            u_out.smooth * facts[:-1], fac.outer_coeffs[1:], rtol=1e-13, atol=1e-30
        )
        assert u_out.atom == 2.0 * fac.outer_coeffs[0]


class TestConvolution:
    def test_value_at_origin_is_leading_coefficient(self):
        s = make_su11_cs(0.4 + 0.3j, 48)
        u_in, u_out = bg_factor_parts(factorize(s))
        assert bg_convolve(u_in, u_out, 0.0) == pytest.approx(
            np.conj(s.coeffs[0]), abs=1e-12
        )

    def test_number_state_consistency(self):
        for m in (0, 1, 4):
            u_in, u_out = bg_factor_parts(factorize(make_number(m, 32)))
            val = bg_convolve(u_in, u_out, 1.0)
            assert val == pytest.approx(1.0 / math.factorial(m), abs=1e-12)

    def test_coherent_against_series(self):
        s = make_su11_cs(0.5, 64)
        ufn = bg_function(s)
        u_in, u_out = bg_factor_parts(factorize(s, grid_size=512))
        u = 1.5
        assert bg_convolve(u_in, u_out, u) == pytest.approx(ufn(u), abs=1e-6)

    @pytest.mark.parametrize(
        "state",
        [
            make_blaschke_state(0.5, 64),
            make_pi_superposition(0.8, 3 * math.pi / 4, 64),
            superpose([make_number(0, 64), make_number(3, 64)], [1, 1]),
        ],
    )
    def test_split_reassembles_catalog(self, state):
        ufn = bg_function(state)
        u_in, u_out = bg_factor_parts(factorize(state, grid_size=512))
        for u in (0.5, 1.0j, 1.2 - 0.9j, 2.0 * np.exp(2.3j)):
            assert bg_convolve(u_in, u_out, u) == pytest.approx(
                complex(series_eval(ufn.smooth, u)), abs=1e-6
            )


class TestShiftedIntegrals:
    def test_single_shift_matches_termwise_integration(self):
        s = make_su11_cs(0.5, 48)
        u = 1.0
        val = bg_shifted(s, 1, u)
        expected = sum(
            np.conj(c) * u ** (n + 1) / math.factorial(n + 1)
            for n, c in enumerate(s.coeffs)
        )
        assert val == pytest.approx(expected, abs=1e-10)

    def test_matches_shifted_state_series(self):
        s = make_bg(1.0, 40)
        m = 2
        shifted_series = bg_function(shift(s, m))
        for u in (0.7, 1.3j, 1.0 + 0.5j):
            assert bg_shifted(s, m, u) == pytest.approx(
                complex(series_eval(shifted_series.smooth, u)), abs=1e-10
            )

    def test_shift_at_the_origin_is_complex_zero(self):
        for m in (1, 3):
            val = bg_shifted(make_su11_cs(0.5, 16), m, 0.0)
            assert isinstance(val, complex) and val == 0

    def test_vacuum_single_shift_is_linear(self):
        val = bg_shifted(make_number(0, 8), 1, 0.9 + 0.1j)
        assert val == pytest.approx(0.9 + 0.1j, abs=1e-12)

    def test_outer_route_has_monomial_inner(self):
        """The shifted split keeps the pure-monomial transformed inner part."""
        s = make_su11_cs(0.5, 48)
        m = 3
        fac = factorize(shift(s, m))
        u_in, _ = bg_factor_parts(fac)
        expected = np.zeros(48 + m)
        expected[m] = 1.0 / math.factorial(m)
        np.testing.assert_allclose(u_in.smooth, expected, atol=1e-10)

    def test_outer_route_matches_direct(self):
        s = make_su11_cs(0.5, 48)
        _, u_out = bg_factor_parts(factorize(s, grid_size=512))
        for m in (1, 2):
            for u in (0.8, 1.1j):
                assert bg_shifted_from_outer(u_out, m, u) == pytest.approx(
                    bg_shifted(s, m, u), abs=1e-8
                )


class TestShiftRouting:
    """The shifted functions are convolutions: every evaluation goes through
    BGFunction, and the monomial u^m/m! is refused where 1/m! underflows."""

    @pytest.fixture(scope="class")
    def su11(self):
        s = make_su11_cs(0.8, 256)
        u_in, u_out = bg_factor_parts(factorize(s))
        return s, u_in, u_out

    def test_past_the_radius_warns(self, su11):
        s, u_in, u_out = su11
        assert u_out.radius_hint < 200.0
        calls = [
            lambda: bg_shifted(s, 0, 200.0),
            lambda: bg_shifted(s, 2, 200.0),
            lambda: bg_shifted_from_outer(u_out, 2, 200.0),
            lambda: bg_convolve(u_in, u_out, 200.0),
        ]
        for fn in calls:
            with pytest.warns(UserWarning, match="beyond the validated radius"):
                fn()

    def test_underflowing_monomial_is_refused(self, su11):
        s, _, u_out = su11
        with pytest.raises(DomainError):
            bg_shifted(s, 172, 0.5)
        with pytest.raises(DomainError):
            bg_shifted_from_outer(u_out, 171, 0.5)
        # 1/170! is still a normal double
        assert bg_shifted(s, 171, 0.5) == 0
        assert bg_shifted_from_outer(u_out, 170, 0.5) == 0

    def test_outer_route_is_the_monomial_convolution(self, su11):
        _, _, u_out = su11
        u = np.array([0.0, 0.7, 1.3j, 2.0 - 1.0j])
        for m in (0, 3):
            coeffs = np.eye(m + 1)[m] / math.factorial(m)
            monomial = bg_module.BGFunction(0.0, coeffs, 1e6)
            np.testing.assert_array_equal(
                bg_shifted_from_outer(u_out, m, u), bg_convolve(monomial, u_out, u)
            )


_ARRAY_STATES = [
    make_su11_cs(0.5 * np.exp(0.3j), 64),
    make_bg(2j, 64),
    make_pi_superposition(0.8, 3 * math.pi / 4, 64),
    superpose([make_number(0, 64), make_number(3, 64)], [1, 1]),
    make_number(5, 32),
]


def _points(rng, shape, low, high):
    """Points of modulus in [low, high) at uniform angles, the origin first."""
    u = rng.uniform(low, high, shape) * np.exp(1j * rng.uniform(-np.pi, np.pi, shape))
    u.flat[0] = 0.0
    return u


def _pointwise(fn, points):
    return np.array([fn(p) for p in points.ravel()]).reshape(points.shape)


@pytest.mark.parametrize("state", _ARRAY_STATES)
@pytest.mark.parametrize("shape", [(7,), (3, 4)])
class TestArrayPoints:
    """An array of points goes through one node set per call."""

    def test_laplace_matches_scalar_calls_and_the_series(self, state, shape):
        # every point shares one Gauss-Laguerre rule on its own ray, so an
        # array equals its scalar calls up to rounding, however far apart its
        # points lie: close to 0, off the axis, near the unit circle
        rng = np.random.default_rng(7)
        z = 0.95 * (1.0 - rng.random(shape))
        z = z * np.exp(1j * np.pi * (rng.random(shape) - 0.5))
        z.flat[:5] = [0.3, 1e-3, 0.05 + 0.6j, 0.9 - 0.4j, 0.3 - 0.1j]
        z.flat[5] = np.conj(z.flat[4])
        ufn = bg_function(state)
        got = laplace_to_disk(ufn, z)
        assert got.shape == shape
        alone = _pointwise(lambda p: laplace_to_disk(ufn, p), z)
        np.testing.assert_allclose(got, alone, rtol=0, atol=1e-15)
        np.testing.assert_allclose(got, eval_Z(state, z), rtol=0, atol=1e-12)

    def test_convolve_and_shifts_match_scalar_calls(self, state, shape):
        # the segment integrands are polynomials that every panel integrates
        # exactly, so the shared panel count changes rounding only
        u = _points(np.random.default_rng(8), shape, 0.0, 3.0)
        u_in, u_out = bg_factor_parts(factorize(state, grid_size=512))
        calls = [lambda p: bg_convolve(u_in, u_out, p)]
        calls += [lambda p, m=m: bg_shifted(state, m, p) for m in (0, 1, 3)]
        calls += [lambda p, m=m: bg_shifted_from_outer(u_out, m, p) for m in (0, 2)]
        for fn in calls:
            got = fn(u)
            assert got.shape == shape
            np.testing.assert_allclose(got, _pointwise(fn, u), rtol=0, atol=1e-15)


class TestArrayErrors:
    def test_one_bad_point_in_an_array_raises(self):
        # 1/n! drops the tail of su11_cs(0.99) at N = 256, which counts at 0.95
        ufn = bg_function(make_su11_cs(0.99, 256))
        good = [0.2, 0.3 + 0.1j]
        laplace_to_disk(ufn, good)
        with pytest.raises(DomainError):
            laplace_to_disk(ufn, [*good, -0.2 + 0.1j])
        with pytest.raises(DomainError):
            laplace_to_disk(ufn, [[*good], [0.99 + 0.5j, 0.3]])
        with pytest.raises(IllConditionedError):
            laplace_to_disk(ufn, [*good, 0.95])

    def test_empty_arrays_give_empty_results(self):
        s = make_su11_cs(0.5, 32)
        u_in, u_out = bg_factor_parts(factorize(s))
        calls = [
            lambda p: laplace_to_disk(bg_function(s), p),
            lambda p: bg_convolve(u_in, u_out, p),
            lambda p: bg_shifted(s, 2, p),
            lambda p: bg_shifted_from_outer(u_out, 1, p),
        ]
        for fn in calls:
            for shape in [(0,), (2, 0)]:
                got = fn(np.zeros(shape))
                assert got.shape == shape and got.dtype == complex

    def test_scalar_calls_return_complex(self):
        s = make_su11_cs(0.5, 32)
        u_in, u_out = bg_factor_parts(factorize(s))
        values = [
            laplace_to_disk(bg_function(s), 0.3),
            bg_convolve(u_in, u_out, 1.0),
            bg_convolve(u_in, u_out, 0.0),
            bg_shifted(s, 0, 0.5),
            bg_shifted(s, 2, 0.5j),
            bg_shifted_from_outer(u_out, 1, 0.0),
            bg_function(s)(0.5),
        ]
        for v in values:
            assert isinstance(v, complex) and np.ndim(v) == 0


class TestFactorials:
    """1/n! (exact integers) against scipy.special."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_inverse_factorials_match_oracles(self):
        from scipy.special import gammaln

        n = np.arange(2048)
        got = bg_module._inverse_factorials(n.size)
        log_fact = gammaln(n + 1.0)
        via_gammaln = np.exp(-log_fact)
        exact = np.array([1 / math.factorial(k) for k in range(n.size)])
        # int true division rounds correctly, subnormals and underflow included
        np.testing.assert_array_equal(got, exact)
        normal = via_gammaln >= np.finfo(float).tiny
        # exp of a rounded log n! is off by about eps * log n! (1.6e-13 at
        # n = 170), so the gammaln route is compared at that scale
        bound = 4 * np.finfo(float).eps * np.maximum(1.0, log_fact[normal])
        rel = np.abs(got[normal] - via_gammaln[normal]) / via_gammaln[normal]
        assert np.all(rel <= bound)
        # beyond n = 170 the values underflow quietly, never to inf or nan
        assert np.all((got[~normal] >= 0.0) & (got[~normal] < np.finfo(float).tiny))


class TestMeasureWeight:
    def test_positive(self):
        for u in (0.1, 1.0, 2.5j, -3.0 + 1.0j):
            assert bg_measure_weight(u) > 0

    def test_origin_rejected(self):
        with pytest.raises(DomainError):
            bg_measure_weight(0.0)

    def test_k0_trapezoid_matches_scipy(self):
        from scipy.special import k0

        x = np.concatenate([np.geomspace(1e-300, 1e-6, 200), np.geomspace(1e-6, 100, 2000)])
        np.testing.assert_allclose(bg_module._k0(x), k0(x), rtol=1e-14, atol=0.0)

    @pytest.mark.filterwarnings("error")
    def test_matches_scaled_oracle_at_every_scale(self):
        """No overflow past 2|u| = 709, where I0 alone is inf (|u| = 360, 400)."""
        from scipy.special import i0e, k0e

        a = np.concatenate(
            [np.geomspace(1e-300, 1e300, 3000), [49.9, 50.0, 50.1, 355.0, 360.0, 400.0]]
        )
        got = np.array([bg_measure_weight(v) for v in a])
        oracle = (2.0 / np.pi) * k0e(2.0 * a) * i0e(2.0 * a)
        np.testing.assert_allclose(got, oracle, rtol=1e-14, atol=0.0)

    def test_resolves_identity_small_levels(self):
        """Radial x angular quadrature of the overcompleteness relation."""
        nodes, weights = np.polynomial.legendre.leggauss(64)
        edges = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 28.0]
        t = np.concatenate(
            [0.5 * (hi - lo) * nodes + 0.5 * (hi + lo) for lo, hi in zip(edges, edges[1:])]
        )
        wt = np.concatenate(
            [0.5 * (hi - lo) * weights for lo, hi in zip(edges, edges[1:])]
        )
        from scipy.special import i0

        # the 1/i0 factors of the two overlaps cancel the measure's i0
        kern = np.array([bg_measure_weight(x) for x in t]) / i0(2 * t) * t
        phi = 2 * np.pi * np.arange(32) / 32
        for n in range(4):
            for m in range(4):
                radial = np.sum(wt * kern * t ** (n + m)) / (
                    math.factorial(n) * math.factorial(m)
                )
                angular = np.sum(np.exp(1j * (n - m) * phi)) * (2 * np.pi / 32)
                val = radial * angular
                assert abs(val - (1.0 if n == m else 0.0)) < 1e-3
