"""Transformed-plane representation: transform bridge, convolution split, atoms."""

import math

import numpy as np
import pytest

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
from diskphase.verification import build_catalog


def factorial_oracle(coeffs, u):
    """(sum_n c_n u^n / n!, sum_n |c_n| |u|^n / n!) for u = k or k*1j with k
    a positive integer: each |u|^n / n! is an int/int division, which rounds
    correctly at any n, and i^n is exact."""
    k = int(abs(u))
    phases = (1, 1j, -1, -1j) if complex(u).imag else (1, 1, 1, 1)
    terms = [
        complex(c) * (k**n / math.factorial(n)) * phases[n % 4]
        for n, c in enumerate(coeffs)
    ]
    scale = math.fsum(abs(t) for t in terms)
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)), scale


class TestBGFunction:
    def test_number_state_monomial(self):
        u = bg_function(make_number(3, 8))
        np.testing.assert_array_equal(u.coeffs, np.eye(8)[3])
        assert u.atom == 0
        assert u(2.0) == pytest.approx(8.0 / 6.0, rel=1e-15)

    def test_vacuum_constant(self):
        u = bg_function(make_number(0, 4))
        np.testing.assert_allclose(u.coeffs, [1, 0, 0, 0])
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a, n", [(0.8, 32), (0.9, 512), (0.5, 256), (0.5, 171)])
    @pytest.mark.parametrize("u", [60, 200, 500, 30j])
    def test_long_series_far_out_match_the_exact_sum(self, a, n, u):
        # no term is dropped: past n = 170, where 1/n! is no longer a
        # normal double, every f_n still counts
        ufn = bg_function(make_su11_cs(a, n))
        value, scale = factorial_oracle(ufn.coeffs, u)
        assert abs(ufn(u) - value) <= 1e-14 * scale

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "m, u",
        [(m, u) for m in (0, 5, 170, 171, 200, 400) for u in (200, 700, 300j)]
        + [(1000, 700), (1000, 300j)],
    )
    def test_number_state_is_the_exact_monomial(self, m, u):
        # u^m / m!. At these |u| no partial sum of the nested form underflows;
        # for |1000> at u = 200 the partial product of u/n over n > 200
        # reaches e^-810, sticks at the smallest subnormal, and the sum comes
        # out 5.4e-244 for 2.66e-267
        ufn = bg_function(make_number(m, m + 1))
        value, _ = factorial_oracle(ufn.coeffs, u)
        assert ufn(u) == pytest.approx(value, rel=1e-14, abs=0)

    @pytest.mark.filterwarnings("error")
    def test_subnormal_leading_coefficient_keeps_its_bits(self):
        ufn = bg_function(raw_state(np.array([1e-320, 1.0])))
        assert ufn(0.0) == ufn.coeffs[0] == 1e-320
        assert ufn(3.0) == 3.0
        np.testing.assert_array_equal(ufn(np.array([0.0, 0.0])), [1e-320, 1e-320])

    @pytest.mark.filterwarnings("error")
    def test_subnormal_top_coefficient_of_a_polynomial(self):
        # 1 + 1e-310 u^2 / 2: the subnormal f_2 still carries its term
        ufn = bg_function(raw_state(np.array([1.0, 0.0, 1e-310, 0.0])))
        assert ufn(1e150) == pytest.approx(1.0 + 5e-11, rel=1e-15)

    def test_empty_and_zero_series_are_zero(self):
        for coeffs in ([], [0.0, 0.0]):
            ufn = bg_module.BGFunction(0.0, coeffs)
            assert ufn(2.5) == 0 and isinstance(ufn(2.5), complex)
            got = ufn(np.ones((2, 3)))
            assert got.shape == (2, 3) and not got.any()

    def test_coefficients_are_a_read_only_copy(self):
        source = np.array([1.0, 2.0])
        ufn = bg_module.BGFunction(0.0, source)
        source[0] = 5.0
        assert ufn.coeffs[0] == 1.0 and not ufn.coeffs.flags.writeable


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

    @pytest.mark.parametrize("a, z", [(0.99, 0.95), (0.98, 0.9), (0.99, 0.9 - 0.4j)])
    def test_terms_past_170_count(self, a, z):
        # sum_{n>=178} f_n z^n is 4.3e-5 (a = 0.99, z = 0.95) and 3.3e-10
        # (a = 0.98, z = 0.9): every term up to N = 256 is integrated
        state = make_su11_cs(a, 256)
        scale = np.sum(np.abs(state.coeffs) * abs(z) ** np.arange(256))
        got = laplace_to_disk(bg_function(state), z)
        assert abs(got - eval_Z(state, z)) <= 1e-12 * scale

    @pytest.mark.parametrize("m, rel", [(170, 1e-12), (180, 1e-12), (250, 2e-12)])
    def test_high_number_state_is_its_power(self, m, rel):
        # Z = z^m: 5.8e-9 for |180> at z = 0.9. The error is the Gauss-Laguerre
        # rule's own, which grows with its node count m // 2 + 1
        for z in (0.9, 0.6 + 0.3j):
            got = laplace_to_disk(bg_function(make_number(m, 256)), z)
            assert got == pytest.approx(z**m, rel=rel, abs=0)

    @pytest.mark.parametrize(
        "state, z",
        [
            (make_number(400, 512), 0.9),
            (make_su11_cs(0.99, 1024), 0.95),
            (superpose([make_number(0, 1024), make_number(1000, 1024)], [1, 1]), 0.99),
        ],
    )
    def test_series_past_the_laguerre_rule_is_refused(self, state, z):
        # the degree that carries the sum at this z needs more than the 180
        # nodes numpy's rule holds
        with pytest.raises(IllConditionedError):
            laplace_to_disk(bg_function(state), z)

    def test_negligible_high_terms_are_dropped(self):
        # 0.5^1000 of |1000> is below eps of the vacuum term at z = 0.5
        state = superpose([make_number(0, 1024), make_number(1000, 1024)], [1, 1])
        got = laplace_to_disk(bg_function(state), np.array([0.5, 0.3 + 0.2j]))
        np.testing.assert_allclose(got, 2**-0.5, rtol=1e-15, atol=0)

    @pytest.mark.parametrize(
        "state",
        [make_su11_cs(0.8, 256), make_pi_superposition(0.8, 3 * math.pi / 4, 256)],
    )
    def test_negligible_lost_tail_is_computed(self, state):
        # the subnormal f_n / n! of su11_cs and the beating |f_n| of the
        # superposition need no tail model: the cut reads the masses
        z = np.array([0.3, 0.6, 0.9, 0.5 + 0.5j, 0.2 + 0.7j])
        got = laplace_to_disk(bg_function(state), z)
        np.testing.assert_allclose(got, eval_Z(state, z), rtol=0, atol=1e-11)

    @pytest.mark.parametrize("n", [256, 512, 1024])
    def test_long_truncations_are_cut_by_their_mass(self, n):
        # the masses fall like 0.855^n, below eps of their sum by n = 230, so
        # N = 512 and 1024 need no more nodes than N = 256
        s = make_su11_cs(0.9, n)
        scale = np.sum(np.abs(s.coeffs) * 0.95 ** np.arange(n))
        got = laplace_to_disk(bg_function(s), 0.95)
        assert abs(got - eval_Z(s, 0.95)) <= 1e-12 * scale

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
            np.testing.assert_allclose(u_out.coeffs, 0.0, atol=1e-13)
            np.testing.assert_allclose(u_in.coeffs, np.eye(32)[m], atol=1e-13)

    def test_outer_state_split(self):
        s = make_su11_cs(0.5, 64)
        fac = factorize(s, grid_size=512)
        u_in, u_out = bg_factor_parts(fac)
        # trivial inner part, atom twice the leading outer coefficient
        np.testing.assert_allclose(u_in.coeffs, np.eye(64)[0], atol=1e-11)
        assert u_out.atom == pytest.approx(2.0 * np.conj(s.coeffs[0]), abs=1e-12)

    def test_blaschke_state_parts(self):
        fac = factorize(make_blaschke_state(0.5, 32))
        u_in, u_out = bg_factor_parts(fac)
        assert u_out.atom == pytest.approx(2.0, abs=1e-10)
        np.testing.assert_array_equal(u_in.coeffs, fac.inner_coeffs)

    def test_outer_part_integrates_back(self):
        """For an outer state, half the atom plus the integrated smooth part
        rebuilds the state's transformed function, termwise."""
        s = make_su11_cs(0.5, 48)
        ufn = bg_function(s)
        _, u_out = bg_factor_parts(factorize(s, grid_size=512))
        assert 0.5 * u_out.atom == pytest.approx(ufn.coeffs[0], abs=1e-12)
        # integrating u^n / n! gives u^{n+1} / (n+1)!: the coefficients shift
        np.testing.assert_allclose(u_out.coeffs, ufn.coeffs[1:], atol=1e-12)

    def test_series_mapping_roundtrip(self):
        """The parts carry the factor series themselves, bit for bit."""
        fac = factorize(make_pi_superposition(0.8, 3 * math.pi / 4, 48))
        u_in, u_out = bg_factor_parts(fac)
        np.testing.assert_array_equal(u_in.coeffs, fac.inner_coeffs)
        np.testing.assert_array_equal(u_out.coeffs, fac.outer_coeffs[1:])
        assert u_out.atom == 2.0 * fac.outer_coeffs[0]

    def test_single_term_state_has_an_empty_outer_series(self):
        # N = 1: outer_coeffs[1:] is empty, so U_out is the atom alone
        u_in, u_out = bg_factor_parts(factorize(make_number(0, 1)))
        assert u_out.coeffs.size == 0 and u_out.atom == pytest.approx(2.0)
        assert u_out(1.5) == 0 and not u_out(np.array([0.5, 2j])).any()
        assert bg_convolve(u_in, u_out, 1.5) == pytest.approx(1.0, abs=1e-15)
        assert laplace_to_disk(u_out, 0.5) == pytest.approx(2.0, abs=1e-15)


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
                complex(ufn(u)), abs=1e-6
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
                complex(shifted_series(u)), abs=1e-10
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
        np.testing.assert_allclose(u_in.coeffs, np.eye(48 + m)[m], atol=1e-10)

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
    BGFunction, and the monomial u^m/m! is the unit vector e_m at any m."""

    @pytest.fixture(scope="class")
    def su11(self):
        s = make_su11_cs(0.8, 256)
        u_in, u_out = bg_factor_parts(factorize(s))
        return s, u_in, u_out

    @pytest.mark.filterwarnings("error")
    def test_far_out_shifts_match_the_exact_sum(self, su11):
        # m-fold shifted coefficients, exact at u = 200, where U ~ e^160
        s, u_in, u_out = su11
        shifted = [np.concatenate((np.zeros(m), np.conj(s.coeffs))) for m in range(3)]
        calls = [
            (lambda: bg_shifted(s, 0, 200.0), shifted[0]),
            (lambda: bg_convolve(u_in, u_out, 200.0), shifted[0]),
            (lambda: bg_shifted(s, 2, 200.0), shifted[2]),
            (lambda: bg_shifted_from_outer(u_out, 2, 200.0), shifted[2]),
        ]
        for fn, coeffs in calls:
            value, scale = factorial_oracle(coeffs, 200)
            assert abs(fn() - value) <= 1e-12 * scale

    @pytest.mark.filterwarnings("error")
    def test_shifts_past_170_match_the_exact_sum(self, su11):
        # the monomials u^172/172! and u^171/171! are e_172 and e_171
        s, _, u_out = su11
        value, scale = factorial_oracle(
            np.concatenate((np.zeros(171), np.conj(s.coeffs))), 100
        )
        assert abs(bg_shifted_from_outer(u_out, 171, 100.0) - value) <= 1e-12 * scale
        value, scale = factorial_oracle(
            np.concatenate((np.zeros(172), np.conj(s.coeffs))), 100
        )
        assert abs(bg_shifted(s, 172, 100.0) - value) <= 1e-12 * scale
        # and 0.5^171 / 171! is below the double range
        assert bg_shifted_from_outer(u_out, 171, 0.5) == 0

    def test_outer_route_is_the_monomial_convolution(self, su11):
        _, _, u_out = su11
        u = np.array([0.0, 0.7, 1.3j, 2.0 - 1.0j])
        for m in (0, 3):
            monomial = bg_module.BGFunction(0.0, np.eye(m + 1)[m])
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
        # every point shares one Gauss-Laguerre rule on its own ray, whose
        # size the largest |z| sets; with that point beside it, each scalar
        # call takes the same rule, so the array equals those calls up to
        # rounding, however far apart its points lie: close to 0, off the
        # axis, near the unit circle
        rng = np.random.default_rng(7)
        z = 0.95 * (1.0 - rng.random(shape))
        z = z * np.exp(1j * np.pi * (rng.random(shape) - 0.5))
        z.flat[:5] = [0.3, 1e-3, 0.05 + 0.6j, 0.9 - 0.4j, 0.3 - 0.1j]
        z.flat[5] = np.conj(z.flat[4])
        ufn = bg_function(state)
        got = laplace_to_disk(ufn, z)
        assert got.shape == shape
        far = z.flat[np.argmax(abs(z))]
        alone = _pointwise(lambda p: laplace_to_disk(ufn, [p, far])[0], z)
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
        # su11_cs(0.99) at N = 1024 needs degree ~570 at 0.95, past the rule
        ufn = bg_function(make_su11_cs(0.99, 1024))
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
