"""Minimum-phase splitting: log-spectrum, outer/inner series, zeros, flags."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import i0

from diskphase import (
    DomainError,
    IllConditionedError,
    blaschke_factor,
    blaschke_product,
    blaschke_zeros,
    boundary,
    compute_phi,
    eval_Z,
    factorize,
    inner_part,
    make_bg,
    make_blaschke_state,
    make_number,
    make_pi_superposition,
    make_su11_cs,
    outer_defect,
    outer_part,
    raw_state,
    refined_phi,
    superpose,
)
from diskphase import disk as disk_module
from diskphase import factorization as fz_module
from diskphase import series as series_module
from diskphase import verification as ver
from diskphase.barut_girardello import BGFunction, bg_convolve, bg_factor_parts
from diskphase.disk import circle_values
from diskphase.series import series_eval, series_mul

from tests.conftest import (
    bit_equal,
    circle_coefficients_oracle,
    circle_values_oracle,
    cluster_oracle,
    normalized_states,
    power_sums_oracle,
    series_div_substitution_oracle,
    series_exp_oracle,
    series_mul_oracle,
    winding_oracle,
)


def vacuum_plus(m, n):
    return superpose([make_number(0, n), make_number(m, n)], [1, 1])


def singular_test_state(t=0.4, n=256):
    """Zero-free unimodular-boundary function exp(-t (1+z)/(1-z)).

    Its log-series is phi_0 = -t, phi_k = -2t, so the coefficients come from
    one series exponentiation; the truncation carries the leftover mass as
    norm defect.
    """
    phi = np.full(n, -2.0 * t, dtype=complex)
    phi[0] = -t
    return raw_state(np.conj(series_exp_oracle(phi, n)))


class TestComputePhi:
    def test_vacuum_zero(self):
        phi = compute_phi(boundary(make_number(0, 16), 64), 16)
        np.testing.assert_allclose(phi.phi, 0.0, atol=1e-14)

    def test_number_state_zero(self):
        phi = compute_phi(boundary(make_number(5, 16), 64), 16)
        np.testing.assert_allclose(phi.phi, 0.0, atol=1e-13)

    def test_coherent_log_expansion(self):
        phi = compute_phi(boundary(make_su11_cs(0.5, 64), 512), 64)
        assert phi.phi[0] == pytest.approx(0.5 * math.log(0.75), abs=1e-13)
        assert phi.phi[1] == pytest.approx(0.5, abs=1e-13)
        assert phi.phi[2] == pytest.approx(0.125, abs=1e-13)

    def test_leading_coefficient_real(self):
        phi = compute_phi(boundary(make_pi_superposition(0.6, 1.0, 64), 512), 64)
        assert abs(phi.phi[0].imag) < 1e-10

    def test_boundary_reproduction(self):
        samples = boundary(make_su11_cs(0.4j, 64), 512)
        phi = compute_phi(samples, 256)
        recon = np.real(
            np.array(
                [series_eval(phi.phi, np.exp(1j * t)) for t in samples.theta[:32]]
            )
        )
        np.testing.assert_allclose(recon, samples.log_abs[:32], atol=1e-10)

    def test_against_kernel_quadrature_oracle(self):
        """Direct trapezoid of the kernel integral at random interior points."""
        state = make_su11_cs(0.55 * np.exp(0.8j), 64)
        samples = boundary(state, 512)
        phi = compute_phi(samples, 64)
        rng = np.random.default_rng(3)
        zs = rng.uniform(0.1, 0.7, 20) * np.exp(1j * rng.uniform(-np.pi, np.pi, 20))
        for z in zs:
            kernel = 2.0 / (1.0 - z * np.exp(-1j * samples.theta)) - 1.0
            direct = np.mean(kernel * samples.log_abs)
            assert series_eval(phi.phi, z) == pytest.approx(direct, abs=1e-6)


class TestOuterPart:
    def test_trivial_exponential(self):
        phi = compute_phi(boundary(make_number(0, 8), 32), 8)
        np.testing.assert_allclose(outer_part(phi, 8), np.eye(8)[0], atol=1e-13)

    def test_coherent_is_outer(self):
        state = make_su11_cs(0.5, 64)
        phi = refined_phi(state, 64, 512)
        b = outer_part(phi, 64)
        np.testing.assert_allclose(b, np.conj(state.coeffs), atol=1e-12)

    def test_factorial_state_is_outer(self):
        state = make_bg(1.0, 32)
        phi = refined_phi(state, 32, 256)
        b = outer_part(phi, 32)
        expected = 1.0 / math.sqrt(i0(2.0)) / np.array(
            [math.factorial(n) for n in range(32)], dtype=float
        )
        np.testing.assert_allclose(b, expected, atol=1e-12)

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize(
        "make",
        [
            lambda n: make_su11_cs(0.7 + 0.2j, n),
            lambda n: make_pi_superposition(0.8, 2.356, n),
            lambda n: make_bg(2.0, n),
            lambda n: make_blaschke_state(0.5j, n),
        ],
        ids=["su11_cs", "pi_superposition", "bg", "blaschke"],
    )
    def test_matches_exp_oracle(self, make, n):
        phi = refined_phi(make(n), n)
        b = outer_part(phi, n)
        assert b[0] == np.exp(phi.phi[0].real)
        np.testing.assert_allclose(b, series_exp_oracle(phi.phi, n), atol=1e-14)

    @pytest.mark.parametrize("m", [3, 7])
    def test_boundary_zero_states_near_exp_oracle(self, m):
        # phi decays like 1/k here, so exp(phi) has a slow tail that the 2M
        # grid folds back: measured 7.7e-13 (m = 3) and 6.8e-11 (m = 7)
        phi = refined_phi(vacuum_plus(m, 64), 64)
        b = outer_part(phi, 64)
        np.testing.assert_allclose(b, series_exp_oracle(phi.phi, 64), atol=1e-9)


class TestInnerPart:
    def test_number_state_monomial(self):
        state = make_number(3, 16)
        phi = refined_phi(state, 16, 64)
        c = inner_part(state, outer_part(phi, 16))
        np.testing.assert_allclose(c, np.eye(16)[3], atol=1e-12)

    def test_blaschke_series(self):
        state = make_blaschke_state(0.5, 16)
        phi = refined_phi(state, 16, 64)
        c = inner_part(state, outer_part(phi, 16))
        np.testing.assert_allclose(c[:3], [-0.5, 0.75, 0.375], atol=1e-12)

    def test_outer_state_trivial_inner(self):
        state = make_su11_cs(0.5, 32)
        phi = refined_phi(state, 32, 256)
        c = inner_part(state, outer_part(phi, 32))
        np.testing.assert_allclose(c, np.eye(32)[0], atol=1e-11)


class TestOuterDefect:
    def test_coherent_zero(self):
        assert abs(outer_defect(make_su11_cs(0.5, 64))) < 1e-8

    def test_number_state_infinite(self):
        assert outer_defect(make_number(2, 16)) == math.inf

    def test_blaschke_log_two(self):
        d = outer_defect(make_blaschke_state(0.5, 64))
        assert d == pytest.approx(math.log(2.0), abs=1e-6)

    def test_against_trapezoid_oracle(self):
        """Plain dense quadrature of mean log-modulus minus log |Z(0)|."""
        state = make_pi_superposition(0.8, 3 * math.pi / 4, 96)
        theta = -np.pi + (2 * np.arange(8192) + 1) * np.pi / 8192
        n = np.arange(96)
        values = np.exp(1j * np.outer(theta, n)) @ np.conj(state.coeffs)
        oracle = np.mean(np.log(np.abs(values))) - math.log(abs(state.coeffs[0]))
        assert outer_defect(state) == pytest.approx(oracle, abs=1e-4)

    def test_classifier(self):
        for state in (make_su11_cs(0.5, 64), make_bg(2j, 64), vacuum_plus(3, 64)):
            fac = factorize(state)
            assert fac.zeros == () and fac.outer_defect == 0.0
        fac = factorize(make_blaschke_state(0.5, 64))
        assert len(fac.zeros) == 1 and fac.outer_defect > 0.6


class TestBlaschkeZeros:
    def test_single_zero(self):
        z = blaschke_zeros(make_blaschke_state(0.5, 64))
        assert len(z.zeros) == 1
        gamma, mult = z.zeros[0]
        assert mult == 1
        assert abs(gamma - 0.5) < 1e-8

    def test_superposition_zero_formula(self):
        tau = 3 * math.pi / 4
        z = blaschke_zeros(make_pi_superposition(0.8, tau, 64))
        gamma = 1j / math.tan(tau / 2) / 0.8
        assert len(z.zeros) == 1
        assert abs(z.zeros[0][0] - gamma) < 1e-8

    def test_outer_state_empty(self):
        assert blaschke_zeros(make_su11_cs(0.5, 64)).zeros == ()

    def test_monomial_reported_at_origin(self):
        from diskphase import shift

        z = blaschke_zeros(shift(make_su11_cs(0.5, 32), 2))
        assert z.zeros[0] == (0.0, 2)

    @pytest.mark.parametrize("side", [1.0 - 5e-4, 1.0 - 1e-9, 1.0 + 1e-9])
    def test_root_near_the_circle_decided_by_its_radius(self, side):
        """A root 1e-9 from the circle is a million rounding radii away, so
        it lies on the side it was computed on, inside or out."""
        poly = np.convolve([-side, 1.0], [-0.2, 1.0])
        state = raw_state(np.conj(poly) / np.linalg.norm(poly))
        z = blaschke_zeros(state)
        want = sorted([0.2, side] if side < 1.0 else [0.2])
        assert [p for _, p in z.zeros] == [1] * len(want)
        assert np.allclose(sorted(g.real for g, _ in z.zeros), want, rtol=0, atol=1e-15)
        assert z.near_edge == ()

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            blaschke_zeros(raw_state(np.zeros(4)))

    @pytest.mark.parametrize("exponent", [-2, -1000, -1060])
    def test_subnormal_coefficients_same_zeros(self, exponent):
        # dyadic roots 0.5 and 0.25j keep the scaled coefficients exact
        poly = np.convolve([-0.5, 1.0], [-0.25j, 1.0]) * 2.0**exponent
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            zeros = blaschke_zeros(raw_state(np.conj(poly))).zeros
        assert sorted(mult for _, mult in zeros) == [1, 1]
        found = sorted((g for g, _ in zeros), key=abs)
        assert abs(found[0] - 0.25j) < 1e-12 and abs(found[1] - 0.5) < 1e-12

    def test_smallest_subnormal_no_overflow(self):
        # both coefficients 5e-324: the root -1 sits on the circle
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert blaschke_zeros(raw_state(np.full(2, 5e-324j))).zeros == ()


class TestContourExtraction:
    """Cases that the k-zero contour solve and its fallback must get right."""

    @pytest.mark.parametrize("gamma", [0.4j, 0.3, -0.5 + 0.2j])
    def test_double_zero_not_split(self, gamma):
        state = raw_state(np.conj(blaschke_product([(gamma, 2)], 128)))
        zeros = blaschke_zeros(state).zeros
        assert len(zeros) == 1 and zeros[0][1] == 2
        assert abs(zeros[0][0] - gamma) < 1e-12

    @pytest.mark.parametrize("u", [0.5, 1.0, 2.0, 1j])
    def test_subnormal_tail_bg_is_outer(self, u):
        fac = factorize(make_bg(u, 256))
        assert fac.zeros == () and fac.monomial_degree == 0
        assert fac.outer_defect < 1e-6

    def test_subnormal_tail_coherent(self):
        assert blaschke_zeros(make_su11_cs(0.5, 1070)).zeros == ()

    def test_fallback_linalg_error_reraised(self, monkeypatch):
        def broken_roots(p):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(np, "roots", broken_roots)
        # boundary zeros make the two contour counts disagree: fallback path
        with pytest.raises(IllConditionedError):
            blaschke_zeros(vacuum_plus(3, 64))

    @pytest.mark.parametrize(
        "seeds",
        [[-0.3j, 1.45], [-0.3j, -0.29j], [-0.3j, 1e30]],
        ids=["leaves-disk", "same-zero", "not-converged"],
    )
    def test_bad_pencil_seeds_fall_back(self, seeds, monkeypatch):
        """Seeds that Newton takes outside |z| < rho, onto one zero
        twice, or that it cannot bring in within its step budget fail the
        certificate; the companion solve then finds both zeros."""
        poly = np.convolve(np.convolve([-0.5, 1.0], [0.3j, 1.0]), [1.0, -1 / 1.5])
        state = raw_state(np.conj(poly) / np.linalg.norm(poly))
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.array(seeds))
        zeros = sorted(blaschke_zeros(state).zeros, key=lambda z: z[0].real)
        assert [p for _, p in zeros] == [1, 1]
        assert abs(zeros[0][0] + 0.3j) < 1e-12 and abs(zeros[1][0] - 0.5) < 1e-12

    @pytest.mark.parametrize("n", [256, 1024])
    def test_fallback_zeros_are_polished(self, n):
        """A generic state's zeros come from the companion fallback; Newton
        on the trimmed polynomial takes its split to rounding."""
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        coeffs *= 0.999 ** np.arange(n)
        fac = factorize(raw_state(coeffs / np.linalg.norm(coeffs)))
        assert fac.reconstruction_residual <= 5e-15

    @pytest.mark.parametrize(
        "newton",
        [lambda poly, z: None, lambda poly, z: np.full_like(z, 0.9999)],
        ids=["not-converged", "same-zero"],
    )
    def test_fallback_keeps_unpolished_roots(self, newton, monkeypatch):
        """Newton failing, or taking two zeros onto one point, leaves the
        companion roots as they are (the contour solve fails the same way
        first)."""
        poly = np.convolve([-0.5, 1.0], [0.3j, 1.0])
        state = raw_state(np.conj(poly) / np.linalg.norm(poly))
        monkeypatch.setattr(fz_module, "_newton", newton)
        zeros = sorted(blaschke_zeros(state).zeros, key=lambda z: z[0].real)
        assert [p for _, p in zeros] == [1, 1]
        assert abs(zeros[0][0] + 0.3j) < 1e-12 and abs(zeros[1][0] - 0.5) < 1e-12

    @pytest.mark.parametrize("n", [256, 1024])
    def test_catalog_zero_checks_at_large_truncation(self, n):
        """The catalog's zero-blaschke and zero-superposition checks at the
        CLI default and at library size, with the pinned tolerances."""
        zeros = blaschke_zeros(make_blaschke_state(0.5, n)).zeros
        assert len(zeros) == 1 and zeros[0][1] == 1
        assert abs(zeros[0][0] - 0.5) <= ver.TOL_ZERO_BLASCHKE
        tau = 3 * math.pi / 4
        zeros = blaschke_zeros(make_pi_superposition(0.8, tau, n)).zeros
        assert len(zeros) == 1 and zeros[0][1] == 1
        gamma = 1j / math.tan(tau / 2) / 0.8
        assert abs(zeros[0][0] - gamma) <= ver.TOL_ZERO_SUPERPOSITION

    def test_slow_decay_outer_state_at_library_size(self):
        fac = factorize(make_su11_cs(0.97, 1024))
        assert fac.zeros == () and fac.near_edge == ()
        assert fac.outer_defect < 1e-6


# --- np.roots oracle ----------------------------------------------------------


def roots_oracle(state, side=2.0, tol=1e-6):
    """Roots of the untrimmed coefficient polynomial, split by the rule of
    blaschke_zeros: (the roots inside, the roots on the circle, whether a
    root on it is too uncertain to keep).

    np.roots has backward error eps relative to the top coefficient, so
    where the coefficients fall to 1e-306 a root can sit far from where
    the polynomial vanishes. Each root with |gamma| <= 1 + tol is
    Newton-polished on the same untrimmed polynomial, a step kept only where
    it lowers |p|. The roots farther out are outside: from there Newton can
    run onto a root that another one already found. A polished root with
    radius r = eps (sum |f_n| |gamma|^n / |Z'(gamma)| + |gamma|) is inside
    when 1 - |gamma| > side r and on the circle when |1 - |gamma|| <= side r."""
    poly = np.conj(state.coeffs)[::-1]
    deriv = np.polyder(poly)
    roots = np.roots(poly)
    polished = roots[np.abs(roots) <= 1.0 + tol]
    for _ in range(10):
        step = polished - np.polyval(poly, polished) / np.polyval(deriv, polished)
        lower = np.abs(np.polyval(poly, step)) < np.abs(np.polyval(poly, polished))
        polished = np.where(lower, step, polished)
    mods = np.abs(polished)
    eps = np.finfo(float).eps
    size = np.polyval(np.abs(poly), mods)
    radii = side * eps * (size / np.abs(np.polyval(deriv, polished)) + mods)
    gap = 1.0 - mods
    edge = np.abs(gap) <= radii
    return polished[gap > radii], polished[edge], bool(np.any(radii[edge] > tol))


def assert_same_roots(found, want):
    found = list(found)
    assert len(found) == len(want), (found, want)
    for root in want:
        distances = [abs(root - g) for g in found]
        nearest = int(np.argmin(distances))
        assert distances[nearest] < 1e-8, (root, found)
        found.pop(nearest)


def assert_matches_oracle(state):
    with np.errstate(all="ignore"):
        try:
            inside, edge, refused = roots_oracle(state)
        except np.linalg.LinAlgError:
            return  # the oracle itself fails on a subnormal tail
    if refused:
        with pytest.raises(IllConditionedError):
            blaschke_zeros(state)
        return
    found = blaschke_zeros(state)
    assert_same_roots([g for g, p in found.zeros for _ in range(p)], inside)
    assert_same_roots(found.near_edge, edge)


def series_product_state(gammas, rhos, n):
    """Blaschke product of the gammas times the outer polynomial
    prod (1 - z/rho), cut at N."""
    series = blaschke_product([(g, 1) for g in gammas], n)
    for rho in rhos:
        series = series_mul(series, [1.0, -1.0 / rho], n)
    return raw_state(np.conj(series) / np.linalg.norm(series))


def admissible(points, gap=0.05):
    """Pairwise at least `gap` apart, and prod |gamma| far above the
    monomial threshold, so no leading coefficient reads as a zero at 0."""
    return math.prod(abs(g) for g in points) > 1e-10 and all(
        abs(a - b) >= gap for i, a in enumerate(points) for b in points[:i]
    )


@given(
    st.lists(
        st.tuples(st.floats(0.05, 0.99), st.floats(-math.pi, math.pi)),
        max_size=13,
    ),
    st.lists(
        st.tuples(st.floats(1.2, 4.0), st.floats(-math.pi, math.pi)),
        max_size=3,
    ),
    st.sampled_from([64, 128, 256]),
)
@settings(max_examples=25, deadline=None)
# np.roots puts this zero at 0.0625003578, where |p| = 3.1e-7
@example(zeros=[(0.0625, 0.0)], outer=[(2.0, 0.0)], n=256)
def test_series_products_match_roots_oracle(zeros, outer, n):
    gammas = [r * np.exp(1j * a) for r, a in zeros]
    assume(admissible(gammas))
    rhos = [r * np.exp(1j * a) for r, a in outer]
    assert_matches_oracle(series_product_state(gammas, rhos, n))


@given(normalized_states(min_size=2, max_size=48))
@settings(max_examples=25, deadline=None)
def test_dense_states_match_roots_oracle(state):
    # np.roots has backward error eps relative to the top coefficient; below
    # that its roots are noise (the trimmed polynomial is the better answer)
    top = np.trim_zeros(state.coeffs, "b")[-1]
    assume(abs(top) > 1e-8 * np.max(np.abs(state.coeffs)))
    assert_matches_oracle(state)


def test_seeded_sweep_matches_roots_oracle():
    rng = np.random.default_rng(2024)

    def point(rmin, rmax):
        return rng.uniform(rmin, rmax) * np.exp(1j * rng.uniform(-np.pi, np.pi))

    cases = [(64, k) for k in range(14)] + [(128, k) for k in (0, 3, 7, 13)]
    cases += [(256, k) for k in (0, 5, 13)] + [(512, 4)]
    for n, k in cases:
        gammas = [point(0.05, 0.99) for _ in range(k)]
        while not admissible(gammas):
            gammas = [point(0.05, 0.99) for _ in range(k)]
        rhos = [point(1.2, 4.0) for _ in range(3)]
        assert_matches_oracle(series_product_state(gammas, rhos, n))
    for n in (8, 24, 64, 128):
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert_matches_oracle(raw_state(c / np.linalg.norm(c)))
    # roots on the circle, and one that crosses it
    for m in range(1, 9):
        assert_matches_oracle(vacuum_plus(m, 64))
    for offset in (-1e-5, 0.0, 1e-5):
        assert_matches_oracle(make_pi_superposition(0.8, TAU_CRITICAL + offset, 96))


def spread_series_product(seed, k, n=256):
    """k zeros with 0.15 <= |gamma| <= 0.7, pairwise at least 0.1 apart, times
    an outer cubic with roots 1.5 <= |rho| <= 3, all from default_rng(seed)."""
    rng = np.random.default_rng(seed)

    def point(rmin, rmax):
        return rng.uniform(rmin, rmax) * np.exp(1j * rng.uniform(-np.pi, np.pi))

    gammas = []
    while len(gammas) < k:
        p = point(0.15, 0.7)
        if all(abs(p - q) >= 0.1 for q in gammas):
            gammas.append(p)
    return series_product_state(gammas, [point(1.5, 3.0) for _ in range(3)], n)


@pytest.mark.parametrize(
    "k, seed",
    [(13, 0), (14, 61), (15, 12), (15, 15), (15, 25), (16, 12), (16, 18), (16, 32)],
)
def test_thirteen_to_sixteen_zeros_certified_by_contour(k, seed, monkeypatch):
    """With the power sums taken as Fourier coefficients, the Hankel pencil of
    these series products seeds Newton well enough to pass the certificate:
    no companion-matrix fallback. The seeds are chosen near the onset: with
    power sums from a table of the powers z^j (`power_sums_oracle`), 7 of
    the 8 fail the certificate."""
    state = spread_series_product(seed, k)
    sizes = []
    real_roots = np.roots

    def spy(p):
        sizes.append(len(p))
        return real_roots(p)

    monkeypatch.setattr(np, "roots", spy)
    assert_matches_oracle(state)
    assert sizes == [state.truncation]  # the oracle's own solve, nothing else


@pytest.mark.parametrize("k, seed", [(3, 1), (8, 2), (16, 12), (24, 3)])
def test_winding_and_power_sums_match_direct_oracles(k, seed):
    """Both circles in one transform give the per-circle counts and samples
    bit for bit; the FFT power sums match the table of powers to rounding."""
    poly = np.conj(spread_series_product(seed, k).coeffs)
    radius, grid = fz_module._CONTOUR_RADIUS, 1024
    outer_count, count, log_derivative = fz_module._winding(poly, radius, grid)
    assert outer_count == winding_oracle(poly, 1.0, grid)[0]
    oracle_count, oracle_samples = winding_oracle(poly, radius, grid)
    assert count == oracle_count and bit_equal(log_derivative, oracle_samples)
    assert round(count.real) == k
    sums = fz_module._power_sums(log_derivative, radius, 2 * k)
    expected = power_sums_oracle(log_derivative, radius, 2 * k)
    assert np.max(np.abs(sums - expected)) <= 1e-13 * np.max(np.abs(log_derivative))


@given(
    st.lists(
        st.tuples(st.floats(-0.99, 0.99), st.floats(-0.99, 0.99), st.integers(1, 3)),
        max_size=10,
    ),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_cluster_matches_oracle_bits(centers, seed):
    """Clusters planted 1e-8 wide: the kept running means give the members,
    multiplicities and mean bits of recomputing every mean per comparison."""
    rng = np.random.default_rng(seed)
    roots = np.array(
        [complex(x, y) + 1e-8 * complex(*rng.normal(size=2))
         for x, y, m in centers for _ in range(m)],
        dtype=complex,
    )
    got = fz_module._cluster(roots)
    want = cluster_oracle(roots, fz_module._CLUSTER_RADIUS)
    assert [p for _, p in got] == [p for _, p in want]
    assert bit_equal([g for g, _ in got], [g for g, _ in want])


class TestBlaschkeProduct:
    def test_single_factor_series(self):
        b = blaschke_product([(0.5, 1)], 6)
        np.testing.assert_allclose(
            b[:3], [0.5, -0.75, -0.375], atol=1e-14
        )

    def test_empty_product(self):
        np.testing.assert_allclose(blaschke_product([], 4), [1, 0, 0, 0])

    def test_pair_against_polynomial_oracle(self):
        """Multiply the two rational factors explicitly and expand."""
        b = blaschke_product([(0.3, 1), (-0.3, 1)], 32)
        # sign factors: (0.3/0.3) * (-0.3/0.3) = -1
        # -(0.3 - z)(-0.3 - z) = 0.09 - z^2 over (1 - 0.09 z^2)... divide as series
        num = np.zeros(32, dtype=complex)
        num[0], num[2] = 0.09, -1.0
        den = np.zeros(32, dtype=complex)
        den[0], den[2] = 1.0, -0.09
        want = series_div_substitution_oracle(num, den, 32)
        np.testing.assert_allclose(b, want, atol=1e-13)

    def test_multiplicity(self):
        b2 = blaschke_product([(0.4j, 2)], 24)
        single = blaschke_factor(0.4j, 24)
        np.testing.assert_allclose(b2, series_mul(single, single, 24), atol=1e-13)

    def test_origin_rejected(self):
        with pytest.raises(DomainError):
            blaschke_product([(0.0, 1)], 8)

    def test_boundary_modulus_one(self):
        b = blaschke_product([(0.3, 1), (0.5j, 2)], 256)
        vals = circle_values(b, 1024)
        np.testing.assert_allclose(np.abs(vals), 1.0, atol=1e-10)


class TestFactorize:
    def test_overflowing_inner_quotient_is_refused(self):
        # the disk zeros of the factorial state bg(20) at N = 256 lie within
        # their rounding radii of the circle
        with pytest.raises(IllConditionedError, match="rounding radius"):
            factorize(make_bg(20.0, 256))

    def test_vacuum_plus_number_is_outer(self):
        fac = factorize(vacuum_plus(3, 64), grid_size=512)
        assert fac.outer_defect < 1e-6
        assert fac.zeros == ()
        assert not fac.singular_suspected
        # no disk zeros: the inner series is the unit constant
        np.testing.assert_allclose(fac.inner_coeffs, np.eye(64)[0], atol=1e-15)

    def test_superposition_inner_regime(self):
        tau = 3 * math.pi / 4
        fac = factorize(make_pi_superposition(0.8, tau, 128), grid_size=1024)
        gamma = 1j / math.tan(tau / 2) / 0.8
        assert len(fac.zeros) == 1
        assert abs(fac.zeros[0][0] - gamma) < 1e-8
        # the outer series is positive at the origin, so the inner part is the
        # normalised all-pass factor times the state's leftover unit phase
        expected_inner = blaschke_factor(gamma, 128)
        ratio = fac.inner_coeffs[0] / expected_inner[0]
        assert abs(abs(ratio) - 1.0) < 1e-8
        np.testing.assert_allclose(fac.inner_coeffs, ratio * expected_inner, atol=1e-8)

    def test_superposition_outer_regime(self):
        fac = factorize(make_pi_superposition(0.3, 3 * math.pi / 4, 64), grid_size=512)
        assert fac.outer_defect < 1e-8
        assert fac.zeros == ()
        # inner part is a unit-phase constant (the state's global phase)
        assert abs(abs(fac.inner_coeffs[0]) - 1.0) < 1e-10
        np.testing.assert_allclose(fac.inner_coeffs[1:], 0.0, atol=1e-10)

    def test_reconstruction_residual(self):
        for state in (
            make_su11_cs(0.8, 64),
            make_bg(3.0, 64),
            make_blaschke_state(0.5, 64),
        ):
            fac = factorize(state, grid_size=512)
            assert fac.reconstruction_residual < 1e-10

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_reconstruction_residual_boundary_zeros(self, n):
        for m in range(1, 9):
            assert factorize(vacuum_plus(m, n)).reconstruction_residual <= 1e-12

    def test_inner_boundary_modulus(self):
        fac = factorize(make_blaschke_state(0.3 + 0.4j, 64), grid_size=512)
        assert fac.inner_boundary_deviation < 1e-10

    def test_interior_bound(self):
        fac = factorize(make_pi_superposition(0.8, 3 * math.pi / 4, 128))
        rng = np.random.default_rng(11)
        z = rng.uniform(0, 0.95, 64) * np.exp(1j * rng.uniform(-np.pi, np.pi, 64))
        assert np.max(np.abs(series_eval(fac.inner_coeffs, z))) <= 1 + 1e-6

    def test_subharmonic_bound(self):
        """log |Z| never exceeds the real part of the completed log-spectrum."""
        rng = np.random.default_rng(5)
        z = rng.uniform(0.05, 0.9, 40) * np.exp(1j * rng.uniform(-np.pi, np.pi, 40))
        for state in (make_su11_cs(0.5j, 64), make_blaschke_state(0.5, 64)):
            lhs = np.log(np.abs(eval_Z(state, z)))
            rhs = np.real(series_eval(refined_phi(state, 64, 512).phi, z))
            assert np.max(lhs - rhs) <= 1e-8

    def test_phase_density_from_outer_part(self):
        from diskphase import phase_distribution

        state = make_pi_superposition(0.8, 3 * math.pi / 4, 64)
        fac = factorize(state, grid_size=512)
        outer_boundary = circle_values(fac.outer_coeffs, 512)
        np.testing.assert_allclose(
            phase_distribution(state, 512),
            np.abs(outer_boundary) ** 2 / (2 * np.pi),
            atol=1e-6,
        )

    def test_defect_additivity(self):
        zero_sets = [
            (((0.5 + 0j), 1),),
            (((0.3 + 0j), 1), ((-0.3 + 0j), 1)),
            ((0.4j, 2),),
        ]
        for zeros in zero_sets:
            state = raw_state(np.conj(blaschke_product(zeros, 128)))
            expected = sum(p * math.log(1 / abs(g)) for g, p in zeros)
            assert outer_defect(state, grid_size=1024) == pytest.approx(
                expected, abs=1e-6
            )

    def test_monomial_factored_out(self):
        from diskphase import shift

        fac = factorize(shift(make_su11_cs(0.5, 32), 3))
        assert fac.monomial_degree == 3
        assert fac.outer_defect == math.inf
        assert not fac.singular_suspected
        np.testing.assert_allclose(fac.inner_coeffs[:4], [0, 0, 0, 1], atol=1e-10)

    def test_catalog_not_flagged_singular(self):
        for state in (
            make_su11_cs(0.7, 64),
            make_blaschke_state(0.5, 64),
            vacuum_plus(2, 64),
            make_bg(1.0, 64),
        ):
            assert not factorize(state, grid_size=512).singular_suspected


# |gamma| = cot(tau / 2) / 0.8 = 1 for the pi-superposition with z0 = 0.8
TAU_CRITICAL = 2.0 * math.atan(1.0 / 0.8)


def jensen_sum(zeros):
    return sum(p * math.log(1.0 / abs(g)) for g, p in zeros)


def polynomial_state(gammas, n):
    """The state whose disk function is prod (z - gamma) / norm, padded to N."""
    poly = np.zeros(n, dtype=complex)
    poly[0] = 1.0
    for g in gammas:
        poly[1:] = poly[:-1] - g * poly[1:]
        poly[0] *= -g
    return raw_state(np.conj(poly) / np.linalg.norm(poly))


class TestSplitFromZeros:
    """The inner factor of a polynomial is the Blaschke product B of its disk
    zeros, so the split is exact up to rounding wherever the zeros are."""

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("m", range(1, 9))
    def test_inner_unimodular_with_zeros_on_the_circle(self, m, n):
        fac = factorize(vacuum_plus(m, n))
        assert fac.inner_boundary_deviation <= 1e-12

    @pytest.mark.parametrize("n", [96, 256])
    @pytest.mark.parametrize(
        "offset", [-1e-2, -1e-3, -1e-4, -1e-5, 1e-5, 1e-4, 1e-3, 1e-2]
    )
    def test_outer_defect_is_jensen_sum_near_the_circle(self, offset, n):
        """The zero crosses the circle at tau_c; 1e-5 past it, |gamma| is
        0.99998975 and its rounding radius 2e-15, so it is decided."""
        tau = TAU_CRITICAL + offset
        gamma = 1j / math.tan(tau / 2) / 0.8
        fac = factorize(make_pi_superposition(0.8, tau, n))
        assert fac.near_edge == ()
        if offset < 0:
            assert abs(gamma) > 1 and fac.zeros == () and fac.outer_defect == 0.0
        else:
            assert len(fac.zeros) == 1 and abs(fac.zeros[0][0] - gamma) <= 1e-12
            assert abs(fac.outer_defect - jensen_sum([(gamma, 1)])) <= 1e-12

    @pytest.mark.parametrize("n", [96, 256])
    def test_zero_on_the_circle_at_the_critical_angle(self, n):
        fac = factorize(make_pi_superposition(0.8, TAU_CRITICAL, n))
        assert fac.zeros == () and fac.outer_defect == 0.0
        assert len(fac.near_edge) == 1 and abs(fac.near_edge[0] - 1j) <= 1e-12

    @pytest.mark.parametrize("grid", [None, 512])
    @pytest.mark.parametrize("m", range(1, 9))
    def test_singular_defect_vanishes_with_zeros_on_the_circle(self, m, grid):
        """The midpoint mean of ln|1 + z^m| is off by m ln 2 / M when m
        divides M; the mean extrapolated from M and 2M is exact."""
        fac = factorize(vacuum_plus(m, 64), grid_size=grid)
        assert abs(fac.singular_defect) <= 1e-12
        assert not fac.singular_suspected

    @pytest.mark.parametrize("n", [64, 128, 256])
    @pytest.mark.parametrize("m", range(1, 9))
    def test_near_edge_root_stays_in_the_outer_series(self, m, n):
        """The m roots of 1 + z^m lie on the circle: all of them are in
        `near_edge`, B is empty and the outer series is the state."""
        state = vacuum_plus(m, n)
        fac = factorize(state)
        assert fac.zeros == () and fac.outer_defect == 0.0
        roots = np.exp(1j * np.pi * (2 * np.arange(m) + 1) / m)
        assert_same_roots(fac.near_edge, roots)
        target = np.conj(state.coeffs)
        phase = fac.outer_coeffs[0] / target[0]
        assert abs(abs(phase) - 1.0) <= 1e-15
        assert np.max(np.abs(fac.outer_coeffs - phase * target)) <= 1e-15
        assert abs(fac.inner_coeffs[0] * phase - 1.0) <= 1e-15
        assert np.all(fac.inner_coeffs[1:] == 0)
        assert fac.inner_boundary_deviation <= 1e-12
        assert abs(fac.singular_defect) <= 1e-12

    @pytest.mark.parametrize("n", [64, 256])
    def test_rotated_circle_roots_stay_on_the_circle(self, n):
        """The roots of 1 + e^(i phi) z^m come out of Newton up to one ulp
        off the circle, farther than their Mosier radius 2 eps / m; the
        rounding of gamma itself, eps |gamma|, keeps them on it."""
        rng = np.random.default_rng(7)
        for m in range(1, 41):
            phase = np.exp(2j * np.pi * rng.random())
            state = superpose([make_number(0, n), make_number(m, n)], [1.0, phase])
            fac = factorize(state)
            assert fac.zeros == () and len(fac.near_edge) == m, (m, phase)

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_catalog_residual_at_rounding(self, n):
        for entry in ver.build_catalog(n):
            assert factorize(entry.state).reconstruction_residual <= 1e-15

    @pytest.mark.parametrize(
        "state",
        [
            make_blaschke_state(0.3 + 0.4j, 256),
            make_pi_superposition(0.8, TAU_CRITICAL + 1e-3, 256),
            spread_series_product(2, 12),
            polynomial_state([0.5, -0.3j, 0.99 * np.exp(2j)], 128),
            polynomial_state([0.4j, 0.4j, -0.5, 0.995], 64),
        ],
        ids=["blaschke", "near-circle", "12-zeros", "mixed", "double"],
    )
    def test_inner_series_is_blaschke_product(self, state):
        """Zeros deep in the disk take B's coefficients from its grid samples,
        those near the circle its series product: both give the product."""
        fac = factorize(state)
        product = blaschke_product(fac.zeros, state.truncation)
        phase = np.vdot(product, fac.inner_coeffs) / np.vdot(product, product)
        assert abs(abs(phase) - 1.0) <= 1e-15
        assert np.max(np.abs(fac.inner_coeffs - phase * product)) <= 1e-15

    @pytest.mark.parametrize("u0", range(8, 19))
    def test_large_factorial_states_reconstruct(self, u0):
        assert factorize(make_bg(u0, 256)).reconstruction_residual <= 1e-15

    @pytest.mark.parametrize("exponent", [-2, -1000, -1060])
    def test_subnormal_coefficients_split(self, exponent):
        # the rounding radii and the phase of the outer series stay finite
        poly = np.convolve([-0.5, 1.0], [-0.25j, 1.0]) * 2.0**exponent
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fac = factorize(raw_state(np.conj(poly)))
        assert [p for _, p in fac.zeros] == [1, 1]
        assert fac.outer_coeffs[0].real > 0 and fac.outer_coeffs[0].imag == 0
        assert abs(fac.outer_defect - math.log(8.0)) <= 1e-12

    def test_no_log_spectrum_on_the_path(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("factorize called a log-spectrum stage")

        for name in ("refined_phi", "outer_part", "inner_part"):
            monkeypatch.setattr(fz_module, name, refuse)
        for state in (
            make_pi_superposition(0.8, 3 * math.pi / 4, 64),
            vacuum_plus(3, 64),
            make_su11_cs(0.5, 64),
        ):
            factorize(state)


@pytest.mark.parametrize(
    "state",
    [
        make_pi_superposition(0.8, 2.356, 1024),
        make_su11_cs(0.97, 1024),
        make_blaschke_state(0.6j, 1024),
    ],
    ids=["pi_superposition", "su11_cs", "blaschke"],
)
def test_factorize_bits_match_full_grid_twist(state, monkeypatch):
    """Every output of `factorize` keeps its bits when the boundary FFTs twist
    the whole grid (the oracles) instead of the live band only."""
    fast = factorize(state)
    fast_phi = refined_phi(state, state.truncation).phi
    monkeypatch.setattr(disk_module, "circle_values", circle_values_oracle)
    monkeypatch.setattr(fz_module, "circle_values", circle_values_oracle)
    monkeypatch.setattr(fz_module, "circle_coefficients", circle_coefficients_oracle)
    slow = factorize(state)
    for name in ("outer_coeffs", "inner_coeffs"):
        assert bit_equal(getattr(fast, name), getattr(slow, name))
    assert bit_equal(fast_phi, refined_phi(state, state.truncation).phi)
    assert fast.zeros == slow.zeros and fast.near_edge == slow.near_edge
    for name in (
        "outer_defect",
        "singular_defect",
        "reconstruction_residual",
        "inner_boundary_deviation",
    ):
        assert getattr(fast, name) == getattr(slow, name)


FFT_STATES = {
    "su11_cs": lambda n: make_su11_cs(0.97, n),
    "pi_superposition": lambda n: make_pi_superposition(0.8, 3 * math.pi / 4, n),
    "blaschke": lambda n: make_blaschke_state(0.6j, n),
    "vacuum_plus_5": lambda n: vacuum_plus(5, n),
    "bg3": lambda n: make_bg(3.0, n),
}


def convolve_factorize(state, monkeypatch):
    """`factorize` with every series product by `np.convolve`, as below 512
    terms."""
    with monkeypatch.context() as patch:
        patch.setattr(fz_module, "series_mul", series_mul_oracle)
        patch.setattr(series_module, "series_mul", series_mul_oracle)
        return factorize(state)


@pytest.mark.parametrize("n", [512, 1024, 2048])
@pytest.mark.parametrize("name", sorted(FFT_STATES))
def test_fft_products_match_convolve_factorization(name, n, monkeypatch):
    """From 512 terms the reconstruction check and the series product of
    zeros near the circle take FFT products; the outer series and the zeros
    never use them."""
    state = FFT_STATES[name](n)
    fast = factorize(state)
    slow = convolve_factorize(state, monkeypatch)
    assert bit_equal(fast.outer_coeffs, slow.outer_coeffs)
    assert fast.zeros == slow.zeros and fast.near_edge == slow.near_edge
    assert fast.monomial_degree == slow.monomial_degree
    np.testing.assert_allclose(fast.inner_coeffs, slow.inner_coeffs, rtol=0, atol=1e-14)
    assert fast.reconstruction_residual <= 1e-14


@pytest.mark.parametrize("name", sorted(FFT_STATES))
def test_fft_inner_tail_keeps_plane_convolution(name, monkeypatch):
    """The plane functions built from the FFT inner series agree with the
    convolve path within 1e-12 of sum |f_n| |u|^n / n!."""
    state = FFT_STATES[name](1024)
    rng = np.random.default_rng(1024)
    u = 10.0 * np.sqrt(rng.random(8)) * np.exp(2j * np.pi * rng.random(8))
    u = np.concatenate((u, [10.0, -10.0, 10j, 0.5]))
    fast = bg_convolve(*bg_factor_parts(factorize(state)), u)
    slow = bg_convolve(*bg_factor_parts(convolve_factorize(state, monkeypatch)), u)
    scale = BGFunction(0.0, np.abs(state.coeffs))(np.abs(u)).real
    assert np.all(np.abs(fast - slow) <= 1e-12 * scale)


class TestSingularDetection:
    def test_truncation_emulates_by_near_edge_roots(self):
        """The truncation's roots near the circle balance the defect."""
        fac = factorize(singular_test_state())
        assert not fac.singular_suspected
        assert len(fac.zeros) >= 5
        assert all(abs(g) > 0.9 for g, _ in fac.zeros)
        assert fac.outer_defect == pytest.approx(0.4, abs=0.05)

    def test_flagged_when_zeros_are_withheld(self, monkeypatch):
        """The Jensen gap sees zeros that B leaves out."""
        state = singular_test_state()
        found = blaschke_zeros(state)
        assert sum(p for g, p in found.zeros if abs(g) > 0.9) >= 5
        withheld = fz_module.DiskZeros((), ())
        monkeypatch.setattr(fz_module, "blaschke_zeros", lambda state: withheld)
        fac = factorize(state)
        assert fac.zeros == ()
        assert fac.singular_suspected
        assert fac.singular_defect == pytest.approx(0.4, abs=0.05)


def test_boundary_log_integral_identity():
    """Mean of ln|e^{i theta} - 1/z0| over the circle equals -ln|z0|.

    Direct midpoint quadrature, no package code in the integrand; this is
    the classical identity behind the defect values of all-pass factors.
    """
    theta = -np.pi + (2 * np.arange(4096) + 1) * np.pi / 4096
    for z0 in (0.5, -0.3 + 0.4j, 0.85j):
        vals = np.log(np.abs(np.exp(1j * theta) - 1.0 / z0))
        assert np.mean(vals) == pytest.approx(-math.log(abs(z0)), abs=1e-9)


@given(
    st.complex_numbers(max_magnitude=0.7, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=0.7, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=20, deadline=None)
def test_random_product_states_classified(g1, g2):
    """States built from random all-pass products report the right defect."""
    assume(abs(g1) > 0.05 and abs(g2) > 0.05 and abs(g1 - g2) > 1e-3)
    state = raw_state(np.conj(blaschke_product([(g1, 1), (g2, 1)], 160)))
    fac = factorize(state)
    expected = math.log(1 / abs(g1)) + math.log(1 / abs(g2))
    assert fac.outer_defect == pytest.approx(expected, abs=1e-6)
    recovered = [g for g, _ in fac.zeros]
    assert len(recovered) == 2
    for expected_zero in (g1, g2):
        assert min(abs(expected_zero - r) for r in recovered) < 1e-6
    assert not fac.singular_suspected


@pytest.mark.parametrize(
    "inner_state",
    [
        make_number(4, 64),
        make_blaschke_state(0.5, 64),
        make_blaschke_state(-0.6, 64),
        make_blaschke_state(-0.3 + 0.45j, 64),
    ],
    ids=["number4", "blaschke0.5", "blaschke-0.6", "skew"],
)
def test_outer_plus_vacuum_theorem(inner_state):
    """Superposing any inner state with the vacuum lands in the outer class.

    The superposition's boundary function vanishes where the all-pass part
    hits -1, on the circle, so B has no zeros (a complex parameter puts the
    zero at a generic angle, which the split from the zeros decides as
    exactly as any other).
    """
    combo = superpose([inner_state, make_number(0, 64)], [1.0, 1.0])
    fac = factorize(combo, grid_size=1024)
    assert fac.zeros == () and fac.outer_defect == 0.0


@pytest.mark.xfail(
    strict=True,
    reason="leading coefficients <= 1e-14 max|f| count as a monomial factor",
)
def test_small_zeros_are_not_read_as_a_monomial():
    """13 zeros of modulus 0.06 make f_0 = 0.06^13 = 1.3e-16: the zeros are
    simple and distinct from the origin, but the monomial rule reports
    one 13-fold zero at 0."""
    gammas = 0.06 * np.exp(2j * np.pi * np.arange(13) / 13)
    state = raw_state(np.conj(blaschke_product([(g, 1) for g in gammas], 64)))
    zeros = blaschke_zeros(state).zeros
    assert [p for _, p in zeros] == [1] * 13
    assert_same_roots([g for g, _ in zeros], gammas)
