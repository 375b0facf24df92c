"""Joint number-phase function: direct sum, grids, closed forms, covariance."""

import importlib
import math
import tracemalloc
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from diskphase import (
    IDENTITY,
    DiskPhaseError,
    SpecError,
    WeylElement,
    apply,
    chebyshev_u,
    closed_form,
    make_bg,
    make_blaschke_state,
    make_number,
    make_pi_superposition,
    make_su11_cs,
    midpoint_grid,
    number_distribution,
    phase_distribution,
    shift_covariance_check,
    superpose,
    wigner,
    wigner_grid,
)
from diskphase.cli import _grid, build_parser
from tests.conftest import (
    boundary_direct,
    normalized_states,
    two_fft_lattice_oracle,
    two_sided_table_oracle,
)

# the module, not the function of the same name the package exports
wigner_module = importlib.import_module("diskphase.wigner")


def integral_form(state, n, theta, quad_points=512):
    """Independent oracle: the circle-integral form evaluated by trapezoid.

    The integrand is a trigonometric polynomial, so the periodic trapezoid
    rule is exact once the grid beats its bandwidth.
    """
    phi = -np.pi + 2 * np.pi * np.arange(quad_points) / quad_points
    left = boundary_direct(state, theta - phi)
    right = boundary_direct(state, theta + phi)
    integrand = (1 + np.exp(1j * phi)) * np.exp(-2j * n * phi) * np.conj(left) * right
    return float(np.real(np.mean(integrand) / (2 * np.pi)))


def pair_coefficients(coeffs, n):
    """Fourier coefficients of S(n, .): even harmonics 2p, odd harmonics 2p+1."""
    f = coeffs
    size = f.size
    ps = np.arange(-n, n + 1)
    even = np.zeros(2 * n + 1, dtype=complex)
    ok = (n - ps >= 0) & (n - ps < size) & (n + ps >= 0) & (n + ps < size)
    even[ok] = f[n - ps[ok]] * np.conj(f[n + ps[ok]])
    ps_odd = np.arange(-n, n)
    odd = np.zeros(max(2 * n, 0), dtype=complex)
    ok = (
        (n - ps_odd - 1 >= 0)
        & (n - ps_odd - 1 < size)
        & (n + ps_odd >= 0)
        & (n + ps_odd < size)
    )
    odd[ok] = f[n - ps_odd[ok] - 1] * np.conj(f[n + ps_odd[ok]])
    return even, odd


def dense_sum(state, n, theta):
    """Independent oracle: the per-level finite double sum, one level at a
    time, against explicit phase tables (no coefficient table, no FFT)."""
    angles = np.atleast_1d(np.asarray(theta, dtype=float))
    even, odd = pair_coefficients(state.coeffs, n)
    ps = np.arange(-n, n + 1)
    total = np.tensordot(even, np.exp(2j * np.outer(ps, angles)), axes=(0, 0))
    if n > 0:
        ps_odd = np.arange(-n, n)
        total = total + np.tensordot(
            odd, np.exp(1j * np.outer(2 * ps_odd + 1, angles)), axes=(0, 0)
        )
    return total.real / (2.0 * np.pi)


class TestDirectSum:
    def test_number_state_band(self):
        s = make_number(2, 8)
        for n in range(5):
            val = wigner(s, n, 0.37)
            assert val == pytest.approx((1.0 if n == 2 else 0.0) / (2 * np.pi))

    def test_vacuum_vanishes_at_high_levels(self):
        assert wigner(make_number(0, 4), 3, 0.1) == 0.0

    def test_vacuum_plus_number_display(self):
        m = 4
        s = superpose([make_number(0, 12), make_number(m, 12)], [1, 1])
        theta = np.linspace(-3, 3, 7)
        k = (m + 1) // 2 if m % 2 else m // 2
        for n in range(7):
            expected = (
                (n == 0) + (n == m) + 2 * (n == k) * np.cos(m * theta)
            ) / (4 * np.pi)
            np.testing.assert_allclose(wigner(s, n, theta), expected, atol=1e-13)

    @given(normalized_states(max_size=24))
    @settings(max_examples=30)
    def test_real_valued(self, state):
        theta = np.linspace(-np.pi, np.pi, 9)
        for n in (0, 1, 5):
            vals = wigner(state, n, theta)
            assert np.all(np.isreal(vals))

    @given(normalized_states(max_size=20))
    @settings(max_examples=15, deadline=None)
    def test_against_integral_oracle(self, state):
        rng = np.random.default_rng(hash(state.truncation) % 2**32)
        for _ in range(5):
            n = int(rng.integers(0, 10))
            theta = float(rng.uniform(-np.pi, np.pi))
            direct = wigner(state, n, theta)
            assert direct == pytest.approx(
                integral_form(state, n, theta), abs=1e-11
            )


class TestGrid:
    def test_matches_pointwise_evaluation(self):
        s = make_su11_cs(0.5, 24)
        grid = wigner_grid(s, n_max=10, grid_size=128)
        for n in (0, 3, 10):
            np.testing.assert_allclose(
                grid.values[n], dense_sum(s, n, grid.theta), atol=1e-13
            )

    def test_number_marginal_exact(self):
        s = make_pi_superposition(0.6, 1.2, 32)
        grid = wigner_grid(s, n_max=32, grid_size=256)
        expected = np.zeros(33)
        expected[:32] = number_distribution(s)
        np.testing.assert_allclose(grid.number_marginal(), expected, atol=1e-8)

    def test_phase_marginal_exact(self):
        s = make_blaschke_state(0.4 + 0.3j, 32)
        grid = wigner_grid(s, n_max=32, grid_size=256)
        np.testing.assert_allclose(
            grid.phase_marginal(), phase_distribution(s, 256), atol=1e-6
        )

    def test_conjugation_fault_caught(self):
        # C[n, 0] = |f_n|^2 is real; an imaginary DC entry cannot be Hermitian
        table = np.zeros((2, 3), dtype=complex)
        table[1, 0] = 0.5 + 0.2j
        with pytest.raises(DiskPhaseError, match="imaginary residue"):
            wigner_module._lattice(table, 8)

    def test_grid_too_small_rejected(self):
        with pytest.raises(SpecError):
            wigner_grid(make_number(0, 16), n_max=16, grid_size=32)

    def test_negative_values_allowed(self):
        # quasi-probability: the vacuum-plus-number state dips below zero
        s = superpose([make_number(0, 8), make_number(1, 8)], [1, 1])
        grid = wigner_grid(s, n_max=4, grid_size=64)
        assert grid.values.min() < -1e-3


@st.composite
def lattice_cases(draw):
    """A state, a top level and a grid that resolves it: at the default size,
    or narrow (2 n_max + 1 < M < 4 n_max + 3, as for `--n 256 --grid 512`)."""
    state = draw(normalized_states(min_size=1, max_size=16))
    n_max = draw(st.integers(0, state.truncation + 3))
    narrow = draw(st.booleans())
    grid = draw(st.integers(2 * n_max + 2, 4 * n_max + 2)) if narrow else None
    return state, n_max, grid


class TestAgainstTwoFftLattice:
    """The half-table real transform against the two-sided two-FFT lattice."""

    @given(lattice_cases(), st.floats(-np.pi, np.pi))
    @settings(max_examples=60, deadline=None)
    def test_lattice_matches(self, case, beta):
        state, n_max, grid_size = case
        top = 2 * n_max + 1
        m = wigner_module._grid_size(state.truncation, n_max, grid_size)
        half = wigner_module._coefficient_table(state.coeffs, range(n_max + 1), top)
        full = two_sided_table_oracle(state.coeffs, np.arange(n_max + 1), top)
        np.testing.assert_array_equal(half, full[:, top:])
        # as shift_covariance_check twists its displaced side
        twisted = half * np.exp(-1j * beta * np.arange(top + 1))
        full_twisted = full * np.exp(-1j * beta * np.arange(-top, top + 1))
        for ours, oracle in ((half, full), (twisted, full_twisted)):
            np.testing.assert_allclose(
                wigner_module._lattice(ours, m),
                two_fft_lattice_oracle(oracle, m),
                rtol=0,
                atol=1e-15,
            )


class TestAgainstDenseSum:
    """Every evaluation of the coefficient table against the per-level sum."""

    @given(lattice_cases(), st.floats(-4.0, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_pointwise_and_grid(self, case, angle):
        state, n_max, grid_size = case
        grid = wigner_grid(state, n_max=n_max, grid_size=grid_size)
        theta = np.array([angle, -np.pi, 0.0, 2.5])
        for n in range(n_max + 1):
            np.testing.assert_allclose(
                grid.values[n], dense_sum(state, n, grid.theta), rtol=0, atol=1e-13
            )
            np.testing.assert_allclose(
                wigner(state, n, theta), dense_sum(state, n, theta), rtol=0, atol=1e-13
            )
            assert wigner(state, n, angle) == pytest.approx(
                float(dense_sum(state, n, angle)[0]), rel=0, abs=1e-13
            )

    @given(
        lattice_cases(),
        st.integers(0, 3),
        st.floats(-np.pi, np.pi),
        st.floats(-np.pi, np.pi),
    )
    @settings(max_examples=40, deadline=None)
    def test_shift_covariance_sides(self, case, m, beta, gamma):
        state, n_max, grid_size = case
        w = WeylElement(m, beta, gamma)
        sides = []
        real_lattice = wigner_module._lattice

        def record(table, size):
            sides.append(real_lattice(table, size))
            return sides[-1]

        with mock.patch.object(wigner_module, "_lattice", record):
            deviation = shift_covariance_check(state, w, n_max, grid_size)
        lhs, rhs = sides
        theta = midpoint_grid(lhs.shape[1])
        shifted = apply(w, state)
        for n in range(n_max + 1):
            np.testing.assert_allclose(
                lhs[n], dense_sum(shifted, n, theta), rtol=0, atol=1e-13
            )
        for n in range(m, n_max + 1):
            np.testing.assert_allclose(
                rhs[n - m], dense_sum(state, n - m, theta - beta), rtol=0, atol=1e-13
            )
        assert deviation < 1e-13


class _Stop(Exception):
    pass


def _default_grid_of_shift_check(state, w):
    """The grid shift_covariance_check picks, read off `_grid_size` before
    any table or lattice is built."""
    real_grid_size = wigner_module._grid_size

    def record(*args):
        raise _Stop(real_grid_size(*args))

    with mock.patch.object(wigner_module, "_grid_size", record):
        with pytest.raises(_Stop) as stop:
            shift_covariance_check(state, w)
    return stop.value.args[0]


class TestDefaultGrid:
    """Library lattices default to the grid the CLI picks for the same run."""

    def test_shift_check_lattices_use_the_unshifted_4n_grid(self):
        sizes = []
        real_lattice = wigner_module._lattice

        def record(table, size):
            sizes.append(size)
            return real_lattice(table, size)

        with mock.patch.object(wigner_module, "_lattice", record):
            shift_covariance_check(make_su11_cs(0.5, 64), WeylElement(2))
        assert sizes == [256, 256]

    def test_shift_check_grid_at_the_cli_budget_limit(self):
        state = make_number(0, 2048)
        assert _default_grid_of_shift_check(state, WeylElement(2)) == 8192

    def test_wigner_grid_past_the_truncation(self):
        # the grid `diskphase wigner --n 16 --n-max 40` prints
        assert wigner_grid(make_number(0, 16), n_max=40).theta.size == 128

    @pytest.mark.parametrize(
        "n, shift, n_max",
        [(5, 0, None), (16, 0, None), (16, 0, 40), (64, 0, 10), (64, 0, 200),
         (16, 3, None), (16, 40, None), (64, 40, None)],
    )
    def test_library_defaults_match_the_cli(self, n, shift, n_max):
        # `wigner_grid` of an unshifted state, or the shift check of its
        # shift, against `diskphase wigner --n n [--n-max] --weyl shift:...`
        argv = ["wigner", "--n", str(n), "--weyl", f"{shift}:0.4:0.1"]
        if n_max is not None:
            argv += ["--n-max", str(n_max)]
        cli_grid = _grid(build_parser().parse_args(argv), n + shift)
        if shift == 0:
            levels = n - 1 if n_max is None else n_max
            assert wigner_module._grid_size(n, levels, None) == cli_grid
        else:
            w = WeylElement(shift, 0.4, 0.1)
            assert _default_grid_of_shift_check(make_number(0, n), w) == cli_grid


def _one_table_lattice(state, n_max, grid_size):
    """The whole lattice from one full-width table, harmonics up to 2 n_max + 1."""
    m = wigner_module._grid_size(state.truncation, n_max, grid_size)
    table = wigner_module._coefficient_table(
        state.coeffs, range(n_max + 1), 2 * n_max + 1
    )
    return wigner_module._lattice(table, m)


def _traced_peak(call) -> int:
    """Bytes that `call` holds at its peak beyond what was live before it."""
    call()  # fill the per-grid caches first
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestBlocks:
    """Blocks of levels, each over its live harmonics, give the one-table bits."""

    @pytest.mark.parametrize(
        "state, n_max, grid_size",
        [
            (make_pi_superposition(0.7, 2.1, 512), None, None),
            (make_su11_cs(0.6 + 0.2j, 64), 80, None),  # past the truncation
            (make_bg(1.3j, 64), 40, 100),  # 2 n_max + 2 <= M < 4 n_max + 3
            (superpose([make_number(0, 48), make_number(5, 48)], [1, 1]), 60, 150),
        ],
    )
    @pytest.mark.parametrize("cells", [1, 5000, None])
    def test_blocked_lattice_bits(self, state, n_max, grid_size, cells, monkeypatch):
        if cells is not None:
            monkeypatch.setattr(wigner_module, "_BLOCK_CELLS", cells)
        got = wigner_grid(state, n_max, grid_size).values
        want = _one_table_lattice(
            state, state.truncation - 1 if n_max is None else n_max, grid_size
        )
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize(
        "state, w, n_max",
        [
            (make_su11_cs(0.5 - 0.3j, 128), WeylElement(3, 0.7, 0.2), None),
            (make_pi_superposition(0.6, 1.2, 64), WeylElement(0, -1.1), 70),
            (make_bg(0.8, 48), WeylElement(60, 0.4), None),  # levels past N - 1
        ],
    )
    def test_blocked_shift_check(self, state, w, n_max, monkeypatch):
        monkeypatch.setattr(wigner_module, "_BLOCK_CELLS", 1 << 40)
        whole = shift_covariance_check(state, w, n_max)
        monkeypatch.setattr(wigner_module, "_BLOCK_CELLS", 1000)
        assert shift_covariance_check(state, w, n_max) == whole

    def test_lattice_peak_near_its_output(self):
        state = make_pi_superposition(0.7, 2.1, 512)
        out = wigner_grid(state).values.nbytes
        assert _traced_peak(lambda: wigner_grid(state)) <= 1.25 * out

    def test_shift_check_holds_less_than_one_lattice(self):
        state = make_su11_cs(0.6, 512)
        w = WeylElement(2, 0.3, 0.1)
        out = wigner_grid(apply(w, state), grid_size=2048).values.nbytes
        assert _traced_peak(lambda: shift_covariance_check(state, w)) < out

    def test_level_past_the_truncation_builds_one_column(self):
        # a full-width row at n = 1e5 takes about 12 MB
        state = make_su11_cs(0.6, 64)
        assert _traced_peak(lambda: wigner(state, 10**5, 0.3)) < 64 * 1024
        assert wigner(state, 10**5, 0.3) == 0.0


class TestChebyshev:
    def test_base_cases(self):
        assert chebyshev_u(-2, 0.3) == 0.0
        assert chebyshev_u(-1, 0.3) == 0.0
        assert chebyshev_u(0, 0.3) == 1.0
        assert chebyshev_u(1, 0.3) == pytest.approx(0.6)

    def test_angle_identity(self):
        theta = 0.813
        for k in range(8):
            expected = math.sin((k + 1) * theta) / math.sin(theta)
            assert chebyshev_u(k, math.cos(theta)) == pytest.approx(expected)


class TestClosedForms:
    theta = midpoint_grid(64)

    def check(self, kind, params, state, n_top=16, atol=1e-10):
        for n in range(n_top):
            direct = wigner(state, n, self.theta)
            closed = closed_form(kind, params, n, self.theta)
            np.testing.assert_allclose(direct, closed, atol=atol)

    def test_coherent(self):
        z = 0.5 * np.exp(0.7j)
        self.check("su11_cs", {"z": z}, make_su11_cs(z, 64))

    def test_factorial_state(self):
        u = np.exp(0.3j)
        self.check("bg", {"u": u}, make_bg(u, 40))

    def test_blaschke(self):
        z = 0.5 * np.exp(0.4j)
        self.check("blaschke", {"z": z}, make_blaschke_state(z, 96))

    def test_superposition(self):
        z, tau = 0.6 * np.exp(0.9j), 3 * math.pi / 4
        self.check(
            "pi_superposition", {"z": z, "tau": tau},
            make_pi_superposition(z, tau, 96),
        )

    def test_number(self):
        self.check("number", {"m": 3}, make_number(3, 32))

    @pytest.mark.parametrize("m", [1, 2, 5, 8])
    def test_vacuum_plus(self, m):
        # the cosine row sits at m/2 for even m, (m+1)/2 for odd m
        self.check(
            "number_out",
            {"m": m},
            superpose([make_number(0, 32), make_number(m, 32)], [1, 1]),
        )

    def test_coherent_n0_omits_second_term(self):
        # at the lowest level only the even-harmonic term survives
        val = closed_form("su11_cs", {"z": 0.0}, 0, 0.3)
        assert val == pytest.approx(1.0 / (2 * np.pi))

    def test_factorial_quarter_turn(self):
        # vanishing cosine wipes out every level above the lowest
        u = 1.0
        assert closed_form("bg", {"u": u}, 0, np.pi / 2) == pytest.approx(
            1.0 / (2 * np.pi * np.i0(2.0))
        )
        for n in (1, 2, 5):
            assert closed_form("bg", {"u": u}, n, np.pi / 2) == pytest.approx(0.0)

    @pytest.mark.parametrize("u", [0.3, 1.0, 2.0, 0.5 + 0.5j, 3j, 7.5])
    def test_factorial_normalisation_matches_scipy_i0(self, u):
        from scipy.special import i0

        # level 0 is the constant 1/(2 pi I0(2|u|)) whatever the angle
        val = closed_form("bg", {"u": u}, 0, self.theta)
        np.testing.assert_allclose(
            val, 1.0 / (2.0 * np.pi * i0(2.0 * abs(u))), rtol=1e-15, atol=0.0
        )

    def test_unknown_tag(self):
        with pytest.raises(SpecError):
            closed_form("squeezed", {}, 0, 0.0)


class TestOuterDetermination:
    def test_outer_regime_function_from_outer_part(self):
        """In the zero-free regime the lattice function is fully rebuilt from
        the minimum-phase coefficients (global phase drops out of S)."""
        from diskphase import factorize, raw_state

        state = make_pi_superposition(0.5, 2.0, 64)  # |cot(tau/2)| > 0.5
        fac = factorize(state, grid_size=512)
        assert fac.outer_defect < 1e-8
        rebuilt = raw_state(np.conj(fac.outer_coeffs))
        theta = midpoint_grid(64)
        for n in range(12):
            np.testing.assert_allclose(
                wigner(rebuilt, n, theta), wigner(state, n, theta), atol=1e-8
            )

    def test_identical_inputs_identical_lattice(self):
        state = make_su11_cs(0.45 + 0.3j, 32)
        a = wigner_grid(state, n_max=12, grid_size=128)
        b = wigner_grid(state, n_max=12, grid_size=128)
        np.testing.assert_array_equal(a.values, b.values)


class TestShiftCovariance:
    def test_pure_shift(self):
        res = shift_covariance_check(make_su11_cs(0.5, 48), WeylElement(2), n_max=20)
        assert res < 1e-10

    def test_rotation(self):
        res = shift_covariance_check(
            make_bg(1.0, 40), WeylElement(0, 0.9), n_max=20
        )
        assert res < 1e-10

    def test_identity(self):
        res = shift_covariance_check(make_blaschke_state(0.5, 32), IDENTITY, n_max=12)
        assert res == 0.0

    def test_full_element(self):
        res = shift_covariance_check(
            make_pi_superposition(0.5, 2.0, 40), WeylElement(3, -1.2, 0.8), n_max=24
        )
        assert res < 1e-10
