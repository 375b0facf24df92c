"""Constructor catalog: values, normalisation bookkeeping, error paths."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diskphase import (
    DegenerateSuperpositionError,
    FockState,
    IllConditionedError,
    SpecError,
    TruncationError,
    make_bg,
    make_blaschke_state,
    make_number,
    make_pi_superposition,
    make_su11_cs,
    number_distribution,
    pi_superposition_norm,
    raw_state,
    shift,
    superpose,
)
from tests.conftest import normalized_states


class TestNumber:
    def test_vacuum(self):
        assert np.array_equal(make_number(0, 4).coeffs, [1, 0, 0, 0])

    def test_basis_vector(self):
        assert np.array_equal(make_number(2, 4).coeffs, [0, 0, 1, 0])

    def test_out_of_range(self):
        with pytest.raises(TruncationError):
            make_number(4, 4)

    def test_defect_zero(self):
        assert make_number(3, 8).norm_defect == 0.0


class TestCoherent:
    def test_vacuum_limit(self):
        np.testing.assert_allclose(make_su11_cs(0.0, 3).coeffs, [1, 0, 0])

    def test_half_coefficients(self):
        s = make_su11_cs(0.5, 3)
        root = math.sqrt(0.75)
        np.testing.assert_allclose(s.coeffs, [root, root * 0.5, root * 0.25])

    def test_lowering_relation(self):
        # cumprod construction keeps the geometric ratio at rounding level
        s = make_su11_cs(0.3 + 0.4j, 40)
        np.testing.assert_allclose(
            s.coeffs[1:], (0.3 + 0.4j) * s.coeffs[:-1], rtol=0, atol=1e-15
        )

    def test_edge_rejected(self):
        with pytest.raises(IllConditionedError):
            make_su11_cs(0.9999999, 64)

    def test_defect_is_tail(self):
        s = make_su11_cs(0.8, 32)
        assert s.norm_defect == pytest.approx(0.8**64, rel=1e-12)
        assert s.norm_squared() + s.norm_defect == pytest.approx(1.0, abs=1e-12)


class TestFactorialState:
    def test_vacuum(self):
        np.testing.assert_allclose(make_bg(0.0, 2).coeffs, [1, 0])

    def test_ratios(self):
        s = make_bg(1.0, 20)
        assert s.coeffs[1] / s.coeffs[0] == pytest.approx(1.0)
        assert s.coeffs[2] / s.coeffs[0] == pytest.approx(0.5)

    def test_norm_against_series_oracle(self):
        # independent oracle: I0(2) = sum 1/(n!)^2
        i0_series = sum(1.0 / math.factorial(n) ** 2 for n in range(40))
        s = make_bg(1.0, 20)
        total = sum(abs(1.0 / math.factorial(n)) ** 2 for n in range(20)) / i0_series
        assert s.norm_squared() == pytest.approx(total, abs=1e-14)
        assert abs(s.norm_squared() - 1.0) < 1e-12

    def test_tail_bound_enforced(self):
        with pytest.raises(TruncationError):
            make_bg(20.0, 16)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_normalisation_overflow_refused(self):
        # the tail bound holds at N = 2048, but I0(800) is past the float range
        with pytest.raises(IllConditionedError):
            make_bg(400.0, 2048)
        assert make_bg(354.0, 2048).norm_squared() == pytest.approx(1.0)

    @pytest.mark.parametrize("u0", [0.3, 1.0, 2.0, 0.5 + 0.5j, 3j, 7.5])
    def test_normalisation_matches_scipy_i0(self, u0):
        from scipy.special import i0

        # c_0 is the normalisation 1/sqrt(I0(2|u0|)) itself
        c0 = make_bg(u0, 96).coeffs[0]
        assert c0.imag == 0.0
        assert c0.real == pytest.approx(1.0 / math.sqrt(i0(2.0 * abs(u0))), rel=1e-15)


class TestBlaschkeState:
    def test_reduces_to_one_photon(self):
        np.testing.assert_allclose(make_blaschke_state(0.0, 3).coeffs, [0, 1, 0])

    def test_half_values(self):
        s = make_blaschke_state(0.5, 4)
        np.testing.assert_allclose(s.coeffs, [-0.5, 0.75, 0.375, 0.1875])

    def test_norm_budget(self):
        s = make_blaschke_state(0.6, 24)
        expected_defect = (1 - 0.36) * 0.6 ** (2 * 23)
        assert s.norm_defect == pytest.approx(expected_defect, rel=1e-12)
        assert s.norm_squared() + s.norm_defect == pytest.approx(1.0, abs=1e-12)


class TestPiSuperposition:
    def test_even_terms_only_at_tau_zero(self):
        s = make_pi_superposition(0.5, 0.0, 8)
        assert np.all(s.coeffs[1::2] == 0)
        scale = 2.0 / math.sqrt(pi_superposition_norm(0.5, 0.0)) * math.sqrt(0.75)
        np.testing.assert_allclose(s.coeffs[::2], scale * 0.25 ** np.arange(4))

    def test_norm_constant_quarter_turn(self):
        assert pi_superposition_norm(0.5, math.pi / 2) == pytest.approx(2.0)

    def test_value_at_origin(self):
        # Z at 0 is conj(f_0) = A cos(tau/2) with the printed constant A
        z0, tau = 0.5, math.pi / 3
        s = make_pi_superposition(z0, tau, 16)
        amp = (
            2.0
            / math.sqrt(pi_superposition_norm(z0, tau))
            * math.sqrt(1 - z0**2)
            * np.exp(-1j * tau / 2)
        )
        assert np.conj(s.coeffs[0]) == pytest.approx(amp * math.cos(tau / 2))

    def test_parity_pattern(self):
        s = make_pi_superposition(0.1, math.pi, 8)
        # at tau = pi the even coefficients cancel
        assert np.all(np.abs(s.coeffs[::2]) < 1e-15)
        assert np.all(np.abs(s.coeffs[1::2]) > 0)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSuperpositionError):
            make_pi_superposition(1e-9, math.pi, 8)

    @pytest.mark.parametrize("tau", [0.0, 1.0, math.pi / 2, 3 * math.pi / 4])
    def test_unit_norm(self, tau):
        s = make_pi_superposition(0.55 * np.exp(0.4j), tau, 128)
        assert s.norm_squared() + s.norm_defect == pytest.approx(1.0, abs=1e-10)


class TestSuperpose:
    def test_vacuum_plus_number(self):
        out = superpose([make_number(0, 6), make_number(3, 6)], [1, 1])
        assert out.coeffs[0] == pytest.approx(1 / math.sqrt(2))
        assert out.coeffs[3] == pytest.approx(1 / math.sqrt(2))

    def test_blaschke_from_shifted_coherent(self):
        z0 = 0.5
        cs = make_su11_cs(z0, 64)
        combo = superpose([shift(cs, 1), cs], [1.0, -np.conj(z0)])
        expected = make_blaschke_state(z0, 65)
        np.testing.assert_allclose(combo.coeffs, expected.coeffs, atol=1e-12)

    def test_single_state_identity(self):
        s = make_su11_cs(0.4j, 12)
        out = superpose([s], [0.5j])
        np.testing.assert_allclose(np.abs(out.coeffs), np.abs(s.coeffs), atol=1e-12)

    def test_zero_norm_rejected(self):
        s = make_number(1, 4)
        with pytest.raises(DegenerateSuperpositionError):
            superpose([s, s], [1.0, -1.0])

    @pytest.mark.parametrize("a", [1e-13, 1e-300, 1e-320, 5e-324, 1e300])
    def test_uniformly_scaled_amplitudes_are_not_degenerate(self, a):
        # degeneracy is relative to sum |a_i| |f_i|; a subnormal norm is
        # rescaled by a power of two like an overflowing one
        parts = [make_number(0, 6), make_number(3, 6)]
        expected = superpose(parts, [1.0, 1.0]).coeffs
        got = superpose(parts, [a, a]).coeffs
        np.testing.assert_allclose(got, expected, rtol=1e-15, atol=0)
        got = superpose(parts[1:], [a]).coeffs
        np.testing.assert_allclose(got, np.eye(6)[3], rtol=1e-15, atol=0)

    @pytest.mark.parametrize("a", [1e-320, 1e-13, 1.0, 1e300])
    @pytest.mark.parametrize("rel", [0.0, 1e-14])
    def test_relative_cancellation_is_degenerate(self, a, rel):
        s = make_su11_cs(0.5, 8)
        with pytest.raises(DegenerateSuperpositionError):
            superpose([s, s], [a, -a * (1.0 + rel)])

    def test_ordinary_amplitudes_keep_their_bits(self):
        parts = [make_su11_cs(0.5, 8), make_number(3, 8)]
        combo = 0.3 * parts[0].coeffs + 0.7j * parts[1].coeffs
        np.testing.assert_array_equal(
            superpose(parts, [0.3, 0.7j]).coeffs, combo / np.linalg.norm(combo)
        )


class TestNumberDistribution:
    def test_number_state(self):
        np.testing.assert_allclose(
            number_distribution(make_number(2, 5)), [0, 0, 1, 0, 0]
        )

    def test_coherent_geometric(self):
        p = number_distribution(make_su11_cs(0.5, 10))
        np.testing.assert_allclose(p, 0.75 * 0.25 ** np.arange(10), rtol=1e-12)

    def test_blaschke_values(self):
        p = number_distribution(make_blaschke_state(0.5, 6))
        assert p[0] == pytest.approx(0.25)
        assert p[1] == pytest.approx(0.5625)


class TestInvariants:
    @given(normalized_states())
    def test_norm_budget_random(self, state):
        assert state.norm_squared() + state.norm_defect == pytest.approx(
            1.0, abs=1e-10
        )

    @given(
        st.complex_numbers(max_magnitude=0.85, allow_nan=False, allow_infinity=False),
        st.integers(4, 64),
    )
    def test_constructor_norm_budget(self, z0, n):
        s = make_su11_cs(z0, n)
        assert s.norm_squared() + s.norm_defect == pytest.approx(1.0, abs=1e-10)

    def test_immutable(self):
        s = make_number(0, 4)
        with pytest.raises(ValueError):
            s.coeffs[0] = 2.0

    def test_overfull_rejected(self):
        with pytest.raises(SpecError):
            FockState(np.array([1.0, 0.5]), 0.0)

    @pytest.mark.parametrize(
        "coeffs,defect",
        [
            ([np.nan, 0.5], 0.0),
            ([0.5, complex(0.0, np.inf)], 0.0),
            ([-np.inf], 0.0),
            ([0.5], np.nan),
            ([0.5], np.inf),
        ],
    )
    def test_non_finite_rejected(self, coeffs, defect):
        with pytest.raises(SpecError):
            FockState(np.array(coeffs), defect)

    def test_raw_state_non_finite_rejected(self):
        with pytest.raises(SpecError):
            raw_state(np.array([np.nan, 0.5]))

    def test_raw_state_defect(self):
        s = raw_state(np.array([0.6, 0.0]))
        assert s.norm_defect == pytest.approx(0.64)
