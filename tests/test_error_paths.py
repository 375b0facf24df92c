"""Precondition violations raise the right exception types."""

import numpy as np
import pytest

from diskphase import (
    DomainError,
    IDENTITY,
    SpecError,
    TruncationError,
    WeylElement,
    apply_adjoint,
    bg_function,
    bg_shifted,
    blaschke_factor,
    boundary,
    compute_phi,
    laplace_to_disk,
    make_number,
    make_su11_cs,
    superpose,
    wigner,
)


def test_padded_cannot_shrink():
    with pytest.raises(TruncationError):
        make_number(0, 8).padded(4)


def test_adjoint_cannot_empty_state():
    with pytest.raises(DomainError):
        apply_adjoint(WeylElement(4), make_number(0, 4))


def test_laplace_needs_interior_point():
    ufn = bg_function(make_number(0, 8))
    with pytest.raises(DomainError):
        laplace_to_disk(ufn, 1.2)


def test_wigner_level_nonnegative():
    with pytest.raises(DomainError):
        wigner(make_number(0, 4), -1, 0.0)


def test_shifted_integral_nonnegative():
    with pytest.raises(DomainError):
        bg_shifted(make_number(0, 4), -1, 1.0)


def test_phi_length_capped_at_nyquist():
    samples = boundary(make_su11_cs(0.5, 16), 64)
    with pytest.raises(SpecError):
        compute_phi(samples, 64)


def test_blaschke_factor_inside_disk():
    with pytest.raises(DomainError):
        blaschke_factor(1.0 + 0j, 8)


def test_number_index_nonnegative():
    with pytest.raises(DomainError):
        make_number(-1, 4)


def test_superpose_shape_mismatch():
    with pytest.raises(SpecError):
        superpose([make_number(0, 4)], [1.0, 2.0])


def test_identity_element_is_neutral_constant():
    assert IDENTITY.m == 0 and IDENTITY.beta == 0.0 and IDENTITY.gamma == 0.0


def test_boundary_only_complexish_grid():
    with pytest.raises(DomainError):
        boundary(make_number(0, 8), 24)  # not a power of two
