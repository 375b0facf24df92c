"""Number-phase shift semigroup: composition, state action, shifted states.

An element W(m, beta, gamma) raises every occupation number by m, rotates
the number phase by beta and applies a global phase gamma. The action is
isometric but not invertible (nothing maps back below level m), hence a
semigroup. Shifts auto-extend the truncation so the isometry also holds at
the data level; the tail mass is untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disk import eval_Z
from .errors import DomainError
from .factorization import factorize
from .series import series_eval
from .states import FockState


def wrap_angle(x: float) -> float:
    """Canonicalise an angle to (-pi, pi]."""
    return math.pi - (math.pi - x) % (2.0 * math.pi)


@dataclass(frozen=True)
class WeylElement:
    """Shift m >= 0 plus number rotation and global phase, both in (-pi, pi]."""

    m: int
    beta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.m < 0:
            raise DomainError("shift m must be non-negative")
        object.__setattr__(self, "beta", wrap_angle(float(self.beta)))
        object.__setattr__(self, "gamma", wrap_angle(float(self.gamma)))


IDENTITY = WeylElement(0, 0.0, 0.0)


def compose(w1: WeylElement, w2: WeylElement) -> WeylElement:
    """Product law: (m1+m2, b1+b2, g1+g2+m2*b1), canonicalised."""
    return WeylElement(
        w1.m + w2.m,
        w1.beta + w2.beta,
        w1.gamma + w2.gamma + w2.m * w1.beta,
    )


def apply(w: WeylElement, state: FockState) -> FockState:
    """g_{n+m} = e^{i beta n + i gamma} f_n, with the truncation extended by m."""
    n = state.truncation
    out = np.zeros(n + w.m, dtype=complex)
    phases = np.exp(1j * (w.beta * np.arange(n) + w.gamma))
    out[w.m :] = phases * state.coeffs
    return FockState(out, state.norm_defect)


def apply_adjoint(w: WeylElement, state: FockState) -> FockState:
    """Adjoint action: drop the first m coefficients, undo both phases.

    Left-inverse of `apply`; in the other order it annihilates whatever
    lived on the first m levels (the non-unitarity witness).
    """
    kept = state.coeffs[w.m :]
    if kept.size == 0:
        raise DomainError("adjoint action would empty the coefficient vector")
    phases = np.exp(-1j * (w.beta * np.arange(kept.size) + w.gamma))
    survived = float(np.sum(np.abs(kept) ** 2))
    lost = state.norm_squared() - survived
    return FockState(phases * kept, state.norm_defect + max(0.0, lost))


def shift(state: FockState, m: int) -> FockState:
    """Pure occupation shift (beta = gamma = 0)."""
    return apply(WeylElement(m), state)


_SAMPLE_POINTS = np.array(
    [r * np.exp(2j * np.pi * k / 7) for r in (0.2, 0.45, 0.7) for k in range(7)]
)


@dataclass(frozen=True)
class TransformationDiagnostics:
    """Max residuals of the three transformation laws at the sample points."""

    analytic_residual: float
    phi_residual: float
    inner_residual: float


def transformation_check(
    w: WeylElement, state: FockState
) -> TransformationDiagnostics:
    """Verify how the disk function, its log-spectrum and its inner part map.

    Checks Z(g; z) = e^{-i gamma} z^m Z(f; z e^{-i beta}), the invariance of
    the log-spectrum up to argument rotation, and the matching law for the
    inner part, at 21 interior points on the circles of radius 0.2, 0.45
    and 0.7.
    """
    g = apply(w, state)
    zs = _SAMPLE_POINTS
    rotated = zs * np.exp(-1j * w.beta)

    lhs = eval_Z(g, zs)
    rhs = np.exp(-1j * w.gamma) * zs**w.m * eval_Z(state, rotated)
    analytic = float(np.max(np.abs(lhs - rhs)))

    fac_f = factorize(state)
    fac_g = factorize(g)
    phi = float(
        np.max(
            np.abs(
                series_eval(fac_g.phi.phi, zs) - series_eval(fac_f.phi.phi, rotated)
            )
        )
    )
    inner = float(
        np.max(
            np.abs(
                series_eval(fac_g.inner_coeffs, zs)
                - np.exp(-1j * w.gamma)
                * zs**w.m
                * series_eval(fac_f.inner_coeffs, rotated)
            )
        )
    )
    return TransformationDiagnostics(analytic, phi, inner)


def cs_eigen_residual(state: FockState, m: int, z0: complex) -> float:
    """Residual of the shifted-coherent-state eigenvalue relation.

    The lowering operator, corrected by the rank-one term that re-injects
    the coefficient at level m one slot below, has the shifted state as an
    eigenvector with eigenvalue z0. Checked coefficientwise.
    """
    f = state.coeffs
    lhs = f[1:].copy()
    if m >= 1 and m < f.size:
        lhs[m - 1] -= f[m]
    return float(np.max(np.abs(lhs - z0 * f[:-1])))


def bg_eigen_residual(state: FockState, m: int, u0: complex) -> float:
    """Residual of the shifted-factorial-state eigenvalue relation.

    Lowering composed with (number - m) reproduces u0 times the state.
    """
    f = state.coeffs
    n = np.arange(1, f.size)
    lhs = (n - m) * f[1:]
    return float(np.max(np.abs(lhs - u0 * f[:-1])))
