"""Truncated oscillator states and their elementary statistics.

A state is stored as the finite coefficient vector f_0..f_{N-1} of its
number-basis expansion, together with the analytically known tail mass
``norm_defect`` ( = 1 - sum |f_n|^2 for the exact, untruncated state).
Geometric-sequence constructors build coefficients by cumulative products
so that ratio identities such as f_{n+1} = z0 * f_n hold bitwise.

All values are immutable after construction and every function here is
pure, so states can be shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSuperpositionError,
    DomainError,
    IllConditionedError,
    SpecError,
    TruncationError,
)

DEFAULT_TRUNCATION = 256

# Constructors may exceed unit norm by at most this much (rounding slack).
_NORM_SLACK = 1e-12
# Coherent-state labels closer than this to the unit circle are refused.
_CS_EDGE = 1e-6


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class FockState:
    """Finite complex coefficient vector with tail-mass metadata."""

    coeffs: np.ndarray
    norm_defect: float = 0.0

    def __post_init__(self) -> None:
        c = _frozen(np.atleast_1d(self.coeffs))
        if c.ndim != 1 or c.size < 1:
            raise SpecError("coefficient vector must be non-empty and 1-d")
        object.__setattr__(self, "coeffs", c)
        if not np.all(np.isfinite(c)):
            raise SpecError("coefficients must be finite")
        if not math.isfinite(self.norm_defect):
            raise SpecError("norm_defect must be finite")
        if self.norm_defect < -_NORM_SLACK:
            raise SpecError("norm_defect must be non-negative")
        if float(np.sum(np.abs(c) ** 2)) > 1.0 + _NORM_SLACK:
            raise SpecError("coefficients exceed unit norm")

    @property
    def truncation(self) -> int:
        return self.coeffs.size

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def padded(self, truncation: int) -> "FockState":
        """Same state viewed at a larger truncation (zero-filled)."""
        if truncation < self.truncation:
            raise TruncationError("padding cannot shrink the truncation")
        if truncation == self.truncation:
            return self
        c = np.zeros(truncation, dtype=complex)
        c[: self.truncation] = self.coeffs
        return FockState(c, self.norm_defect)


def _geometric(ratio: complex, count: int, scale: complex = 1.0) -> np.ndarray:
    """[scale, scale*ratio, ...] via cumprod, so consecutive ratios are exact."""
    steps = np.full(count, ratio, dtype=complex)
    if count:
        steps[0] = scale
    return np.cumprod(steps)


def make_number(m: int, truncation: int = DEFAULT_TRUNCATION) -> FockState:
    """Number state |m>."""
    if m < 0:
        raise DomainError("number-state index must be non-negative")
    if m >= truncation:
        raise TruncationError(f"m={m} does not fit in truncation {truncation}")
    c = np.zeros(truncation, dtype=complex)
    c[m] = 1.0
    return FockState(c, 0.0)


def make_su11_cs(z0: complex, truncation: int = DEFAULT_TRUNCATION) -> FockState:
    """Coherent state with geometric coefficients sqrt(1-|z0|^2) z0^n.

    These are the eigenvectors of the lowering ladder operator: dropping
    f_0 and dividing by z0 reproduces the same sequence.
    """
    z0 = complex(z0)
    r = abs(z0)
    if r > 1.0 - _CS_EDGE:
        raise IllConditionedError(
            f"|z0|={r:.6g} too close to 1 for a faithful truncation"
        )
    c = _geometric(z0, truncation, scale=math.sqrt(1.0 - r * r))
    return FockState(c, r ** (2 * truncation))


def make_bg(u0: complex, truncation: int = DEFAULT_TRUNCATION) -> FockState:
    """State with coefficients u0^n / n!, normalised by I0(2|u0|)."""
    u0 = complex(u0)
    a = abs(u0)
    # tail bound |u0|^N / N! < 1e-14
    if truncation * math.log(max(a, 1e-300)) - math.lgamma(truncation + 1) > math.log(
        1e-14
    ):
        raise TruncationError(
            f"truncation {truncation} too small for |u0|={a:.4g} (tail bound)"
        )
    # I0(2|u0|) grows as e^{2|u0|}, past the float range beyond ln(max) = 709.78
    if 2.0 * a > math.log(np.finfo(float).max):
        raise IllConditionedError(f"|u0|={a:.4g} too large: I0(2|u0|) overflows")
    n = np.arange(truncation, dtype=float)
    ratios = np.ones(truncation, dtype=complex)
    ratios[1:] = u0 / n[1:]
    c = np.cumprod(ratios) / math.sqrt(np.i0(2.0 * a))
    defect = max(0.0, 1.0 - float(np.sum(np.abs(c) ** 2)))
    return FockState(c, defect)


def make_blaschke_state(z0: complex, truncation: int = DEFAULT_TRUNCATION) -> FockState:
    """State whose disk function is the elementary all-pass factor (z-z0)/(1-z0* z)."""
    z0 = complex(z0)
    r = abs(z0)
    if r >= 1.0:
        raise DomainError("|z0| must be < 1")
    c = np.zeros(truncation, dtype=complex)
    c[0] = -np.conj(z0)
    c[1:] = _geometric(z0, truncation - 1, scale=1.0 - r * r)
    return FockState(c, (1.0 - r * r) * r ** (2 * (truncation - 1)))


def pi_superposition_norm(z0: complex, tau: float) -> float:
    """Normalisation constant of the |z0> + e^{i tau} |-z0> superposition."""
    r2 = abs(z0) ** 2
    return 2.0 * (1.0 + (1.0 - r2) / (1.0 + r2) * math.cos(tau))


def make_pi_superposition(
    z0: complex, tau: float, truncation: int = DEFAULT_TRUNCATION
) -> FockState:
    """Normalised superposition of the coherent states at z0 and -z0."""
    z0 = complex(z0)
    r = abs(z0)
    if r >= 1.0:
        raise DomainError("|z0| must be < 1")
    norm = pi_superposition_norm(z0, tau)
    if norm <= 1e-12:
        raise DegenerateSuperpositionError(
            "superposition amplitudes cancel (normalisation ~ 0)"
        )
    n = np.arange(truncation)
    weights = 1.0 + np.exp(1j * tau) * (-1.0) ** n
    c = weights * _geometric(z0, truncation, scale=math.sqrt((1.0 - r * r) / norm))
    # geometric tail of |1 + e^{i tau} (-1)^n|^2 r^{2n}, summed in closed form
    r2n = r ** (2 * truncation)
    tail = (
        2.0 * r2n
        + 2.0
        * math.cos(tau)
        * (-1.0) ** truncation
        * r2n
        * (1.0 - r * r)
        / (1.0 + r * r)
    ) / norm
    return FockState(c, max(0.0, tail))


def raw_state(coeffs: np.ndarray) -> FockState:
    """Wrap an explicit coefficient vector; tail mass is whatever is missing."""
    c = np.asarray(coeffs, dtype=complex)
    total = float(np.sum(np.abs(c) ** 2))
    if total > 1.0 + _NORM_SLACK:
        raise SpecError("raw coefficients exceed unit norm")
    return FockState(c, max(0.0, 1.0 - total))


def superpose(states: list[FockState], amplitudes: list[complex]) -> FockState:
    """Coefficientwise linear combination, renormalised to unit norm.

    Non-finite amplitudes are a SpecError. When the norm of the plain sum
    is not a normal positive double (it overflows, or the amplitudes are
    subnormal), the sum is taken again with the amplitudes scaled by an
    exact power of two, which the renormalisation undoes. The combination
    is degenerate when its norm is at most 1e-12 of sum |a_i| |f_i|, so
    the decision does not depend on the amplitudes' overall size.
    """
    if not states or len(states) != len(amplitudes):
        raise SpecError("need equally many states and amplitudes")
    amplitudes = [complex(a) for a in amplitudes]
    if not all(math.isfinite(a.real) and math.isfinite(a.imag) for a in amplitudes):
        raise SpecError("superposition amplitudes must be finite")
    n = max(s.truncation for s in states)

    def combination(amps: list[complex]) -> tuple[np.ndarray, float]:
        combo = np.zeros(n, dtype=complex)
        for s, a in zip(states, amps):
            combo[: s.truncation] += a * s.coeffs
        return combo, float(np.linalg.norm(combo))

    # 2^e times the largest real or imaginary part lies in [1/2, 1)
    e = -math.frexp(max(max(abs(a.real), abs(a.imag)) for a in amplitudes))[1]
    scaled = [complex(math.ldexp(a.real, e), math.ldexp(a.imag, e)) for a in amplitudes]
    with np.errstate(over="ignore", invalid="ignore"):
        combo, nrm = combination(amplitudes)
    if not np.finfo(float).tiny <= nrm < math.inf:
        combo, nrm = combination(scaled)
        e = 0
    reference = sum(abs(a) * np.linalg.norm(s.coeffs) for s, a in zip(states, scaled))
    if math.ldexp(nrm, e) <= 1e-12 * reference:
        raise DegenerateSuperpositionError("superposition has (near) zero norm")
    return FockState(combo / nrm, 0.0)


def number_distribution(state: FockState) -> np.ndarray:
    """P(n) = |f_n|^2; sums to 1 - norm_defect."""
    return np.abs(state.coeffs) ** 2
