"""Output checks for the benchmark, computed apart from the library.

Nothing here imports diskphase. Every expected value comes from a closed
form, from the benchmark's own direct sums, or from a property the method
must have. Tolerances are the acceptance catalog's pinned values, repeated
as literals so that a change of a library constant cannot loosen a check.

A check raises `CheckError` with a message naming what is wrong; the
runner adds the operation's name.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import eval_chebyu, gammaln, i0

TOL_RECON = 1e-8
TOL_RECON_BOUNDARY_ZERO = 1e-5
TOL_DEFECT_OUTER = 1e-6
TOL_DEFECT_ZEROS = 1e-4
TOL_INNER_BOUNDARY = 1e-6
TOL_ZERO_BLASCHKE = 1e-8
TOL_ZERO_SUPERPOSITION = 1e-6
TOL_WEYL_COMPOSE = 1e-12
TOL_LAPLACE_ROUNDTRIP = 1e-6
TOL_CONVOLUTION = 1e-6
TOL_NUMBER_ATOMS = 1e-13
TOL_MARGINAL_NUMBER = 1e-8
TOL_MARGINAL_PHASE = 1e-6
TOL_CLOSED_FORM = 1e-9
TOL_SHIFT_COVARIANCE = 1e-10

# Rows of a direct-sum matrix built at once, to keep the checks' memory
# far below the library's own peak (peak_rss_mb measures the library).
_CHUNK_CELLS = 1 << 19
# closed-form rows below this everywhere are taken as zero
_NEGLIGIBLE = 1e-13


class CheckError(AssertionError):
    """An output differs from its oracle by more than the pinned tolerance."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def within(name: str, residual: float, tol: float) -> None:
    require(
        bool(residual <= tol), f"{name}: residual {residual:.3e} exceeds {tol:.0e}"
    )


# --- independent evaluations --------------------------------------------------


def midpoint_angles(grid: int) -> np.ndarray:
    return -np.pi + (2 * np.arange(grid) + 1) * np.pi / grid


def circle_sum(coeffs: np.ndarray, grid: int) -> np.ndarray:
    """sum_n coeffs[n] e^{i n theta_j} on the midpoint grid, by direct sums."""
    coeffs = np.asarray(coeffs, dtype=complex)
    theta = midpoint_angles(grid)
    n = np.arange(coeffs.size)
    rows = max(1, _CHUNK_CELLS // max(1, coeffs.size))
    out = np.empty(grid, dtype=complex)
    for start in range(0, grid, rows):
        block = theta[start : start + rows]
        out[start : start + rows] = np.exp(1j * np.outer(block, n)) @ coeffs
    return out


def taylor_sum(coeffs: np.ndarray, z: complex) -> complex:
    """sum_n coeffs[n] z^n by explicit powers (no Horner, no polyval)."""
    coeffs = np.asarray(coeffs, dtype=complex)
    return complex(np.sum(coeffs * complex(z) ** np.arange(coeffs.size)))


def factorial_sum(coeffs: np.ndarray, u: complex) -> complex:
    """sum_n coeffs[n] u^n / n! with the weights formed in logarithms."""
    coeffs = np.asarray(coeffs, dtype=complex)
    n = np.arange(coeffs.size)
    u = complex(u)
    if u == 0:
        return complex(coeffs[0])
    weights = np.exp(n * np.log(u) - gammaln(n + 1.0))
    return complex(np.sum(coeffs * weights))


def _power_over_factorial(c: np.ndarray, k: int) -> np.ndarray:
    """c^k / k! for real c, without forming k! (which overflows past 170)."""
    if k == 0:
        return np.ones_like(c)
    with np.errstate(divide="ignore"):
        mag = np.exp(k * np.log(np.abs(c)) - gammaln(k + 1.0))
    return mag * np.sign(c) ** k


def closed_form_rows(kind: str, params: dict, levels: np.ndarray, theta: np.ndarray):
    """Printed closed forms of the joint function, one row per level, with
    U_k from scipy's eval_chebyu (U_k = 0 for k < 0).

    Rows whose closed form is bounded by _NEGLIGIBLE everywhere (|U_k| <=
    k + 1) are returned as zeros without evaluating U_k; that changes the
    expected value by less than 1e-4 of the tolerance.
    """
    levels = np.asarray(levels)
    th = np.asarray(theta)[None, :]
    out = np.zeros((levels.size, th.size))
    if kind == "number_out":
        m = int(params["m"])
        k = m // 2 if m % 2 == 0 else (m + 1) // 2
        n = levels[:, None]
        return ((n == 0) + (n == m) + 2.0 * (n == k) * np.cos(m * th)) / (4.0 * np.pi)
    if kind == "bg":
        u = complex(params["u"])
        a, phase = abs(u), math.atan2(u.imag, u.real)
        c = 2.0 * a * np.cos(theta - phase)
        for row, level in enumerate(levels):
            val = _power_over_factorial(c, 2 * int(level))
            if level > 0:
                val = val + _power_over_factorial(c, 2 * int(level) - 1)
            out[row] = val
        return out / (2.0 * np.pi * i0(2.0 * a))
    z = complex(params["z"])
    r, phase = abs(z), math.atan2(z.imag, z.real)
    if kind == "su11_cs":
        scale = (1.0 - r * r) / (2.0 * np.pi)
        bound = scale * r ** np.maximum(2 * levels - 1, 0) * (4 * levels + 1)
        keep = bound >= _NEGLIGIBLE
        n = levels[keep][:, None]
        x = np.cos(th - phase)
        val = r ** (2 * n) * eval_chebyu(2 * n, x)
        val = val + np.where(
            n > 0, r ** np.maximum(2 * n - 1, 0) * _cheb(2 * n - 1, x), 0.0
        )
        out[keep] = scale * val
        return out
    if kind == "pi_superposition":
        tau = float(params["tau"])
        r2 = r * r
        norm = 2.0 * (1.0 + (1.0 - r2) / (1.0 + r2) * math.cos(tau))
        scale = 4.0 * (1.0 - r2) / norm / (2.0 * np.pi)
        bound = scale * r ** (2 * np.maximum(levels - 1, 0)) * (2 * levels + 1) * 2.0
        keep = bound >= _NEGLIGIBLE
        n = levels[keep][:, None]
        x = np.cos(2.0 * (th - phase))
        first = math.cos(tau / 2.0) ** 2 * r ** (2 * n) * eval_chebyu(n, x)
        second = (
            r2 * math.sin(tau / 2.0) ** 2 - r * math.sin(tau) * np.sin(th - phase)
        ) * r ** (2 * np.maximum(n - 1, 0)) * _cheb(n - 1, x)
        out[keep] = scale * (first + np.where(n >= 1, second, 0.0))
        return out
    raise ValueError(f"no closed form for {kind!r}")


def _cheb(k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """U_k(x) with U_k = 0 for negative k (integer k, so scipy recurs exactly)."""
    k = np.broadcast_to(k, np.broadcast_shapes(np.shape(k), np.shape(x)))
    return np.where(k >= 0, eval_chebyu(np.maximum(k, 0), x), 0.0)


def pi_superposition_zero(z0: complex, tau: float) -> complex:
    """Closed-form disk zero i cot(tau/2) / conj(z0) of |z0> + e^{i tau}|-z0>."""
    return 1j / math.tan(tau / 2.0) / np.conj(complex(z0))


# --- factorisation ------------------------------------------------------------


def _match_zeros(found, expected, tol: float) -> None:
    """Every expected (gamma, p) found once, with multiplicity, within tol."""
    flat_found = [complex(g) for g, p in found for _ in range(int(p))]
    flat_exp = [complex(g) for g, p in expected for _ in range(int(p))]
    require(
        len(flat_found) == len(flat_exp),
        f"zeros: found {len(flat_found)} with multiplicity, expected {len(flat_exp)}",
    )
    worst = 0.0
    remaining = list(flat_found)
    for g in flat_exp:
        j = int(np.argmin([abs(g - h) for h in remaining]))
        worst = max(worst, abs(g - remaining.pop(j)))
    within("zeros", worst, tol)


def check_factorization(
    outer: np.ndarray,
    inner: np.ndarray,
    zeros,
    monomial_degree: int,
    outer_defect: float | None,
    coeffs: np.ndarray,
    expected_zeros=(),
    zero_tol: float = TOL_ZERO_BLASCHKE,
    boundary_zero: bool = False,
) -> None:
    """All factorisation properties of one result against its input.

    `expected_zeros` are (gamma, multiplicity) pairs known from construction
    or closed form; an empty tuple means the state has no disk zeros.
    `outer_defect` None stands for +inf (f_0 = 0), which no input here has.
    """
    outer = np.asarray(outer, dtype=complex)
    inner = np.asarray(inner, dtype=complex)
    target = np.conj(np.asarray(coeffs, dtype=complex))
    n = target.size
    require(outer.size == n and inner.size == n, "series lengths differ from N")
    recon = float(np.max(np.abs(np.convolve(outer, inner)[:n] - target)))
    within(
        "reconstruction",
        recon,
        TOL_RECON_BOUNDARY_ZERO if boundary_zero else TOL_RECON,
    )
    require(monomial_degree == 0, f"monomial degree {monomial_degree}, expected 0")
    _match_zeros(zeros, expected_zeros, zero_tol)
    require(outer_defect is not None, "outer defect is infinite")
    jensen = sum(p * math.log(1.0 / abs(g)) for g, p in expected_zeros)
    if expected_zeros:
        within("defect vs Jensen", abs(outer_defect - jensen), TOL_DEFECT_ZEROS)
    else:
        within("defect of a zero-free state", abs(outer_defect), TOL_DEFECT_OUTER)
    b0 = complex(outer[0])
    require(
        b0.real > 0 and abs(b0.imag) <= 1e-12 * b0.real,
        f"outer[0] = {b0!r} is not real and positive",
    )
    if not boundary_zero:
        modulus = np.abs(circle_sum(inner, 4 * n))
        within("|inner| on the circle", float(np.max(np.abs(modulus - 1.0))),
               TOL_INNER_BOUNDARY)


def check_factored(fac, coeffs, **kwargs) -> None:
    """`check_factorization` on a FactoredState-like object."""
    check_factorization(
        fac.outer_coeffs,
        fac.inner_coeffs,
        fac.zeros,
        fac.monomial_degree,
        fac.outer_defect if math.isfinite(fac.outer_defect) else None,
        coeffs,
        **kwargs,
    )


def _pair(p) -> complex:
    return complex(p[0], p[1])


def check_factor_report(report: dict, coeffs: np.ndarray, **kwargs) -> None:
    """The CLI `factor` JSON against the same oracles."""
    zeros = [(_pair(z["gamma"]), int(z["multiplicity"])) for z in report["zeros"]]
    check_factorization(
        [_pair(p) for p in report["outer_coeffs"]],
        [_pair(p) for p in report["inner_coeffs"]],
        zeros,
        int(report["monomial_degree"]),
        report["outer_defect"],
        coeffs,
        **kwargs,
    )
    expect_outer = not kwargs.get("expected_zeros")
    require(report["outer"] is expect_outer, f"'outer' flag is {report['outer']}")


# --- number-phase lattice -----------------------------------------------------


def check_lattice(values: np.ndarray, theta: np.ndarray, coeffs: np.ndarray,
                  kind: str, params: dict) -> None:
    """Lattice rows against the closed form, and both marginals."""
    values = np.asarray(values, dtype=float)
    theta = np.asarray(theta, dtype=float)
    coeffs = np.asarray(coeffs, dtype=complex)
    levels, grid = values.shape
    within("theta grid", float(np.max(np.abs(theta - midpoint_angles(grid)))), 1e-12)
    rows = max(1, _CHUNK_CELLS // grid)
    worst = 0.0
    for start in range(0, levels, rows):
        stop = min(levels, start + rows)
        expected = closed_form_rows(kind, params, np.arange(start, stop), theta)
        worst = max(worst, float(np.max(np.abs(values[start:stop] - expected))))
    within("closed form", worst, TOL_CLOSED_FORM)
    number = (2.0 * np.pi / grid) * values.sum(axis=1)
    probs = np.zeros(levels)
    k = min(levels, coeffs.size)
    probs[:k] = np.abs(coeffs[:k]) ** 2
    within("number marginal", float(np.max(np.abs(number - probs))),
           TOL_MARGINAL_NUMBER)
    density = np.abs(circle_sum(np.conj(coeffs), grid)) ** 2 / (2.0 * np.pi)
    within("phase marginal", float(np.max(np.abs(values.sum(axis=0) - density))),
           TOL_MARGINAL_PHASE)


def check_shift_covariance(residual: float) -> None:
    within("shift covariance", float(residual), TOL_SHIFT_COVARIANCE)


def check_shifted_coeffs(shifted: np.ndarray, coeffs: np.ndarray, m: int,
                         beta: float, gamma: float) -> None:
    """g_{n+m} = e^{i(beta n + gamma)} f_n and nothing below level m."""
    coeffs = np.asarray(coeffs, dtype=complex)
    expected = np.zeros(coeffs.size + m, dtype=complex)
    expected[m:] = np.exp(1j * (beta * np.arange(coeffs.size) + gamma)) * coeffs
    shifted = np.asarray(shifted, dtype=complex)
    require(shifted.shape == expected.shape, "shifted length is not N + m")
    within("shifted coefficients", float(np.max(np.abs(shifted - expected))),
           TOL_WEYL_COMPOSE)


# --- plane transform ----------------------------------------------------------


def check_laplace(value: complex, coeffs: np.ndarray, z: complex) -> None:
    expected = taylor_sum(np.conj(coeffs), z)
    within("laplace_to_disk vs Taylor sum", abs(complex(value) - expected),
           TOL_LAPLACE_ROUNDTRIP)


def check_convolve(value: complex, coeffs: np.ndarray, u: complex) -> None:
    expected = factorial_sum(np.conj(coeffs), u)
    within("bg_convolve vs factorial Taylor sum", abs(complex(value) - expected),
           TOL_CONVOLUTION)


# --- CLI outputs --------------------------------------------------------------


def check_phase_dist(payload: dict, z0: complex) -> None:
    """su11_cs phase density against the Poisson kernel P_r(theta - arg z0)/2pi."""
    theta = np.asarray(payload["theta"], dtype=float)
    density = np.asarray(payload["phase_density"], dtype=float)
    within("theta grid", float(np.max(np.abs(theta - midpoint_angles(theta.size)))),
           1e-12)
    r, phase = abs(z0), math.atan2(z0.imag, z0.real)
    poisson = (1.0 - r * r) / (1.0 - 2.0 * r * np.cos(theta - phase) + r * r)
    within("phase density vs Poisson kernel",
           float(np.max(np.abs(density - poisson / (2.0 * np.pi)))),
           TOL_MARGINAL_PHASE)


def check_wigner_payload(payload: dict, coeffs: np.ndarray, kind: str,
                         params: dict) -> None:
    check_lattice(np.asarray(payload["values"]), np.asarray(payload["theta"]),
                  coeffs, kind, params)
    within("reported number residual", payload["number_marginal_residual"],
           TOL_MARGINAL_NUMBER)
    within("reported phase residual", payload["phase_marginal_residual"],
           TOL_MARGINAL_PHASE)


def check_bg_number(payload: dict, m: int) -> None:
    """Number state |m> on the default ray (angle 0): U(u) = u^m / m!, outer
    atom 2, no inner atom."""
    ray = payload["ray"]
    t = np.asarray(ray["t"], dtype=float)
    values = np.array([_pair(p) for p in ray["values"]])
    expected = t.astype(complex) ** m / math.factorial(m)
    within("ray values u^m/m!", float(np.max(np.abs(values - expected))),
           TOL_NUMBER_ATOMS)
    atoms = payload["factor_atoms"]
    within("outer atom", abs(_pair(atoms["atom_out"]) - 2.0), TOL_NUMBER_ATOMS)
    within("inner atom", abs(_pair(atoms["atom_in"])), TOL_NUMBER_ATOMS)


def check_verify_text(text: str, must_contain: str | None = None) -> None:
    """Every check line reads PASS; with --only, every name matches."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("elapsed:")]
    require(bool(lines), "verify printed no check lines")
    bad = [ln for ln in lines if not ln.startswith("PASS ")]
    require(not bad, f"verify lines not PASS: {bad[:3]}")
    if must_contain is not None:
        names = [ln.split("]", 1)[1].split(":", 1)[0].strip() for ln in lines]
        off = [nm for nm in names if must_contain not in nm]
        require(not off, f"verify --only {must_contain} printed {off}")
