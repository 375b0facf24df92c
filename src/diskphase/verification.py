"""Acceptance checks: every documented tolerance, runnable as one suite.

Each check returns its measured residuals; `_CHECKS` pairs them with each
record's name, criterion, pinned tolerance and detail, and a record passes
when residual < tolerance. `run_all` executes the whole catalog and is what
both the CLI `verify` subcommand and the acceptance tests consume. Expected
values are computed from closed forms independent of the code paths under
test (geometric sums, termwise transforms, explicit quadrature).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import barut_girardello as bg
from . import factorization as fz
from . import weyl
from .wigner import closed_form as wigner_closed_form
from .wigner import marginal_residuals, shift_covariance_check, wigner, wigner_grid
from .disk import (
    conjugate,
    eval_Z,
    midpoint_grid,
    phase_distribution,
    poisson,
)
from .series import series_eval
from .states import (
    FockState,
    make_bg,
    make_blaschke_state,
    make_number,
    make_pi_superposition,
    make_su11_cs,
    superpose,
)

# pinned tolerances
TOL_RECON = 1e-8
TOL_RECON_BOUNDARY_ZERO = 1e-5
RECON_SECONDS_PER_STATE = 1.0
TOL_DEFECT_OUTER = 1e-6
TOL_DEFECT_ZEROS = 1e-4
TOL_DEFECT_BLASCHKE_HALF = 1e-6
TOL_INNER_BOUNDARY = 1e-6
TOL_INNER_INTERIOR = 1e-6
TOL_ZERO_BLASCHKE = 1e-8
TOL_ZERO_SUPERPOSITION = 1e-6
TOL_WEYL_COMPOSE = 1e-12
TOL_WEYL_ISOMETRY = 1e-14
TOL_SHIFT_INVARIANCE = 1e-10
TOL_EIGENRELATION = 1e-12
TOL_LAPLACE_ROUNDTRIP = 1e-6
TOL_CONVOLUTION = 1e-6
TOL_NUMBER_ATOMS = 1e-13
TOL_IDENTITY_RESOLUTION = 1e-3
TOL_MARGINAL_NUMBER = 1e-8
TOL_MARGINAL_PHASE = 1e-6
TOL_CLOSED_FORM = 1e-9
TOL_SHIFT_COVARIANCE = 1e-10
TOL_KERNEL_COT_REL = 5e-3
TOL_POISSON_MASS = 1e-10
TIME_BUDGET_SECONDS = 60.0

_SEED = 20260808


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    state: FockState
    boundary_zero: bool = False
    outer: bool = True
    # analytic disk zeros (gamma, multiplicity) expected from closed form
    expected_zeros: tuple = ()

    @property
    def expected_defect(self) -> float:
        return sum(p * math.log(1.0 / abs(g)) for g, p in self.expected_zeros)


def _number_out(m: int, truncation: int) -> FockState:
    return superpose(
        [make_number(0, truncation), make_number(m, truncation)], [1.0, 1.0]
    )


def _pi_sup_zero(z0: complex, tau: float) -> complex:
    return 1j / math.tan(tau / 2.0) / np.conj(z0)


def build_catalog(truncation: int = 64) -> list[CatalogEntry]:
    """Every state family named by the verification criteria."""
    n = truncation
    entries: list[CatalogEntry] = []
    for m in range(9):
        entries.append(CatalogEntry(f"number[{m}]", make_number(m, n)))
    for z0 in (0.3, 0.5j, -0.62 + 0.35j, 0.8):
        entries.append(CatalogEntry(f"coherent[{z0}]", make_su11_cs(z0, n)))
    for u0 in (1.0, 2j, 3.0, -1.5 + 1.2j):
        entries.append(CatalogEntry(f"factorial[{u0}]", make_bg(u0, n)))
    for z0 in (0.5, 0.3 + 0.4j, -0.6):
        entries.append(
            CatalogEntry(
                f"blaschke[{z0}]",
                make_blaschke_state(z0, n),
                outer=False,
                expected_zeros=((complex(z0), 1),),
            )
        )
    sup_params = [
        (0.3, 3 * math.pi / 4),
        (0.5, math.pi / 2),
        (0.8, 3 * math.pi / 4),
        (0.72 * np.exp(0.5j), 2.5),
    ]
    for z0, tau in sup_params:
        gamma = _pi_sup_zero(z0, tau)
        inner_regime = abs(gamma) < 1.0
        entries.append(
            CatalogEntry(
                f"superposition[{z0},{tau:.3f}]",
                make_pi_superposition(z0, tau, n),
                outer=not inner_regime,
                expected_zeros=((gamma, 1),) if inner_regime else (),
            )
        )
    for m in range(1, 9):
        entries.append(
            CatalogEntry(f"vacuum_plus[{m}]", _number_out(m, n), boundary_zero=True)
        )
    return entries


@functools.cache
def _factored(truncation: int, grid_size: int) -> tuple:
    """(entry, FactoredState, seconds) for every catalog state.

    Each state is factorised once per run: `_run` clears the memo.
    """
    out = []
    for entry in build_catalog(truncation):
        t0 = time.perf_counter()
        fac = fz.factorize(entry.state, grid_size=grid_size)
        out.append((entry, fac, time.perf_counter() - t0))
    return tuple(out)


# --- criterion 1: factorisation reconstruction -------------------------------


def check_reconstruction() -> tuple[float, ...]:
    worst_smooth = 0.0
    worst_zero = 0.0
    slowest = 0.0
    for entry, fac, seconds in _factored(64, 512):
        slowest = max(slowest, seconds)
        if entry.boundary_zero:
            worst_zero = max(worst_zero, fac.reconstruction_residual)
        else:
            worst_smooth = max(worst_smooth, fac.reconstruction_residual)
    return worst_smooth, worst_zero, slowest


# --- criterion 2: outer-criterion classifier ---------------------------------


def check_outer_defect() -> tuple[float, ...]:
    worst_outer = 0.0
    worst_zero_dev = 0.0
    catalog = _factored(64, 512)
    for entry, fac, _ in catalog:
        if entry.outer and abs(entry.state.coeffs[0]) > 0:
            worst_outer = max(worst_outer, abs(fac.outer_defect))
        elif entry.expected_zeros:
            worst_zero_dev = max(
                worst_zero_dev, abs(fac.outer_defect - entry.expected_defect)
            )
    half = next(fac for entry, fac, _ in catalog if entry.name == "blaschke[0.5]")
    return worst_outer, worst_zero_dev, abs(half.outer_defect - math.log(2.0))


# --- criterion 3: inner criteria ---------------------------------------------


def _interior_lattice() -> np.ndarray:
    radii = np.array([0.15, 0.35, 0.55, 0.75, 0.9, 0.95])
    angles = midpoint_grid(16)
    return (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()


def check_inner_criteria() -> tuple[float, ...]:
    """Boundary modulus 1 and interior bound for every computed inner part.

    Runs at truncation 128 so geometric tails of the radius-0.8 states sit
    below the tolerance.
    """
    lattice = _interior_lattice()
    worst_boundary = 0.0
    worst_interior = 0.0
    for _, fac, _ in _factored(128, 1024):
        worst_boundary = max(worst_boundary, fac.inner_boundary_deviation)
        mods = np.abs(series_eval(fac.inner_coeffs, lattice))
        worst_interior = max(worst_interior, float(np.max(mods)) - 1.0)
    return worst_boundary, worst_interior


# --- criterion 4: zero extraction --------------------------------------------


def _single_zero(state: FockState) -> complex:
    zeros = fz.blaschke_zeros(state).zeros
    if len(zeros) != 1 or zeros[0][1] != 1:
        raise AssertionError(f"expected one simple zero, got {zeros}")
    return zeros[0][0]


def check_zero_extraction() -> tuple[float, ...]:
    gamma_b = _single_zero(make_blaschke_state(0.5, 64))
    res_b = abs(gamma_b - 0.5)
    tau = 3 * math.pi / 4
    gamma_s = _single_zero(make_pi_superposition(0.8, tau, 64))
    res_s = abs(gamma_s - _pi_sup_zero(0.8, tau))
    return res_b, res_s


# --- criterion 5: shift-semigroup algebra ------------------------------------


def _random_state(rng: np.random.Generator, n: int) -> FockState:
    c = rng.normal(size=n) + 1j * rng.normal(size=n)
    return FockState(c / np.linalg.norm(c), 0.0)


def check_weyl() -> tuple[float, ...]:
    rng = np.random.default_rng(_SEED)
    worst_compose = 0.0
    worst_norm = 0.0
    for _ in range(100):
        w1 = weyl.WeylElement(
            int(rng.integers(0, 5)), rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi)
        )
        w2 = weyl.WeylElement(
            int(rng.integers(0, 5)), rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi)
        )
        f = _random_state(rng, int(rng.integers(4, 25)))
        joint = weyl.apply(weyl.compose(w1, w2), f)
        sequential = weyl.apply(w1, weyl.apply(w2, f))
        worst_compose = max(
            worst_compose, float(np.max(np.abs(joint.coeffs - sequential.coeffs)))
        )
        worst_norm = max(
            worst_norm,
            abs(math.sqrt(joint.norm_squared()) - math.sqrt(f.norm_squared())),
        )
    worst_shift = 0.0
    for z0, m in ((0.5, 1), (0.5j, 3), (-0.62 + 0.35j, 7)):
        f = make_su11_cs(z0, 64)
        p0 = phase_distribution(f, 1024)
        pm = phase_distribution(weyl.shift(f, m), 1024)
        worst_shift = max(worst_shift, float(np.max(np.abs(pm - p0))))
    worst_eigen = 0.0
    for z0 in (0.5, 0.62j):
        for m in (0, 2, 5):
            g = weyl.shift(make_su11_cs(z0, 64), m)
            worst_eigen = max(worst_eigen, weyl.cs_eigen_residual(g, m, z0))
    for u0 in (1.0, 2j):
        for m in (0, 3):
            g = weyl.shift(make_bg(u0, 64), m)
            worst_eigen = max(worst_eigen, weyl.bg_eigen_residual(g, m, u0))
    return worst_compose, worst_norm, worst_shift, worst_eigen


# --- criterion 6: transformed-representation bridge --------------------------


def check_bg_bridge() -> tuple[float, ...]:
    rng = np.random.default_rng(_SEED + 1)
    worst_round = 0.0
    worst_conv = 0.0
    catalog = _factored(64, 512)
    for entry, fac, _ in catalog:
        u_fn = bg.bg_function(entry.state)
        # the documented domain: 0 < |z| <= 0.95, |arg z| < pi/2
        zs = 0.95 * (1.0 - rng.random(10)) * np.exp(1j * np.pi * (rng.random(10) - 0.5))
        err = bg.laplace_to_disk(u_fn, zs) - eval_Z(entry.state, zs)
        worst_round = max(worst_round, float(np.max(np.abs(err))))
        u_in, u_out = bg.bg_factor_parts(fac)
        us = rng.uniform(0.2, 2.0, size=10) * np.exp(
            1j * rng.uniform(-np.pi, np.pi, size=10)
        )
        err = bg.bg_convolve(u_in, u_out, us) - series_eval(u_fn.smooth, us)
        worst_conv = max(worst_conv, float(np.max(np.abs(err))))
    worst_atom = 0.0
    for m, (_, fac, _) in enumerate(catalog[:9]):  # number[0..8]
        u_in, u_out = bg.bg_factor_parts(fac)
        expected = np.zeros(64, dtype=complex)
        expected[m] = 1.0 / math.factorial(m)
        worst_atom = max(
            worst_atom,
            abs(u_out.atom - 2.0),
            float(np.max(np.abs(u_in.smooth - expected))),
            float(np.max(np.abs(u_out.smooth))),
        )
    return worst_round, worst_conv, worst_atom, _identity_resolution_residual(6)


def _identity_resolution_residual(n_top: int) -> float:
    """Radial x angular quadrature of the overcomplete-basis identity."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    edges = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 28.0, 40.0]
    ts, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        ts.append(0.5 * (hi - lo) * nodes + 0.5 * (hi + lo))
        ws.append(0.5 * (hi - lo) * weights)
    t = np.concatenate(ts)
    wt = np.concatenate(ws)
    kern = (2.0 / np.pi) * bg._k0(2.0 * t) * t  # measure density x jacobian
    n_ang = 64
    phi = 2.0 * np.pi * np.arange(n_ang) / n_ang
    worst = 0.0
    for n in range(n_top + 1):
        for m in range(n_top + 1):
            radial = float(np.sum(wt * kern * t ** (n + m)))
            angular = complex(
                np.sum(np.exp(1j * (n - m) * phi)) * (2.0 * np.pi / n_ang)
            )
            val = radial * angular / (math.factorial(n) * math.factorial(m))
            worst = max(worst, abs(val - (1.0 if n == m else 0.0)))
    return worst


# --- criterion 7: joint number-phase function --------------------------------


def check_wigner() -> tuple[float, ...]:
    worst_num = 0.0
    worst_phase = 0.0
    for entry in build_catalog(64):
        grid = wigner_grid(entry.state, n_max=64, grid_size=512)
        num, phase = marginal_residuals(entry.state, grid)
        worst_num = max(worst_num, num)
        worst_phase = max(worst_phase, phase)
    lattice_theta = midpoint_grid(64)
    cases = [
        ("number", {"m": 3}, make_number(3, 64)),
        ("number_out", {"m": 4}, _number_out(4, 64)),
        ("su11_cs", {"z": 0.5 * np.exp(0.7j)}, make_su11_cs(0.5 * np.exp(0.7j), 64)),
        ("bg", {"u": np.exp(0.3j)}, make_bg(np.exp(0.3j), 64)),
        (
            "blaschke",
            {"z": 0.5 * np.exp(0.4j)},
            make_blaschke_state(0.5 * np.exp(0.4j), 64),
        ),
        (
            "pi_superposition",
            {"z": 0.6 * np.exp(0.9j), "tau": 3 * math.pi / 4},
            make_pi_superposition(0.6 * np.exp(0.9j), 3 * math.pi / 4, 64),
        ),
    ]
    worst_closed = 0.0
    for kind, params, state in cases:
        for n in range(16):
            direct = wigner(state, n, lattice_theta)
            closed = wigner_closed_form(kind, params, n, lattice_theta)
            worst_closed = max(worst_closed, float(np.max(np.abs(direct - closed))))
    worst_cov = 0.0
    for state, w in (
        (make_su11_cs(0.5, 64), weyl.WeylElement(2, 0.7, 0.3)),
        (make_bg(1.0, 64), weyl.WeylElement(2, 0.7, 0.3)),
        (make_blaschke_state(0.5, 64), weyl.WeylElement(0, 1.1, 0.0)),
        (make_pi_superposition(0.6, 2.5, 64), weyl.IDENTITY),
    ):
        worst_cov = max(worst_cov, shift_covariance_check(state, w, n_max=24))
    return worst_num, worst_phase, worst_closed, worst_cov


# --- criterion 8: kernel limits ----------------------------------------------


def check_kernels() -> tuple[float, ...]:
    r = 1.0 - 1e-3
    theta = np.linspace(0.3, np.pi - 0.3, 101)
    rel = np.abs(conjugate(r, theta) / (1.0 / np.tan(theta / 2.0)) - 1.0)
    worst_rel = float(np.max(rel))
    worst_mass = 0.0
    grid = midpoint_grid(8192)
    for rr in (0.0, 0.5, 0.9, 0.99):
        mass = float(np.mean(poisson(rr, grid)))
        worst_mass = max(worst_mass, abs(mass - 1.0))
    return worst_rel, worst_mass


# --- suite --------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    results: list[CheckResult] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


# every check with its records (name, criterion, tolerance, detail), in run
# order; a check returns one residual per record, then any values its
# details format
_CHECKS = (
    (check_reconstruction, (
        ("reconstruction", 1, TOL_RECON,
         "max |outer*inner - conj(f)| over the zero-free catalog"),
        ("reconstruction-boundary-zero", 1, TOL_RECON_BOUNDARY_ZERO,
         "same residual for the vacuum_plus states"),
        ("reconstruction-timing", 1, RECON_SECONDS_PER_STATE,
         "slowest single factorisation, seconds"),
    )),
    (check_outer_defect, (
        ("defect-outer-states", 2, TOL_DEFECT_OUTER,
         "outer catalog states (incl. vacuum_plus) classified outer"),
        ("defect-zero-states", 2, TOL_DEFECT_ZEROS,
         "defect vs sum p ln(1/|gamma|) for states with disk zeros"),
        ("defect-blaschke-half", 2, TOL_DEFECT_BLASCHKE_HALF,
         "blaschke[0.5] defect vs ln 2"),
    )),
    (check_inner_criteria, (
        ("inner-boundary-modulus", 3, TOL_INNER_BOUNDARY,
         "max ||inner| - 1| on the circle over the catalog at N=128"),
        ("inner-interior-bound", 3, TOL_INNER_INTERIOR,
         "max(|inner(z)| - 1) on the |z| <= 0.95 lattice"),
    )),
    (check_zero_extraction, (
        ("zero-blaschke", 4, TOL_ZERO_BLASCHKE, "blaschke[0.5] zero recovered"),
        ("zero-superposition", 4, TOL_ZERO_SUPERPOSITION,
         "superposition[0.8, 3pi/4] zero vs i cot(tau/2)/conj(z0)"),
    )),
    (check_weyl, (
        ("compose-vs-sequential", 5, TOL_WEYL_COMPOSE,
         "100 seeded random (w1, w2, state) triples"),
        ("isometry", 5, TOL_WEYL_ISOMETRY, "norm preservation (rounding-level)"),
        ("phase-shift-invariance", 5, TOL_SHIFT_INVARIANCE,
         "phase distribution pointwise invariant under shifts"),
        ("eigenrelations", 5, TOL_EIGENRELATION,
         "shifted coherent/factorial eigenvalue relations"),
    )),
    (check_bg_bridge, (
        ("laplace-roundtrip", 6, TOL_LAPLACE_ROUNDTRIP,
         "quadrature transform vs direct disk evaluation, 10 z per state"),
        ("convolution-identity", 6, TOL_CONVOLUTION,
         "inner*outer convolution vs the state's transformed function"),
        ("number-state-atoms", 6, TOL_NUMBER_ATOMS,
         "atom 2 delta and monomial smooth parts, series level"),
        ("identity-resolution", 6, TOL_IDENTITY_RESOLUTION,
         "plane-measure orthonormality for levels <= 6"),
    )),
    (check_wigner, (
        ("number-marginal", 7, TOL_MARGINAL_NUMBER,
         "angle marginal vs |f_n|^2, catalog at n_max=64, M=512"),
        ("phase-marginal", 7, TOL_MARGINAL_PHASE,
         "level marginal vs phase distribution"),
        ("closed-forms", 7, TOL_CLOSED_FORM,
         "printed closed forms vs direct sum on a 16x64 lattice"),
        ("shift-covariance", 7, TOL_SHIFT_COVARIANCE,
         "lattice displacement law under the shift semigroup"),
    )),
    (check_kernels, (
        ("conjugate-kernel-cotangent", 8, TOL_KERNEL_COT_REL,
         "r = 1 - 1e-3, theta in [0.3, pi - 0.3]"),
        ("poisson-mass", 8, TOL_POISSON_MASS,
         "unit mean over the circle for r <= 0.99"),
    )),
)
SUITE_RUNTIME = "suite-runtime"
_SUITE_RECORD = (
    SUITE_RUNTIME, 9, TIME_BUDGET_SECONDS,
    "wall-clock seconds for the whole verification catalog",
)


def _run(checks) -> VerificationReport:
    """Run `checks` and pair each residual with its record; the memo of
    factorised catalog states lives for this run only."""
    measured = []  # (record, residual, values its detail formats)
    _factored.cache_clear()
    t0 = time.perf_counter()
    try:
        for check, records in checks:
            values = check()
            extra = values[len(records):]
            measured += [(rec, res, extra) for rec, res in zip(records, values)]
    finally:
        _factored.cache_clear()
    elapsed = time.perf_counter() - t0
    measured.append((_SUITE_RECORD, elapsed, ()))
    results = [
        CheckResult(criterion, name, res < tol, res, tol, detail.format(*extra))
        for (name, criterion, tol, detail), res, extra in measured
    ]
    return VerificationReport(results, elapsed)


def run_all() -> VerificationReport:
    """Run every check; the final record is the wall-clock budget."""
    return _run(_CHECKS)


def run_matching(text: str) -> VerificationReport:
    """Run only the checks that return a record whose name contains `text`,
    and keep only those records.

    The suite-runtime record times the whole catalog, so a match on its name
    runs every check. Nothing runs when no name matches.
    """
    if text in SUITE_RUNTIME:
        report = run_all()
    else:
        report = _run(
            (check, records)
            for check, records in _CHECKS
            if any(text in name for name, *_ in records)
        )
    results = [r for r in report.results if text in r.name]
    return VerificationReport(results, report.elapsed_seconds)
