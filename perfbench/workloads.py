"""Workload definitions: seeded inputs, operation lists and layer probes.

A workload's setup builds its inputs from the seed, wraps each public call
into an `Op` with its own output check, and warms up. `decompose` is what
the traced run does besides the timed passes: it calls the layers behind
each operation separately, on the same inputs, under their own spans.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy.special import gammaln, i0

import checks
import diskphase as dp
from diskphase import cli as dp_cli
from diskphase import verification as dp_verification
from tracing import Tracer

TAU = 3.0 * math.pi / 4.0


class OpFailed(Exception):
    """A CLI process exited with a nonzero code."""


@dataclass
class Op:
    name: str
    span: str  # "<module>.<function>" of the public call, or "cli.<command>"
    call: Callable[[], Any]
    check: Callable[[Any], None]
    zeros: Callable[[Any], int] | None = None  # disk zeros found, for counts


@dataclass
class Workload:
    ops: list[Op]
    decompose: Callable[[Tracer], None]
    child_rss_kb: list[int] = field(default_factory=list)


# --- seeded input construction ------------------------------------------------


def _unit(rng: np.random.Generator) -> complex:
    return complex(np.exp(1j * rng.uniform(-np.pi, np.pi)))


def separated_points(rng, count: int, rmin: float, rmax: float, sep: float):
    """`count` points with rmin <= |p| <= rmax, pairwise at least sep apart."""
    points: list[complex] = []
    while len(points) < count:
        p = rng.uniform(rmin, rmax) * _unit(rng)
        if all(abs(p - q) >= sep for q in points):
            points.append(p)
    return points


def outer_roots(rng) -> list[complex]:
    """Three roots of the seeded outer polynomial, well outside the disk."""
    return [rng.uniform(1.5, 3.0) * _unit(rng) for _ in range(3)]


def _normalised_state(series: np.ndarray, n: int) -> np.ndarray:
    """State coefficients f = conj(series) / norm, padded or cut to N."""
    c = np.zeros(n, dtype=complex)
    k = min(n, series.size)
    c[:k] = series[:k]
    return np.conj(c) / np.linalg.norm(c)


def polynomial_product(gammas, rhos, n: int) -> np.ndarray:
    """Z(z) ~ prod (z - gamma) * prod (1 - z/rho), a finite Taylor series.

    prod (z - gamma) is the Blaschke product of the gammas times the outer
    factor prod (1 - conj(gamma) z), so the state is a product of known
    Blaschke factors with an outer polynomial; the truncation is exact.
    """
    poly = np.array([1.0 + 0j])
    for g in gammas:
        poly = np.convolve(poly, [-g, 1.0])
    for rho in rhos:
        poly = np.convolve(poly, [1.0, -1.0 / rho])
    return _normalised_state(poly, n)


def blaschke_series(gamma: complex, n: int) -> np.ndarray:
    """Taylor series of (gamma - z)/(1 - conj(gamma) z), to length N."""
    g = complex(gamma)
    out = np.empty(n, dtype=complex)
    out[0] = g
    out[1:] = (abs(g) ** 2 - 1.0) * np.conj(g) ** np.arange(n - 1)
    return out


def series_product(gammas, rhos, n: int) -> np.ndarray:
    """Blaschke factors times an outer polynomial, as an infinite series cut
    at N. For the sizes used here the dropped tail is below 1e-12 inside
    |z| <= 0.7, where the zeros lie."""
    series = np.zeros(n, dtype=complex)
    series[0] = 1.0
    for g in gammas:
        series = np.convolve(series, blaschke_series(g, n))[:n]
    for rho in rhos:
        series = np.convolve(series, [1.0, -1.0 / rho])[:n]
    return _normalised_state(series, n)


def su11_coeffs(z0: complex, n: int) -> np.ndarray:
    return math.sqrt(1.0 - abs(z0) ** 2) * complex(z0) ** np.arange(n)


def pi_superposition_coeffs(z0: complex, tau: float, n: int) -> np.ndarray:
    r2 = abs(z0) ** 2
    norm = 2.0 * (1.0 + (1.0 - r2) / (1.0 + r2) * math.cos(tau))
    k = np.arange(n)
    return (
        math.sqrt((1.0 - r2) / norm)
        * (1.0 + np.exp(1j * tau) * (-1.0) ** k)
        * complex(z0) ** k
    )


def bg_coeffs(u0: complex, n: int) -> np.ndarray:
    k = np.arange(n)
    u0 = complex(u0)
    mag = np.exp(k * math.log(abs(u0)) - gammaln(k + 1.0))
    return mag * np.exp(1j * k * np.angle(u0)) / math.sqrt(i0(2.0 * abs(u0)))


def _zero_count(fac) -> int:
    return int(sum(p for _, p in fac.zeros) + fac.monomial_degree)


# --- traced calls -------------------------------------------------------------


def build(tracer: Tracer, fn: Callable, *args):
    """A states-layer constructor call under a span named after it."""
    with tracer.span(f"states.{fn.__name__}"):
        return fn(*args)


def _stage(tracer: Tracer, name: str, fn: Callable, *args, **kwargs):
    """One layer call under its span; a raised error is recorded, not lost."""
    try:
        with tracer.span(name):
            return fn(*args, **kwargs)
    except Exception:  # the span carries the error type
        return None


def factor_stages(tracer: Tracer, state) -> None:
    """factorize and, on the same input, each stage it runs, with the
    arguments factorize passes them by default."""
    n = state.truncation
    m = dp.default_grid_size(n)
    _stage(tracer, "factorization.factorize", dp.factorize, state)
    _stage(tracer, "disk.boundary", dp.boundary, state, m)
    phi = _stage(tracer, "factorization.refined_phi", dp.refined_phi, state, n, m)
    outer = _stage(tracer, "factorization.outer_part", dp.outer_part, phi, n)
    _stage(tracer, "factorization.inner_part", dp.inner_part, state, outer)
    _stage(tracer, "factorization.blaschke_zeros", dp.blaschke_zeros, state)
    _stage(tracer, "factorization.outer_defect", dp.outer_defect, state, grid_size=m)


def factor_op(name: str, state, **expect) -> Op:
    coeffs = np.array(state.coeffs)
    return Op(
        name,
        "factorization.factorize",
        lambda: dp.factorize(state),
        lambda fac: checks.check_factored(fac, coeffs, **expect),
        _zero_count,
    )


def _decompose_factor(states) -> Callable[[Tracer], None]:
    def run(tracer: Tracer) -> None:
        for label, state in states:
            with tracer.span("decompose", op=label):
                factor_stages(tracer, state)

    return run


# --- factor-large -------------------------------------------------------------


def setup_factor_large(seed: int, tracer: Tracer, root: Path) -> Workload:
    rng = np.random.default_rng(seed)
    n = 1024
    z_b = 0.6 * _unit(rng)
    # Moduli are fixed and angles seeded: the cost of the degree-1023 root
    # solve depends on the moduli, and run-to-run spread must come from the
    # machine alone. |gamma| = 0.65 keeps the last coefficient a normal float.
    gammas = [0.65 * _unit(rng)]
    while len(gammas) < 3:
        g = (0.45, 0.3)[len(gammas) - 1] * _unit(rng)
        if all(abs(g - h) >= 0.15 for h in gammas):
            gammas.append(g)
    rhos = [2.0 * _unit(rng), 2.5 * _unit(rng)]
    product = series_product(gammas, rhos, n)
    inputs = [
        ("su11_cs[0.97]", build(tracer, dp.make_su11_cs, 0.97, n), {}),
        (
            "pi_superposition[0.8,3pi/4]",
            build(tracer, dp.make_pi_superposition, 0.8, TAU, n),
            {
                "expected_zeros": ((checks.pi_superposition_zero(0.8, TAU), 1),),
                "zero_tol": checks.TOL_ZERO_SUPERPOSITION,
            },
        ),
        (
            "blaschke[0.6]",
            build(tracer, dp.make_blaschke_state, z_b, n),
            {"expected_zeros": ((z_b, 1),)},
        ),
        (
            "series_product[3 zeros]",
            build(tracer, dp.raw_state, product),
            {"expected_zeros": tuple((g, 1) for g in gammas)},
        ),
    ]
    ops = [factor_op(f"factorize {label} N={n}", s, **e) for label, s, e in inputs]
    dp.factorize(dp.make_pi_superposition(0.8, TAU, 64))  # warm-up
    labelled = [(op.name, s) for op, (_, s, _) in zip(ops, inputs)]
    return Workload(ops, _decompose_factor(labelled))


# --- factor-zeros -------------------------------------------------------------


def setup_factor_zeros(seed: int, tracer: Tracer, root: Path) -> Workload:
    rng = np.random.default_rng(seed)
    ops: list[Op] = []
    labelled = []

    def add(label: str, state, **expect) -> None:
        op = factor_op(f"factorize {label} N={state.truncation}", state, **expect)
        ops.append(op)
        labelled.append((op.name, state))

    # Polynomial products reach blaschke_zeros as a short trimmed
    # polynomial, so series and boundary work dominate at N=64. Series
    # products carry the full tail: the root solve has degree N - 1 and
    # 6 to 12 zeros to find. Zero counts are fixed per slot, so the cost
    # does not move with the seed. The 14 series products outnumber the 12
    # small operations, which puts op_p50_ms on the larger operations: on a
    # shared two-core VM the ms-sized ones swung by up to 1.8x from one
    # minute to the next.
    slots = [(64, polynomial_product, k, 0.5) for k in (3, 4, 5, 6)]
    slots += [(256, series_product, k, 0.7) for k in (*range(6, 13), *range(6, 13))]
    for i, (n, form, k, rmax) in enumerate(slots):
        gammas = separated_points(rng, k, 0.15, rmax, 0.1)
        add(
            f"{form.__name__}{i}[{k} zeros]",
            build(tracer, dp.raw_state, form(gammas, outer_roots(rng), n)),
            expected_zeros=tuple((g, 1) for g in gammas),
        )
    for m in range(1, 9):
        state = build(
            tracer,
            dp.superpose,
            [dp.make_number(0, 256), dp.make_number(m, 256)],
            [1.0, 1.0],
        )
        add(f"vacuum_plus[{m}]", state, boundary_zero=True)
    # Known fault: the last coefficient is subnormal, np.roots overflows
    # and raises LinAlgError. Counted as a failed operation every pass.
    add("bg[1.0]", build(tracer, dp.make_bg, 1.0, 256))
    for i in (0, 4, 18, 26):  # warm-up: one operation of each kind
        try:
            ops[i].call()
        except Exception:
            pass
    return Workload(ops, _decompose_factor(labelled))


# --- statistics ---------------------------------------------------------------


def setup_statistics(seed: int, tracer: Tracer, root: Path) -> Workload:
    rng = np.random.default_rng(seed)
    # Moduli are fixed and angles seeded: where the coefficients underflow
    # through subnormals, which costs time, then does not move with the seed.
    z_cs = 0.6 * _unit(rng)
    z_pi = 0.7 * _unit(rng)
    tau = float(rng.uniform(0.6, 2.8))
    u_bg = 1.3 * _unit(rng)
    m_vac = int(rng.integers(1, 9))
    lattice: dict[tuple[str, int], Op] = {}
    for n in (256, 512):
        lattice_inputs = [
            ("su11_cs", build(tracer, dp.make_su11_cs, z_cs, n), {"z": z_cs}),
            (
                "pi_superposition",
                build(tracer, dp.make_pi_superposition, z_pi, tau, n),
                {"z": z_pi, "tau": tau},
            ),
            ("bg", build(tracer, dp.make_bg, u_bg, n), {"u": u_bg}),
            (
                "number_out",
                build(
                    tracer,
                    dp.superpose,
                    [dp.make_number(0, n), dp.make_number(m_vac, n)],
                    [1.0, 1.0],
                ),
                {"m": m_vac},
            ),
        ]
        for kind, state, params in lattice_inputs:
            coeffs = np.array(state.coeffs)
            lattice[kind, n] = Op(
                f"wigner_grid {kind} N={n}",
                "wigner.wigner_grid",
                lambda s=state: dp.wigner_grid(s),
                lambda g, c=coeffs, k=kind, p=params: checks.check_lattice(
                    g.values, g.theta, c, k, p
                ),
            )
    shifts = []
    shift_ops: dict[int, Op] = {}
    for n in (64, 128):
        state = build(tracer, dp.make_su11_cs, z_cs, n)
        w = dp.WeylElement(
            int(rng.integers(1, 4)), rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi)
        )
        shifts.append((state, w))
        shift_ops[n] = Op(
            f"shift_covariance_check su11_cs N={n} m={w.m}",
            "wigner.shift_covariance_check",
            lambda s=state, w=w: dp.shift_covariance_check(s, w),
            checks.check_shift_covariance,
        )
    # plane transform of a factorised N=64 state with three disk zeros
    gammas = separated_points(rng, 3, 0.2, 0.5, 0.1)
    plane_state = build(
        tracer, dp.raw_state, polynomial_product(gammas, outer_roots(rng), 64)
    )
    plane_coeffs = np.array(plane_state.coeffs)
    u_fn = dp.bg_function(plane_state)
    u_in, u_out = dp.bg_factor_parts(dp.factorize(plane_state))
    plane_ops: list[Op] = []
    for i in range(4):
        x = rng.uniform(0.18, 0.42)
        z = complex(x, rng.uniform(-0.4, 0.4) * x)
        plane_ops.append(
            Op(
                f"laplace_to_disk z{i}",
                "barut_girardello.laplace_to_disk",
                lambda z=z: dp.laplace_to_disk(u_fn, z),
                lambda v, z=z: checks.check_laplace(v, plane_coeffs, z),
            )
        )
    for i in range(3):
        u = rng.uniform(0.2, 2.0) * _unit(rng)
        plane_ops.append(
            Op(
                f"bg_convolve u{i}",
                "barut_girardello.bg_convolve",
                lambda u=u: dp.bg_convolve(u_in, u_out, u),
                lambda v, u=u: checks.check_convolve(v, plane_coeffs, u),
            )
        )
    # Order of a pass. Seven sub-millisecond plane-transform calls sit
    # below the three ~0.1 s N=256 lattices of su11_cs, pi_superposition
    # and vacuum+|m>, and seven slower calls above them, so the median
    # operation is the middle of that cluster. The N=256 lattices are
    # spread over the pass, between the second-long calls, so that they
    # sample the machine's speed at several moments of each pass.
    ops = [
        lattice["su11_cs", 256], plane_ops[0], plane_ops[4],
        shift_ops[128],
        lattice["pi_superposition", 256], plane_ops[1], plane_ops[5],
        lattice["su11_cs", 512], lattice["pi_superposition", 512],
        lattice["number_out", 256], plane_ops[2], plane_ops[6],
        lattice["bg", 512], lattice["number_out", 512],
        lattice["bg", 256], plane_ops[3],
        shift_ops[64],
    ]
    # warm-up on small inputs
    dp.wigner_grid(dp.make_su11_cs(z_cs, 64))
    dp.shift_covariance_check(dp.make_su11_cs(z_cs, 16), shifts[0][1])
    for op in plane_ops:
        op.call()

    def decompose(tr: Tracer) -> None:
        for state, w in shifts:
            with tr.span("decompose", op=f"weyl.apply N={state.truncation}"):
                with tr.span("weyl.apply"):
                    shifted = dp.apply(w, state)
            checks.check_shifted_coeffs(shifted.coeffs, state.coeffs, w.m, w.beta, w.gamma)

    return Workload(ops, decompose)


# --- cli ----------------------------------------------------------------------


@dataclass
class Process:
    exit_code: int
    stdout: Path
    stderr: str


def _cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv, workdir: Path, tag: str, env: dict, root: Path,
                rss_kb: list[int] | None = None) -> Process:
    """Run one child to completion; its own peak RSS comes from wait4."""
    out_path = workdir / f"{tag}.out"
    err_path = workdir / f"{tag}.err"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=root, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    if rss_kb is not None:
        rss_kb.append(usage.ru_maxrss)
    return Process(proc.returncode, out_path, err_path.read_text(errors="replace"))


def setup_cli(seed: int, tracer: Tracer, root: Path) -> Workload:
    rng = np.random.default_rng(seed)
    workdir = root / "perfbench" / "out" / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    env = _cli_env(root)
    py = sys.executable
    z_pi = 0.8 * _unit(rng)
    z_cs = 0.5 * _unit(rng)
    z_w = 0.7 * _unit(rng)
    tau_w = float(rng.uniform(0.6, 2.8))
    m_bg = int(rng.integers(0, 6))
    n = dp.DEFAULT_TRUNCATION

    def spec(**kw) -> str:
        out = {}
        for k, v in kw.items():
            out[k] = [v.real, v.imag] if isinstance(v, complex) else v
        return json.dumps(out)

    pi_spec = spec(kind="pi_superposition", z=z_pi, tau=TAU)
    cs_spec = spec(kind="su11_cs", z=z_cs)
    wig_spec = spec(kind="pi_superposition", z=z_w, tau=tau_w)
    pi_coeffs = pi_superposition_coeffs(z_pi, TAU, n)
    pi_expect = {
        "expected_zeros": ((checks.pi_superposition_zero(z_pi, TAU), 1),),
        "zero_tol": checks.TOL_ZERO_SUPERPOSITION,
    }
    wig_coeffs = pi_superposition_coeffs(z_w, tau_w, n)
    wig_params = {"z": z_w, "tau": tau_w}
    rss_kb: list[int] = []

    def read_json(p: Process) -> dict:
        return json.loads(p.stdout.read_text())

    def cli_op(name: str, args: list[str], check: Callable[[Process], None]) -> Op:
        tag = "op-" + "".join(ch if ch.isalnum() else "-" for ch in name)

        def call() -> Process:
            p = run_process([py, "-m", "diskphase", *args], workdir, tag, env, root,
                            rss_kb)
            if p.exit_code != 0:
                last = p.stderr.strip().splitlines()[-1:] or [""]
                raise OpFailed(f"exit {p.exit_code}: {last[0]}")
            return p

        return Op(name, f"cli.{args[0]}", call, check)

    def check_factor(coeffs, **expect):
        return lambda p: checks.check_factor_report(read_json(p), coeffs, **expect)

    ops = [
        cli_op("factor pi_superposition", ["factor", "--json", pi_spec],
               check_factor(pi_coeffs, **pi_expect)),
        cli_op("factor su11_cs", ["factor", "--json", cs_spec],
               check_factor(su11_coeffs(z_cs, n))),
        cli_op("phase-dist su11_cs", ["phase-dist", "--json", cs_spec],
               lambda p: checks.check_phase_dist(read_json(p), z_cs)),
        cli_op("wigner pi_superposition", ["wigner", "--json", wig_spec],
               lambda p: checks.check_wigner_payload(
                   read_json(p), wig_coeffs, "pi_superposition", wig_params)),
        cli_op(f"bg number[{m_bg}]", ["bg", "--json", spec(kind="number", m=m_bg)],
               lambda p: checks.check_bg_number(read_json(p), m_bg)),
        cli_op("verify", ["verify", "--format", "csv"],
               lambda p: checks.check_verify_text(p.stdout.read_text())),
        cli_op("verify --only poisson", ["verify", "--only", "poisson", "--format", "csv"],
               lambda p: checks.check_verify_text(p.stdout.read_text(), "poisson")),
        # Known fault: exits 1 with a LinAlgError traceback (subnormal last
        # coefficient into np.roots). Counted as a failed operation.
        cli_op("factor bg[1.0]", ["factor", "--json", spec(kind="bg", u=[1, 0])],
               check_factor(bg_coeffs(1.0, n))),
    ]
    # warm-up: one small CLI process (byte-compiles the package, fills caches)
    run_process([py, "-m", "diskphase", "state", "--json", '{"kind":"number","m":0}',
                 "--n", "4"], workdir, "warmup", env, root)

    import_code = (
        "import time; t = time.perf_counter(); import diskphase; "
        "print(time.perf_counter() - t)"
    )

    def main_call(tr: Tracer, name: str, argv: list[str],
                  check: Callable[[str], None]) -> None:
        out = workdir / f"{name}.out"
        with tr.span(name):
            code = dp_cli.main([*argv, "--out", str(out)])
        checks.require(code == 0, f"{name}: exit {code}")
        check(out.read_text())

    def decompose(tr: Tracer) -> None:
        for i in range(3):
            with tr.span("decompose", op=f"interpreter {i}"):
                with tr.span("cli.python_start"):
                    run_process([py, "-c", "pass"], workdir, "start", env, root)
                with tr.span("cli.import") as s:
                    p = run_process([py, "-c", import_code], workdir, "import", env, root)
                s.attrs["import_s"] = float(p.stdout.read_text())
        with tr.span("decompose", op="in-process"):
            main_call(tr, "cli.factor_main", ["factor", "--json", pi_spec],
                      lambda t: checks.check_factor_report(
                          json.loads(t), pi_coeffs, **pi_expect))
            main_call(tr, "cli.wigner_main", ["wigner", "--json", wig_spec],
                      lambda t: checks.check_wigner_payload(
                          json.loads(t), wig_coeffs, "pi_superposition", wig_params))
            main_call(tr, "cli.verify_main", ["verify", "--format", "csv"],
                      checks.check_verify_text)
            with tr.span("verification.run_all"):
                report = dp_verification.run_all()
            failed = [r.name for r in report.results if not r.passed]
            checks.require(not failed, f"run_all failed checks {failed}")

    return Workload(ops, decompose, rss_kb)


SETUPS = {
    "factor-large": setup_factor_large,
    "factor-zeros": setup_factor_zeros,
    "statistics": setup_statistics,
    "cli": setup_cli,
}
