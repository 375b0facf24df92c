"""Self-test of the output checks: each accepts a real library output and
rejects a deliberately wrong one.

    python3 perfbench/selftest.py

Exits 0 when every check behaves, 1 otherwise, with one line per case.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import diskphase as dp  # noqa: E402
from diskphase import cli  # noqa: E402

TAU = 3.0 * math.pi / 4.0
WORK = ROOT / "perfbench" / "out" / "selftest"


class Fake:
    """A FactoredState stand-in with replaced fields."""

    def __init__(self, fac, **changes) -> None:
        for name in ("outer_coeffs", "inner_coeffs", "zeros", "monomial_degree",
                     "outer_defect"):
            setattr(self, name, changes.get(name, getattr(fac, name)))


def cli_json(*argv: str) -> dict:
    out = WORK / "out.json"
    code = cli.main([*argv, "--out", str(out)])
    assert code == 0, f"diskphase {argv} exited {code}"
    return json.loads(out.read_text())


def cases():
    """(description, thunk, should_pass) for every check."""
    sup = dp.make_pi_superposition(0.8, TAU, 64)
    sup_zero = checks.pi_superposition_zero(0.8, TAU)
    sup_expect = {"expected_zeros": ((sup_zero, 1),),
                  "zero_tol": checks.TOL_ZERO_SUPERPOSITION}
    fs = dp.factorize(sup)
    cs = dp.make_su11_cs(0.5, 64)
    fc = dp.factorize(cs)
    vac = dp.superpose([dp.make_number(0, 64), dp.make_number(3, 64)], [1.0, 1.0])
    fv = dp.factorize(vac)
    moved = ((fs.zeros[0][0] + 1e-3, 1),)
    eps = 1e-3

    def fac_check(fac, state, **kw):
        return lambda: checks.check_factored(fac, state.coeffs, **kw)

    yield "factorize superposition", fac_check(fs, sup, **sup_expect), True
    yield "zero moved by 1e-3", fac_check(Fake(fs, zeros=moved), sup, **sup_expect), False
    yield "defect off by 1e-3", fac_check(
        Fake(fs, outer_defect=fs.outer_defect + eps), sup, **sup_expect), False
    yield "inner scaled by 1+1e-3", fac_check(
        Fake(fs, inner_coeffs=fs.inner_coeffs * (1 + eps)), sup, **sup_expect), False
    yield "|inner| off, reconstruction kept", fac_check(
        Fake(fs, inner_coeffs=fs.inner_coeffs * (1 + eps),
             outer_coeffs=fs.outer_coeffs / (1 + eps)), sup, **sup_expect), False
    yield "outer[0] not real", fac_check(
        Fake(fs, inner_coeffs=fs.inner_coeffs * np.exp(-1j * eps),
             outer_coeffs=fs.outer_coeffs * np.exp(1j * eps)), sup, **sup_expect), False
    yield "factorize su11_cs", fac_check(fc, cs), True
    yield "spurious zero in a zero-free state", fac_check(
        Fake(fc, zeros=((0.5 + 0j, 1),)), cs), False
    yield "zero-free defect of 1e-3", fac_check(Fake(fc, outer_defect=eps), cs), False
    yield "factorize vacuum_plus[3]", fac_check(fv, vac, boundary_zero=True), True
    yield "boundary-zero reconstruction off by 1e-4", fac_check(
        Fake(fv, outer_coeffs=fv.outer_coeffs + 1e-4 * (np.arange(64) == 5)), vac,
        boundary_zero=True), False

    lattices = [
        ("su11_cs", dp.make_su11_cs(0.5 * np.exp(0.7j), 64), {"z": 0.5 * np.exp(0.7j)}),
        ("pi_superposition", dp.make_pi_superposition(0.5 * np.exp(0.9j), 2.0, 64),
         {"z": 0.5 * np.exp(0.9j), "tau": 2.0}),
        ("bg", dp.make_bg(np.exp(0.3j), 64), {"u": np.exp(0.3j)}),
        ("number_out", vac, {"m": 3}),
    ]
    for kind, state, params in lattices:
        grid = dp.wigner_grid(state)
        bad = grid.values.copy()
        bad[3] *= 1.01

        def lat(values, state=state, grid=grid, kind=kind, params=params):
            return lambda: checks.check_lattice(values, grid.theta, state.coeffs,
                                                kind, params)

        yield f"wigner_grid {kind}", lat(grid.values), True
        yield f"wigner_grid {kind}, row 3 scaled by 1.01", lat(bad), False

    w = dp.WeylElement(2, 0.7, 0.3)
    residual = dp.shift_covariance_check(dp.make_su11_cs(0.5, 32), w)
    yield "shift_covariance_check", lambda: checks.check_shift_covariance(residual), True
    yield "shift covariance residual 1e-9", lambda: checks.check_shift_covariance(
        1e-9), False
    shifted = dp.apply(w, cs).coeffs
    yield "weyl.apply", lambda: checks.check_shifted_coeffs(
        shifted, cs.coeffs, w.m, w.beta, w.gamma), True
    yield "weyl.apply with beta off by 1e-6", lambda: checks.check_shifted_coeffs(
        shifted, cs.coeffs, w.m, w.beta + 1e-6, w.gamma), False

    z, u = 0.3 + 0.05j, 1.2 - 0.7j
    lap = dp.laplace_to_disk(dp.bg_function(sup), z)
    u_in, u_out = dp.bg_factor_parts(fs)
    conv = dp.bg_convolve(u_in, u_out, u)
    yield "laplace_to_disk", lambda: checks.check_laplace(lap, sup.coeffs, z), True
    yield "laplace_to_disk off by 1e-5", lambda: checks.check_laplace(
        lap + 1e-5, sup.coeffs, z), False
    yield "bg_convolve", lambda: checks.check_convolve(conv, sup.coeffs, u), True
    yield "bg_convolve off by 1e-5", lambda: checks.check_convolve(
        conv + 1e-5, sup.coeffs, u), False

    WORK.mkdir(parents=True, exist_ok=True)
    report = cli_json("factor", "--json",
                      json.dumps({"kind": "pi_superposition", "z": [0.8, 0], "tau": TAU}),
                      "--n", "64")
    bad_report = json.loads(json.dumps(report))
    bad_report["zeros"][0]["gamma"][1] += 1e-3
    flipped = dict(report, outer=True)
    yield "cli factor", lambda: checks.check_factor_report(
        report, sup.coeffs, **sup_expect), True
    yield "cli factor, zero moved by 1e-3", lambda: checks.check_factor_report(
        bad_report, sup.coeffs, **sup_expect), False
    yield "cli factor, 'outer' flag flipped", lambda: checks.check_factor_report(
        flipped, sup.coeffs, **sup_expect), False

    z0 = 0.5 * np.exp(0.4j)
    phase = cli_json("phase-dist", "--json",
                     json.dumps({"kind": "su11_cs", "z": [z0.real, z0.imag]}), "--n", "64")
    bad_phase = dict(phase, phase_density=[1.001 * p for p in phase["phase_density"]])
    yield "cli phase-dist", lambda: checks.check_phase_dist(phase, z0), True
    yield "cli phase-dist scaled by 1.001", lambda: checks.check_phase_dist(
        bad_phase, z0), False

    zw = 0.5 * np.exp(0.9j)
    wig = cli_json("wigner", "--json", json.dumps(
        {"kind": "pi_superposition", "z": [zw.real, zw.imag], "tau": 2.0}), "--n", "64")
    wig_state = dp.make_pi_superposition(zw, 2.0, 64)
    bad_wig = dict(wig, values=[list(r) for r in wig["values"]])
    bad_wig["values"][2] = [1.01 * v for v in bad_wig["values"][2]]
    params = {"z": zw, "tau": 2.0}
    yield "cli wigner", lambda: checks.check_wigner_payload(
        wig, wig_state.coeffs, "pi_superposition", params), True
    yield "cli wigner, row 2 scaled by 1.01", lambda: checks.check_wigner_payload(
        bad_wig, wig_state.coeffs, "pi_superposition", params), False

    bgp = cli_json("bg", "--json", '{"kind":"number","m":2}', "--n", "64")
    bad_bg = json.loads(json.dumps(bgp))
    bad_bg["factor_atoms"]["atom_out"][0] += 1e-10
    yield "cli bg number[2]", lambda: checks.check_bg_number(bgp, 2), True
    yield "cli bg, outer atom off by 1e-10", lambda: checks.check_bg_number(
        bad_bg, 2), False

    good = "PASS [8] poisson-mass: residual=2.2e-15 tol=1.0e-10\nelapsed: 0.01 s\n"
    failing = good + "FAIL [7] closed-forms: residual=1e-3 tol=1e-9\n"
    yield "verify text", lambda: checks.check_verify_text(good, "poisson"), True
    yield "verify text with a FAIL line", lambda: checks.check_verify_text(failing), False
    yield "verify --only printing another check", lambda: checks.check_verify_text(
        good.replace("poisson-mass", "closed-forms"), "poisson"), False


def main() -> int:
    bad = 0
    for name, thunk, should_pass in cases():
        try:
            thunk()
            passed = True
        except checks.CheckError:
            passed = False
        ok = passed == should_pass
        bad += not ok
        verdict = "accepted" if passed else "rejected"
        print(f"{'ok  ' if ok else 'FAIL'} {verdict:8} {name}")
    print(f"{'all checks behave' if not bad else f'{bad} case(s) misbehave'}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
