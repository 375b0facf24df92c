"""Command-line front end.

Subcommands: state, factor, phase-dist, wigner, bg, verify; each declares
only the flags its handler reads. State specs are JSON objects (complex
numbers as [re, im] pairs) passed via --spec FILE or --json 'INLINE'.
Output is deterministic byte-for-byte for a fixed spec and configuration.

Exit codes: 0 success, 2 malformed spec/config or an array over MAX_CELLS,
3 numeric precondition violation or out of memory, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import barut_girardello as bg
from . import verification
from . import weyl as weyl_mod
from .disk import boundary, default_grid_size
from .errors import AliasingError, DiskPhaseError, IllConditionedError, SpecError
from .factorization import (
    DEFAULT_EDGE_MARGIN,
    DEFAULT_OUTER_TOL,
    complex_pairs,
    factorization_report,
    factorize,
)
from .states import (
    DEFAULT_TRUNCATION,
    FockState,
    make_bg,
    make_blaschke_state,
    make_number,
    make_pi_superposition,
    make_su11_cs,
    number_distribution,
    raw_state,
    superpose,
)
from .wigner import marginal_residuals, wigner_grid

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


# Largest array, in cells, that one run may allocate; `wigner --n 2048` fills
# its 2048 x 8192 lattice at exactly this size. The companion-matrix
# fallback's N^2 matrix is the one allocation it does not foresee.
MAX_CELLS = 2**24


def _as_real(value) -> float:
    """A JSON number as a float; booleans and ints past the float range fail."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise SpecError(f"expected a real number, got {value!r}")


def _as_int(value) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise SpecError(f"expected an integer, got {value!r}")


def _as_list(value) -> list:
    if isinstance(value, list):
        return value
    raise SpecError(f"expected a list, got {value!r}")


def _as_complex(value) -> complex:
    pair = isinstance(value, (list, tuple)) and len(value) == 2
    try:
        return complex(*map(_as_real, value)) if pair else complex(_as_real(value))
    except SpecError:
        raise SpecError(f"expected a number or [re, im] pair, got {value!r}") from None


def _field(spec: dict, key: str, convert):
    """spec[key] passed through one of the converters above."""
    if key not in spec:
        kind = spec["kind"]
        raise SpecError(f"state spec of kind {kind!r} is missing field {key!r}")
    try:
        return convert(spec[key])
    except SpecError as exc:
        raise SpecError(f"field {key!r}: {exc}") from None


def parse_state_spec(spec, truncation: int) -> FockState:
    """Build a state from its JSON description (recursively for superpose)."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SpecError("state spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "number":
        return make_number(_field(spec, "m", _as_int), truncation)
    if kind == "su11_cs":
        return make_su11_cs(_field(spec, "z", _as_complex), truncation)
    if kind == "bg":
        return make_bg(_field(spec, "u", _as_complex), truncation)
    if kind == "blaschke":
        return make_blaschke_state(_field(spec, "z", _as_complex), truncation)
    if kind == "pi_superposition":
        return make_pi_superposition(
            _field(spec, "z", _as_complex), _field(spec, "tau", _as_real), truncation
        )
    if kind == "raw":
        coeffs = _field(spec, "coeffs", _as_list)
        return raw_state(np.array([_as_complex(c) for c in coeffs]))
    if kind == "superpose":
        parts = [
            parse_state_spec(sub, truncation)
            for sub in _field(spec, "components", _as_list)
        ]
        amps = [_as_complex(a) for a in _field(spec, "amplitudes", _as_list)]
        return superpose(parts, amps)
    raise SpecError(f"unknown state kind {kind!r}")


def parse_weyl(text: str) -> weyl_mod.WeylElement:
    """Parse 'm:beta:gamma' (radians)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise SpecError("weyl element must be 'm:beta:gamma'")
    try:
        return weyl_mod.WeylElement(int(parts[0]), float(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise SpecError(f"bad weyl element {text!r}: {exc}") from exc


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


def _json_text(payload) -> str:
    """json.dumps(payload, indent=2, sort_keys=True) + newline, byte for byte.

    With an indent, json.dumps runs the pure-Python encoder over every
    element; here only the containers do, and each list of floats goes
    through the C encoder in one call.
    """
    return _json_value(payload, "\n") + "\n"


def _json_value(value, indent: str) -> str:
    """One value of `_json_text`; `indent` is the newline and indent it closes at."""
    inner = indent + "  "
    if isinstance(value, dict):
        brackets = "{}"
        items = [
            f"{json.dumps(key)}: {_json_value(value[key], inner)}"
            for key in sorted(value)
        ]
    elif isinstance(value, (list, tuple)):
        brackets = "[]"
        if value and all(isinstance(v, float) for v in value):
            # float reprs hold no ", ", so the only ones are separators
            items = [json.dumps(value)[1:-1].replace(", ", "," + inner)]
        else:
            items = [_json_value(v, inner) for v in value]
    else:
        return json.dumps(value)
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _csv_text(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _load_spec(args) -> dict:
    if args.json is not None:
        text = args.json
    elif args.spec is not None:
        text = Path(args.spec).read_text(encoding="utf-8")
    else:
        raise SpecError("provide a state via --spec FILE or --json 'SPEC'")
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise SpecError(f"invalid JSON spec: {exc}") from exc


def _grid(args, levels: int) -> int:
    """--grid, or the default for --n doubled until it resolves the run.

    The default holds twice the truncation `levels` of the state the run
    samples and, for wigner, exceeds the top harmonic 2 n_max + 1; where the
    4 N default already does both, it is unchanged.
    """
    if args.grid is not None:
        return args.grid
    top = 2 * levels - 1
    if "n_max" in args and args.n_max is not None:
        top = max(top, 2 * args.n_max + 1)
    return default_grid_size(args.n, top)


def _check_args(args) -> None:
    """Refuse out-of-range flags, and arrays over MAX_CELLS, before allocating."""
    if args.command == "verify":
        return
    if args.n < 1:
        raise SpecError("truncation must be >= 1")
    if "grid" in args and args.grid is not None:
        m = args.grid
        if m < 1 or m & (m - 1):
            raise SpecError(f"grid {m} must be a power of two")
        if m < 2 * args.n:
            raise AliasingError(
                f"grid {m} cannot resolve truncation {args.n}; "
                "need at least twice the truncation"
            )
    if "outer_tol" in args and not 0 < args.outer_tol < math.inf:
        raise SpecError(f"outer tolerance {args.outer_tol} must be finite and positive")
    if "edge_margin" in args and not 0 < args.edge_margin < 1:
        raise SpecError(f"edge margin {args.edge_margin} must lie in (0, 1)")
    if args.command == "bg":
        if args.points < 0:
            raise SpecError(f"--points {args.points} must be >= 0")
        if not (math.isfinite(args.tmax) and math.isfinite(args.arg)):
            raise SpecError("--tmax and --arg must be finite")
    levels = args.n + (parse_weyl(args.weyl).m if args.weyl else 0)
    _check_budget(args, levels, _grid(args, levels) if "grid" in args else 0)


def _check_budget(args, levels: int, m: int) -> None:
    """Refuse a run on `levels` levels and grid M whose largest array would
    exceed MAX_CELLS, naming the flag that asks for it."""
    cells = [("--n", args.n), ("--weyl", levels)]
    if args.command in ("factor", "bg"):
        cells.append(("--grid", 3 * m))  # the boundary on grids M and 2M
    elif args.command == "phase-dist":
        cells.append(("--grid", m))
    elif args.command == "wigner" and args.n_max is None:
        cells.append(("--n", levels * m))  # the default n_max is N - 1
    elif args.command == "wigner":
        cells.append(("--n-max", (args.n_max + 1) * m))
    if args.command == "bg":
        cells.append(("--points", args.points))
    for flag, size in cells:
        if size > MAX_CELLS:
            raise SpecError(
                f"{flag} asks for an array of {size} cells; the limit is {MAX_CELLS}"
            )


def _build_state(args) -> FockState:
    try:
        state = parse_state_spec(_load_spec(args), args.n)
    except RecursionError:  # from json.loads or parse_state_spec
        raise SpecError("state spec nested too deeply") from None
    if args.weyl:
        state = weyl_mod.apply(parse_weyl(args.weyl), state)
    return state


def _sampled(args) -> tuple[FockState, int]:
    """The state and its grid, checked against the budget once more: a raw
    spec sets its own truncation, which --n only estimates."""
    state = _build_state(args)
    m = _grid(args, state.truncation)
    _check_budget(args, state.truncation, m)
    return state, m


def cmd_state(args) -> int:
    state = _build_state(args)
    dist = number_distribution(state)
    if args.format == "json":
        payload = {
            "coeffs": complex_pairs(state.coeffs),
            "norm_defect": float(state.norm_defect),
            "number_distribution": dist.tolist(),
            "truncation": state.truncation,
        }
        _emit(_json_text(payload), args.out)
    else:
        c = state.coeffs
        rows = zip(range(c.size), c.real.tolist(), c.imag.tolist(), dist.tolist())
        text = f"# norm_defect={state.norm_defect!r}\n" + _csv_text(
            ["n", "re_coeff", "im_coeff", "probability"], rows
        )
        _emit(text, args.out)
    return EXIT_OK


def cmd_factor(args) -> int:
    state, m = _sampled(args)
    fac = factorize(state, grid_size=m, edge_margin=args.edge_margin)
    report = factorization_report(fac)
    report["outer"] = fac.outer_defect < args.outer_tol
    _emit(_json_text(report), args.out)
    return EXIT_OK


def cmd_phase_dist(args) -> int:
    state, m = _sampled(args)
    samples = boundary(state, m)
    density = np.abs(samples.values) ** 2 / (2.0 * np.pi)
    if args.format == "json":
        payload = {
            "theta": samples.theta.tolist(),
            "boundary_values": complex_pairs(samples.values),
            "phase_density": density.tolist(),
        }
        _emit(_json_text(payload), args.out)
    else:
        v = samples.values
        rows = zip(
            samples.theta.tolist(), v.real.tolist(), v.imag.tolist(), density.tolist()
        )
        _emit(
            _csv_text(["theta", "re_theta_fn", "im_theta_fn", "phase_density"], rows),
            args.out,
        )
    return EXIT_OK


def cmd_wigner(args) -> int:
    state, m = _sampled(args)
    grid = wigner_grid(state, n_max=args.n_max, grid_size=m)
    num_residual, phase_residual = marginal_residuals(state, grid)
    if args.format == "json":
        payload = {
            "n_max": grid.n_max,
            "theta": grid.theta.tolist(),
            "values": grid.values.tolist(),
            "number_marginal_residual": num_residual,
            "phase_marginal_residual": phase_residual,
        }
        _emit(_json_text(payload), args.out)
    else:
        theta = grid.theta.tolist()
        rows = (
            (n, t, v)
            for n, row in enumerate(grid.values.tolist())
            for t, v in zip(theta, row)
        )
        _emit(_csv_text(["n", "theta", "s"], rows), args.out)
    return EXIT_OK


def cmd_bg(args) -> int:
    state, m = _sampled(args)
    u_fn = bg.bg_function(state)
    u_in, u_out = bg.bg_factor_parts(factorize(state, grid_size=m))
    ts = np.linspace(0.0, args.tmax, args.points)
    ray = ts * np.exp(1j * args.arg)
    with np.errstate(over="ignore", invalid="ignore"):
        values = u_fn(ray)
    if not np.all(np.isfinite(values)):
        raise IllConditionedError(f"U(u) overflows on the ray up to t = {args.tmax:g}")
    atoms = {
        "atom_in": complex_pairs(u_in.atom),
        "atom_out": complex_pairs(u_out.atom),
    }
    if args.format == "json":
        payload = {
            "ray": {
                "t": ts.tolist(),
                "u": complex_pairs(ray),
                "values": complex_pairs(values),
            },
            "factor_atoms": atoms,
        }
        _emit(_json_text(payload), args.out)
    else:
        rows = zip(ts.tolist(), values.real.tolist(), values.imag.tolist())
        _emit(_csv_text(["t", "re_u", "im_u"], rows), args.out)
        # factor-part atoms always accompany the ray as a JSON block
        sys.stdout.write(_json_text(atoms))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.only:
        report = verification.run_matching(args.only)
        if not report.results:
            raise SpecError(f"no verification check matches {args.only!r}")
    else:
        report = verification.run_all()
    results = report.results
    if args.format == "json":
        payload = {
            "elapsed_seconds": report.elapsed_seconds,
            "results": [
                {
                    "criterion": r.criterion,
                    "name": r.name,
                    "passed": r.passed,
                    "residual": r.residual,
                    "tolerance": r.tolerance,
                    "detail": r.detail,
                }
                for r in results
            ],
        }
        _emit(_json_text(payload), args.out)
    else:
        lines = []
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(
                f"{status} [{r.criterion}] {r.name}: residual={r.residual:.3e} "
                f"tol={r.tolerance:.3e}"
            )
        lines.append(f"elapsed: {report.elapsed_seconds:.2f} s")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if report.all_passed else 1


_OPTIONS = {
    "--n": dict(type=int, default=DEFAULT_TRUNCATION,
                help="truncation (number of coefficients)"),
    "--grid": dict(type=int, default=None,
                   help="boundary grid size (power of two, >= 2N)"),
    "--outer-tol": dict(type=float, default=DEFAULT_OUTER_TOL),
    "--edge-margin": dict(type=float, default=DEFAULT_EDGE_MARGIN),
    "--spec": dict(type=Path, default=None, help="path to a JSON state spec"),
    "--json": dict(type=str, default=None, help="inline JSON state spec"),
    "--weyl": dict(type=str, default=None,
                   help="apply a shift element 'm:beta:gamma' first"),
    "--format": dict(choices=["csv", "json"], default="json"),
    "--out": dict(type=Path, default=None),
    "--n-max": dict(type=int, default=None),
    "--arg": dict(type=float, default=0.0, help="ray angle (radians)"),
    "--tmax": dict(type=float, default=2.0),
    "--points": dict(type=int, default=65),
    "--only": dict(type=str, default=None,
                   help="run only checks whose name contains this"),
}
_STATE = ("--n", "--spec", "--json", "--weyl")
_SAMPLED = (*_STATE, "--grid", "--format", "--out")

# subcommand: (help, handler, the flags its handler reads)
_SUBCOMMANDS = {
    "state": ("dump coefficients and statistics", cmd_state,
              (*_STATE, "--format", "--out")),
    "factor": ("inner/outer factorisation report (JSON)", cmd_factor,
               (*_STATE, "--grid", "--outer-tol", "--edge-margin", "--out")),
    "phase-dist": ("boundary function and phase density", cmd_phase_dist, _SAMPLED),
    "wigner": ("joint number-phase lattice", cmd_wigner, (*_SAMPLED, "--n-max")),
    "bg": ("transformed function along a ray", cmd_bg,
           (*_SAMPLED, "--arg", "--tmax", "--points")),
    "verify": ("run the verification catalog", cmd_verify,
               ("--format", "--out", "--only")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskphase",
        description="Disk-analytic oscillator states: factorisation and "
        "number-phase statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag in flags:
            p.add_argument(flag, **_OPTIONS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        return _SUBCOMMANDS[args.command][1](args)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except DiskPhaseError as exc:
        print(f"numeric precondition violated: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
