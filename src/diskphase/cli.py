"""Command-line front end.

Subcommands: state, factor, phase-dist, wigner, bg, verify. State specs are
JSON objects (complex numbers as [re, im] pairs) passed via --spec FILE or
--json 'INLINE'. Output is deterministic byte-for-byte for a fixed spec and
configuration.

Exit codes: 0 success, 2 malformed spec/config, 3 numeric precondition
violation, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import barut_girardello as bg
from . import verification
from . import weyl as weyl_mod
from .disk import boundary, default_grid_size, phase_distribution
from .errors import AliasingError, DiskPhaseError, SpecError
from .factorization import factorization_report, factorize
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
from .wigner import wigner_grid

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


@dataclass(frozen=True)
class RunConfig:
    truncation: int = DEFAULT_TRUNCATION
    grid_size: int | None = None
    outer_tol: float = 1e-6
    edge_margin: float = 1e-3
    fmt: str = "json"
    out: Path | None = None

    def validate(self) -> None:
        if self.truncation < 1:
            raise SpecError("truncation must be >= 1")
        m = self.resolved_grid()
        if m < 1 or m & (m - 1):
            raise SpecError(f"grid {m} must be a power of two")
        if m < 2 * self.truncation:
            raise AliasingError(
                f"grid {m} cannot resolve truncation {self.truncation}; "
                "need at least twice the truncation"
            )
        if not (math.isfinite(self.outer_tol) and self.outer_tol > 0):
            raise SpecError(
                f"outer tolerance {self.outer_tol} must be finite and positive"
            )
        if not 0 < self.edge_margin < 1:
            raise SpecError(f"edge margin {self.edge_margin} must lie in (0, 1)")
        if self.fmt not in ("csv", "json"):
            raise SpecError(f"unknown format {self.fmt!r}")

    def resolved_grid(self) -> int:
        return (
            default_grid_size(self.truncation)
            if self.grid_size is None
            else self.grid_size
        )


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


def _pairs(z) -> list:
    """[re, im] for a complex scalar, a list of such pairs for an array."""
    return np.stack([np.real(z), np.imag(z)], -1).tolist()


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


def _build_state(args, config: RunConfig) -> FockState:
    state = parse_state_spec(_load_spec(args), config.truncation)
    if args.weyl:
        state = weyl_mod.apply(parse_weyl(args.weyl), state)
    return state


def cmd_state(args, config: RunConfig) -> int:
    state = _build_state(args, config)
    dist = number_distribution(state)
    if config.fmt == "json":
        payload = {
            "coeffs": _pairs(state.coeffs),
            "norm_defect": float(state.norm_defect),
            "number_distribution": dist.tolist(),
            "truncation": state.truncation,
        }
        _emit(_json_text(payload), config.out)
    else:
        c = state.coeffs
        rows = zip(range(c.size), c.real.tolist(), c.imag.tolist(), dist.tolist())
        text = f"# norm_defect={state.norm_defect!r}\n" + _csv_text(
            ["n", "re_coeff", "im_coeff", "probability"], rows
        )
        _emit(text, config.out)
    return EXIT_OK


def cmd_factor(args, config: RunConfig) -> int:
    state = _build_state(args, config)
    fac = factorize(
        state, grid_size=config.resolved_grid(), edge_margin=config.edge_margin
    )
    report = factorization_report(fac)
    report["outer"] = (
        report["outer_defect"] is not None
        and report["outer_defect"] < config.outer_tol
    )
    _emit(_json_text(report), config.out)
    return EXIT_OK


def cmd_phase_dist(args, config: RunConfig) -> int:
    state = _build_state(args, config)
    m = config.resolved_grid()
    samples = boundary(state, m)
    density = np.abs(samples.values) ** 2 / (2.0 * np.pi)
    if config.fmt == "json":
        payload = {
            "theta": samples.theta.tolist(),
            "boundary_values": _pairs(samples.values),
            "phase_density": density.tolist(),
        }
        _emit(_json_text(payload), config.out)
    else:
        v = samples.values
        rows = zip(
            samples.theta.tolist(), v.real.tolist(), v.imag.tolist(), density.tolist()
        )
        _emit(
            _csv_text(["theta", "re_theta_fn", "im_theta_fn", "phase_density"], rows),
            config.out,
        )
    return EXIT_OK


def cmd_wigner(args, config: RunConfig) -> int:
    state = _build_state(args, config)
    n_max = args.n_max if args.n_max is not None else state.truncation - 1
    grid = wigner_grid(state, n_max=n_max, grid_size=config.resolved_grid())
    marg_n = grid.number_marginal()
    expected = np.zeros(n_max + 1)
    k = min(n_max + 1, state.truncation)
    expected[:k] = number_distribution(state)[:k]
    num_residual = float(np.max(np.abs(marg_n - expected)))
    phase_residual = float(
        np.max(
            np.abs(
                grid.phase_marginal()
                - phase_distribution(state, grid.theta.size)
            )
        )
    )
    if config.fmt == "json":
        payload = {
            "n_max": grid.n_max,
            "theta": grid.theta.tolist(),
            "values": grid.values.tolist(),
            "number_marginal_residual": num_residual,
            "phase_marginal_residual": phase_residual,
        }
        _emit(_json_text(payload), config.out)
    else:
        theta = grid.theta.tolist()
        rows = (
            (n, t, v)
            for n, row in enumerate(grid.values.tolist())
            for t, v in zip(theta, row)
        )
        _emit(_csv_text(["n", "theta", "s"], rows), config.out)
    return EXIT_OK


def cmd_bg(args, config: RunConfig) -> int:
    if args.points < 0:
        raise SpecError(f"--points {args.points} must be >= 0")
    if not (math.isfinite(args.tmax) and math.isfinite(args.arg)):
        raise SpecError("--tmax and --arg must be finite")
    state = _build_state(args, config)
    u_fn = bg.bg_function(state)
    fac = factorize(
        state, grid_size=config.resolved_grid(), edge_margin=config.edge_margin
    )
    u_in, u_out = bg.bg_factor_parts(fac)
    ts = np.linspace(0.0, args.tmax, args.points)
    ray = ts * np.exp(1j * args.arg)
    values = np.array([complex(u_fn(u)) for u in ray])
    atoms = {
        "atom_in": _pairs(u_in.atom),
        "atom_out": _pairs(u_out.atom),
    }
    if config.fmt == "json":
        payload = {
            "ray": {
                "t": ts.tolist(),
                "u": _pairs(ray),
                "values": _pairs(values),
            },
            "factor_atoms": atoms,
        }
        _emit(_json_text(payload), config.out)
    else:
        rows = zip(ts.tolist(), values.real.tolist(), values.imag.tolist())
        _emit(_csv_text(["t", "re_u", "im_u"], rows), config.out)
        # factor-part atoms always accompany the ray as a JSON block
        sys.stdout.write(_json_text(atoms))
    return EXIT_OK


def cmd_verify(args, config: RunConfig) -> int:
    if args.only:
        report = verification.run_matching(args.only)
        if not report.results:
            raise SpecError(f"no verification check matches {args.only!r}")
    else:
        report = verification.run_all()
    results = report.results
    if config.fmt == "json":
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
        _emit(_json_text(payload), config.out)
    else:
        lines = []
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(
                f"{status} [{r.criterion}] {r.name}: residual={r.residual:.3e} "
                f"tol={r.tolerance:.3e}"
            )
        lines.append(f"elapsed: {report.elapsed_seconds:.2f} s")
        _emit("\n".join(lines) + "\n", config.out)
    return EXIT_OK if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskphase",
        description="Disk-analytic oscillator states: factorisation and "
        "number-phase statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_state: bool = True) -> None:
        p.add_argument("--format", choices=["csv", "json"], default="json")
        p.add_argument("--out", type=Path, default=None)
        if with_state:
            p.add_argument("--n", type=int, default=DEFAULT_TRUNCATION,
                           help="truncation (number of coefficients)")
            p.add_argument("--grid", type=int, default=None,
                           help="boundary grid size (power of two, >= 2N)")
            p.add_argument("--outer-tol", type=float, default=1e-6)
            p.add_argument("--edge-margin", type=float, default=1e-3)
            p.add_argument("--spec", type=Path, default=None,
                           help="path to a JSON state spec")
            p.add_argument("--json", type=str, default=None,
                           help="inline JSON state spec")
            p.add_argument("--weyl", type=str, default=None,
                           help="apply a shift element 'm:beta:gamma' first")

    p_state = sub.add_parser("state", help="dump coefficients and statistics")
    add_common(p_state)
    p_factor = sub.add_parser("factor", help="inner/outer factorisation report")
    add_common(p_factor)
    p_phase = sub.add_parser("phase-dist", help="boundary function and phase density")
    add_common(p_phase)
    p_wig = sub.add_parser("wigner", help="joint number-phase lattice")
    add_common(p_wig)
    p_wig.add_argument("--n-max", type=int, default=None)
    p_bg = sub.add_parser("bg", help="transformed function along a ray")
    add_common(p_bg)
    p_bg.add_argument("--arg", type=float, default=0.0, help="ray angle (radians)")
    p_bg.add_argument("--tmax", type=float, default=2.0)
    p_bg.add_argument("--points", type=int, default=65)
    p_verify = sub.add_parser("verify", help="run the verification catalog")
    add_common(p_verify, with_state=False)
    p_verify.add_argument("--only", type=str, default=None,
                          help="run only checks whose name contains this")
    return parser


_HANDLERS = {
    "state": cmd_state,
    "factor": cmd_factor,
    "phase-dist": cmd_phase_dist,
    "wigner": cmd_wigner,
    "bg": cmd_bg,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        config = RunConfig(fmt=args.format, out=args.out)
    else:
        config = RunConfig(
            truncation=args.n,
            grid_size=args.grid,
            outer_tol=args.outer_tol,
            edge_margin=args.edge_margin,
            fmt=args.format,
            out=args.out,
        )
    try:
        config.validate()
        return _HANDLERS[args.command](args, config)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except DiskPhaseError as exc:
        print(f"numeric precondition violated: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
