"""Benchmark of diskphase: factorisation, the number-phase lattice and the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload closed loop, one operation at a time, in whole passes
over its fixed operation list until S seconds have gone by. Every output
is checked (perfbench/checks.py); a failed check names the operation on
stderr and makes the run exit 1. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. Results and spans are also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Span, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# BLAS runs single-threaded: on the shared two-core machine the measured
# companion-matrix solves were slower and noisier with two threads.
BLAS_THREADS = 1
# set-up is timed in the measuring process and in this many fresh ones
SETUP_PROBES = 2

END_TO_END = {"setup_s": "s", "pass_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}

# per-layer metric -> span name, summed over the layer probes of one pass
LAYER_SPANS = {
    "disk.boundary_ms": "disk.boundary",
    "factorization.refined_phi_ms": "factorization.refined_phi",
    "factorization.outer_part_ms": "factorization.outer_part",
    "factorization.inner_part_ms": "factorization.inner_part",
    "factorization.blaschke_zeros_ms": "factorization.blaschke_zeros",
    "factorization.outer_defect_ms": "factorization.outer_defect",
    "weyl.apply_ms": "weyl.apply",
    "verification.run_all_ms": "verification.run_all",
    "cli.factor_main_ms": "cli.factor_main",
    "cli.wigner_main_ms": "cli.wigner_main",
    "cli.verify_main_ms": "cli.verify_main",
}
OP_SPANS = {
    "factorization.factorize_ms": "factorization.factorize",
    "barut_girardello.laplace_to_disk_ms": "barut_girardello.laplace_to_disk",
    "barut_girardello.bg_convolve_ms": "barut_girardello.bg_convolve",
    "wigner.wigner_grid_ms": "wigner.wigner_grid",
    "wigner.shift_covariance_check_ms": "wigner.shift_covariance_check",
}
FACTOR_STAGES = (
    "factorization.refined_phi",
    "factorization.outer_part",
    "factorization.inner_part",
    "factorization.blaschke_zeros",
    "factorization.outer_defect",
)


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, from the library numpy loaded."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                           "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def setup_probe(args) -> float:
    """Set-up time of a fresh process running the same set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from the spans: medians over passes of per-pass sums."""
    spans = tracer.spans
    passes = [s for s in spans if s.name == "pass"]
    layers = [s for s in spans if s.name == "layers"]
    below = {s.id: tracer.children(s) for s in passes + layers}

    def per_root(roots: list[Span], name: str) -> float:
        return _median([sum(c.seconds for c in below[r.id] if c.name == name)
                        for r in roots])

    out: dict[str, float] = {
        "trace.pass_s": _median([p.attrs["ops_s"] for p in passes]),
        "states.build_ms": 1e3 * sum(s.seconds for s in spans
                                     if s.name.startswith("states.")),
    }
    for metric, name in OP_SPANS.items():
        out[metric] = 1e3 * per_root(passes, name)
    for metric, name in LAYER_SPANS.items():
        out[metric] = 1e3 * per_root(layers, name)

    def diagnostics(root: Span) -> float:
        total = 0.0
        for group in (c for c in below[root.id] if c.name == "decompose"):
            parts = {c.name: c for c in tracer.children(group)}
            fac = parts.get("factorization.factorize")
            if fac is None or "error" in fac.attrs:
                continue
            total += fac.seconds - sum(parts[n].seconds for n in FACTOR_STAGES)
        return total

    out["factorization.diagnostics_ms"] = 1e3 * _median([diagnostics(r) for r in layers])
    out["factorization.disk_zeros"] = _median(
        [sum(c.attrs.get("zeros", 0) for c in below[p.id]) for p in passes])
    out["cli.python_start_ms"] = 1e3 * _median(
        [s.seconds for s in spans if s.name == "cli.python_start"])
    out["cli.import_ms"] = 1e3 * _median(
        [s.attrs["import_s"] for s in spans if s.name == "cli.import"])
    return out


def measure(wl, tracer: Tracer, seconds: float, errors: list[str]) -> dict:
    """Whole passes over the operation list until `seconds` have gone by;
    checks run between operations, outside the timed calls."""
    from checks import CheckError

    pass_s: list[float] = []
    op_s: list[float] = []
    by_op: dict[str, list[float]] = {op.name: [] for op in wl.ops}
    attempted = failed = 0
    faults: dict[str, str] = {}
    start = time.perf_counter()
    while True:
        with tracer.span("pass") as pass_span:
            total = 0.0
            for op in wl.ops:
                attempted += 1
                t0 = time.perf_counter()
                try:
                    with tracer.span(op.span, op=op.name) as span:
                        result = op.call()
                except Exception as exc:  # counted, reported once per operation
                    total += time.perf_counter() - t0
                    failed += 1
                    faults.setdefault(op.name, f"{type(exc).__name__}: {exc}")
                    continue
                dt = time.perf_counter() - t0
                total += dt
                op_s.append(dt)
                by_op[op.name].append(dt)
                if span is not None and op.zeros is not None:
                    span.attrs["zeros"] = op.zeros(result)
                try:
                    op.check(result)
                except CheckError as exc:
                    errors.append(f"{op.name}: {exc}")
                del result
            if pass_span is not None:
                pass_span.attrs["ops_s"] = total
        pass_s.append(total)
        if tracer.enabled:
            with tracer.span("layers"):
                try:
                    wl.decompose(tracer)
                except CheckError as exc:
                    errors.append(f"layer probe: {exc}")
        if errors or time.perf_counter() - start >= seconds:
            break
    return {"pass_s": pass_s, "op_s": op_s, "attempted": attempted,
            "failed": failed, "faults": faults,
            "op_median_s": {k: _median(v) for k, v in by_op.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["factor-large", "factor-zeros", "statistics", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up seconds and exit")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "diskphase" / "__init__.py").is_file():
        print(f"perfbench: no diskphase sources at {src}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))

    tracer = Tracer(args.trace == 1)
    t0 = time.perf_counter()
    import workloads  # numpy, scipy and diskphase load here, inside set-up

    if not Path(workloads.dp.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: diskphase imported from {workloads.dp.__file__}, not {src}",
              file=sys.stderr)
        return 2
    with tracer.span("setup"):
        wl = workloads.SETUPS[args.workload](args.seed, tracer, ROOT)
    setup_samples = [time.perf_counter() - t0]
    if args.setup_probe:
        print(repr(setup_samples[0]))
        return 0
    if not tracer.enabled:
        setup_samples += [setup_probe(args) for _ in range(SETUP_PROBES)]

    errors: list[str] = []
    run = measure(wl, tracer, args.seconds, errors)
    if tracer.enabled:
        metrics = layer_metrics(tracer)
        units = {k: ("s" if k.endswith("_s") else "count" if k.endswith("zeros")
                     else "ms") for k in metrics}
    else:
        rss_kb = (max(wl.child_rss_kb) if wl.child_rss_kb
                  else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        metrics = {
            "setup_s": _median(setup_samples),
            "pass_s": _median(run["pass_s"]),
            "op_p50_ms": 1e3 * _median(run["op_s"]),
            "peak_rss_mb": rss_kb / 1024.0,
        }
        units = END_TO_END

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "passes": len(run["pass_s"]),
        "ops_per_pass": len(wl.ops),
        "pass_s_all": run["pass_s"],
        "setup_s_all": setup_samples,
        "op_median_s": run["op_median_s"],
        "faults": run["faults"],
        "check_errors": errors,
    }
    result = {
        "correct": not errors,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps({**info, **result}, indent=2))
    if tracer.enabled:
        tracer.write(OUT / f"trace-{stem}.jsonl")
    for name, fault in run["faults"].items():
        print(f"perfbench: operation failed: {name}: {fault}", file=sys.stderr)
    for err in errors:
        print(f"perfbench: CHECK FAILED: {err}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} nproc={info['nproc']} "
          f"blas_threads={info['blas_threads']} passes={info['passes']} "
          f"ops/pass={info['ops_per_pass']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
