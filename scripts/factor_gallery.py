#!/usr/bin/env python3
"""Factorise the whole state catalog and print a one-line summary per state.

Usage: python scripts/factor_gallery.py [--n 64] [--grid 512] [--json OUT]
"""

import argparse
import json
import math
import sys

from diskphase import DiskPhaseError, factorization_report, factorize
from diskphase.verification import build_catalog


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=64)
    parser.add_argument("--grid", type=int, default=512)
    parser.add_argument("--json", type=str, default=None,
                        help="also dump the full reports to this file")
    args = parser.parse_args()

    reports = {}
    print(f"{'state':34s} {'defect':>12s} {'zeros':>28s} {'resid':>9s} flags")
    try:
        for entry in build_catalog(args.n):
            fac = factorize(entry.state, grid_size=args.grid)
            zeros = ", ".join(
                f"{g:.4f}x{p}" if p > 1 else f"{g:.4f}" for g, p in fac.zeros
            )
            if fac.monomial_degree:
                zeros = f"z^{fac.monomial_degree} " + zeros
            defect = fac.outer_defect
            defect = f"{defect:12.3e}" if math.isfinite(defect) else "inf"
            flags = "singular?" if fac.singular_suspected else ""
            print(
                f"{entry.name:34s} {defect:>12s} {zeros:>28s} "
                f"{fac.reconstruction_residual:9.1e} {flags}"
            )
            reports[entry.name] = factorization_report(fac)
    except DiskPhaseError as exc:
        sys.exit(f"factor_gallery: {exc}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(reports, handle, indent=2, sort_keys=True)
        print(f"\nwrote {len(reports)} reports to {args.json}")


if __name__ == "__main__":
    main()
