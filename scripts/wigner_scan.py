#!/usr/bin/env python3
"""Dump the joint number-phase lattice of a state and report its marginals.

Usage: python scripts/wigner_scan.py --json '{"kind":"su11_cs","z":[0.5,0]}' \
           [--n 64] [--n-max 24] [--csv OUT]
"""

import argparse
import json

from diskphase import marginal_residuals, wigner_grid
from diskphase.cli import parse_state_spec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", type=str, required=True)
    parser.add_argument("--n", type=int, default=64)
    parser.add_argument("--n-max", type=int, default=24)
    parser.add_argument("--csv", type=str, default=None)
    args = parser.parse_args()

    state = parse_state_spec(json.loads(args.json), args.n)
    grid = wigner_grid(state, n_max=args.n_max)

    num_residual, phase_residual = marginal_residuals(state, grid)
    print(f"lattice: {grid.values.shape[0]} levels x {grid.theta.size} angles")
    print(f"value range: [{grid.values.min():+.5f}, {grid.values.max():+.5f}]")
    print(f"number-marginal residual: {num_residual:.3e}")
    print(f"phase-marginal residual: {phase_residual:.3e}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write("n,theta,s\n")
            for n in range(grid.values.shape[0]):
                for theta, s in zip(grid.theta, grid.values[n]):
                    handle.write(f"{n},{theta!r},{s!r}\n")
        print(f"wrote lattice to {args.csv}")


if __name__ == "__main__":
    main()
