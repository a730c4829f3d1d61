#!/usr/bin/env python3
"""Empirical truncation MSE against the certified bound.

Sweeps the truncation order for a chain-family instance at several noise
rates and prints sampled MSE, certified bound, and the pass margin per row.
"""

import argparse
import json
import warnings

import paulipath as pp
from paulipath.engine import truncation_order


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--qubits", type=int, default=2)
    ap.add_argument("--depth", type=int, default=6)
    ap.add_argument("--samples", type=int, default=400)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--noise", type=float, nargs="+", default=[0.1, 0.2, 0.3])
    ap.add_argument("--out", help="also write rows as JSON")
    args = ap.parse_args()

    circuit, h, rho = pp.rx_chain_instance(args.qubits, args.depth)
    max_m = truncation_order(circuit, None)
    rows = []
    print(f"chain n={args.qubits} depth={args.depth}, {args.samples} samples per row")
    print(f"{'lam':>5} {'m':>4} {'empirical':>12} {'bound':>12} {'passed':>7}")
    for lam in args.noise:
        for m in range(args.depth, max_m + 1, 2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                bench = pp.mse_benchmark(
                    circuit, h, rho, lam=lam, m=m, samples=args.samples, seed=args.seed
                )
            rows.append(
                {
                    "lam": lam,
                    "m": m,
                    "empirical_mse": bench.empirical_mse,
                    "bound": bench.bound,
                    "passed": bench.passed,
                }
            )
            print(
                f"{lam:>5.2f} {m:>4d} {bench.empirical_mse:>12.3e}"
                f" {bench.bound:>12.3e} {str(bench.passed):>7}"
            )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(rows, fh, indent=2)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
