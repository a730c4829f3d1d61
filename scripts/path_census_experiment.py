#!/usr/bin/env python3
"""Path census and weight histogram for the chain benchmark family."""

import argparse
from collections import Counter

import paulipath as pp
from paulipath.engine import PathEnumeration


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--qubits", type=int, default=2)
    ap.add_argument("--depths", type=int, nargs="+", default=[4, 6, 8, 10])
    args = ap.parse_args()

    print(f"{'depth':>6} {'paths':>8} {'2^(L-1)':>8} {'nodes':>8}  weights")
    for depth in args.depths:
        circuit, h, rho = pp.rx_chain_instance(args.qubits, depth)
        run = PathEnumeration(circuit, h, rho, None)
        weights = Counter()
        for block in run:
            weights.update(block.spent.tolist())
        stats = run.stats
        histogram = " ".join(f"{w}:{c}" for w, c in sorted(weights.items()))
        print(
            f"{depth:>6d} {stats.paths_emitted:>8d} {2 ** (depth - 1):>8d}"
            f" {stats.nodes_visited:>8d}  {histogram}"
        )


if __name__ == "__main__":
    main()
