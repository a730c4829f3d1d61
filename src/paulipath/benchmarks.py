"""Built-in benchmark instances.

`rx_chain_instance` builds the adversarial family where truncation saves
nothing: one R_Z layer on every qubit, one R_X layer on every qubit, then
depth - 2 further R_X layers on qubit 1 alone, measured against
H = Z_1 + Y_1 from |0...0><0...0|.  Every contributing path then has total
weight exactly depth + 1 (the words never leave qubit 1 and never touch
identity), there are exactly 2^(depth - 1) of them, and the noiseless
value collapses to the closed form

    value = cos(2 alpha) - sin(2 alpha),
    alpha = (theta of the R_X gates on qubit 1, layers 2..depth, summed) / 2.

That makes the family an exact yardstick for estimator values, for path
census checks, and for how enumeration cost scales when the noise rate
shrinks with depth.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .circuit import Circuit, Layer, RotationGate
from .engine import PathEnumeration
from .estimator import choose_m
from .observables import Hamiltonian, SparseDensity, norm_bound
from .pauli import PauliWord, non_negative_int, qubit_count

# noise rates of the scaling sweep: lam = 1/ln(L) and lam = 1/L, capped
SWEEP_LAM_CAP = 0.95


def _chain_depth(depth) -> int:
    """The chain family's depth rule: an integer of at least 2."""
    if non_negative_int(depth, "depth") < 2:
        raise ValueError(f"need depth >= 2, got {depth}")
    return int(depth)


def rx_chain_instance(
    n: int, depth: int
) -> tuple[Circuit, Hamiltonian, SparseDensity]:
    """Circuit, observable and state of the worst-case chain family.

    Parameters are named t{layer}_{qubit}, one per rotation.
    """
    qubit_count(n)
    depth = _chain_depth(depth)
    layers = [
        Layer(
            tuple(
                RotationGate(PauliWord.from_map(n, {q: "Z"}), param=f"t1_{q}")
                for q in range(1, n + 1)
            )
        ),
        Layer(
            tuple(
                RotationGate(PauliWord.from_map(n, {q: "X"}), param=f"t2_{q}")
                for q in range(1, n + 1)
            )
        ),
    ]
    for li in range(3, depth + 1):
        layers.append(
            Layer((RotationGate(PauliWord.from_map(n, {1: "X"}), param=f"t{li}_1"),))
        )
    circuit = Circuit(n, tuple(layers))
    h = Hamiltonian(
        n,
        [
            (PauliWord.from_map(n, {1: "Z"}), 1.0),
            (PauliWord.from_map(n, {1: "Y"}), 1.0),
        ],
    )
    rho = SparseDensity.computational_basis(n)
    return circuit, h, rho


def rx_chain_exact_value(assignment: dict[str, float], depth: int) -> float:
    """Noiseless mean value of the chain family in closed form."""
    depth = _chain_depth(depth)
    alpha = sum(assignment[f"t{li}_1"] for li in range(2, depth + 1)) / 2.0
    return math.cos(2.0 * alpha) - math.sin(2.0 * alpha)


def scaling_sweep(n: int, depths: list[int], target_mse: float) -> dict:
    """Enumeration cost of the chain family under two noise schedules.

    For every depth L the truncation order comes from the target-MSE rule
    at noise rate lam = 1/ln(L) (the "inv-log" arm) and lam = 1/L (the
    "inv-linear" arm), both capped at SWEEP_LAM_CAP.  The inv-log arm keeps
    the required order well below the weight any path must carry, so the
    walk dies immediately and node counts stay flat in L; the inv-linear
    arm forces full enumeration of all 2^(L-1) paths.  The returned fits quantify both shapes:
    polynomial exponent d from log nodes ~ d log L for the inv-log arm,
    exponential rate r from log2 nodes ~ r L for the inv-linear arm.
    """
    depths = [non_negative_int(d, "depth") for d in depths]
    if any(d < 2 for d in depths) or len(depths) < 2:
        raise ValueError("need at least two depths, all >= 2")
    rows = []
    for depth in sorted(depths):
        circuit, h, rho = rx_chain_instance(n, depth)
        norm = norm_bound(h)
        for arm, lam in (
            ("inv-log", min(1.0 / math.log(depth), SWEEP_LAM_CAP)),
            ("inv-linear", min(1.0 / depth, SWEEP_LAM_CAP)),
        ):
            selection = choose_m(lam, norm.value, target_mse=target_mse)
            with warnings.catch_warnings():
                # the inv-log arm truncates every path by design
                warnings.filterwarnings("ignore", "truncation order", UserWarning)
                run = PathEnumeration(circuit, h, rho, selection.m)
            for _ in run:
                pass
            rows.append(
                {
                    "arm": arm,
                    "depth": depth,
                    "lambda": lam,
                    "m": selection.m,
                    "nodes_visited": run.stats.nodes_visited,
                    "paths_emitted": run.stats.paths_emitted,
                }
            )
    xs_log = [math.log(r["depth"]) for r in rows if r["arm"] == "inv-log"]
    ys_log = [math.log(max(r["nodes_visited"], 1)) for r in rows if r["arm"] == "inv-log"]
    xs_lin = [r["depth"] for r in rows if r["arm"] == "inv-linear"]
    ys_lin = [math.log2(max(r["nodes_visited"], 1)) for r in rows if r["arm"] == "inv-linear"]
    poly_exponent = float(np.polyfit(xs_log, ys_log, 1)[0])
    exp_rate = float(np.polyfit(xs_lin, ys_lin, 1)[0])
    return {
        "n": n,
        "target_mse": target_mse,
        "rows": rows,
        "fits": {
            "inv_log_poly_exponent": poly_exponent,
            "inv_linear_log2_rate": exp_rate,
        },
    }
