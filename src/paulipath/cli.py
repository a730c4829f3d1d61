"""Command line front end.

Modes:
  estimate       truncated path-sum estimate with certificates
  choose-m       truncation order for a target MSE or (epsilon, delta)
  mse-benchmark  empirical truncation MSE vs the dense oracle
  oracle-check   estimate and dense oracle side by side
  path-dump      CSV of surviving paths (weight, factors, contribution)
  scaling-sweep  enumeration cost of the chain family vs depth

The modes compute: each returns its output, a report document or the path
dump's CSV text, with its exit code.  `main` alone writes, to --out or
stdout: a report as JSON with the config echo first and every float printed
as the shortest repr that parses back to the same double, where a
non-finite value is a validation error.  Exit codes:
0 success, 1 failed oracle-check comparison, 2 validation error,
3 enumeration resource limit, 4 dense-oracle qubit cap.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from .benchmarks import scaling_sweep
from .circuit import (
    Circuit,
    check_assignment,
    check_instance,
    check_noise_rate,
    circuit_from_dict,
)
from .engine import PathEnumeration, ResourceLimitError
from .estimator import (
    MSelection,
    choose_m,
    damping,
    describe_factors,
    estimate,
    mse_benchmark,
    path_value,
)
from .observables import (
    Hamiltonian,
    NormBound,
    SparseDensity,
    hamiltonian_from_dict,
    norm_bound,
    state_from_dict,
)
from .oracle import OracleCapError, noisy_mean_value
from .pauli import finite_real, non_negative_int

ORACLE_CHECK_TOL = 1e-9


def _write_text(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as handle:
            handle.write(text)


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise ValueError(f"{what} file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} file {path} is not valid JSON: {exc}") from None


def _load_circuit(args) -> Circuit:
    if args.circuit is None:
        raise ValueError("this mode needs --circuit")
    return circuit_from_dict(_load_json(args.circuit, "circuit"))


def _load_hamiltonian(args) -> Hamiltonian:
    if args.hamiltonian is None:
        raise ValueError("this mode needs --hamiltonian")
    return hamiltonian_from_dict(_load_json(args.hamiltonian, "Hamiltonian"))


def _load_instance(args) -> tuple[Circuit, Hamiltonian, SparseDensity]:
    """Circuit, observable and state (default |0...0>), checked against
    each other before any work."""
    circuit = _load_circuit(args)
    h = _load_hamiltonian(args)
    if args.state is None:
        rho = SparseDensity.computational_basis(circuit.n)
    else:
        rho = state_from_dict(_load_json(args.state, "state"))
    check_instance(circuit, h, rho)
    return circuit, h, rho


def _resolve_theta(circuit: Circuit, args) -> tuple[dict[str, float], bool]:
    """Angles from --params, or drawn uniformly when --seed is given."""
    params = circuit.parameters()
    if args.params is not None:
        raw = _load_json(args.params, "params")
        if not isinstance(raw, dict):
            raise ValueError("params file must map symbols to radians")
        theta = {key: finite_real(value, f"params entry {key!r}") for key, value in raw.items()}
        check_assignment(circuit, theta)
        return theta, False
    if not params:
        return {}, False
    if args.seed is None:
        raise ValueError(
            "circuit has free parameters: give --params, or --seed to draw them"
        )
    rng = np.random.default_rng(args.seed)
    theta = {p: float(v) for p, v in zip(params, rng.uniform(0, 2 * math.pi, len(params)))}
    return theta, True


def _resolve_m(args, circuit: Circuit, h: Hamiltonian) -> tuple[int | None, dict]:
    """Truncation order from exactly one accuracy specifier."""
    given = [
        spec
        for spec, present in (
            ("--trunc-m", args.trunc_m is not None),
            ("--target-mse", args.target_mse is not None),
            ("--epsilon/--delta", args.epsilon is not None or args.delta is not None),
        )
        if present
    ]
    if len(given) != 1:
        raise ValueError(
            "need exactly one accuracy specifier: --trunc-m, --target-mse,"
            f" or --epsilon with --delta (got {', '.join(given) or 'none'})"
        )
    if args.trunc_m is not None:
        return args.trunc_m, {"kind": "explicit", "m": args.trunc_m}
    norm, selection = _select_m(args, h, circuit.depth + 1)
    detail = {
        "kind": "target-mse" if args.target_mse is not None else "epsilon-delta",
        "selection": selection.to_dict(),
        "norm_bound": norm.to_dict(),
    }
    return selection.m, detail


def _select_m(args, h: Hamiltonian, floor: int | None) -> tuple[NormBound, MSelection]:
    """H's norm bound and the truncation order the accuracy flags ask for."""
    norm = norm_bound(h)
    selection = choose_m(
        args.lam,
        norm.value,
        target_mse=args.target_mse,
        epsilon=args.epsilon,
        delta=args.delta,
        floor=floor,
        term_count=h.term_count,
    )
    return norm, selection


def _config_echo(args) -> dict:
    return {
        "mode": args.mode,
        "circuit": args.circuit,
        "hamiltonian": args.hamiltonian,
        "state": args.state,
        "params": args.params,
        "lambda": args.lam,
        "trunc_m": args.trunc_m,
        "target_mse": args.target_mse,
        "epsilon": args.epsilon,
        "delta": args.delta,
        "samples": args.samples,
        "seed": args.seed,
    }


def _mode_estimate(args) -> tuple[dict, int]:
    circuit, h, rho = _load_instance(args)
    theta, drawn = _resolve_theta(circuit, args)
    m, m_detail = _resolve_m(args, circuit, h)
    eps_delta = (
        (args.epsilon, args.delta)
        if args.epsilon is not None and args.delta is not None
        else None
    )
    report = estimate(circuit, h, rho, theta, args.lam, m, eps_delta=eps_delta)
    return {
        "theta": theta,
        "theta_drawn": drawn,
        "m_selection": m_detail,
        "report": report.to_dict(),
    }, 0


def _mode_choose_m(args) -> tuple[dict, int]:
    h = _load_hamiltonian(args)
    floor = None
    if args.circuit is not None:
        floor = _load_circuit(args).depth + 1
    norm, selection = _select_m(args, h, floor)
    return {"norm_bound": norm.to_dict(), "selection": selection.to_dict()}, 0


def _mode_mse_benchmark(args) -> tuple[dict, int]:
    circuit, h, rho = _load_instance(args)
    if args.seed is None:
        raise ValueError("mse-benchmark needs --seed")
    m, m_detail = _resolve_m(args, circuit, h)
    if m is None:
        raise ValueError(
            "mse-benchmark needs a finite truncation order; with --lambda 0"
            " none is certified"
        )
    report = mse_benchmark(
        circuit, h, rho, args.lam, m, args.samples, args.seed
    )
    return {"m_selection": m_detail, "report": report.to_dict()}, 0


def _mode_oracle_check(args) -> tuple[dict, int]:
    """Untruncated estimate against the dense oracle; exit 1 on mismatch.
    The oracle runs first: it refuses a system over its qubit cap before
    the estimate's norm bound, itself dense up to 12 qubits, is computed."""
    circuit, h, rho = _load_instance(args)
    theta, drawn = _resolve_theta(circuit, args)
    reference = noisy_mean_value(circuit, h, rho, theta, args.lam)
    report = estimate(circuit, h, rho, theta, args.lam, None)
    difference = abs(report.value - reference)
    agrees = bool(difference <= ORACLE_CHECK_TOL)
    return {
        "theta": theta,
        "theta_drawn": drawn,
        "estimate": report.to_dict(),
        "oracle_value": reference,
        "abs_difference": difference,
        "tolerance": ORACLE_CHECK_TOL,
        "agrees": agrees,
    }, 0 if agrees else 1


def _mode_path_dump(args) -> tuple[str, int]:
    circuit, h, rho = _load_instance(args)
    check_noise_rate(args.lam)
    theta, _ = _resolve_theta(circuit, args)
    m, _ = _resolve_m(args, circuit, h)
    run = PathEnumeration(circuit, h, rho, m)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["weight", "factor_description", "contribution"])
    for path in run.paths():
        contribution = damping(path, args.lam) * path_value(path, theta, h, rho)
        writer.writerow(
            [path.total_weight, describe_factors(path), repr(contribution)]
        )
    return buffer.getvalue(), 0


def _mode_scaling_sweep(args) -> tuple[dict, int]:
    if args.depths is None:
        raise ValueError("scaling-sweep needs --depths, e.g. --depths 4,6,8,10")
    try:
        depths = [int(d) for d in args.depths.split(",") if d.strip()]
    except ValueError:
        raise ValueError(f"cannot parse --depths {args.depths!r}") from None
    if args.target_mse is None:
        raise ValueError("scaling-sweep needs --target-mse")
    return scaling_sweep(args.sweep_qubits, depths, args.target_mse), 0


_MODE_RUNNERS = {
    "estimate": _mode_estimate,
    "choose-m": _mode_choose_m,
    "mse-benchmark": _mode_mse_benchmark,
    "oracle-check": _mode_oracle_check,
    "path-dump": _mode_path_dump,
    "scaling-sweep": _mode_scaling_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paulipath",
        description="Truncated Pauli-path estimation of noisy circuit mean values",
    )
    parser.add_argument("--mode", required=True, choices=list(_MODE_RUNNERS))
    parser.add_argument("--circuit", help="circuit JSON file")
    parser.add_argument("--hamiltonian", help="observable JSON file")
    parser.add_argument("--state", help="sparse density JSON file; default |0...0>")
    parser.add_argument("--params", help="JSON file mapping symbols to radians")
    parser.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        default=0.0,
        help="depolarizing rate per qubit (default 0)",
    )
    parser.add_argument("--trunc-m", type=int, help="explicit truncation order")
    parser.add_argument("--target-mse", type=float, help="target mean squared error")
    parser.add_argument("--epsilon", type=float, help="additive error target")
    parser.add_argument("--delta", type=float, help="failure probability target")
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", help="output file (default stdout)")
    parser.add_argument(
        "--depths", help="comma-separated depths for scaling-sweep"
    )
    parser.add_argument(
        "--sweep-qubits", type=int, default=2, help="qubit count for scaling-sweep"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None:
            non_negative_int(args.seed, "--seed")
        output, code = _MODE_RUNNERS[args.mode](args)
        if isinstance(output, dict):
            document = {"config": _config_echo(args), **output}
            output = json.dumps(document, indent=2, allow_nan=False)
        _write_text(output, args.out)
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except OracleCapError as exc:
        print(f"oracle cap: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
