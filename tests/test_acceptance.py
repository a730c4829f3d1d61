"""Acceptance gate.

Each test covers one acceptance criterion, prints a single PASS/FAIL line
(visible in the pytest log), and pins its tolerance explicitly.
"""

import itertools
import math
import sys
import time
import warnings

import numpy as np
import pytest

import paulipath as pp
from paulipath import (
    CliffordGate,
    Circuit,
    Hamiltonian,
    Layer,
    PauliWord,
    RotationGate,
    SparseDensity,
)
from paulipath.engine import PathEnumeration
from paulipath.estimator import _certificate, _term_sums, damping, path_value
from paulipath.observables import DEFAULT_EXACT_NORM_QUBITS
from paulipath.oracle import (
    noisy_mean_value,
    observable_factor,
    state_factor,
    transition_factor,
)

import conftest
from conftest import random_certified_instance


def _report(number: int | str, ok: bool, detail: str) -> None:
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def test_criterion_1_chain_closed_form():
    """Noiseless chain instances reproduce the analytic value to 1e-10."""
    rng = np.random.default_rng(101)
    worst = 0.0
    count = 0
    for n, depth in itertools.product((1, 2, 3), (4, 6)):
        circuit, h, rho = pp.rx_chain_instance(n, depth)
        params = circuit.parameters()
        for _ in range(100):
            theta = {p: float(v) for p, v in zip(params, rng.uniform(0, 2 * math.pi, len(params)))}
            got = pp.estimate(circuit, h, rho, theta, 0.0).value
            expected = pp.rx_chain_exact_value(theta, depth)
            worst = max(worst, abs(got - expected))
            count += 1
    _report(1, worst <= 1e-10, f"worst |error| {worst:.3e} over {count} draws (tol 1e-10)")


def test_criterion_2_chain_truncation_mse_matches_theory():
    """With every path truncated, the sampled MSE equals the known value.

    For the depth-6 chain all paths carry weight 7, so at m = 6 the
    estimator is identically zero and the exact MSE is (1 - lam)^14.
    """
    circuit, h, rho = pp.rx_chain_instance(2, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the all-truncated warning is the point
        bench = pp.mse_benchmark(circuit, h, rho, lam=0.1, m=6, samples=10_000, seed=314)
    theory = 0.9**14
    rel = abs(bench.empirical_mse / theory - 1)
    within_se = abs(bench.empirical_mse - theory) <= 3 * bench.std_error
    ok = rel <= 0.05 and within_se
    _report(
        2,
        ok,
        f"empirical {bench.empirical_mse:.6f} vs theory {theory:.6f} "
        f"(rel {rel:.4f} <= 0.05, |diff| <= 3 SE: {within_se})",
    )


def _grid_mse(circuit, h, rho, lam, ms) -> list[tuple[float, float]]:
    """(exact MSE, certified bound) of the truncated estimate at each m, over
    uniform angles.  The estimate and the noisy mean value each have degree
    <= 1 in every angle, each rotation having its own symbol, so their
    squared difference has degree <= 2 and its mean over the grid
    {0, 2pi/3, 4pi/3}^R is exact.  The pieces are `mse_benchmark`'s: one
    batched `noisy_mean_value` call over the grid, shared by every m, and
    one `_term_sums` call and one certificate per m."""
    params = circuit.parameters()
    thirds = (0.0, 2 * math.pi / 3, 4 * math.pi / 3)
    grid = np.array(list(itertools.product(thirds, repeat=len(params))))
    angles = dict(zip(params, grid.T))
    exact = noisy_mean_value(circuit, h, rho, angles, lam)
    found = []
    for m in ms:
        total, _ = _term_sums(circuit, h, rho, m, angles, lam)
        estimates = h.identity_coeff * rho.overlap_masks(0, 0) + total
        bound = _certificate(circuit, h, rho, lam, m, DEFAULT_EXACT_NORM_QUBITS)[2]
        found.append((float(np.mean((estimates - exact) ** 2)), bound))
    return found


def test_criterion_2_exact_mse_over_the_angle_grid():
    """Criterion 2's instance, with the MSE computed exactly on the 3^R
    angle grid instead of sampled: (1 - lam)^14 within roundoff."""
    circuit, h, rho = pp.rx_chain_instance(2, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the all-truncated warning is the point
        [(mse, _)] = _grid_mse(circuit, h, rho, 0.1, [6])
    theory = 0.9**14
    rel = abs(mse / theory - 1)
    _report(
        "2, exact",
        rel <= 1e-12,
        f"exact {mse!r} vs theory {theory!r} (rel {rel:.1e} <= 1e-12)",
    )


def test_criterion_3_untruncated_sum_equals_dense_oracle():
    """50 random certified instances, three noise rates, 1e-9 agreement."""
    worst = 0.0
    checks = 0
    for seed in range(50):
        circuit, h, rho, theta = random_certified_instance(seed)
        for lam in (0.0, 0.05, 0.2):
            got = pp.estimate(circuit, h, rho, theta, lam).value
            ref = noisy_mean_value(circuit, h, rho, theta, lam)
            worst = max(worst, abs(got - ref))
            checks += 1
    _report(3, worst <= 1e-9, f"worst |diff| {worst:.3e} over {checks} checks (tol 1e-9)")


def test_criterion_4_per_path_factors_match_dense_traces():
    """Each emitted path's damped value factorizes into dense per-hop traces,
    for every path of every circuit used in criterion 3."""
    worst = 0.0
    paths_checked = 0
    for seed in range(50):
        circuit, h, rho, theta = random_certified_instance(seed)
        paths = list(PathEnumeration(circuit, h, rho, None).paths())
        for lam in (0.0, 0.05, 0.2):
            cache: dict = {}
            for path in paths:
                dense = state_factor(rho, path.words[0]) * observable_factor(
                    h, path.words[-1], lam
                )
                for i, layer in enumerate(circuit.layers):
                    key = (i, path.words[i], path.words[i + 1])
                    if key not in cache:
                        cache[key] = transition_factor(
                            layer, theta, circuit.n, path.words[i], path.words[i + 1], lam
                        )
                    dense *= cache[key]
                engine_value = damping(path, lam) * path_value(path, theta, h, rho)
                worst = max(worst, abs(engine_value - dense))
                paths_checked += 1
    _report(
        4,
        worst <= 1e-12 and paths_checked > 0,
        f"worst |diff| {worst:.3e} over {paths_checked} path evaluations (tol 1e-12)",
    )


def test_criterion_5_certified_bound_tracks_truncation_ladder():
    """Empirical truncation MSE stays below the certified bound for every
    circuit used in criterion 3, at m = depth+1, +3, +5."""
    failures = []
    benches = 0
    worst_margin = -math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(50):
            circuit, h, rho, _ = random_certified_instance(seed)
            floor = circuit.depth + 1
            for m in (floor, floor + 2, floor + 4):
                bench = pp.mse_benchmark(
                    circuit, h, rho, lam=0.2, m=m, samples=60, seed=1000 + seed
                )
                benches += 1
                margin = bench.empirical_mse - bench.bound
                worst_margin = max(worst_margin, margin)
                if not bench.passed:
                    failures.append((seed, m))
    _report(
        5,
        not failures,
        f"{benches} benchmarks, worst (empirical - bound) = {worst_margin:.2e},"
        f" failures: {failures or 'none'}",
    )


def test_criterion_5_exact_mse_within_the_bound():
    """Criterion 5's runs, with the MSE computed exactly on the 3^R angle
    grid, within the certified bound with no standard-error term, on every
    instance with R <= 8 rotations."""
    failures = []
    skipped = []
    runs = 0
    worst_ratio = 0.0
    for seed in range(50):
        circuit, h, rho, _ = random_certified_instance(seed)
        if len(circuit.parameters()) > 8:
            skipped.append(seed)
            continue
        floor = circuit.depth + 1
        ms = (floor, floor + 2, floor + 4)
        for m, (mse, bound) in zip(ms, _grid_mse(circuit, h, rho, 0.2, ms)):
            runs += 1
            worst_ratio = max(worst_ratio, mse / bound)
            if not mse <= bound:
                failures.append((seed, m))
    _report(
        "5, exact",
        not failures and runs > 0,
        f"{runs} exact runs, worst MSE / bound = {worst_ratio:.3f},"
        f" failures: {failures or 'none'}, skipped seeds with R > 8: {skipped}",
    )


def test_criterion_6_cross_terms_vanish_iff_certified():
    """Sampled cross terms are zero for certified circuits and provably
    non-zero for a circuit failing the generation check."""
    rng = np.random.default_rng(5)
    violations = 0
    pairs_checked = 0
    for seed in itertools.count():
        if pairs_checked == 20:
            break
        circuit, h, rho, _ = random_certified_instance(seed)
        paths = list(PathEnumeration(circuit, h, rho, None).paths())
        if len(paths) < 2:
            continue
        i, j = rng.choice(len(paths), size=2, replace=False)
        result = pp.cross_term_check(
            circuit, h, rho, paths[i], paths[j], samples=10_000, seed=int(rng.integers(1 << 30))
        )
        assert result.generation_certified
        pairs_checked += 1
        if abs(result.mean) > 4 * result.std_error:
            violations += 1

    # single layer of Z rotations on |00>: both paths have constant factor 1
    bad = Circuit(
        2,
        (
            Layer(
                (
                    RotationGate(PauliWord.from_string("ZI"), param="a"),
                    RotationGate(PauliWord.from_string("IZ"), param="b"),
                )
            ),
        ),
    )
    h_bad = Hamiltonian(
        2, [(PauliWord.from_string("ZI"), 1.0), (PauliWord.from_string("ZZ"), 1.0)]
    )
    rho_bad = SparseDensity.computational_basis(2)
    bad_paths = list(PathEnumeration(bad, h_bad, rho_bad, None).paths())
    counter = pp.cross_term_check(bad, h_bad, rho_bad, bad_paths[0], bad_paths[1], samples=500, seed=3)
    violated = (not counter.generation_certified) and abs(counter.mean) > 4 * counter.std_error
    ok = violations == 0 and violated
    _report(
        6,
        ok,
        f"certified: {violations}/20 pairs outside 4 SE; uncertified counterexample mean "
        f"{counter.mean:.3f} (SE {counter.std_error:.1e}) violates as expected",
    )


def test_criterion_7_path_census_and_cost_scaling():
    """Chain census is exactly 2^(L-1); enumeration cost is polynomial when
    noise decays logarithmically and exponential when it decays linearly."""
    census_ok = True
    for depth in range(4, 11):
        circuit, h, rho = pp.rx_chain_instance(2, depth)
        run = PathEnumeration(circuit, h, rho, None)
        emitted = sum(1 for _ in run.paths())
        census_ok = census_ok and emitted == 2 ** (depth - 1)
        full_m = circuit.n * (circuit.depth + 1)
        census_ok = census_ok and emitted <= h.term_count * 2**full_m
    # ceiling holds on every random instance as well
    ceiling_ok = True
    for seed in range(50):
        circuit, h, rho, _ = random_certified_instance(seed)
        for m in (circuit.depth + 1, circuit.n * (circuit.depth + 1)):
            run = PathEnumeration(circuit, h, rho, m)
            emitted = sum(1 for _ in run.paths())
            ceiling_ok = ceiling_ok and emitted <= h.term_count * 2**m
    sweep = pp.scaling_sweep(2, [4, 6, 8, 10], 0.25)
    fits = sweep["fits"]
    ok = (
        census_ok
        and ceiling_ok
        and fits["inv_linear_log2_rate"] >= 0.8
        and fits["inv_log_poly_exponent"] <= 1.0
    )
    _report(
        7,
        ok,
        f"census exact for L=4..10; ceiling holds on all instances; "
        f"log2 rate {fits['inv_linear_log2_rate']:.3f} (>=0.8), "
        f"poly exponent {fits['inv_log_poly_exponent']:.3f} (<=1.0)",
    )


def _smoke_instance(n=20, depth=20):
    """20 qubits, 20 layers: two full rotation layers certify generation,
    then CNOT/rotation/H tail layers spread support."""
    layers = [
        Layer(tuple(RotationGate(PauliWord.from_map(n, {q: "X"}), param=f"a{q}")
                    for q in range(1, n + 1))),
        Layer(tuple(RotationGate(PauliWord.from_map(n, {q: "Z"}), param=f"b{q}")
                    for q in range(1, n + 1))),
    ]
    for l in range(3, depth + 1):
        used: set = set()
        gates = []
        for k, stride in enumerate((3, 7)):
            c = ((l * stride + 5 * k) % (n - 1)) + 1
            if not {c, c + 1} & used:
                gates.append(CliffordGate("CNOT", (c, c + 1)))
                used |= {c, c + 1}
        for k in range(4):
            q = ((l * 11 + 7 * k) % n) + 1
            if q not in used:
                letter = "XYZ"[(l + k) % 3]
                gates.append(RotationGate(PauliWord.from_map(n, {q: letter}), param=f"t{l}_{k}"))
                used.add(q)
        qh = ((l * 13 + 3) % n) + 1
        if qh not in used:
            gates.append(CliffordGate("H", (qh,)))
        layers.append(Layer(tuple(gates)))
    circuit = Circuit(n, tuple(layers))
    h = Hamiltonian(n, [(PauliWord.from_map(n, {q: "Z"}), (-1.0) ** q) for q in range(1, n + 1)])
    return circuit, h, SparseDensity.computational_basis(n)


def test_criterion_8_large_instance_smoke():
    """A 20-qubit, depth-20 instance far beyond the dense oracle finishes
    inside the time budget with a certified bound below 1e-2."""
    circuit, h, rho = _smoke_instance()
    assert pp.circuit_generation_certified(circuit)
    sel = pp.choose_m(
        0.2, 20.0, target_mse=0.01, floor=circuit.depth + 1, term_count=h.term_count
    )
    assert sel.m == 27
    rng = np.random.default_rng(2024)
    theta = {
        p: float(v)
        for p, v in zip(circuit.parameters(), rng.uniform(0, 2 * math.pi, len(circuit.parameters())))
    }
    start = time.time()
    report = pp.estimate(circuit, h, rho, theta, 0.2, m=sel.m)
    # a lower noise rate exercises real fan-out on the same instance
    low = pp.estimate(circuit, h, rho, theta, 0.05, m=pp.choose_m(
        0.05, 20.0, target_mse=0.01, floor=circuit.depth + 1).m)
    elapsed = time.time() - start
    ok = (
        report.mse_bound <= 1e-2
        and report.generation_certified
        and elapsed <= 600.0
        and report.paths_used <= h.term_count * 2**sel.m
        and low.paths_used > report.paths_used
    )
    _report(
        8,
        ok,
        f"m={report.m} bound {report.mse_bound:.3e} (<=1e-2), value {report.value:.4f}, "
        f"paths {report.paths_used} / nodes {report.stats['nodes_visited']} "
        f"(lam=0.05: {low.paths_used} paths), elapsed {elapsed:.2f}s (<=600s)",
    )
