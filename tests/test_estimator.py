"""Estimator:  truncation-order selection, certified bounds, determinism,
and the sampled error benchmarks."""

import dataclasses
import importlib
import itertools
import json
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulipath import (
    CliffordGate,
    Circuit,
    Hamiltonian,
    Layer,
    PauliWord,
    RotationGate,
    SparseDensity,
    choose_m,
    cross_term_check,
    estimate,
    mse_benchmark,
    rx_chain_instance,
    state_from_dict,
)
from paulipath import cli, engine, estimator, oracle
from paulipath.engine import FactorAtom, PathEnumeration
from paulipath.estimator import (
    _term_sums,
    atom_value,
    damping,
    describe_factors,
    path_value,
)
from paulipath.oracle import noisy_mean_value

from conftest import ansatz_instance, random_certified_instance


def test_atom_values():
    assert atom_value(FactorAtom("cos", "a"), {"a": 0.9}) == pytest.approx(math.cos(0.9))
    assert atom_value(FactorAtom("sin", "a"), {"a": 0.9}) == pytest.approx(math.sin(0.9))
    # a float param is a bound angle and ignores the assignment
    assert atom_value(FactorAtom("cos", 0.4), {}) == pytest.approx(math.cos(0.4))


def test_choose_m_target_mse():
    sel = choose_m(0.1, 1.0, target_mse=0.01)
    assert sel.m == 24
    assert sel.note == ""


def test_choose_m_epsilon_delta():
    assert choose_m(0.1, 1.0, epsilon=0.1, delta=0.04).m == 40


def test_choose_m_floor_clamp():
    sel = choose_m(0.1, 1.0, target_mse=0.01, floor=30, term_count=3)
    assert sel.m == 30
    assert "floor" in sel.note
    assert sel.path_ceiling == 3 * 2**30


def test_choose_m_zero_noise_sentinel():
    sel = choose_m(0.0, 1.0, target_mse=0.01)
    assert sel.m is None
    assert "untruncated" in sel.note


def test_choose_m_trivial_observable():
    assert choose_m(0.3, 0.0, target_mse=0.01).m == 0


@pytest.mark.parametrize("norm", [1e200, math.inf, math.nan])
def test_choose_m_rejects_norm_without_finite_square(norm):
    with pytest.raises(ValueError, match="norm"):
        choose_m(0.1, norm, target_mse=0.01)


def test_choose_m_requires_one_criterion():
    with pytest.raises(ValueError):
        choose_m(0.1, 1.0)
    with pytest.raises(ValueError):
        choose_m(0.1, 1.0, target_mse=0.01, epsilon=0.1, delta=0.1)


@pytest.mark.parametrize(
    "norm, criterion, message",
    [
        (1.0, {"epsilon": 0.1}, "epsilon and delta must be given together"),
        (-1.0, {"target_mse": 0.01}, "norm bound must be non-negative, got -1.0"),
        (1.0, {"target_mse": 0.0}, "target MSE must be positive, got 0.0"),
        (1.0, {"epsilon": 0.1, "delta": 1.0}, "need epsilon > 0 and 0 < delta < 1"),
        (1.0, {"epsilon": 0.0, "delta": 0.5}, "need epsilon > 0 and 0 < delta < 1"),
    ],
)
def test_choose_m_refusals_name_the_field(norm, criterion, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        choose_m(0.1, norm, **criterion)


@given(st.integers(0, 10**6), st.sampled_from([0.0, 0.05, 0.2]))
@settings(max_examples=150, deadline=None)
def test_estimate_equals_path_sum_at_every_m(seed, lam):
    # the differential ground truth: the evaluator against explicit paths at
    # every truncation order, and against the dense oracle untruncated
    circuit, h, rho, theta = random_certified_instance(seed, max_n=3, max_depth=4)
    max_weight = circuit.n * (circuit.depth + 1)
    for m in range(circuit.depth + 1, max_weight + 1):
        report = estimate(circuit, h, rho, theta, lam, m)
        paths = list(PathEnumeration(circuit, h, rho, m).paths())
        # bit for bit: the estimate is the in-order sum of its own paths
        path_sum = 0.0
        for path in paths:
            path_sum += damping(path, lam) * path_value(path, theta, h, rho)
        assert report.value == report.identity_offset + path_sum
        assert report.paths_used == len(paths)
    exact = noisy_mean_value(circuit, h, rho, theta, lam)
    assert report.untruncated and abs(report.value - exact) <= 1e-9


@pytest.mark.parametrize("seed", [1, 6, 14, 27, 39])
@pytest.mark.parametrize("lam", [0.0, 0.08, 0.35])
def test_estimate_matches_oracle_untruncated(seed, lam):
    circuit, h, rho, theta = random_certified_instance(seed)
    report = estimate(circuit, h, rho, theta, lam)
    ref = noisy_mean_value(circuit, h, rho, theta, lam)
    assert report.value == pytest.approx(ref, abs=1e-11)
    assert report.untruncated


def test_estimate_linear_in_coefficients():
    circuit, h, rho, theta = random_certified_instance(4)
    scaled = Hamiltonian(h.n, [(w, 3.0 * c) for w, c in h.terms()])
    base = estimate(circuit, h, rho, theta, 0.1)
    got = estimate(circuit, scaled, rho, theta, 0.1)
    assert got.value == pytest.approx(
        3.0 * (base.value - base.identity_offset), abs=1e-11
    )


def test_full_noise_shortcut():
    circuit, h, rho, theta = random_certified_instance(9)
    report = estimate(circuit, h, rho, theta, 1.0)
    assert report.value == h.identity_coeff
    assert report.paths_used == 0


def test_identity_only_observable():
    circuit, _, rho, theta = random_certified_instance(2)
    h = Hamiltonian(circuit.n, [(PauliWord.identity(circuit.n), 0.7)])
    report = estimate(circuit, h, rho, theta, 0.3)
    assert report.value == 0.7
    assert report.identity_offset == 0.7
    assert report.paths_used == 0


def test_truncated_below_depth_warns_and_offsets():
    circuit, h, rho = rx_chain_instance(2, 5)
    theta = {p: 0.4 for p in circuit.parameters()}
    with pytest.warns(UserWarning, match="below depth"):
        report = estimate(circuit, h, rho, theta, 0.2, m=4)
    assert report.value == h.identity_coeff
    assert report.paths_used == 0


def test_bound_hierarchy():
    circuit, h, rho = rx_chain_instance(2, 4)
    theta = {p: 0.9 for p in circuit.parameters()}
    report = estimate(circuit, h, rho, theta, 0.15, m=6)
    # (1-lam)^2m <= exp(-2 lam m), so the tight bound never exceeds the loose one
    assert 0 < report.mse_bound <= report.mse_bound_exp
    assert report.mse_bound == pytest.approx(0.85**12 * report.norm.value**2)


def test_truncated_value_converges_to_oracle():
    circuit, h, rho = rx_chain_instance(2, 5)
    theta = {p: 1.1 for p in circuit.parameters()}
    lam = 0.25
    ref = noisy_mean_value(circuit, h, rho, theta, lam)
    errors = []
    for m in (6, 8, 10, 12):
        report = estimate(circuit, h, rho, theta, lam, m=m)
        errors.append(abs(report.value - ref))
        assert abs(report.value - ref) <= math.sqrt(report.mse_bound) + 1e-12
    assert errors[-1] <= errors[0]


def _in_order_path_sum(circuit, h, rho, m, angles, lam):
    """The sum from 0.0, in path order, of damping * path_value."""
    total = 0.0
    for path in PathEnumeration(circuit, h, rho, m).paths():
        total += damping(path, lam) * path_value(path, angles, h, rho)
    return total


@pytest.mark.parametrize("seed", [0, 8, 10, 17])
def test_term_sums_array_angles_match_scalar_calls(seed):
    circuit, h, rho, _ = random_certified_instance(seed)
    params = circuit.parameters()
    samples = np.random.default_rng(seed).uniform(0, 2 * math.pi, (5, len(params)))
    angles = dict(zip(params, samples.T))
    array_sum, run = _term_sums(circuit, h, rho, None, angles, 0.1)
    assert run.paths_emitted >= 20
    for k, row in enumerate(samples):
        scalar_sum, _ = _term_sums(circuit, h, rho, None, dict(zip(params, row)), 0.1)
        got = np.broadcast_to(array_sum, len(samples))[k]
        assert got == pytest.approx(scalar_sum, rel=1e-12, abs=1e-12)
    # bit for bit, sample by sample: the in-order sum of the explicit paths
    path_sum = _in_order_path_sum(circuit, h, rho, None, angles, 0.1)
    assert np.array_equal(array_sum, path_sum)


def test_term_sums_value_float_angles_as_a_batch_of_one():
    # float angles give one sample: an array of shape (1,), bit for bit the
    # in-order sum of the explicit paths, and `estimate` reports a float
    circuit, h, rho, theta = random_certified_instance(8)
    total, run = _term_sums(circuit, h, rho, None, theta, 0.1)
    assert run.paths_emitted >= 20
    assert total.shape == (1,)
    assert np.array_equal(total, [_in_order_path_sum(circuit, h, rho, None, theta, 0.1)])
    report = estimate(circuit, h, rho, theta, 0.1)
    assert type(report.value) is float
    assert report.value == report.identity_offset + total[0]
    # floats and per-sample arrays do not mix: the package's angle rule
    # refuses an array beside a float
    first, *rest = circuit.parameters()
    mixed = {first: theta[first], **{p: np.full(3, theta[p]) for p in rest}}
    with pytest.raises(ValueError, match="needs a finite real angle"):
        _term_sums(circuit, h, rho, None, mixed, 0.1)


def test_term_sums_keep_the_sample_axis_in_blocks_without_atoms(monkeypatch):
    # at two rows a batch the first block's paths pass the rotation without
    # an atom and the second block's with one; per-sample angles still give
    # every block one value per sample, bit for bit the in-order path sum
    monkeypatch.setattr(engine, "BATCH_ROWS", 2)
    circuit = Circuit(3, (Layer((RotationGate(PauliWord.from_string("YII"), param="a"),)),))
    h = Hamiltonian(
        3,
        [
            (PauliWord.from_string(letters), coeff)
            for letters, coeff in (("IIZ", 1.0), ("IZI", 0.5), ("IZZ", 0.25), ("ZII", 0.125))
        ],
    )
    rho = SparseDensity.computational_basis(3)
    assert [block.choice.any() for block in PathEnumeration(circuit, h, rho, None)] == [False, True]
    angles = {"a": np.array([0.1, 0.2, 0.3])}
    total, _ = _term_sums(circuit, h, rho, None, angles, 0.1)
    assert np.array_equal(total, _in_order_path_sum(circuit, h, rho, None, angles, 0.1))


def test_term_sums_mix_bound_angles_with_sample_arrays():
    # a bound angle's cos and sin are floats and a symbol's are per-sample
    # arrays; every path's value still has one entry per sample, bit for bit
    # the in-order sum of the explicit paths
    circuit = Circuit(
        2,
        (
            Layer(
                (
                    RotationGate(PauliWord.from_string("YI"), param="a"),
                    RotationGate(PauliWord.from_string("IY"), angle=0.3),
                )
            ),
            Layer((CliffordGate("CNOT", (1, 2)),)),
            Layer(
                (
                    RotationGate(PauliWord.from_string("XI"), angle=0.7),
                    RotationGate(PauliWord.from_string("IX"), param="b"),
                )
            ),
        ),
    )
    h = Hamiltonian(
        2,
        [
            (PauliWord.from_string("ZZ"), 1.0),
            (PauliWord.from_string("ZI"), 0.5),
            (PauliWord.from_string("IZ"), -0.25),
        ],
    )
    rho = SparseDensity.computational_basis(2)
    angles = {"a": np.array([0.1, 0.5, 2.0]), "b": np.array([1.0, 2.0, 3.0])}
    total, run = _term_sums(circuit, h, rho, None, angles, 0.1)
    assert total.shape == (3,) and run.paths_emitted > 1
    assert np.array_equal(total, _in_order_path_sum(circuit, h, rho, None, angles, 0.1))


def test_term_sums_bound_their_per_sample_temporaries():
    # a block is valued in slices of paths, so at 4,000 samples its
    # temporaries stay near the oracle's chunk size, and the total is
    # still bit for bit the in-order sum of the explicit paths
    circuit, h, rho = ansatz_instance(8, 12)
    params = circuit.parameters()
    samples = np.random.default_rng(5).uniform(0, 2 * math.pi, (4000, len(params)))
    angles = dict(zip(params, samples.T))
    tracemalloc.start()
    try:
        total, run = _term_sums(circuit, h, rho, 44, angles, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert run.paths_emitted == 1_491
    assert peak <= 8 * 2**20
    assert np.array_equal(total, _in_order_path_sum(circuit, h, rho, 44, angles, 0.1))


def test_eps_delta_requires_certification():
    circuit, h, rho, theta = random_certified_instance(21)
    report = estimate(circuit, h, rho, theta, 0.2, m=8, eps_delta=(0.5, 0.1))
    assert report.generation_certified
    assert report.eps_delta == (0.5, 0.1)
    # a circuit whose effected words do not span the full algebra
    bad = Circuit(1, (Layer((RotationGate(PauliWord.from_string("Z"), param="a"),)),) * 2)
    h1 = Hamiltonian(1, [(PauliWord.from_string("Z"), 1.0)])
    rho1 = SparseDensity.computational_basis(1)
    with pytest.warns(UserWarning, match="not certified"):
        rep2 = estimate(bad, h1, rho1, {"a": 0.3}, 0.2, m=4, eps_delta=(0.5, 0.1))
    assert not rep2.generation_certified
    assert rep2.eps_delta is None


def test_describe_factors_format():
    circuit, h, rho = rx_chain_instance(2, 4)
    run = PathEnumeration(circuit, h, rho, None)
    descriptions = [describe_factors(p) for p in run.paths()]
    assert "-sin(t2_1)*cos(t3_1)*cos(t4_1)" in descriptions
    for text in descriptions:
        assert set(text) <= set("0123456789_tausincos()*-")


def test_path_value_factorization():
    circuit, h, rho = rx_chain_instance(1, 3)
    theta = {p: 0.6 for p in circuit.parameters()}
    run = PathEnumeration(circuit, h, rho, None)
    for path in run.paths():
        expected = h.coeff(path.words[-1]) * path.sign * rho.overlap(path.words[0])
        for atom in path.atoms:
            expected *= atom_value(atom, theta)
        assert path_value(path, theta, h, rho) == pytest.approx(expected)
        assert damping(path, 0.2) == pytest.approx(0.8**path.total_weight)


def test_mse_benchmark_reproducible_and_bounded():
    circuit, h, rho = rx_chain_instance(2, 4)
    a = mse_benchmark(circuit, h, rho, lam=0.2, m=6, samples=60, seed=11)
    b = mse_benchmark(circuit, h, rho, lam=0.2, m=6, samples=60, seed=11)
    assert a.empirical_mse == b.empirical_mse
    assert a.passed
    assert a.empirical_mse <= a.bound + 3 * a.std_error
    assert a.bound <= a.bound_exp
    c = mse_benchmark(circuit, h, rho, lam=0.2, m=6, samples=60, seed=12)
    assert c.empirical_mse != a.empirical_mse
    # numpy ints are taken and reported as Python ints, so the report serializes
    d = mse_benchmark(circuit, h, rho, lam=0.2, m=6, samples=np.int64(60), seed=np.int64(11))
    assert json.dumps(d.to_dict()) == json.dumps(a.to_dict())


def test_mse_benchmark_none_runs_untruncated():
    # as in estimate, None is the largest total weight n(L+1)
    circuit, h, rho = rx_chain_instance(2, 4)
    report = mse_benchmark(circuit, h, rho, lam=0.2, m=None, samples=8, seed=3)
    assert report.m == 2 * (4 + 1)
    assert report.passed and report.empirical_mse < 1e-24


_IDENTITY_ONLY = Hamiltonian(2, [(PauliWord.identity(2), 0.7)])


@pytest.mark.parametrize(
    "call",
    [
        # (1 - lam)^(2m) divides by zero at lam = 1 if the certificate sees m
        lambda c, h, rho, th: estimate(c, h, rho, th, 1.0, m=-1),
        lambda c, h, rho, th: mse_benchmark(c, h, rho, lam=1.0, m=-2, samples=8, seed=3),
        # an identity-only H never reaches the path walk
        lambda c, h, rho, th: estimate(c, _IDENTITY_ONLY, rho, th, 0.3, m=-4),
        lambda c, h, rho, th: estimate(c, h, rho, th, 0.2, m=7.5),
        lambda c, h, rho, th: PathEnumeration(c, h, rho, 7.5),
    ],
    ids=[
        "estimate-full-noise",
        "mse-benchmark-full-noise",
        "identity-only",
        "float",
        "enumeration-float",
    ],
)
def test_truncation_order_must_be_a_non_negative_integer(call):
    circuit, h, rho = rx_chain_instance(2, 4)
    theta = {p: 0.4 for p in circuit.parameters()}
    with pytest.raises(ValueError, match="truncation order must be a non-negative integer"):
        call(circuit, h, rho, theta)


@pytest.mark.parametrize("operand", ["observable", "state"])
@pytest.mark.parametrize(
    "entry",
    [
        "estimate-full-noise",
        "estimate-identity-only",
        "mse-benchmark",
        "enumeration",
        "oracle-over-cap",
    ],
)
def test_mismatched_instance_refused_before_any_work(entry, operand, monkeypatch):
    # every entry point checks the qubit counts first: before the norm bound,
    # before the lam = 1 and identity-only shortcuts, before the oracle's cap
    def tripwire(*args, **kwargs):
        pytest.fail("norm bound computed before the instance check")

    monkeypatch.setattr(estimator, "norm_bound", tripwire)
    circuit, h, rho = rx_chain_instance(2, 4)
    theta = {p: 0.4 for p in circuit.parameters()}
    wide = 2 if operand == "state" else 3
    if entry == "estimate-identity-only":
        h = Hamiltonian(wide, [(PauliWord.identity(wide), 0.7)])
    elif operand == "observable":
        h = Hamiltonian(3, [(PauliWord.from_string("ZIZ"), 1.0)])
    if operand == "state":
        rho = SparseDensity.computational_basis(1)
    calls = {
        "estimate-full-noise": lambda: estimate(circuit, h, rho, theta, 1.0),
        "estimate-identity-only": lambda: estimate(circuit, h, rho, theta, 0.3),
        "mse-benchmark": lambda: mse_benchmark(circuit, h, rho, 0.2, 6, 8, 3),
        "enumeration": lambda: PathEnumeration(circuit, h, rho, 6),
        "oracle-over-cap": lambda: _over_cap(
            monkeypatch, lambda: noisy_mean_value(circuit, h, rho, theta, 0.2)
        ),
    }
    qubits = 3 if operand == "observable" else 1
    with pytest.raises(ValueError, match=f"^{operand} on {qubits} qubits, circuit has 2$"):
        calls[entry]()


def _over_cap(monkeypatch, call):
    """`call` with the oracle's qubit cap at 1, below every circuit here."""
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "ORACLE_CAP", 1)
        return call()


@pytest.mark.parametrize("lam", [-0.1, 1.5, math.nan, True])
def test_noise_rate_has_one_rule(lam, monkeypatch):
    # one message from every entry point, NaN included, and the oracle names
    # it before its qubit cap
    circuit, h, rho = rx_chain_instance(2, 4)
    theta = {p: 0.4 for p in circuit.parameters()}
    message = re.escape(f"noise rate must lie in [0, 1], got {lam}")
    for call in (
        lambda: estimate(circuit, h, rho, theta, lam),
        lambda: choose_m(lam, 1.0, target_mse=0.1),
        lambda: noisy_mean_value(circuit, h, rho, theta, lam),
        lambda: _over_cap(monkeypatch, lambda: noisy_mean_value(circuit, h, rho, theta, lam)),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf, None])
def test_every_symbol_needs_a_finite_angle(angle, monkeypatch):
    # a NaN, an infinite or a missing angle is refused by one rule that names
    # the parameter, before the norm bound and before the oracle's cap
    def tripwire(*args, **kwargs):
        pytest.fail("norm bound computed before the assignment check")

    monkeypatch.setattr(estimator, "norm_bound", tripwire)
    circuit, h, rho = rx_chain_instance(2, 4)
    name = circuit.parameters()[1]
    theta = {p: 0.4 for p in circuit.parameters() if p != name}
    if angle is not None:
        theta[name] = angle
    got = " and has none" if angle is None else f", got {angle!r}"
    message = re.escape(f"parameter {name!r} needs a finite real angle{got}")
    for call in (
        lambda: estimate(circuit, h, rho, theta, 0.1),
        lambda: noisy_mean_value(circuit, h, rho, theta, 0.1),
        lambda: _over_cap(monkeypatch, lambda: noisy_mean_value(circuit, h, rho, theta, 0.1)),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def test_every_symbol_needs_finite_angles_in_arrays(monkeypatch):
    # an array assignment follows the same rule entry by entry: every symbol
    # gets a non-empty 1-d array of the first symbol's length, and a NaN or
    # infinite entry is refused before the oracle's cap; `estimate` takes
    # floats only, so its report's value stays a float
    def tripwire(*args, **kwargs):
        pytest.fail("norm bound computed before the assignment check")

    monkeypatch.setattr(estimator, "norm_bound", tripwire)
    circuit, h, rho = rx_chain_instance(2, 4)
    first, name = circuit.parameters()[:2]
    rule = (
        f"parameter {name!r} needs a finite real angle per sample,"
        " in a 1-d array of length 3"
    )
    for angles in (
        np.array([0.4, math.nan, 0.4]),
        np.array([0.4, 0.4, -math.inf]),
        np.full((3, 1), 0.4),
        np.full(2, 0.4),
        np.full(3, True),
        0.4,
    ):
        theta = {p: np.full(3, 0.4) for p in circuit.parameters()}
        theta[name] = angles
        for call in (
            lambda: noisy_mean_value(circuit, h, rho, theta, 0.1),
            lambda: _over_cap(monkeypatch, lambda: noisy_mean_value(circuit, h, rho, theta, 0.1)),
            lambda: _over_cap(monkeypatch, lambda: oracle.evolve_noisy(circuit, rho, theta, 0.1)),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(f'{rule}, got {angles!r}')}$"):
                call()
    theta = {p: np.full(3, 0.4) for p in circuit.parameters()}
    theta[first] = np.array([], dtype=float)
    rule = f"parameter {first!r} needs a finite real angle per sample, in a non-empty 1-d array"
    with pytest.raises(ValueError, match=f"^{re.escape(rule)}, got "):
        _over_cap(monkeypatch, lambda: noisy_mean_value(circuit, h, rho, theta, 0.1))
    theta[first] = np.full(3, 0.4)
    rule = f"parameter {first!r} needs a finite real angle, got {theta[first]!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(rule)}$"):
        estimate(circuit, h, rho, theta, 0.1)


def test_mse_benchmark_runs_the_oracle_once_per_chunk(monkeypatch):
    # the benchmark's traced runs time the oracle through these two module
    # names, so mse_benchmark reaches it through them: one batched mean-value
    # call, and one dense run per chunk of CHUNK_ENTRIES real entries
    calls = {"noisy_mean_value": 0, "evolve_noisy": 0}
    for name in calls:

        def counting(*args, _name=name, _original=getattr(oracle, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(oracle, name, counting)
    circuit, h, rho = rx_chain_instance(6, 4)
    per_chunk = oracle.CHUNK_ENTRIES >> (2 * circuit.n)
    report = mse_benchmark(circuit, h, rho, lam=0.2, m=None, samples=64, seed=3)
    assert report.passed and 1 < per_chunk < 64
    assert calls == {"noisy_mean_value": 1, "evolve_noisy": math.ceil(64 / per_chunk)}


def test_entry_points_walk_one_enumeration_to_the_end(monkeypatch):
    # the benchmark's traced runs read the engine counters through this
    # module name: a subclass of estimator.PathEnumeration reads `stats` when
    # its iterator ends.  So estimate and mse_benchmark each build one
    # enumeration there and run its iterator to the end once, and estimate
    # reports the stats of that pass.
    built, started, finished = [], [], []

    class Counting(PathEnumeration):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

        def __iter__(self):
            started.append(self)
            yield from super().__iter__()
            finished.append(dataclasses.replace(self.stats))

    monkeypatch.setattr(estimator, "PathEnumeration", Counting)
    circuit, h, rho = rx_chain_instance(2, 6)
    theta = {p: 0.4 for p in circuit.parameters()}
    report = estimate(circuit, h, rho, theta, 0.1)
    assert len(built) == len(started) == len(finished) == 1
    assert started == built and report.paths_used == 32
    assert dataclasses.asdict(finished[0]) == report.stats
    for calls in (built, started, finished):
        calls.clear()
    mse_benchmark(circuit, h, rho, lam=0.2, m=8, samples=8, seed=3)
    assert len(built) == len(started) == len(finished) == 1
    assert started == built and finished[0].paths_emitted > 0


def test_mse_benchmark_without_symbols(recwarn):
    # no symbol means no sample axis: one exact value stands for every sample
    circuit = Circuit(1, (Layer((CliffordGate("H", (1,)),)),))
    h = Hamiltonian(1, [(PauliWord.from_string("Z"), 1.0)])
    report = mse_benchmark(
        circuit, h, SparseDensity.computational_basis(1), lam=0.2, m=None, samples=5, seed=1
    )
    assert (report.empirical_mse, report.std_error, report.passed) == (0.0, 0.0, True)


def test_mse_benchmark_builds_dense_hamiltonian_once(monkeypatch):
    # the oracle runs once per call, on all samples, so the dense H it
    # needs is built once per call and kept nowhere.  Rotation matrices
    # come from the same builder, on their 1-qubit supports here, so only
    # the 2-qubit (H-sized) builds count.
    built = []
    original = oracle.pauli_sum_matrix

    def counting(*args, **kwargs):
        if args[0] == 2:
            built.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(oracle, "pauli_sum_matrix", counting)
    circuit, h, rho = rx_chain_instance(2, 4)
    report = mse_benchmark(circuit, h, rho, lam=0.2, m=6, samples=8, seed=3)
    assert report.passed and built == [2]
    mse_benchmark(circuit, h, rho, lam=0.2, m=6, samples=8, seed=4)
    assert built == [2, 2]


def test_mse_benchmark_survives_package_reimport(monkeypatch):
    # a fresh import of the package (as a benchmark harness does) must not
    # rebind the modules that functions imported earlier call into
    circuit, h, rho = rx_chain_instance(2, 4)
    for name in [m for m in sys.modules if m == "paulipath" or m.startswith("paulipath.")]:
        monkeypatch.delitem(sys.modules, name)
    assert importlib.import_module("paulipath.oracle") is not oracle
    report = mse_benchmark(circuit, h, rho, lam=0.2, m=6, samples=8, seed=3)
    assert report.passed


def test_sampled_runs_refuse_what_they_cannot_sample(monkeypatch):
    circuit, h, rho = rx_chain_instance(2, 4)
    paths = list(PathEnumeration(circuit, h, rho, None).paths())
    for call in (
        lambda: mse_benchmark(circuit, h, rho, lam=0.2, m=6, samples=1, seed=0),
        lambda: cross_term_check(circuit, h, rho, paths[0], paths[1], samples=1, seed=0),
    ):
        with pytest.raises(ValueError, match="^need at least 2 samples, got 1$"):
            call()
    with pytest.raises(ValueError, match="^cross-term check needs two distinct paths$"):
        cross_term_check(circuit, h, rho, paths[0], paths[0], samples=4, seed=0)
    # a sample count or a seed that is not a non-negative int is named before
    # any work: before the norm bound and before the generation warning
    def tripwire(*args, **kwargs):
        pytest.fail("norm bound computed before the sampling check")

    monkeypatch.setattr(estimator, "norm_bound", tripwire)
    uncertified = Circuit(1, (Layer((RotationGate(PauliWord.from_string("X"), param="a"),)),))
    h1 = Hamiltonian(1, [(PauliWord.from_string("Z"), 1.0)])
    rho1 = SparseDensity.computational_basis(1)
    for samples, seed, field in (
        (8, -1, "seed"),
        (8, True, "seed"),
        (8, 1.5, "seed"),
        (2.5, 0, "samples"),
        (True, 0, "samples"),
    ):
        value = seed if field == "seed" else samples
        message = re.escape(f"{field} must be a non-negative integer, got {value!r}")
        for call in (
            lambda: mse_benchmark(uncertified, h1, rho1, lam=0.2, m=4, samples=samples, seed=seed),
            lambda: cross_term_check(
                circuit, h, rho, paths[0], paths[1], samples=samples, seed=seed
            ),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=f"^{message}$"):
                    call()
    rx = RotationGate(PauliWord.from_string("X"), param="a")
    shared = Circuit(1, (Layer((rx,)), Layer((rx,))))
    h1 = Hamiltonian(1, [(PauliWord.from_string("Z"), 1.0)])
    rho1 = SparseDensity.computational_basis(1)
    with pytest.raises(ValueError, match="^layer 2: parameter 'a' is shared;"):
        mse_benchmark(shared, h1, rho1, lam=0.2, m=4, samples=10, seed=0)
    with pytest.raises(ValueError, match="^no angle bound for parameter 'a'$"):
        atom_value(FactorAtom("cos", "a"), {"b": 0.3})


def test_mse_benchmark_rejects_bound_angles():
    circuit = Circuit(
        1,
        (
            Layer((RotationGate(PauliWord.from_string("X"), param="a"),)),
            Layer((RotationGate(PauliWord.from_string("Z"), angle=0.3),)),
        ),
    )
    h = Hamiltonian(1, [(PauliWord.from_string("Z"), 1.0)])
    rho = SparseDensity.computational_basis(1)
    with pytest.raises(ValueError, match="bound-angle"):
        mse_benchmark(circuit, h, rho, lam=0.2, m=4, samples=10, seed=0)


def test_cross_term_vanishes_when_certified():
    circuit, h, rho = rx_chain_instance(2, 4)
    paths = list(PathEnumeration(circuit, h, rho, None).paths())
    result = cross_term_check(circuit, h, rho, paths[0], paths[1], samples=4000, seed=5)
    assert result.generation_certified
    assert abs(result.mean) <= 4 * result.std_error


def _uncertified_instance():
    """A single layer of Z rotations on |00>, which keeps two distinct
    paths perfectly correlated: both factors are constant 1."""
    circuit = Circuit(
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
    h = Hamiltonian(
        2, [(PauliWord.from_string("ZI"), 1.0), (PauliWord.from_string("ZZ"), 1.0)]
    )
    return circuit, h, SparseDensity.computational_basis(2)


def test_cross_term_counterexample_without_certification():
    circuit, h, rho = _uncertified_instance()
    paths = list(PathEnumeration(circuit, h, rho, None).paths())
    assert len(paths) == 2
    result = cross_term_check(circuit, h, rho, paths[0], paths[1], samples=500, seed=3)
    assert not result.generation_certified
    assert abs(result.mean) > 4 * result.std_error


def _path_mass_and_mean_square(circuit, h, rho) -> tuple[float, float]:
    """At lam = 0: the untruncated path mass sum c^2 2^-a Tr(s_0 rho)^2 (a
    cos/sin atoms, each of mean square 1/2), and E[f'^2] over uniform
    angles, f' the mean value without the identity part.  f'^2 has degree
    <= 2 in each angle, so the grid {0, 2pi/3, 4pi/3} per angle averages it
    exactly, from one batched oracle call."""
    mass = math.fsum(
        (h.coeff(path.words[-1]) * rho.overlap(path.words[0])) ** 2 / 2 ** len(path.atoms)
        for path in PathEnumeration(circuit, h, rho, None).paths()
    )
    params = circuit.parameters()
    thirds = (0.0, 2 * math.pi / 3, 4 * math.pi / 3)
    grid = np.array(list(itertools.product(thirds, repeat=len(params))))
    values = noisy_mean_value(circuit, h, rho, dict(zip(params, grid.T)), 0.0)
    traceless = values - h.identity_coeff * rho.overlap_masks(0, 0)
    return mass, float(np.mean(np.square(traceless)))


def test_path_mass_equals_mean_square_when_certified():
    # distinct paths are orthogonal over the angles once the generation check
    # passes, so the path mass is E[f'^2] exactly; criterion 6's uncertified
    # counterexample keeps its two paths correlated and breaks the identity
    for seed in range(20):
        circuit, h, rho, _ = random_certified_instance(seed, max_rotations=6)
        mass, mean_square = _path_mass_and_mean_square(circuit, h, rho)
        assert abs(mass - mean_square) <= 1e-12, seed
    mass, mean_square = _path_mass_and_mean_square(*_uncertified_instance())
    assert mass == pytest.approx(2.0, abs=1e-12)
    assert mean_square == pytest.approx(4.0, abs=1e-12)


def test_report_serializes():
    circuit, h, rho, theta = random_certified_instance(31)
    report = estimate(circuit, h, rho, theta, 0.12)
    doc = report.to_dict()
    assert doc["value"] == report.value
    assert doc["stats"]["paths_emitted"] == report.paths_used


# a key of each warning the package raises
_WARNINGS = ("below depth", "not certified", "not Hermitian", "trace is")


def test_truncation_warning_names_the_callers_line(tmp_path):
    # every warning starts inside the package, but names the line that
    # called into it, however deep the call went: through the library and
    # through the CLI
    circuit, h, rho = rx_chain_instance(2, 5)
    angles = {p: 0.3 for p in circuit.parameters()}
    # one rotation cannot generate the Pauli group; depth 1 needs m >= 2
    uncertified = Circuit(1, (Layer((RotationGate(PauliWord.from_string("Z"), param="a"),)),))
    h1 = Hamiltonian(1, [(PauliWord.from_string("X"), 1.0)])
    rho1 = SparseDensity.computational_basis(1)
    # not Hermitian, and of trace 0.5
    entries = [(0, 0, 0.5), (0, 1, 0.2)]
    state = {
        "n": 1,
        "entries": [{"ket": "0", "bra": "0", "re": 0.5}, {"ket": "0", "bra": "1", "re": 0.2}],
    }
    paths = {}
    for name, doc in (
        ("circuit", {"n": 1, "layers": [{"gates": [{"kind": "rot", "pauli": "Z", "param": "a"}]}]}),
        ("hamiltonian", {"n": 1, "terms": [{"pauli": "X", "coeff": 1.0}]}),
        ("state", state),
    ):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    argv = [
        "--mode", "estimate",
        "--circuit", str(paths["circuit"]),
        "--hamiltonian", str(paths["hamiltonian"]),
        "--state", str(paths["state"]),
        "--seed", "1",
        "--lambda", "0.1",
        "--trunc-m", "1",
        "--out", str(tmp_path / "report.json"),
    ]
    calls = [
        (lambda: estimate(circuit, h, rho, angles, 0.1, m=4), ["below depth"]),
        (lambda: mse_benchmark(circuit, h, rho, 0.1, 4, samples=4, seed=1), ["below depth"]),
        (lambda: list(PathEnumeration(circuit, h, rho, 4)), ["below depth"]),
        (lambda: estimate(uncertified, h1, rho1, {"a": 0.3}, 0.1), ["not certified"]),
        (lambda: SparseDensity(1, entries), ["not Hermitian", "trace is"]),
        (lambda: state_from_dict(state), ["not Hermitian", "trace is"]),
        (lambda: cli.main(argv), list(_WARNINGS)),
    ]
    for call, expected in calls:
        with pytest.warns(UserWarning) as record:
            call()
        named = [
            (key, w.filename) for w in record for key in _WARNINGS if key in str(w.message)
        ]
        assert len(named) == len(record)
        assert sorted(named) == sorted((key, __file__) for key in expected)
