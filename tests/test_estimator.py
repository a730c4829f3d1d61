"""Estimator:  truncation-order selection, certified bounds, determinism,
and the sampled error benchmarks."""

import math

import numpy as np
import pytest

from paulipath import (
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
)
from paulipath.engine import FactorAtom, PathEnumeration
from paulipath.estimator import atom_value, damping, describe_factors, path_value
from paulipath.oracle import noisy_mean_value

from conftest import random_certified_instance


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


def test_choose_m_requires_one_criterion():
    with pytest.raises(ValueError):
        choose_m(0.1, 1.0)
    with pytest.raises(ValueError):
        choose_m(0.1, 1.0, target_mse=0.01, epsilon=0.1, delta=0.1)


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


def test_workers_bit_identical():
    circuit, h, rho, theta = random_certified_instance(16)
    solo = estimate(circuit, h, rho, theta, 0.1, deterministic_sum=True)
    multi = estimate(circuit, h, rho, theta, 0.1, workers=2, deterministic_sum=True)
    assert solo.value == multi.value  # exact equality, not approx


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
    run = PathEnumeration(circuit, h, rho, None, warn=False)
    descriptions = [describe_factors(p) for p in run]
    assert "-sin(t2_1)*cos(t3_1)*cos(t4_1)" in descriptions
    for text in descriptions:
        assert set(text) <= set("0123456789_tausincos()*-")


def test_path_value_factorization():
    circuit, h, rho = rx_chain_instance(1, 3)
    theta = {p: 0.6 for p in circuit.parameters()}
    run = PathEnumeration(circuit, h, rho, None, warn=False)
    for path in run:
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
    paths = list(PathEnumeration(circuit, h, rho, None, warn=False))
    result = cross_term_check(circuit, h, rho, paths[0], paths[1], samples=4000, seed=5)
    assert result.generation_certified
    assert abs(result.mean) <= 4 * result.std_error


def test_cross_term_counterexample_without_certification():
    # a single layer of Z rotations on |00> keeps two distinct paths
    # perfectly correlated: both factors are constant 1
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
    rho = SparseDensity.computational_basis(2)
    paths = list(PathEnumeration(circuit, h, rho, None, warn=False))
    assert len(paths) == 2
    result = cross_term_check(circuit, h, rho, paths[0], paths[1], samples=500, seed=3)
    assert not result.generation_certified
    assert abs(result.mean) > 4 * result.std_error


def test_report_serializes():
    circuit, h, rho, theta = random_certified_instance(31)
    report = estimate(circuit, h, rho, theta, 0.12)
    doc = report.to_dict()
    assert doc["value"] == report.value
    assert doc["stats"]["paths_emitted"] == report.paths_used
