"""Dense reference simulator against a second, in-test dense implementation.

The conftest helpers intentionally use a different construction (projector
CNOT, Kraus-form noise) so agreement here is meaningful.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings

from paulipath import (
    Circuit,
    Hamiltonian,
    Layer,
    PauliWord,
    RotationGate,
    SparseDensity,
    oracle,
)
from paulipath.oracle import (
    OracleCapError,
    depolarize_all,
    evolve_noisy,
    hamiltonian_matrix,
    noisy_mean_value,
    observable_factor,
    state_factor,
    state_matrix,
    transition_factor,
    word_matrix,
)

from conftest import (
    dense_depolarize,
    dense_hamiltonian,
    dense_layer_unitary,
    dense_noisy_mean,
    dense_state,
    dense_word,
    pauli_sums,
    random_certified_instance,
)


@given(pauli_sums())
@example(Hamiltonian(2, [(PauliWord.from_string(s), 1.0) for s in ("XI", "ZY")]))
@settings(max_examples=80, deadline=None)
def test_word_matrix_orientation(h):
    # the mask builder against conftest's own kron chain, entry for entry
    for word, _ in h.terms():
        assert np.array_equal(word_matrix(word), dense_word(word))
    assert np.array_equal(word_matrix(PauliWord.identity(h.n)), np.eye(2**h.n))
    assert np.allclose(hamiltonian_matrix(h), dense_hamiltonian(h), rtol=0, atol=1e-12)


def test_state_matrix_round_trip():
    rho = SparseDensity(2, [(0, 0, 0.5), (3, 3, 0.5), (0, 3, 0.2), (3, 0, 0.2)])
    assert np.allclose(state_matrix(rho), dense_state(rho))


@pytest.mark.parametrize("lam", [0.0, 0.15, 1.0])
def test_depolarize_matches_kraus_form(lam):
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    mat = raw @ raw.conj().T
    mat /= np.trace(mat)
    expected = dense_depolarize(mat, 3, lam)
    got = depolarize_all(mat.reshape((2,) * 6), 3, lam).reshape(8, 8)
    assert np.allclose(got, expected)


@pytest.mark.parametrize("seed", [0, 4, 10, 17, 23, 31])
@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
def test_noisy_mean_matches_independent_dense(seed, lam):
    circuit, h, rho, theta = random_certified_instance(seed)
    got = noisy_mean_value(circuit, h, rho, theta, lam)
    assert got == pytest.approx(dense_noisy_mean(circuit, h, rho, theta, lam), abs=1e-12)


def test_noiseless_equals_zero_noise():
    # lam = 0 is plain unitary evolution, with no noise round at all
    circuit, h, rho, theta = random_certified_instance(3)
    mat = dense_state(rho)
    for layer in circuit.layers:
        u = dense_layer_unitary(layer, circuit.n, theta)
        mat = u @ mat @ u.conj().T
    noiseless = np.trace(dense_hamiltonian(h) @ mat).real
    assert noisy_mean_value(circuit, h, rho, theta, 0.0) == pytest.approx(
        noiseless, abs=1e-12
    )


def test_full_depolarizing_kills_traceless_part():
    circuit, h, rho, theta = random_certified_instance(8)
    assert noisy_mean_value(circuit, h, rho, theta, 1.0) == pytest.approx(
        h.identity_coeff, abs=1e-12
    )


def test_non_finite_mean_value_raises():
    # an explicit check, not an assert that `python -O` strips; every input
    # number is finite by construction, so here finite ones overflow it
    circuit = Circuit(1, (Layer((RotationGate(PauliWord.from_string("Z"), angle=0.0),)),))
    h = Hamiltonian(1, [(PauliWord.from_string("X"), 1e154)])
    rho = SparseDensity(1, [(0, 0, 1.0), (0, 1, 1e307), (1, 0, 1e307)])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="mean value"):
        noisy_mean_value(circuit, h, rho, {}, 0.1)


def test_cap_guard(monkeypatch):
    n = 11
    circuit = Circuit(
        n, (Layer((RotationGate(PauliWord.from_map(n, {1: "X"}), param="a"),)),)
    )
    h = Hamiltonian(n, [(PauliWord.from_map(n, {1: "Z"}), 1.0)])
    rho = SparseDensity.computational_basis(n)
    with pytest.raises(OracleCapError):
        noisy_mean_value(circuit, h, rho, {"a": 0.5}, 0.0)
    # a raised cap admits the same instance
    monkeypatch.setattr(oracle, "ORACLE_CAP", 11)
    assert noisy_mean_value(circuit, h, rho, {"a": 0.0}, 0.0) == pytest.approx(1.0)


def test_state_factor_is_overlap():
    rho = SparseDensity(1, [(0, 0, 0.5), (1, 1, 0.5), (0, 1, 0.25), (1, 0, 0.25)])
    for s in "IXYZ":
        word = PauliWord.from_string(s)
        assert state_factor(rho, word) == pytest.approx(rho.overlap(word))


def test_observable_factor_normalization():
    # Tr(H N(w)) / 2^n reduces to the damped coefficient of w
    h = Hamiltonian(2, [(PauliWord.from_string("XZ"), 0.8)])
    word = PauliWord.from_string("XZ")
    assert observable_factor(h, word, lam=0.0) == pytest.approx(0.8)
    assert observable_factor(h, word, lam=0.25) == pytest.approx(0.8 * 0.75**2)
    assert observable_factor(h, PauliWord.from_string("XI"), lam=0.0) == pytest.approx(0.0)


def test_transition_factor_single_rotation():
    # R_X on |Z>: cos branch keeps Z, sin branch moves to Y with known sign
    layer = Layer((RotationGate(PauliWord.from_string("X"), param="a"),))
    theta = {"a": 0.9}
    z, y = PauliWord.from_string("Z"), PauliWord.from_string("Y")
    assert transition_factor(layer, theta, 1, z, z) == pytest.approx(np.cos(0.9))
    got_sin = transition_factor(layer, theta, 1, y, z)
    assert abs(got_sin) == pytest.approx(abs(np.sin(0.9)))


def test_evolve_noisy_matches_dense_channel():
    circuit, h, rho, theta = random_certified_instance(12)
    lam = 0.2
    got = evolve_noisy(circuit, rho, theta, lam).reshape(2**circuit.n, 2**circuit.n)
    expected = dense_state(rho)
    for layer in circuit.layers:
        expected = dense_depolarize(expected, circuit.n, lam)
        u = dense_layer_unitary(layer, circuit.n, theta)
        expected = u @ expected @ u.conj().T
    expected = dense_depolarize(expected, circuit.n, lam)
    assert np.allclose(got, expected)
    assert np.trace(got) == pytest.approx(1.0)
    assert np.allclose(got, got.conj().T)
    assert hamiltonian_matrix(h).shape == got.shape
