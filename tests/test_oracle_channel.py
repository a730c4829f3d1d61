"""The oracle's Pauli-coordinate run against the plain dense channel.

`evolve_noisy` applies each noise round as one diagonal factor of the
Pauli coordinates and each gate as its transfer matrix on those
coordinates; here the same run is rebuilt as the textbook channel from
conftest's independent helpers (Kraus-form noise, full-size gate
unitaries), one noise round and one layer at a time, at the three noise
rates the acceptance suite uses.  A run over arrays of angles, one batched
run per chunk of samples, is checked against the float call per sample.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from paulipath import (
    CliffordGate,
    Circuit,
    Hamiltonian,
    Layer,
    PauliWord,
    RotationGate,
    SparseDensity,
)
from paulipath.oracle import CHUNK_ENTRIES, evolve_noisy, noisy_mean_value

from conftest import (
    dense_depolarize,
    dense_hamiltonian,
    dense_layer_unitary,
    dense_state,
    pauli_sums,
)

RATES = (0.0, 0.3, 1.0)


def _state(n: int, seed: int) -> SparseDensity:
    """A random full-rank density matrix, every entry given."""
    rng = np.random.default_rng(seed)
    dim = 1 << n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = a @ a.conj().T
    mat /= np.trace(mat).real
    return SparseDensity(n, [(k, b, mat[k, b]) for k in range(dim) for b in range(dim)])


@st.composite
def layers(draw, n: int) -> Layer:
    """Gates on a random partition of the qubits: idle qubits, one-qubit
    Cliffords and rotations, CNOTs either way round, and rotations whose
    generator spans up to all n qubits in any order."""
    free = draw(st.permutations(range(1, n + 1)))
    gates = []
    while free:
        kind = draw(st.sampled_from(["idle", "H", "S", "rot", "CNOT", "wide"]))
        if kind in ("CNOT", "wide") and len(free) < 2:
            kind = "rot"
        if kind == "idle":
            free = free[1:]
        elif kind in ("H", "S"):
            gates.append(CliffordGate(kind, (free[0],)))
            free = free[1:]
        elif kind == "CNOT":
            gates.append(CliffordGate("CNOT", (free[0], free[1])))
            free = free[2:]
        else:
            width = 1 if kind == "rot" else draw(st.integers(2, len(free)))
            letters = {q: draw(st.sampled_from("XYZ")) for q in free[:width]}
            gates.append(RotationGate(PauliWord.from_map(n, letters), param=f"t{len(gates)}"))
            free = free[width:]
    return Layer(tuple(gates))


@st.composite
def instances(draw):
    h = draw(pauli_sums(max_n=5))
    n = h.n
    circuit = Circuit(n, tuple(draw(st.lists(layers(n), min_size=1, max_size=4))))
    angles = st.floats(-7.0, 7.0, allow_nan=False)
    theta = {p: draw(angles) for p in circuit.parameters()}
    return circuit, h, _state(n, draw(st.integers(0, 2**32 - 1))), theta


def _rot(n: int, letters: dict[int, str], param: str) -> RotationGate:
    return RotationGate(PauliWord.from_map(n, letters), param=param)


def _h(n: int) -> Hamiltonian:
    return Hamiltonian(
        n,
        [(PauliWord.from_map(n, {q: "XYZ"[q % 3]}), 0.5 + 0.1 * q) for q in range(1, n + 1)]
        + [(PauliWord.from_map(n, {1: "Y", n: "X"} if n > 1 else {1: "Y"}), -0.7)],
    )


# two qubits idle in the first layer and all three in the last
IDLE = (
    Circuit(3, (Layer((CliffordGate("H", (2,)),)), Layer((_rot(3, {1: "Y"}, "a"),)), Layer(()))),
    _h(3),
    _state(3, 1),
    {"a": 0.8},
)
# generators on qubits {1, 3, 5} and {2, 4}, and one on all five qubits
SPREAD = (
    Circuit(
        5,
        (
            Layer((_rot(5, {1: "X", 3: "Y", 5: "Z"}, "a"), _rot(5, {2: "Z", 4: "X"}, "b"))),
            Layer((_rot(5, {1: "Y", 2: "X", 3: "Z", 4: "Y", 5: "X"}, "c"),)),
        ),
    ),
    _h(5),
    _state(5, 2),
    {"a": 1.1, "b": -2.3, "c": 0.4},
)
# a CNOT whose control is the higher qubit, next to an idle qubit
HIGH_CONTROL = (
    Circuit(3, (Layer((_rot(3, {3: "X"}, "a"), CliffordGate("H", (1,)))),
                Layer((CliffordGate("CNOT", (3, 1)),)))),
    _h(3),
    _state(3, 3),
    {"a": 2.0},
)
ONE_QUBIT = (
    Circuit(1, (Layer((CliffordGate("H", (1,)),)), Layer((_rot(1, {1: "Y"}, "a"),)),
                Layer((CliffordGate("S", (1,)),)))),
    _h(1),
    _state(1, 4),
    {"a": -0.6},
)


@given(instances())
@example(IDLE)
@example(SPREAD)
@example(HIGH_CONTROL)
@example(ONE_QUBIT)
@settings(max_examples=60, deadline=None)
def test_pauli_coordinate_run_matches_dense_channel(instance):
    circuit, h, rho, theta = instance
    n = circuit.n
    for lam in RATES:
        expected = dense_state(rho)
        for layer in circuit.layers:
            expected = dense_depolarize(expected, n, lam)
            u = dense_layer_unitary(layer, n, theta)
            expected = u @ expected @ u.conj().T
        expected = dense_depolarize(expected, n, lam)
        got = evolve_noisy(circuit, rho, theta, lam)
        assert np.max(np.abs(got - expected)) <= 1e-12, lam
        mean = np.trace(dense_hamiltonian(h) @ expected).real
        assert noisy_mean_value(circuit, h, rho, theta, lam) == pytest.approx(mean, abs=1e-12)


@st.composite
def batches(draw):
    """An instance whose every symbol has a 1-d array of 1 to 4 angles."""
    circuit, h, rho, _ = draw(instances())
    size = draw(st.integers(1, 4))
    angles = st.lists(st.floats(-7.0, 7.0, allow_nan=False), min_size=size, max_size=size)
    return circuit, h, rho, {p: np.array(draw(angles)) for p in circuit.parameters()}


def _batch(instance, size: int, seed: int):
    circuit, h, rho, _ = instance
    rng = np.random.default_rng(seed)
    return circuit, h, rho, {p: rng.uniform(-7.0, 7.0, size) for p in circuit.parameters()}


def _bound(n: int, letters: dict[int, str], angle: float) -> RotationGate:
    return RotationGate(PauliWord.from_map(n, letters), angle=angle)


# bound angles, one- and two-qubit, shared by every sample of the batch
BOUND = (
    Circuit(
        3,
        (
            Layer((_rot(3, {1: "Y"}, "a"), _bound(3, {2: "X"}, 0.7))),
            Layer((_bound(3, {1: "Z", 3: "Y"}, -1.2), _rot(3, {2: "Z"}, "b"))),
            Layer((CliffordGate("CNOT", (2, 1)),)),
        ),
    ),
    _h(3),
    _state(3, 5),
    None,
)
# at n = 2 a chunk holds CHUNK_ENTRIES / 16 samples; one more starts a second
CHAIN = (
    Circuit(
        2,
        (
            Layer((_rot(2, {1: "Y"}, "a"), _rot(2, {2: "X"}, "b"))),
            Layer((CliffordGate("CNOT", (1, 2)),)),
            Layer((_rot(2, {1: "Z", 2: "Y"}, "c"),)),
        ),
    ),
    _h(2),
    _state(2, 6),
    None,
)


@given(batches())
@example(_batch(SPREAD, 3, 1))
@example(_batch(BOUND, 3, 2))
@example(_batch(IDLE, 1, 3))
@example(_batch(CHAIN, (CHUNK_ENTRIES >> 4) + 1, 4))
@settings(max_examples=30, deadline=None)
def test_batch_run_matches_float_calls(instance):
    circuit, h, rho, theta = instance
    assume(theta)
    size = len(next(iter(theta.values())))
    dim = 1 << circuit.n
    for lam in RATES:
        stack = evolve_noisy(circuit, rho, theta, lam)
        values = noisy_mean_value(circuit, h, rho, theta, lam)
        assert stack.shape == (size, dim, dim) and values.shape == (size,)
        for k in range(size):
            one = {p: float(angles[k]) for p, angles in theta.items()}
            assert np.max(np.abs(stack[k] - evolve_noisy(circuit, rho, one, lam))) <= 1e-12
            assert abs(values[k] - noisy_mean_value(circuit, h, rho, one, lam)) <= 1e-12


def test_batch_mean_value_reads_the_identity_part_as_the_trace():
    # a state of trace 1.5: the identity part of H is c_I Tr(rho_final),
    # not c_I, on both sides of a chunk boundary
    circuit, h, rho, _ = CHAIN
    with pytest.warns(UserWarning, match="state trace is 1.5"):
        heavy = SparseDensity(2, [(ket, bra, 1.5 * value) for ket, bra, value in rho.entries()])
    h = Hamiltonian(2, [*h.terms(), (PauliWord.identity(2), 0.75)])
    assert any("Y" in str(word) for word, _ in h.terms())
    step = CHUNK_ENTRIES >> 4
    _, _, _, theta = _batch(CHAIN, step + 1, 7)
    values = noisy_mean_value(circuit, h, heavy, theta, 0.3)
    h_dense = dense_hamiltonian(h)
    for k in (0, step - 1, step):
        one = {p: float(angles[k]) for p, angles in theta.items()}
        expected = dense_state(heavy)
        for layer in circuit.layers:
            expected = dense_depolarize(expected, 2, 0.3)
            u = dense_layer_unitary(layer, 2, one)
            expected = u @ expected @ u.conj().T
        expected = dense_depolarize(expected, 2, 0.3)
        assert abs(values[k] - np.trace(h_dense @ expected).real) <= 1e-12, k
