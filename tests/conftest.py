"""Shared helpers: independent dense algebra and a random instance generator.

The dense helpers here are written from scratch on purpose so that algebra
tests do not validate the package against its own oracle module.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
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
from paulipath.circuit import circuit_generation_certified

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_word(word: PauliWord) -> np.ndarray:
    # qubit 1 holds the least significant basis bit, so it is the
    # rightmost kron factor

    out = np.array([[1.0 + 0j]])
    for q in range(word.n, 0, -1):
        out = np.kron(out, _1Q[word.letter(q)])
    return out


def dense_letters(n: int, letters: str) -> np.ndarray:
    return dense_word(PauliWord.from_string(letters))


def dense_state(rho: SparseDensity) -> np.ndarray:
    mat = np.zeros((2**rho.n, 2**rho.n), dtype=complex)
    for ket, bra, value in rho.entries():
        mat[ket, bra] = value
    return mat


def dense_hamiltonian(h: Hamiltonian) -> np.ndarray:
    dim = 2**h.n
    mat = h.identity_coeff * np.eye(dim, dtype=complex)
    for word, coeff in h.terms():
        mat += coeff * dense_word(word)
    return mat


@st.composite
def pauli_sums(draw, max_n: int = 5) -> Hamiltonian:
    """A random Hamiltonian on at most `max_n` qubits: any letters, an
    identity offset, and repeated words that merge, sometimes to zero."""
    n = draw(st.integers(1, max_n))
    masks = st.integers(0, 2**n - 1)
    words = draw(
        st.lists(st.builds(PauliWord, st.just(n), masks, masks), min_size=1, max_size=4)
    )
    coeffs = st.floats(-2, 2, allow_nan=False)
    terms = draw(st.lists(st.tuples(st.sampled_from(words), coeffs), min_size=1, max_size=8))
    return Hamiltonian(n, terms + [(PauliWord.identity(n), draw(coeffs))])


_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def dense_gate(gate, n: int, assignment: dict[str, float]) -> np.ndarray:
    """Full 2^n x 2^n unitary for a single gate, built independently."""
    if isinstance(gate, RotationGate):
        theta = gate.angle if gate.param is None else assignment[gate.param]
        gen = dense_word(gate.generator)
        dim = 2**n
        return math.cos(theta / 2) * np.eye(dim) - 1j * math.sin(theta / 2) * gen
    if gate.kind in ("H", "S"):
        base = _H if gate.kind == "H" else _S
        out = np.array([[1.0 + 0j]])
        for q in range(n, 0, -1):
            out = np.kron(out, base if q == gate.qubits[0] else _1Q["I"])
        return out
    # CNOT via projector decomposition: P0(c) x I + P1(c) x X(t)
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    control, target = gate.qubits
    term0 = np.array([[1.0 + 0j]])
    term1 = np.array([[1.0 + 0j]])
    for q in range(n, 0, -1):
        term0 = np.kron(term0, p0 if q == control else _1Q["I"])
        term1 = np.kron(
            term1, p1 if q == control else (_1Q["X"] if q == target else _1Q["I"])
        )
    return term0 + term1


def dense_layer_unitary(layer: Layer, n: int, assignment: dict[str, float]) -> np.ndarray:
    out = np.eye(2**n, dtype=complex)
    for gate in layer.gates:
        out = dense_gate(gate, n, assignment) @ out
    return out


def dense_depolarize(mat: np.ndarray, n: int, lam: float) -> np.ndarray:
    """Single-qubit depolarizing on every qubit, via the Kraus form."""
    k_id = math.sqrt(1 - 0.75 * lam)
    k_p = math.sqrt(0.25 * lam)
    for q in range(1, n + 1):
        ops = []
        for name, scale in (("I", k_id), ("X", k_p), ("Y", k_p), ("Z", k_p)):
            op = np.array([[1.0 + 0j]])
            for qq in range(n, 0, -1):
                op = np.kron(op, _1Q[name] if qq == q else _1Q["I"])
            ops.append(scale * op)
        mat = sum(k @ mat @ k.conj().T for k in ops)
    return mat


def dense_noisy_mean(
    circuit: Circuit,
    h: Hamiltonian,
    rho: SparseDensity,
    assignment: dict[str, float],
    lam: float,
) -> float:
    mat = dense_state(rho)
    for layer in circuit.layers:
        mat = dense_depolarize(mat, circuit.n, lam)
        u = dense_layer_unitary(layer, circuit.n, assignment)
        mat = u @ mat @ u.conj().T
    mat = dense_depolarize(mat, circuit.n, lam)
    value = np.trace(dense_hamiltonian(h) @ mat)
    assert abs(value.imag) < 1e-10
    return float(value.real)


def random_certified_instance(
    seed: int,
    max_n: int = 5,
    max_depth: int = 6,
    max_rotations: int = 12,
) -> tuple[Circuit, Hamiltonian, SparseDensity, dict[str, float]]:
    """Random mixed circuit passing the generation check, plus H, rho, theta.

    Instances stay small enough that the untruncated sum and the dense
    reference both run in milliseconds.
    """
    rng = np.random.default_rng(seed)
    for _ in range(60):
        n = int(rng.integers(1, max_n + 1))
        depth = int(rng.integers(2, max_depth + 1))
        rot_budget = max_rotations
        counter = itertools.count()
        layers = []
        for _ in range(depth):
            free = list(range(1, n + 1))
            rng.shuffle(free)
            gates = []
            while free:
                q = free.pop()
                if rng.random() < 0.15:
                    continue  # idle qubit
                if free and rng.random() < 0.35:
                    q2 = free.pop()
                    if rng.random() < 0.45 or rot_budget == 0:
                        gates.append(CliffordGate("CNOT", (q, q2)))
                    else:
                        letters = {
                            q: "XYZ"[rng.integers(0, 3)],
                            q2: "XYZ"[rng.integers(0, 3)],
                        }
                        gates.append(
                            RotationGate(
                                PauliWord.from_map(n, letters),
                                param=f"t{next(counter)}",
                            )
                        )
                        rot_budget -= 1
                elif rng.random() < 0.35 or rot_budget == 0:
                    gates.append(CliffordGate("HS"[rng.integers(0, 2)], (q,)))
                else:
                    gates.append(
                        RotationGate(
                            PauliWord.from_map(n, {q: "XYZ"[rng.integers(0, 3)]}),
                            param=f"t{next(counter)}",
                        )
                    )
                    rot_budget -= 1
            if gates:
                layers.append(Layer(tuple(gates)))
        if len(layers) < 2:
            continue
        circuit = Circuit(n, tuple(layers))
        if not circuit_generation_certified(circuit):
            continue
        words: dict[tuple[int, int], None] = {}
        target = min(int(rng.integers(2, 5)), 4**n - 1)
        while len(words) < target:
            x = int(rng.integers(0, 2**n))
            z = int(rng.integers(0, 2**n))
            if x or z:
                words[(x, z)] = None
        terms = [
            (PauliWord(n, x, z), float(rng.uniform(0.2, 1.0) * rng.choice([-1, 1])))
            for x, z in words
        ]
        if rng.random() < 0.3:
            terms.append((PauliWord.identity(n), float(rng.uniform(-0.5, 0.5))))
        h = Hamiltonian(n, terms)
        if rng.random() < 0.5:
            rho = SparseDensity.computational_basis(n, int(rng.integers(0, 2**n)))
        else:
            k0 = int(rng.integers(0, 2**n))
            k1 = int(rng.integers(0, 2**n))
            if k0 == k1:
                rho = SparseDensity.computational_basis(n, k0)
            else:
                amp = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
                rho = SparseDensity(
                    n,
                    [(k0, k0, 0.6), (k1, k1, 0.4), (k0, k1, amp), (k1, k0, amp.conjugate())],
                )
        theta = {
            p: float(v)
            for p, v in zip(
                circuit.parameters(),
                rng.uniform(0, 2 * math.pi, len(circuit.parameters())),
            )
        }
        return circuit, h, rho, theta
    raise RuntimeError(f"no certified instance found for seed {seed}")
