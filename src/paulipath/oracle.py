"""Dense-matrix reference simulator for small systems.

Everything here works on explicit numpy arrays: states are 2^n x 2^n
density matrices, gates are embedded by tensor contraction, and the
single-qubit depolarizing channel is applied by partial trace.  Dense
Pauli sums come from `observables.pauli_sum_matrix`, shared with
`norm_bound`; the path engine never calls it, and mean values, conjugation
and damping are all recomputed from matrices, so the two routes stay
independent checks of each other.  The tests check that builder against
their own kron construction.

Flat index convention: basis state index b has bit q-1 equal to the value
of qubit q, matching the bit-mask convention of `pauli.PauliWord`.  In
tensor form a 2^n vector reshapes to (2,)*n with qubit q on axis n-q.

The noisy run interleaves one round of per-qubit depolarizing noise before
every layer and one more before measurement:

    rho -> N -> U_1 -> N -> U_2 -> ... -> U_L -> N -> Tr(H .)
"""

from __future__ import annotations

import math

import numpy as np

from .circuit import Circuit, CliffordGate, Layer, RotationGate, require_valid
from .observables import Hamiltonian, SparseDensity, pauli_sum_matrix
from .pauli import PauliWord

DEFAULT_ORACLE_CAP = 10

_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_S_GATE = np.array([[1, 0], [0, 1j]], dtype=complex)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


class OracleCapError(RuntimeError):
    """Raised when a dense run would exceed the qubit cap."""

    def __init__(self, n: int, cap: int) -> None:
        super().__init__(f"dense oracle asked for {n} qubits, cap is {cap}")
        self.n = n
        self.cap = cap


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise OracleCapError(n, cap)


def _real(value: complex, what: str) -> float:
    """The real part of a trace that must be real and finite."""
    if not (math.isfinite(value.real) and abs(value.imag) < 1e-10):
        raise ValueError(f"{what} is not a finite real number: {value!r}")
    return value.real


def word_matrix(word: PauliWord) -> np.ndarray:
    """Dense 2^n x 2^n matrix of an unnormalized Pauli word."""
    return pauli_sum_matrix(word.n, [(word, 1.0)])


def hamiltonian_matrix(h: Hamiltonian) -> np.ndarray:
    """Dense matrix of H, identity part included.  Built once per
    Hamiltonian and cached on the immutable `h`, read-only."""
    if h._matrix is None:
        matrix = pauli_sum_matrix(h.n, h.terms(), h.identity_coeff)
        matrix.flags.writeable = False
        h._matrix = matrix
    return h._matrix


def state_matrix(rho: SparseDensity) -> np.ndarray:
    dim = 1 << rho.n
    mat = np.zeros((dim, dim), dtype=complex)
    for ket, bra, value in rho.entries():
        mat[ket, bra] += value
    return mat


def gate_matrix(gate: RotationGate | CliffordGate, theta: float | None = None) -> np.ndarray:
    """Dense matrix on the gate's support qubits, first support qubit as
    the most significant index bit."""
    if isinstance(gate, CliffordGate):
        return {"H": _HADAMARD, "S": _S_GATE, "CNOT": _CNOT}[gate.kind]
    if theta is None:
        raise ValueError("rotation gate needs an angle")
    support = gate.support
    pauli = np.array([[1.0 + 0j]])
    for q in support:
        pauli = np.kron(pauli, _MATS[gate.generator.letter(q)])
    dim = 1 << len(support)
    return math.cos(theta / 2) * np.eye(dim, dtype=complex) - 1j * math.sin(
        theta / 2
    ) * pauli


def _resolve_angle(gate: RotationGate, assignment: dict[str, float]) -> float:
    if gate.angle is not None:
        return gate.angle
    if gate.param not in assignment:
        raise ValueError(f"no angle bound for parameter {gate.param!r}")
    return assignment[gate.param]


def _left_multiply(
    tensor: np.ndarray, gate: np.ndarray, qubits: tuple[int, ...], n: int
) -> np.ndarray:
    """G . M on the row axes of a matrix in (2,)*2n tensor form."""
    k = len(qubits)
    g = gate.reshape((2,) * (2 * k))
    row_axes = [n - q for q in qubits]
    tensor = np.tensordot(g, tensor, axes=(list(range(k, 2 * k)), row_axes))
    return np.moveaxis(tensor, list(range(k)), row_axes)


def _right_multiply_dagger(
    tensor: np.ndarray, gate: np.ndarray, qubits: tuple[int, ...], n: int
) -> np.ndarray:
    """M . Gdag on the column axes of a matrix in (2,)*2n tensor form."""
    k = len(qubits)
    gd = gate.conj().T.reshape((2,) * (2 * k))
    col_axes = [2 * n - q for q in qubits]
    tensor = np.tensordot(tensor, gd, axes=(col_axes, list(range(k))))
    return np.moveaxis(tensor, list(range(-k, 0)), col_axes)


def _apply_gate(
    tensor: np.ndarray, gate: np.ndarray, qubits: tuple[int, ...], n: int
) -> np.ndarray:
    return _right_multiply_dagger(_left_multiply(tensor, gate, qubits, n), gate, qubits, n)


def _depolarize_qubit(tensor: np.ndarray, q: int, n: int, lam: float) -> np.ndarray:
    """(1-lam) M + lam Tr_q(M) (x) I/2 on one qubit of a matrix tensor."""
    ra, ca = n - q, 2 * n - q
    traced = np.trace(tensor, axis1=ra, axis2=ca)
    traced = np.expand_dims(np.expand_dims(traced, ra), ca)
    shape = [1] * (2 * n)
    shape[ra] = shape[ca] = 2
    eye = np.eye(2, dtype=complex).reshape(shape)
    return (1.0 - lam) * tensor + (lam / 2.0) * traced * eye


def depolarize_all(mat: np.ndarray, n: int, lam: float) -> np.ndarray:
    """One round of the per-qubit depolarizing channel on a dense matrix."""
    if lam == 0.0:
        return mat
    tensor = mat.reshape((2,) * (2 * n))
    for q in range(1, n + 1):
        tensor = _depolarize_qubit(tensor, q, n, lam)
    return tensor.reshape(mat.shape)


def apply_layer(
    mat: np.ndarray, layer: Layer, assignment: dict[str, float], n: int
) -> np.ndarray:
    """U rho Udag for one layer; gate order is irrelevant on disjoint supports."""
    tensor = mat.reshape((2,) * (2 * n))
    for gate in layer.gates:
        theta = _resolve_angle(gate, assignment) if isinstance(gate, RotationGate) else None
        tensor = _apply_gate(tensor, gate_matrix(gate, theta), gate.support, n)
    return tensor.reshape(mat.shape)


def evolve_noisy(
    circuit: Circuit,
    rho: SparseDensity,
    assignment: dict[str, float],
    lam: float,
    cap: int = DEFAULT_ORACLE_CAP,
) -> np.ndarray:
    """Final dense density matrix after the noisy circuit (noise applied
    before each layer and once more at the end)."""
    _check_cap(circuit.n, cap)
    require_valid(circuit)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"noise rate must lie in [0, 1], got {lam}")
    if rho.n != circuit.n:
        raise ValueError(f"state on {rho.n} qubits, circuit has {circuit.n}")
    mat = state_matrix(rho)
    for layer in circuit.layers:
        mat = depolarize_all(mat, circuit.n, lam)
        mat = apply_layer(mat, layer, assignment, circuit.n)
    return depolarize_all(mat, circuit.n, lam)


def noisy_mean_value(
    circuit: Circuit,
    h: Hamiltonian,
    rho: SparseDensity,
    assignment: dict[str, float],
    lam: float,
    cap: int = DEFAULT_ORACLE_CAP,
) -> float:
    """Tr(H rho_final), checked real."""
    if h.n != circuit.n:
        raise ValueError(f"observable on {h.n} qubits, circuit has {circuit.n}")
    final = evolve_noisy(circuit, rho, assignment, lam, cap=cap)
    return _real(complex(np.trace(hamiltonian_matrix(h) @ final)), "mean value")


# --- per-path factor checks -------------------------------------------------
#
# A path (s_0, ..., s_L) factorizes into dense traces:
#     Tr(H N(s_L))/2^n * prod_i Tr(s_i U_i N(s_{i-1}) U_i^dag)/2^n * Tr(s_0 rho)
# computed entirely from matrices; the test suite compares this against the
# estimator's damped symbolic value path by path.


def transition_factor(
    layer: Layer,
    assignment: dict[str, float],
    n: int,
    prev_word: PauliWord,
    next_word: PauliWord,
    lam: float = 0.0,
    cap: int = DEFAULT_ORACLE_CAP,
) -> float:
    """Tr(next U N(prev) Udag) / 2^n, checked real."""
    _check_cap(n, cap)
    mat = depolarize_all(word_matrix(prev_word), n, lam)
    mat = apply_layer(mat, layer, assignment, n)
    value = complex(np.trace(word_matrix(next_word) @ mat)) / (1 << n)
    return _real(value, "transition factor")


def observable_factor(
    h: Hamiltonian, word: PauliWord, lam: float = 0.0, cap: int = DEFAULT_ORACLE_CAP
) -> float:
    """Tr(H N(word)) / 2^n, checked real."""
    _check_cap(h.n, cap)
    mat = depolarize_all(word_matrix(word), h.n, lam)
    value = complex(np.trace(hamiltonian_matrix(h) @ mat)) / (1 << h.n)
    return _real(value, "observable factor")


def state_factor(rho: SparseDensity, word: PauliWord, cap: int = DEFAULT_ORACLE_CAP) -> float:
    """Tr(word rho) from dense matrices, checked real."""
    _check_cap(rho.n, cap)
    return _real(complex(np.trace(word_matrix(word) @ state_matrix(rho))), "state factor")
