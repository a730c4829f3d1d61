"""Dense-matrix reference simulator for small systems.

A state is a 2^n x 2^n density matrix held as a (4,)*n pair tensor: qubit
q's row bit r and column bit c form the base-4 digit 2r + c on axis n - q.
A Clifford or one-qubit rotation U on k pair axes is one `_apply` of
(U (x) conj U) D^(x)k, D being one qubit's depolarizing step, so the noise
round before a layer is folded into its gates; an idle qubit gets D alone,
as does every qubit in the last round.  A wider rotation gets D, then U
and conj U on its row and column bits in the (2,)*2n view.  Every dense
Pauli matrix (H, the factor checks' words, rotation generators) comes
from `observables.pauli_sum_matrix`, which the path engine never calls;
mean values, conjugation and damping are all recomputed from matrices, so
the two routes stay independent checks of each other.  The tests check
that builder against their own kron construction.

One bit order, that of `pauli.PauliWord`: basis index b has bit q-1 equal
to qubit q, and a gate matrix on support qubits (q_0, q_1, ...) has q_j on
index bit j, so a CNOT's control is bit 0.

The noisy run interleaves one round of per-qubit depolarizing noise before
every layer and one more before measurement:

    rho -> N -> U_1 -> N -> U_2 -> ... -> U_L -> N -> Tr(H .)
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .circuit import Circuit, CliffordGate, Layer, RotationGate
from .circuit import check_assignment, check_instance, check_noise_rate
from .observables import Hamiltonian, SparseDensity, pauli_sum_matrix
from .pauli import PauliWord

DEFAULT_ORACLE_CAP = 10

_CLIFFORDS = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    # control on bit 0: index 1 (control set, target clear) swaps with 3
    "CNOT": np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex),
}


class OracleCapError(RuntimeError):
    """Raised when a dense run would exceed the qubit cap."""

    def __init__(self, n: int, cap: int) -> None:
        super().__init__(f"dense oracle asked for {n} qubits, cap is {cap}")
        self.n = n
        self.cap = cap


def _check_cap(n: int, cap: int = DEFAULT_ORACLE_CAP) -> None:
    if n > cap:
        raise OracleCapError(n, cap)


def _real_trace(a: np.ndarray, b: np.ndarray, what: str, scale: int = 1) -> float:
    """Tr(a b) / scale for a Hermitian a (H or a Pauli word), which must be
    real and finite.  The trace is the sum of a_ij b_ji, O(4^n), where
    forming a @ b would be O(8^n).  A real Hermitian a is symmetric, so
    with a complex b the sum is one real matrix-vector product of a's
    entries with b's (real, imaginary) pairs, faster than einsum's
    mixed-dtype sum and than its complex one, and with no copy."""
    if a.dtype == np.float64 and b.dtype == np.complex128:
        pairs = np.ascontiguousarray(b).view(np.float64).reshape(-1, 2)
        value = complex(*(a.reshape(-1) @ pairs))
    else:
        value = complex(np.einsum("ij,ji->", a, b))
    value /= scale
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
    """Dense matrix on the gate's support qubits in the `PauliWord` bit
    order: support qubit j (a CNOT's control first) is on index bit j."""
    if isinstance(gate, CliffordGate):
        return _CLIFFORDS[gate.kind]
    if theta is None:
        raise ValueError("rotation gate needs an angle")
    pauli = _generator_matrix(gate.generator)
    return math.cos(theta / 2) * np.eye(len(pauli)) - 1j * math.sin(theta / 2) * pauli


@lru_cache(maxsize=64)
def _generator_matrix(generator: PauliWord) -> np.ndarray:
    """A rotation generator restricted to its support, as a read-only dense
    matrix; cached, since every sample of a circuit rebuilds its gates."""
    matrix = word_matrix(generator.restrict(generator.support()))
    matrix.flags.writeable = False
    return matrix


def _apply(tensor: np.ndarray, op: np.ndarray, axes: list[int]) -> np.ndarray:
    """op on k axes of size d (4 for pair axes, 2 for bit axes), axes[j]
    carrying digit j of op's base-d index; every gate and noise step is
    this one contraction."""
    k = len(axes)
    high_first = axes[::-1]  # a reshaped op's axis 0 is its top digit
    out = np.tensordot(
        op.reshape((tensor.shape[axes[0]],) * (2 * k)),
        tensor,
        axes=(list(range(k, 2 * k)), high_first),
    )
    return np.moveaxis(out, list(range(k)), high_first)


def _pairs(mat: np.ndarray, n: int) -> np.ndarray:
    """A 2^n x 2^n matrix (any shape of 4^n entries) as a pair tensor."""
    order = [axis for q in range(n) for axis in (q, n + q)]
    return mat.reshape((2,) * (2 * n)).transpose(order).reshape((4,) * n)


def _matrix(tensor: np.ndarray, n: int) -> np.ndarray:
    """The 2^n x 2^n matrix of a pair tensor."""
    order = [*range(0, 2 * n, 2), *range(1, 2 * n, 2)]
    return tensor.reshape((2,) * (2 * n)).transpose(order).reshape(1 << n, 1 << n)


@lru_cache(maxsize=16)
def _depolarizer(lam: float) -> np.ndarray:
    """(1-lam) M + lam Tr(M) I/2 on a pair digit: (1-lam) 1 plus lam/2 on
    the |00>/|11> block; read-only."""
    op = (1.0 - lam) * np.eye(4)
    op[np.ix_((0, 3), (0, 3))] += lam / 2.0
    op.flags.writeable = False
    return op


def _site_operator(u: np.ndarray, lam: float) -> np.ndarray:
    """(U (x) conj U) D^(x)k on the k = 1 or 2 pair digits of U, digit
    j = 2 r_j + c_j."""
    dim, d = len(u) ** 2, _depolarizer(lam)
    op = (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(dim, dim)
    if dim == 16:  # index bits (r1 r0 c1 c0) to digits (r1 c1)(r0 c0)
        op = op.reshape((2,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)
        d = np.kron(d, d)
    return op if lam == 0.0 else op @ d


@lru_cache(maxsize=16)
def _clifford_site(kind: str, lam: float) -> np.ndarray:
    """A Clifford gate's site operator, read-only."""
    op = _site_operator(_CLIFFORDS[kind], lam)
    op.flags.writeable = False
    return op


def _noise_round(tensor: np.ndarray, axes: list[int] | range, lam: float) -> np.ndarray:
    """D on each of the given pair axes."""
    if lam != 0.0:
        for axis in axes:
            tensor = _apply(tensor, _depolarizer(lam), [axis])
    return tensor


def _noisy_layer(
    tensor: np.ndarray, layer: Layer, assignment: dict[str, float], n: int, lam: float
) -> np.ndarray:
    """One noise round, then the layer; gate order is irrelevant on
    disjoint supports."""
    idle = set(range(1, n + 1))
    for gate in layer.gates:
        axes = [n - q for q in gate.support]
        idle.difference_update(gate.support)
        if isinstance(gate, CliffordGate):
            tensor = _apply(tensor, _clifford_site(gate.kind, lam), axes)
            continue
        u = gate_matrix(gate, gate.angle if gate.param is None else assignment[gate.param])
        if len(axes) == 1:
            tensor = _apply(tensor, _site_operator(u, lam), axes)
            continue
        bits = _noise_round(tensor, axes, lam).reshape((2,) * (2 * n))
        bits = _apply(bits, u, [2 * axis for axis in axes])
        tensor = _apply(bits, u.conj(), [2 * axis + 1 for axis in axes]).reshape((4,) * n)
    return _noise_round(tensor, [n - q for q in idle], lam)


def depolarize_all(mat: np.ndarray, n: int, lam: float) -> np.ndarray:
    """One round of the per-qubit depolarizing channel on a dense matrix."""
    tensor = _noise_round(_pairs(mat, n), range(n), lam)
    return _matrix(tensor, n).reshape(mat.shape)


def apply_layer(
    mat: np.ndarray, layer: Layer, assignment: dict[str, float], n: int
) -> np.ndarray:
    """U rho Udag for one layer."""
    tensor = _noisy_layer(_pairs(mat, n), layer, assignment, n, 0.0)
    return _matrix(tensor, n).reshape(mat.shape)


def evolve_noisy(
    circuit: Circuit,
    rho: SparseDensity,
    assignment: dict[str, float],
    lam: float,
    cap: int = DEFAULT_ORACLE_CAP,
) -> np.ndarray:
    """Final dense density matrix after the noisy circuit (noise applied
    before each layer and once more at the end).  The input checks come
    before the cap check, so a malformed instance is reported as such."""
    check_instance(circuit, None, rho)
    check_noise_rate(lam)
    check_assignment(circuit, assignment)
    _check_cap(circuit.n, cap)
    n = circuit.n
    tensor = _pairs(state_matrix(rho), n)
    for layer in circuit.layers:
        tensor = _noisy_layer(tensor, layer, assignment, n, lam)
    return _matrix(_noise_round(tensor, range(n), lam), n)


def noisy_mean_value(
    circuit: Circuit,
    h: Hamiltonian,
    rho: SparseDensity,
    assignment: dict[str, float],
    lam: float,
    cap: int = DEFAULT_ORACLE_CAP,
) -> float:
    """Tr(H rho_final), checked real."""
    check_instance(circuit, h, rho)
    final = evolve_noisy(circuit, rho, assignment, lam, cap=cap)
    return _real_trace(hamiltonian_matrix(h), final, "mean value")


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
) -> float:
    """Tr(next U N(prev) Udag) / 2^n, checked real."""
    _check_cap(n)
    tensor = _noisy_layer(_pairs(word_matrix(prev_word), n), layer, assignment, n, lam)
    mat = _matrix(tensor, n)
    return _real_trace(word_matrix(next_word), mat, "transition factor", 1 << n)


def observable_factor(h: Hamiltonian, word: PauliWord, lam: float = 0.0) -> float:
    """Tr(H N(word)) / 2^n, checked real."""
    _check_cap(h.n)
    mat = depolarize_all(word_matrix(word), h.n, lam)
    return _real_trace(hamiltonian_matrix(h), mat, "observable factor", 1 << h.n)


def state_factor(rho: SparseDensity, word: PauliWord) -> float:
    """Tr(word rho) from dense matrices, checked real."""
    _check_cap(rho.n)
    return _real_trace(word_matrix(word), state_matrix(rho), "state factor")
