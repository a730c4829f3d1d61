"""Dense-matrix reference simulator for small systems.

A state is a 2^n x 2^n density matrix held as a (4,)*n pair tensor behind
a leading sample axis: qubit q's row bit r and column bit c form the
base-4 digit 2r + c on axis n + 1 - q.  A Clifford or one-qubit rotation U
on k pair axes is one `_apply` of (U (x) conj U) D^(x)k, D being one
qubit's depolarizing step, so the noise round before a layer is folded
into its gates; an idle qubit gets D alone, as does every qubit in the
last round.  A wider rotation gets D, then U and conj U on its row and
column bits in the (S,) + (2,)*2n view.

Angles are all floats, or all 1-d arrays of S angles, one per sample.
Every gate site and noise step is one `matmul`: Cliffords, bound angles
and noise give one operator that the samples share, and a symbol's
rotation one per sample, an (S, 4, 4) site operator or an (S, 2^k, 2^k)
U.  A float run is a batch of one.  `noisy_mean_value` splits the samples
into chunks of at most CHUNK_ENTRIES complex entries, one `evolve_noisy`
each, so from n = 7 on a chunk is one sample.

Every dense Pauli matrix (H, the factor checks' words, rotation
generators) comes from `observables.pauli_sum_matrix`, which the path
engine never calls; mean values, conjugation and damping are all
recomputed from matrices, so the two routes stay independent checks of
each other.  The tests check that builder against their own kron
construction.

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

from .circuit import Circuit, CliffordGate, Layer, ParameterAssignment, RotationGate
from .circuit import check_assignment, check_instance, check_noise_rate
from .observables import IMAG_TOL, Hamiltonian, SparseDensity, pauli_sum_matrix
from .pauli import PauliWord

ORACLE_CAP = 10
# the most complex entries (256 KB) one batched `evolve_noisy` call holds
CHUNK_ENTRIES = 1 << 14

_CLIFFORDS = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    # control on bit 0: index 1 (control set, target clear) swaps with 3
    "CNOT": np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex),
}


class OracleCapError(RuntimeError):
    """Raised when a dense run would exceed ORACLE_CAP qubits."""

    def __init__(self, n: int, cap: int) -> None:
        super().__init__(f"dense oracle asked for {n} qubits, cap is {cap}")
        self.n = n
        self.cap = cap


def _check_cap(n: int) -> None:
    if n > ORACLE_CAP:
        raise OracleCapError(n, ORACLE_CAP)


def _real_trace(a: np.ndarray, b: np.ndarray, what: str, scale: int = 1):
    """Tr(a b) / scale for a Hermitian a (H or a Pauli word), which must be
    finite and real within IMAG_TOL * max(1, sum |a_ij b_ji| / scale), the
    size of its roundoff, as in `SparseDensity.overlap_masks`; a stack of
    b's gives one trace each, in an array.  The trace is the sum of
    a_ij b_ji, O(4^n), where forming a @ b would be O(8^n)."""
    value = np.einsum("ij,...ji->...", a, b)
    size = np.einsum("ij,...ji->...", np.abs(a), np.abs(b)) / scale
    real, imag = value.real / scale, value.imag / scale
    bad = ~(np.isfinite(real) & (np.abs(imag) <= IMAG_TOL * np.maximum(1.0, size)))
    if bad.any():
        first = np.flatnonzero(bad)[0]
        value = complex(real.flat[first], imag.flat[first])
        raise ValueError(f"{what} is not a finite real number: {value!r}")
    return float(real) if real.ndim == 0 else real


def word_matrix(word: PauliWord) -> np.ndarray:
    """Dense 2^n x 2^n matrix of an unnormalized Pauli word."""
    return pauli_sum_matrix(word.n, [(word, 1.0)])


def hamiltonian_matrix(h: Hamiltonian) -> np.ndarray:
    """Dense matrix of H, identity part included."""
    return pauli_sum_matrix(h.n, h.terms(), h.identity_coeff)


def state_matrix(rho: SparseDensity) -> np.ndarray:
    dim = 1 << rho.n
    mat = np.zeros((dim, dim), dtype=complex)
    for ket, bra, value in rho.entries():
        mat[ket, bra] += value
    return mat


def _rotation_matrix(gate: RotationGate, assignment: ParameterAssignment) -> np.ndarray:
    """exp(-i theta/2 G) on the gate's support qubits in the `PauliWord`
    bit order: support qubit j is on index bit j.  An array angle gives an
    (S, 2^k, 2^k) stack, one matrix per sample."""
    theta = gate.angle if gate.param is None else assignment[gate.param]
    pauli = _generator_matrix(gate.generator)
    half = np.asarray(theta)[..., None, None] / 2
    return np.cos(half) * np.eye(len(pauli)) - 1j * np.sin(half) * pauli


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
    this one `matmul`.  Axis 0 of the tensor indexes samples.  A d^k x d^k
    op is shared by the samples; an (S, d^k, d^k) stack gives one op per
    sample and spreads a batch of one to S."""
    k = len(axes)
    d = tensor.shape[axes[0]]
    high_first = axes[::-1]  # a reshaped op's axis 0 is its top digit
    front = list(range(1, k + 1))
    moved = np.moveaxis(tensor, high_first, front)
    out = op @ moved.reshape(len(moved), d**k, -1)
    return np.moveaxis(out.reshape(len(out), *moved.shape[1:]), front, high_first)


def _pairs(mat: np.ndarray, n: int) -> np.ndarray:
    """A 2^n x 2^n matrix (any shape of 4^n entries) as a batch of one
    pair tensor, (1,) + (4,)*n."""
    order = [axis for q in range(n) for axis in (q, n + q)]
    return mat.reshape((2,) * (2 * n)).transpose(order).reshape((1,) + (4,) * n)


def _matrix(tensor: np.ndarray, n: int) -> np.ndarray:
    """The (S, 2^n, 2^n) matrices of a batch of S pair tensors."""
    order = [0, *range(1, 2 * n, 2), *range(2, 2 * n + 1, 2)]
    size = len(tensor)
    return tensor.reshape(size, *(2,) * (2 * n)).transpose(order).reshape(size, 1 << n, 1 << n)


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
    j = 2 r_j + c_j; a one-qubit (S, 2, 2) stack of U gives an (S, 4, 4)
    stack."""
    dim, d = u.shape[-1] ** 2, _depolarizer(lam)
    op = (u[..., :, None, :, None] * u.conj()[..., None, :, None, :]).reshape(
        *u.shape[:-2], dim, dim
    )
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
    tensor: np.ndarray, layer: Layer, assignment: ParameterAssignment, n: int, lam: float
) -> np.ndarray:
    """One noise round, then the layer; gate order is irrelevant on
    disjoint supports.  Qubit q is on pair axis n + 1 - q, after the
    sample axis, and its row and column bits on axes 2(n + 1 - q) - 1 and
    2(n + 1 - q) of the (2,)*2n bit view."""
    idle = set(range(1, n + 1))
    for gate in layer.gates:
        support = gate.support
        axes = [n + 1 - q for q in support]
        idle.difference_update(support)
        if isinstance(gate, CliffordGate):
            tensor = _apply(tensor, _clifford_site(gate.kind, lam), axes)
            continue
        u = _rotation_matrix(gate, assignment)
        if len(axes) == 1:
            tensor = _apply(tensor, _site_operator(u, lam), axes)
            continue
        bits = _noise_round(tensor, axes, lam)
        bits = bits.reshape(len(bits), *(2,) * (2 * n))
        bits = _apply(bits, u, [2 * axis - 1 for axis in axes])
        bits = _apply(bits, u.conj(), [2 * axis for axis in axes])
        tensor = bits.reshape(len(bits), *(4,) * n)
    return _noise_round(tensor, [n + 1 - q for q in idle], lam)


def depolarize_all(mat: np.ndarray, n: int, lam: float) -> np.ndarray:
    """One round of the per-qubit depolarizing channel on a dense matrix."""
    tensor = _noise_round(_pairs(mat, n), range(1, n + 1), lam)
    return _matrix(tensor, n).reshape(mat.shape)


def _check_run(
    circuit: Circuit,
    h: Hamiltonian | None,
    rho: SparseDensity,
    assignment: ParameterAssignment,
    lam: float,
) -> int | None:
    """A dense run's input checks, the cap check last, so a malformed
    instance is reported as such; return the sample count S of array
    angles, None for float angles."""
    check_instance(circuit, h, rho)
    check_noise_rate(lam)
    size = check_assignment(circuit, assignment, batch=True)
    _check_cap(circuit.n)
    return size


def evolve_noisy(
    circuit: Circuit,
    rho: SparseDensity,
    assignment: ParameterAssignment,
    lam: float,
) -> np.ndarray:
    """Final dense density matrix after the noisy circuit (noise applied
    before each layer and once more at the end); with array angles, the
    (S, 2^n, 2^n) stack of one matrix per sample."""
    size = _check_run(circuit, None, rho, assignment, lam)
    n = circuit.n
    tensor = _pairs(state_matrix(rho), n)
    for layer in circuit.layers:
        tensor = _noisy_layer(tensor, layer, assignment, n, lam)
    final = _matrix(_noise_round(tensor, range(1, n + 1), lam), n)
    return final[0] if size is None else final


def noisy_mean_value(
    circuit: Circuit,
    h: Hamiltonian,
    rho: SparseDensity,
    assignment: ParameterAssignment,
    lam: float,
) -> float | np.ndarray:
    """Tr(H rho_final), checked real; with array angles, an (S,) array of
    one value per sample, from one `evolve_noisy` per chunk of at most
    CHUNK_ENTRIES complex entries."""
    size = _check_run(circuit, h, rho, assignment, lam)
    h_matrix = hamiltonian_matrix(h)
    if size is None:
        final = evolve_noisy(circuit, rho, assignment, lam)
        return _real_trace(h_matrix, final, "mean value")
    step = max(1, CHUNK_ENTRIES >> (2 * circuit.n))
    values = []
    for start in range(0, size, step):
        chunk = {p: assignment[p][start : start + step] for p in circuit.parameters()}
        final = evolve_noisy(circuit, rho, chunk, lam)
        values.append(_real_trace(h_matrix, final, "mean value"))
    return np.concatenate(values)


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
    mat = _matrix(tensor, n)[0]
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
