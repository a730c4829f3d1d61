"""Dense-matrix reference simulator for small systems.

A state is a 2^n x 2^n density matrix M held as a real (4,)*n tensor of
Pauli coordinates behind a leading sample axis: axis n + 1 - q carries
qubit q, and the entry at digits (a_n, ..., a_1) is
Tr((sigma_a_n (x) ... (x) sigma_a_1) M), with sigma_0..3 = I, X, Y, Z.
That is the Pauli-transfer-matrix picture, in which every channel is a
real matrix.  The state enters these coordinates once; `evolve_noisy`
takes them back to matrices, and `noisy_mean_value` reads Tr(H M) =
c_I v_0 + sum_w c_w v_w straight from them, by the letters of each word.

Per-qubit depolarizing noise is diagonal there, so a noise round is one
elementwise product of the tensor with a (4,)*n factor, built once per
run by `_noise_round` from the channel formula.  A Clifford or one-qubit
rotation U on k qubits is one `_apply` of its real 4^k x 4^k transfer
matrix, one contraction of dense U with a fixed basis change.  `_apply`
contracts in place wherever the gate's axes follow each other, top digit
first, as for every one-qubit gate and a CNOT whose target is the
control's upper neighbour: the tensor is viewed as (S, A, 4^k, K) and
multiplied by the operator, with no copy of the state; on the last axis
it is the (S, A, 4^k) view times the operator's transpose.  A wider
rotation takes only its own axes to pair digits 2r + c (row bit r,
column bit c), applies U and conj U on its row and column bits in the
(S,) + (2,)*2n view, which are not adjacent and so are first transposed
together, and takes its axes back.  Operators, coordinates and traces
pass one realness rule, `_real`.

Angles are all floats, or all 1-d arrays of S angles, one per sample.
Every gate site is one `matmul`: Cliffords give one operator that the
samples share, and a symbol's rotation one per sample, an (S, 4, 4) site
operator or an (S, 2^k, 2^k) U.  The one-qubit site operators of the
whole circuit are built once per chunk of samples, from one stacked cos
and sin and one `_site_operator` call, so a bound angle's is spread over
the samples when a one-qubit rotation has a symbol.  A float run is a
batch of one.  The state enters the coordinates from its entries, each
a tensor product of n one-qubit columns, summed one qubit at a time
over the digits present (`_entry`).  `noisy_mean_value`
checks its run, builds the noise factor, the entry tensor and the term
indices once, and splits the samples into chunks of at most
CHUNK_ENTRIES real entries, one `_final_coordinates` each, so from n = 8
on a chunk is one sample.

Every dense Pauli matrix (H and the words of the factor checks, rotation
generators and the one-qubit basis of the coordinates) comes from
`observables.pauli_sum_matrix`, which the path engine never calls;
conjugation and damping are recomputed from matrices and the engine's bit
rules never enter, so the two routes stay independent checks of each
other.  The tests check that builder against their own kron construction.

One bit order, that of `pauli.PauliWord`: basis index b has bit q-1 equal
to qubit q, and a gate matrix on support qubits (q_0, q_1, ...) has q_j on
index bit j, so a CNOT's control is bit 0.

The noisy run interleaves one round of per-qubit depolarizing noise before
every layer and one more before measurement:

    rho -> N -> U_1 -> N -> U_2 -> ... -> U_L -> N -> Tr(H .)
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce

import numpy as np

from .circuit import Circuit, CliffordGate, Layer, ParameterAssignment, RotationGate
from .circuit import check_assignment, check_instance, check_noise_rate
from .observables import IMAG_TOL, Hamiltonian, SparseDensity, pauli_sum_matrix
from .pauli import LETTERS, PauliWord

ORACLE_CAP = 10
# the most real entries (256 KB) one chunk of `noisy_mean_value` holds
CHUNK_ENTRIES = 1 << 15

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


def _real(value: np.ndarray, size, what: str, scale: int = 1) -> np.ndarray:
    """The real part of value / scale, which must be finite and real within
    IMAG_TOL * max(1, size), size being that of its roundoff (the sum of
    the absolute terms summed, over scale), as in
    `SparseDensity.overlaps`; size broadcasts against value."""
    real, imag = value.real / scale, value.imag / scale
    bad = ~(np.isfinite(real) & (np.abs(imag) <= IMAG_TOL * np.maximum(1.0, size)))
    if bad.any():
        first = np.flatnonzero(bad)[0]
        value = complex(real.flat[first], imag.flat[first])
        raise ValueError(f"{what} is not a finite real number: {value!r}")
    return real


def _real_trace(a: np.ndarray, b: np.ndarray, what: str, scale: int = 1):
    """Tr(a b) / scale for a Hermitian a (H or a Pauli word), checked by
    `_real` at the size sum |a_ij b_ji| / scale; a stack of b's gives one
    trace each, in an array.  The trace is the sum of a_ij b_ji, O(4^n),
    where forming a @ b would be O(8^n)."""
    value = np.einsum("ij,...ji->...", a, b)
    size = np.einsum("ij,...ji->...", np.abs(a), np.abs(b)) / scale
    real = _real(value, size, what, scale)
    return float(real) if real.ndim == 0 else real


def word_matrix(word: PauliWord) -> np.ndarray:
    """Dense 2^n x 2^n matrix of an unnormalized Pauli word."""
    return pauli_sum_matrix(word.n, [(word, 1.0)])


def hamiltonian_matrix(h: Hamiltonian) -> np.ndarray:
    """Dense matrix of H, identity part included."""
    return pauli_sum_matrix(h.n, h.terms(), h.identity_coeff)


# sigma_a for a = I, X, Y, Z
_PAULIS = np.array([word_matrix(PauliWord.from_string(letter)) for letter in "IXYZ"])
# a pair digit 2r + c to Pauli coordinates: [a, 2r + c] = sigma_a[c, r], so
# that the coordinates of a 2x2 matrix M are v_a = Tr(sigma_a M)
_TO_PAULI = _PAULIS.transpose(0, 2, 1).reshape(4, 4)
# Pauli coordinates back to a pair digit: [2r + c, b] = sigma_b[r, c] / 2,
# so that M = sum_b v_b sigma_b / 2^n
_FROM_PAULI = _PAULIS.transpose(1, 2, 0).reshape(4, 4) / 2
_TO_PAULI.flags.writeable = False
_FROM_PAULI.flags.writeable = False


def state_matrix(rho: SparseDensity) -> np.ndarray:
    dim = 1 << rho.n
    mat = np.zeros((dim, dim), dtype=complex)
    for ket, bra, value in rho.entries():
        mat[ket, bra] += value
    return mat


def _angle(gate: RotationGate, assignment: ParameterAssignment):
    return gate.angle if gate.param is None else assignment[gate.param]


def _rotation_matrix(theta, pauli: np.ndarray) -> np.ndarray:
    """exp(-i theta/2 P) for a generator matrix P in the `PauliWord` bit
    order, support qubit j on index bit j; an array of angles gives a
    stack of matrices, one per angle, and broadcasts against a stack of
    generators."""
    half = np.asarray(theta)[..., None, None] / 2
    return np.cos(half) * np.eye(pauli.shape[-1]) - 1j * np.sin(half) * pauli


@lru_cache(maxsize=64)
def _generator_matrix(generator: PauliWord) -> np.ndarray:
    """A rotation generator restricted to its support, as a read-only dense
    matrix; cached, since every chunk of samples rebuilds its rotations."""
    return _read_only(word_matrix(generator.restrict(generator.support())))


def _apply(tensor: np.ndarray, op: np.ndarray, axes: list[int]) -> np.ndarray:
    """op on k axes of size d (4 for Pauli or pair axes, 2 for bit axes),
    axes[j] carrying digit j of op's base-d index.  Axis 0 of the tensor
    indexes samples.  A d^k x d^k op is shared by the samples; an
    (S, d^k, d^k) stack gives one op per sample and spreads a batch of one
    to S.  Axes that follow each other, top digit first, are contracted in
    place: the tensor is viewed as (S, A, d^k, K) and multiplied by op, or,
    on the last axis (K = 1), its (S, A, d^k) view by op's transpose.
    Other axes are first transposed together behind the sample axis."""
    k = len(axes)
    top = min(axes)
    gathered = axes[::-1] != list(range(top, top + k))
    if gathered:
        perm = [0, *axes[::-1], *(a for a in range(1, tensor.ndim) if a not in axes)]
        tensor, top = tensor.transpose(perm), 1
    shape, size = tensor.shape, op.shape[-1]
    view = tensor.reshape(len(tensor), math.prod(shape[1:top]), size, -1)
    if view.shape[-1] == 1:
        out = view[..., 0] @ np.swapaxes(op, -1, -2)
    else:
        out = op.reshape(-1, 1, size, size) @ view
    out = out.reshape(len(out), *shape[1:])
    return out.transpose(np.argsort(perm)) if gathered else out


def _on_each(tensor: np.ndarray, op: np.ndarray, axes) -> np.ndarray:
    """A one-axis op on each of the given axes."""
    for axis in axes:
        tensor = _apply(tensor, op, [axis])
    return tensor


def _pairs(mat: np.ndarray, n: int) -> np.ndarray:
    """A 2^n x 2^n matrix (any shape of 4^n entries) as a batch of one
    pair tensor, (1,) + (4,)*n."""
    order = [axis for q in range(n) for axis in (q, n + q)]
    return mat.reshape((2,) * (2 * n)).transpose(order).reshape((1,) + (4,) * n)


def _coordinates(mat: np.ndarray, n: int) -> np.ndarray:
    """The Pauli coordinates of a 2^n x 2^n matrix, as a complex batch of
    one (4,)*n tensor, real up to roundoff when the matrix is Hermitian."""
    return _on_each(_pairs(mat, n), _TO_PAULI, range(1, n + 1))


def _matrix(tensor: np.ndarray, n: int) -> np.ndarray:
    """The (S, 2^n, 2^n) matrices of a batch of S coordinate tensors."""
    pairs = _on_each(tensor, _FROM_PAULI, range(1, n + 1))
    order = [0, *range(1, 2 * n, 2), *range(2, 2 * n + 1, 2)]
    size = len(pairs)
    return pairs.reshape(size, *(2,) * (2 * n)).transpose(order).reshape(size, 1 << n, 1 << n)


def _read_only(op: np.ndarray) -> np.ndarray:
    op.flags.writeable = False
    return op


def _noise_round(n: int, lam: float) -> np.ndarray:
    """One round of per-qubit depolarizing noise as a (4,)*n factor of the
    Pauli coordinates.  One qubit's step D(M) = (1-lam) M + lam Tr(M) I/2
    is diagonal on the Pauli basis, so the factor is the tensor product
    over qubits of Tr(sigma_a D(sigma_a)) / 2."""
    traces = np.einsum("aii->a", _PAULIS)[:, None, None]
    damped = (1.0 - lam) * _PAULIS + lam * traces * np.eye(2) / 2
    one = _real(np.einsum("aij,aji->a", _PAULIS, damped) / 2, 1.0, "noise factor")
    return reduce(np.multiply.outer, [one] * n)


def _basis_change(k: int) -> np.ndarray:
    """The 16^k x 16^k matrix, read-only, that takes U[i, p] conj U[j, q],
    flattened over (i, p, j, q), to the transfer matrix of U flattened
    over (a, b), whose [a, b] is Tr(sigma_a U sigma_b U^dag) / 2^k.  On
    two qubits a = 4 a_1 + a_0 stands for sigma_a_1 (x) sigma_a_0, support
    qubit j on digit j.  Only the one-qubit change, which every rotation
    site uses, is kept (`_ROTATION_CHANGE`); the 1 MB two-qubit one serves
    only Cliffords, whose site operators are cached instead, so it is
    dropped once they are built."""
    t, e = _TO_PAULI.reshape(4, 2, 2), _FROM_PAULI.reshape(2, 2, 4)
    if k == 2:
        t = np.einsum("aij,bkl->abikjl", t, t).reshape(16, 4, 4)
        e = np.einsum("ijb,kld->ikjlbd", e, e).reshape(4, 4, 16)
    return _read_only(np.einsum("aij,pqb->ipjqab", t, e).reshape(16**k, 16**k))


_ROTATION_CHANGE = _basis_change(1)


def _site_operator(u: np.ndarray) -> np.ndarray:
    """The real transfer matrix of M -> U M U^dag on the k = 1 or 2 qubits
    of U, by one contraction of U (x) conj U with the basis change; a stack
    of one-qubit U, such as (G, S, 2, 2), gives the same stack of 4 x 4
    operators.  A channel's coordinates lie in [-1, 1], so its realness is
    checked at size 1."""
    k = u.shape[-1] // 2
    stack = u.shape[:-2]
    pair = (u[..., :, :, None, None] * u.conj()[..., None, None, :, :]).reshape(*stack, -1)
    change = _ROTATION_CHANGE if k == 1 else _basis_change(k)
    return _real((pair @ change).reshape(*stack, 4**k, 4**k), 1.0, "gate operator")


@lru_cache(maxsize=16)
def _clifford_site(kind: str) -> np.ndarray:
    """A Clifford gate's site operator, read-only."""
    return _read_only(_site_operator(_CLIFFORDS[kind]))


def _wide_rotation(tensor: np.ndarray, u: np.ndarray, axes: list[int], n: int) -> np.ndarray:
    """U on the row bits and conj U on the column bits of k >= 2 Pauli
    axes: the axes go to pair digits, to the (S,) + (2,)*2n bit view and
    back, and then back to Pauli coordinates, checked real."""
    bits = _on_each(tensor, _FROM_PAULI, axes)
    bits = bits.reshape(len(bits), *(2,) * (2 * n))
    bits = _apply(bits, u, [2 * axis - 1 for axis in axes])
    bits = _apply(bits, u.conj(), [2 * axis for axis in axes])
    pairs = bits.reshape(len(bits), *(4,) * n)
    size = np.abs(pairs).reshape(len(pairs), -1).sum(axis=1).reshape(-1, *(1,) * n)
    return _real(_on_each(pairs, _TO_PAULI, axes), size, "rotated coordinates")


def _one_qubit_sites(layers, assignment: ParameterAssignment):
    """An iterator over the site operators of the layers' one-qubit
    rotations, in layer and gate order, from one stacked cos and sin and
    one `_site_operator` call; a bound angle's is spread over the samples
    when the layers also have a symbol's."""
    gates = [g for layer in layers for g in layer.rotations if len(g.support) == 1]
    if not gates:
        return iter(())
    angles = np.stack(np.broadcast_arrays(*(_angle(g, assignment) for g in gates)))
    paulis = np.stack([_generator_matrix(g.generator) for g in gates])
    paulis = paulis.reshape(len(gates), *(1,) * (angles.ndim - 1), 2, 2)
    return iter(_site_operator(_rotation_matrix(angles, paulis)))


def _noisy_layer(
    tensor: np.ndarray,
    noise: np.ndarray,
    layer: Layer,
    assignment: ParameterAssignment,
    sites,
    n: int,
) -> np.ndarray:
    """One noise round, the elementwise product with its factor, then the
    layer; gate order is irrelevant on disjoint supports.  Qubit q is on
    Pauli axis n + 1 - q, after the sample axis, and its row and column
    bits on axes 2(n + 1 - q) - 1 and 2(n + 1 - q) of the (2,)*2n bit
    view.  A one-qubit rotation's site operator is the next one of
    `sites`, from `_one_qubit_sites`."""
    tensor = tensor * noise
    for gate in layer.gates:
        axes = [n + 1 - q for q in gate.support]
        if isinstance(gate, CliffordGate):
            tensor = _apply(tensor, _clifford_site(gate.kind), axes)
        elif len(axes) == 1:
            tensor = _apply(tensor, next(sites), axes)
        else:
            u = _rotation_matrix(_angle(gate, assignment), _generator_matrix(gate.generator))
            tensor = _wide_rotation(tensor, u, axes, n)
    return tensor


def _hermitian_coordinates(mat: np.ndarray, n: int, what: str) -> np.ndarray:
    """The real Pauli coordinates of a Hermitian matrix, checked by `_real`
    at the size sum |M_ij|, which bounds every coordinate's terms."""
    return _real(_coordinates(mat, n), np.abs(mat).sum(), what)


def depolarize_all(mat: np.ndarray, n: int, lam: float) -> np.ndarray:
    """One round of the per-qubit depolarizing channel on a dense matrix."""
    return _matrix(_coordinates(mat, n) * _noise_round(n, lam), n).reshape(mat.shape)


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


def _final_coordinates(
    circuit: Circuit, tensor: np.ndarray, noise: np.ndarray, assignment: ParameterAssignment
) -> np.ndarray:
    """The (S,) + (4,)*n coordinates after the last noise round, from entry
    coordinates built once per run, a batch of one."""
    sites = _one_qubit_sites(circuit.layers, assignment)
    for layer in circuit.layers:
        tensor = _noisy_layer(tensor, noise, layer, assignment, sites, circuit.n)
    return tensor * noise


def _entry(rho: SparseDensity) -> np.ndarray:
    """The Pauli coordinates of rho as a batch of one.  Tr(sigma_a
    |ket><bra|) factors over the qubits, so each entry (ket, bra, v) adds
    v times the tensor product of the columns 2 ket_q + bra_q of
    `_TO_PAULI`, qubit n on axis 1 down.  The sum is taken one qubit at a
    time from qubit 1 up, as the dense conversion does, but over the
    digits present only: the rows of the entries that agree on the qubits
    above go to one (4, W) slab, each at its digit 2 ket_q + bra_q
    (distinct, as the entries are), and `_TO_PAULI` times the slab is
    their joint row for the next qubit.  So no step holds more than 4^n
    entries, and a coordinate with at most two non-zero terms is exact.
    The sum is checked real at the size sum |v|."""
    kets, bras, values = (np.array(column) for column in zip(*rho.entries()))
    rows = values.astype(complex)[:, None]
    for _ in range(rho.n):
        digits = 2 * (kets & 1) + (bras & 1)
        kets, bras = kets >> 1, bras >> 1
        above = kets << rho.n | bras
        order = np.argsort(above, kind="stable")
        first = np.diff(above[order], prepend=-1) != 0
        group = np.empty_like(order)
        group[order] = np.cumsum(first) - 1
        slab = np.zeros((np.count_nonzero(first), 4, rows.shape[1]), dtype=complex)
        slab[group, digits] = rows
        rows = (_TO_PAULI @ slab).reshape(len(slab), -1)
        kets, bras = kets[order][first], bras[order][first]
    return _real(rows.reshape(1, *(4,) * rho.n), np.abs(values).sum(), "state coordinates")


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
    final = _final_coordinates(circuit, _entry(rho), _noise_round(circuit.n, lam), assignment)
    final = _matrix(final, circuit.n)
    return final[0] if size is None else final


# a word's letters as the base-4 digits of its coordinate, qubit 1 lowest
_DIGITS = str.maketrans(LETTERS, "0123")


def noisy_mean_value(
    circuit: Circuit,
    h: Hamiltonian,
    rho: SparseDensity,
    assignment: ParameterAssignment,
    lam: float,
) -> float | np.ndarray:
    """Tr(H rho_final) = c_I v_0 + sum_w c_w v_w from the final coordinates
    v_w = Tr(w rho_final), summed in term order and checked real; with
    array angles, an (S,) array of one value per sample, from chunks of at
    most CHUNK_ENTRIES real entries."""
    size = _check_run(circuit, h, rho, assignment, lam)
    noise, entry, terms = _noise_round(circuit.n, lam), _entry(rho), h.terms()
    index = [0] + [int(str(word)[::-1].translate(_DIGITS), 4) for word, _ in terms]
    coeffs = np.array([h.identity_coeff] + [coeff for _, coeff in terms])
    step = max(1, CHUNK_ENTRIES >> (2 * circuit.n))
    values = []
    for start in range(0, size or 1, step):
        chunk = assignment
        if size is not None:
            chunk = {p: assignment[p][start : start + step] for p in circuit.parameters()}
        final = _final_coordinates(circuit, entry, noise, chunk)
        products = final.reshape(len(final), -1)[:, index] * coeffs
        total = np.add.accumulate(products, axis=1)[:, -1]
        values.append(_real(total, np.abs(products).sum(axis=1), "mean value"))
    values = np.concatenate(values)
    return float(values[0]) if size is None else values


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
    tensor = _hermitian_coordinates(word_matrix(prev_word), n, "word coordinates")
    sites = _one_qubit_sites([layer], assignment)
    mat = _matrix(_noisy_layer(tensor, _noise_round(n, lam), layer, assignment, sites, n), n)[0]
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
