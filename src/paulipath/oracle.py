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
run by `_noise_round` from the channel formula.  A Clifford U on k
qubits acts by its real 4^k x 4^k transfer matrix, read off its
definition Tr(sigma_a U sigma_b U^dag) / 2^k by one contraction of dense U
with the products of the one-qubit Pauli matrices (`_clifford_site`).
That matrix is a signed permutation of the 4^k coordinates, so the
Cliffords of a layer, with the noise round before them, are one signed
gather of the flat 4^n coordinates, (tensor * factor)[:, perm], read off
those dense operators (`_gather`).

Every rotation R = exp(-i t/2 G), G^2 = I, follows one rule,

    R M R^dag = (M + GMG)/2 + cos t (M - GMG)/2 + sin t (i/2)(MG - GM),

whose parts are fixed maps of the coordinates, tabulated per letter g of
G from the dense Pauli matrices at import: the +-1 diagonal
Tr(sigma_a g sigma_a g) / 2 of gMg, and the coordinates Tr(sigma_a sigma_b
g) / 2 and Tr(sigma_a g sigma_b) / 2 of Mg and gM, whose (i/2)-difference,
the sin table, is checked real.  A one-qubit rotation's operator is then
(I + E)/2 + cos t (I - E)/2 + sin t T, E that diagonal and T the sin
table, applied by one `_apply` in place: the tensor is viewed as
(S, A, 4, K) and multiplied by the operator, with no copy of the state;
on the last axis it is the (S, A, 4) view times the operator's
transpose.  On k >= 2 qubits GMG is the tensor times the broadcast
product of the letters' diagonals, and MG and GM are k one-axis `_apply`
calls each, one per letter (`_rotate`).  Operators, coordinates and mean
values pass one realness rule, `_real`.

Angles are all floats, or all 1-d arrays of S angles, one per sample.
The samples share each gather, and a symbol's rotation gives one
operator per sample, an (S, 4, 4) site operator or (S,) cos t and sin t.
Each call builds its plan once (`_plan`): one gather per distinct tuple
of a layer's Cliffords, each rotation's letters and axes, and the
letters of the one-qubit rotations, whose site operators each chunk of
samples builds in one stacked `_rotation_sites` call, so a bound angle's
is spread over the samples when a one-qubit rotation has a symbol.  A
float run is a batch of one.  The state enters the coordinates from its
entries, each a tensor product of n one-qubit columns, summed one qubit
at a time over the digits present (`_entry`).
`noisy_mean_value` checks its run, builds the noise factor, the entry
tensor, the plan and the term indices once, and splits the samples into
chunks of at most CHUNK_ENTRIES real entries, one `_layers` each, so
from n = 8 on a chunk is one sample; the last noise round, and a last
layer of Cliffords alone, are read at the terms' coordinates only.

Every dense Pauli matrix (H, the previous word of a transition check
and the one-qubit basis of the coordinates, from which the rotation
tables and the Clifford operators are read) comes from
`observables.pauli_sum_matrix`, which the path engine never calls;
conjugation and damping are recomputed from matrices and the engine's
bit rules never enter, so the two routes stay independent checks of each
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

from .circuit import Circuit, Layer, ParameterAssignment, RotationGate
from .circuit import check_assignment, check_instance, check_noise_rate
from .observables import IMAG_TOL, Hamiltonian, SparseDensity, pauli_sum_matrix
from .pauli import LETTERS, PauliWord

ORACLE_CAP = 10
# the most real entries (256 KB) one chunk of `noisy_mean_value` holds; a
# call also holds 16 B x 4^n (perm and factor) per distinct tuple of a
# layer's Cliffords: 64 KB at n = 6, 1 MB at n = 8, 16 MB at n = 10
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


def word_matrix(word: PauliWord) -> np.ndarray:
    """Dense 2^n x 2^n matrix of an unnormalized Pauli word."""
    return pauli_sum_matrix(word.n, [(word, 1.0)])


def hamiltonian_matrix(h: Hamiltonian) -> np.ndarray:
    """Dense matrix of H, identity part included."""
    return pauli_sum_matrix(h.n, h.terms(), h.identity_coeff)


# sigma_a for a = I, X, Y, Z
_PAULIS = np.array([word_matrix(PauliWord.from_string(letter)) for letter in LETTERS])
# a pair digit 2r + c to Pauli coordinates: [a, 2r + c] = sigma_a[c, r], so
# that the coordinates of a 2x2 matrix M are v_a = Tr(sigma_a M)
_TO_PAULI = _PAULIS.transpose(0, 2, 1).reshape(4, 4)
# Pauli coordinates back to a pair digit: [2r + c, b] = sigma_b[r, c] / 2,
# so that M = sum_b v_b sigma_b / 2^n
_FROM_PAULI = _PAULIS.transpose(1, 2, 0).reshape(4, 4) / 2
# the rotation rule's parts per letter g = I, X, Y, Z: the +-1 diagonal
# [g, a] = Tr(sigma_a g sigma_a g) / 2 of M -> gMg, the coordinates
# [g, a, b] = Tr(sigma_a sigma_b g) / 2 of M -> Mg and Tr(sigma_a g sigma_b) / 2
# of M -> gM, and their (i/2)-difference, the sin table
_FLIP = np.einsum("aij,gjk,akl,gli->ga", _PAULIS, _PAULIS, _PAULIS, _PAULIS).real / 2
_RIGHT = np.einsum("aij,bjk,gki->gab", _PAULIS, _PAULIS, _PAULIS) / 2
_LEFT = np.einsum("aij,gjk,bki->gab", _PAULIS, _PAULIS, _PAULIS) / 2
_TURN = _real(0.5j * (_RIGHT - _LEFT), 1.0, "sin table")
for _table in (_TO_PAULI, _FROM_PAULI, _FLIP, _RIGHT, _LEFT, _TURN):
    _table.flags.writeable = False


def state_matrix(rho: SparseDensity) -> np.ndarray:
    dim = 1 << rho.n
    mat = np.zeros((dim, dim), dtype=complex)
    for ket, bra, value in rho.entries():
        mat[ket, bra] += value
    return mat


def _angle(gate: RotationGate, assignment: ParameterAssignment):
    return gate.angle if gate.param is None else assignment[gate.param]


def _apply(tensor: np.ndarray, op: np.ndarray, axis: int) -> np.ndarray:
    """A 4 x 4 op on one axis of size 4, a Pauli or pair axis; axis 0 of
    the tensor indexes samples.  An op shared by the samples is 4 x 4; an
    (S, 4, 4) stack gives one op per sample and spreads a batch of one to
    S.  Contracted in place: the tensor is viewed as (S, A, 4, K) and
    multiplied by op, or, on the last axis (K = 1), its (S, A, 4) view by
    op's transpose."""
    shape = tensor.shape
    view = tensor.reshape(len(tensor), math.prod(shape[1:axis]), 4, -1)
    if view.shape[-1] == 1:
        out = view[..., 0] @ np.swapaxes(op, -1, -2)
    else:
        out = op.reshape(-1, 1, 4, 4) @ view
    return out.reshape(len(out), *shape[1:])


def _on_each(tensor: np.ndarray, op: np.ndarray, axes) -> np.ndarray:
    """A one-axis op on each of the given axes."""
    for axis in axes:
        tensor = _apply(tensor, op, axis)
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


@lru_cache(maxsize=16)
def _clifford_site(kind: str) -> np.ndarray:
    """A Clifford gate's site operator, read-only, from its definition
    [a, b] = Tr(sigma_a U sigma_b U^dag) / 2^k on the k = 1 or 2 qubits of
    U, by one contraction over the products of the one-qubit Pauli
    matrices: on two qubits a = 4 a_1 + a_0 stands for
    sigma_a_1 (x) sigma_a_0, support qubit j on digit j.  A channel's
    coordinates lie in [-1, 1], so its realness is checked at size 1."""
    u = _CLIFFORDS[kind]
    basis = _PAULIS if len(u) == 2 else np.kron(_PAULIS[:, None], _PAULIS).reshape(16, 4, 4)
    op = np.einsum("aij,jk,bkl,li->ab", basis, u, basis, u.conj().T) / len(u)
    return _read_only(_real(op, 1.0, "gate operator"))


def _rotation_sites(letters, angles: np.ndarray) -> np.ndarray:
    """The 4 x 4 operators of one-qubit rotations about the letters (digits
    0..3) by the angles, a (G,) or (G, S) stack giving the same stack of
    operators: (I + E)/2 + cos t (I - E)/2 + sin t T, E the diagonal of
    M -> gMg and T the sin table of each letter g."""
    g = np.reshape(letters, (-1, *(1,) * (angles.ndim - 1)))
    flip, t = np.eye(4) * _FLIP[g][..., None, :], angles[..., None, None]
    return (np.eye(4) + flip) / 2 + np.cos(t) * (np.eye(4) - flip) / 2 + np.sin(t) * _TURN[g]


def _rotate(tensor: np.ndarray, letters: list[int], axes: list[int], angle) -> np.ndarray:
    """A rotation on k >= 2 Pauli axes, letters[j] on axes[j], by the
    rotation rule: GMG is the tensor times each letter's +-1 diagonal,
    broadcast along its axis, and MG and GM are one `_apply` of a letter's
    table per axis, whose (i/2)-difference is checked real at the size of
    its terms.  An array of S angles gives S samples."""
    n = tensor.ndim - 1
    flip = right = left = tensor
    for g, axis in zip(letters, axes):
        flip = flip * _FLIP[g].reshape(4, *(1,) * (n - axis))
        right, left = _apply(right, _RIGHT[g], axis), _apply(left, _LEFT[g], axis)
    turn = _real(0.5j * (right - left), np.abs(right), "rotated coordinates")
    t = np.reshape(angle, (-1, *(1,) * n))
    return (tensor + flip) / 2 + np.cos(t) * (tensor - flip) / 2 + np.sin(t) * turn


@lru_cache(maxsize=16)
def _signed_permutation(kind: str) -> tuple[np.ndarray, np.ndarray]:
    """A Clifford gate's site operator read as a signed permutation: the
    column of each row's non-zero, and the int8 sign with which each
    column moves, so that row r of the operator takes coordinate
    column[r] times sign[column[r]].  The operator must have one non-zero
    per row and column, and each must be +-1 within IMAG_TOL, the
    roundoff rule of an operator's coordinates; any other operator is
    refused.  Read-only and cached, like the operator."""
    op = _clifford_site(kind)
    nonzero = op != 0
    columns = nonzero.argmax(axis=1)
    entries = op[np.arange(len(op)), columns]
    if not (
        (nonzero.sum(axis=0) == 1).all()
        and (nonzero.sum(axis=1) == 1).all()
        and (np.abs(np.abs(entries) - 1) <= IMAG_TOL).all()
    ):
        raise ValueError(f"the {kind} site operator is not a signed permutation")
    sign = np.empty(len(op), dtype=np.int8)
    sign[columns] = np.sign(entries)
    return _read_only(columns), _read_only(sign)


def _on_qubits(values: np.ndarray, qubits) -> np.ndarray:
    """A 4^k vector over the base-4 digits of k qubits, qubits[j] on digit
    j, as an array with qubit q's digit on axis -q and size-1 axes
    elsewhere, which broadcasts over the (4,)*n coordinates."""
    shape = [1] * max(qubits)
    for q in qubits:
        shape[-q] = 4
    local = values.reshape((4,) * len(qubits), order="F")
    return local.transpose(sorted(range(len(qubits)), key=lambda j: -qubits[j])).reshape(shape)


def _gather(cliffords, noise: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A noise round and then Cliffords on disjoint qubits as one signed
    gather (perm, factor) of the flat coordinates, qubit q's digit at
    stride 4^(q-1): out = (in * factor)[:, perm], where factor is the noise
    factor times the sign with which each coordinate moves.  A gate moves
    only its own qubits' digits, by its signed permutation, and a free
    qubit's digit stays, so perm is a broadcast sum and the sign a
    broadcast product over the gates, taken from qubit 1 up so that each
    step runs along the axes already covered.  The sign is +-1, so the
    product with it is exact."""
    gates = {q: gate for gate in cliffords for q in gate.support}
    perm, sign = np.intp(0), np.int8(1)
    for q in range(1, n + 1):
        gate = gates.get(q)
        if gate is None:
            perm = perm + _on_qubits(np.arange(4) << 2 * (q - 1), (q,))
        elif q == min(gate.support):
            columns, signs = _signed_permutation(gate.kind)
            source = sum(
                ((columns >> 2 * j) & 3) << 2 * (p - 1) for j, p in enumerate(gate.support)
            )
            perm = perm + _on_qubits(source, gate.support)
            sign = sign * _on_qubits(signs, gate.support)
    return perm.reshape(-1), (noise * sign).reshape(-1)


def _plan(layers, noise: np.ndarray, n: int):
    """The steps of a run, built once per call: per layer, its noise round
    and Cliffords as one `_gather`, built once per distinct tuple of
    Cliffords (None for a layer without any, whose noise round stays a
    product), and its rotations with their letters' digits and their Pauli
    axes (qubit q on axis n + 1 - q).  Also the one-qubit rotations of all
    layers, in layer and gate order, each with its letter's digit."""
    gathers, steps = {}, []
    for layer in layers:
        cliffords = layer.cliffords
        if cliffords and cliffords not in gathers:
            gathers[cliffords] = _gather(cliffords, noise, n)
        rotations = [(g, [LETTERS.index(g.generator.letter(q)) for q in g.support],
                      [n + 1 - q for q in g.support]) for g in layer.rotations]
        steps.append((gathers.get(cliffords), rotations))
    ones = [(g, digits[0]) for _, rotations in steps for g, digits, _ in rotations
            if len(digits) == 1]
    return steps, ones


def _layers(plan, tensor: np.ndarray, noise: np.ndarray, assignment: ParameterAssignment):
    """The plan's layers on (S,) + (4,)*n coordinates, a batch of one
    spread to S by the first symbol's rotation, each layer a noise round
    and its gates: the gather, or the product with the noise factor, then
    the rotations, as the supports are disjoint.  The site operators of
    the one-qubit rotations are built here, once per chunk of samples, by
    one `_rotation_sites` call; a bound angle's is spread over the samples
    when a one-qubit rotation has a symbol."""
    steps, ones = plan
    sites = iter(())
    if ones:
        angles = np.stack(np.broadcast_arrays(*(_angle(g, assignment) for g, _ in ones)))
        sites = iter(_rotation_sites([digit for _, digit in ones], angles))
    for gather, rotations in steps:
        if gather is None:
            tensor = tensor * noise
        else:
            perm, factor = gather
            out = tensor.reshape(len(tensor), -1) * factor
            tensor = np.take(out, perm, axis=1).reshape(tensor.shape)
        for gate, digits, axes in rotations:
            if len(axes) == 1:
                tensor = _apply(tensor, next(sites), axes[0])
            else:
                tensor = _rotate(tensor, digits, axes, _angle(gate, assignment))
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


def _check_words(n: int, *words: PauliWord) -> None:
    """Refuse a word of a per-path factor that is not on n qubits."""
    for word in words:
        if word.n != n:
            raise ValueError(f"word {word} is on {word.n} qubits, the run has {n}")


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
    noise = _noise_round(circuit.n, lam)
    plan = _plan(circuit.layers, noise, circuit.n)
    final = _matrix(_layers(plan, _entry(rho), noise, assignment) * noise, circuit.n)
    return final[0] if size is None else final


# a word's letters as the base-4 digits of its coordinate, qubit 1 lowest
_DIGITS = str.maketrans(LETTERS, "0123")


def _index(word: PauliWord) -> int:
    """The flat index of a word's coordinate in the (4,)*n tensor."""
    return int(str(word)[::-1].translate(_DIGITS), 4)


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
    steps, ones = _plan(circuit.layers, noise, circuit.n)
    index = np.array([0] + [_index(word) for word, _ in terms])
    last = noise.reshape(-1)[index]  # the last noise round, read at the terms only
    read = np.ones(len(index))
    if steps and steps[-1][0] is not None and not steps[-1][1]:
        # so is a last layer of Cliffords alone: its gather at the terms
        (perm, factor), _ = steps.pop()
        index = perm[index]
        read = factor[index]
    coeffs = np.array([h.identity_coeff] + [coeff for _, coeff in terms])
    step = max(1, CHUNK_ENTRIES >> (2 * circuit.n))
    values = []
    for start in range(0, size or 1, step):
        chunk = assignment
        if size is not None:
            chunk = {p: assignment[p][start : start + step] for p in circuit.parameters()}
        final = _layers((steps, ones), entry, noise, chunk)
        products = final.reshape(len(final), -1)[:, index] * read * last * coeffs
        total = np.add.accumulate(products, axis=1)[:, -1]
        values.append(_real(total, np.abs(products).sum(axis=1), "mean value"))
    values = np.concatenate(values)
    return float(values[0]) if size is None else values


# --- per-path factor checks -------------------------------------------------
#
# A path (s_0, ..., s_L) factorizes into coordinates:
#     Tr(H N(s_L))/2^n * prod_i Tr(s_i U_i N(s_{i-1}) U_i^dag)/2^n * Tr(s_0 rho)
# each read off the oracle's own Pauli coordinates, as the mean value is; the
# test suite compares this against the estimator's damped symbolic value
# path by path.


def transition_factor(
    layer: Layer,
    assignment: dict[str, float],
    n: int,
    prev_word: PauliWord,
    next_word: PauliWord,
    lam: float = 0.0,
) -> float:
    """Tr(next U N(prev) Udag) / 2^n: the coordinate at next of prev's
    coordinates, from its dense matrix, after the layer's noise round and
    gates.  The noise rate, the layer and its angles, and the words are
    checked before the cap, as a dense run's are."""
    check_noise_rate(lam)
    circuit = Circuit(n, (layer,))
    check_assignment(circuit, assignment)
    _check_words(n, prev_word, next_word)
    _check_cap(n)
    tensor = _hermitian_coordinates(word_matrix(prev_word), n, "word coordinates")
    noise = _noise_round(n, lam)
    final = _layers(_plan(circuit.layers, noise, n), tensor, noise, assignment)
    return float(final.flat[_index(next_word)]) / (1 << n)


def observable_factor(h: Hamiltonian, word: PauliWord, lam: float = 0.0) -> float:
    """Tr(H N(word)) / 2^n: the noise factor at the word times H's
    coefficient of it, as Tr(v w) / 2^n is 1 for v = w and 0 otherwise."""
    check_noise_rate(lam)
    _check_words(h.n, word)
    _check_cap(h.n)
    return h.coeff(word) * float(_noise_round(h.n, lam).flat[_index(word)])


def state_factor(rho: SparseDensity, word: PauliWord) -> float:
    """Tr(word rho): rho's entry coordinate at the word, checked real."""
    _check_words(rho.n, word)
    _check_cap(rho.n)
    return float(_entry(rho).flat[_index(word)])
