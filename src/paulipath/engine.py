"""Backward enumeration of weight-truncated Pauli paths.

A path for a depth-L circuit is a word sequence (s_0, ..., s_L).  Working
backward from each observable term s_L, every layer maps a successor word
to its possible predecessors:

  * letters outside all gate supports are copied verbatim;
  * a Clifford support is conjugated through the gate, Vdag s V, by the
    bit-update rule `circuit.conjugate_masks`, and its +-1 sign multiplies
    into the path's sign;
  * a rotation support with generator G either commutes with the successor
    (one predecessor, no factor) or anti-commutes (two predecessors: the
    successor itself with a cos factor, and the word w = G s up to phase
    with a sin factor; sigma w = i G s fixes sigma in {+1, -1} through
    `pauli.product_phase_masks`, and sigma multiplies into the sign).

A path thus carries one overall sign and one cos or sin atom per
anti-commuting rotation it passes.

Only sequences whose total weight sum_i |s_i| stays within the truncation
order M survive; the branch-and-bound rule prunes a partial sequence as
soon as the weight already spent exceeds M minus the number of words still
to be generated (each must weigh at least 1).  Candidates for s_0 must
additionally overlap the initial state.

Enumeration order is deterministic: observable terms in letter-string
order, then depth first with layer gates processed in ascending order of
their least support qubit, Cliffords before rotations, and the cos branch
before the sin branch.  A word with a anti-commuting rotations has 2^a
predecessors; predecessor k takes the sin branch at the j-th of them when
bit a-1-j of k is set, so the first rotation is the most significant bit.

The walk visits that tree depth first, but a batch of frames at a time.
A batch is an immutable tuple of up to `BATCH_ROWS` numpy rows at one word
index, in canonical order: the x and z masks (int64, or Python ints in
object arrays beyond 63 qubits), the weight spent so far, and the step
into the row: its sign, its sin choices and its parent's anti-commuting
rotations as bit masks over the layer's rotations, and the parent's row.
One generator per parent batch yields its child batches: it pushes the
parent through its layer as a whole (`_LayerProgram.branch`), then builds
the children by ordinal, a slice at a time, and filters them.  The walk
is one loop over a stack of these generators, one per word index, and
walks each child batch to the leaves before it asks its parent's
generator for the next.  Children come out in ordinal order, which is the
canonical order, so the paths, their order and every counter equal a
frame-by-frame depth-first walk.  Each word index also keeps, next to its
current batch, a cache of the words and atoms of the rows on emitted
paths; memory stays O(depth * BATCH_ROWS).

Every child counts in `nodes_visited`, pruned or not.  A parent whose least
possible child weight already exceeds the budget has all 2^a children
counted as visited and pruned by budget without being built, and a leaf
candidate whose x mask is not a flip mask of the state counts as pruned
for zero overlap without an overlap call.  The limits are checked against
the exact child count of a batch before it is built and the path count of
a leaf batch before it is yielded, so a run raises the same error as a
frame-by-frame walk, possibly after yielding fewer paths (and a run over
both limits may report either).
"""

from __future__ import annotations

import numbers
import os
import sys
import warnings
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, NamedTuple

import numpy as np

from .circuit import Circuit, Layer, check_instance, conjugate_masks
from .observables import Hamiltonian, SparseDensity
from .pauli import PauliWord, popcount, product_phase_masks

DEFAULT_PATH_LIMIT = 10_000_000
DEFAULT_NODE_LIMIT = 100_000_000
# Rows of one batch.  Larger batches make fewer numpy calls and hold more
# memory, O(depth * BATCH_ROWS) per walk; at 1024 one pass over the
# ansatz(8,12) benchmark instance peaks near 1 MB of traced memory.
BATCH_ROWS = 1024
# Child ordinals are int64 within a batch; a batch beyond this many
# children is refused even when the node limit would allow it.
_MAX_BATCH_CHILDREN = 1 << 62


class ResourceLimitError(RuntimeError):
    """Raised when enumeration exceeds a configured path or node limit."""


def truncation_order(circuit: Circuit, m: int | None) -> int:
    """The truncation order a run uses: m, a non-negative integer, or for
    None (untruncated) the largest total weight of a path, n(L+1)."""
    if m is None:
        return circuit.n * (circuit.depth + 1)
    if not isinstance(m, numbers.Integral) or isinstance(m, bool) or m < 0:
        raise ValueError(f"truncation order must be a non-negative integer, got {m!r}")
    return int(m)


class FactorAtom(NamedTuple):
    """One trig factor of a path value: cos(theta) or sin(theta), where
    theta is looked up by `param` (a symbol) or taken literally (a bound
    float)."""

    kind: str  # "cos" | "sin"
    param: str | float


@dataclass(frozen=True, slots=True)
class PauliPath:
    """A surviving path: words (s_0, ..., s_L), its overall sign, its trig
    atoms in layer order, and the total weight sum_i |s_i|."""

    words: tuple[PauliWord, ...]
    sign: int  # +1 | -1
    atoms: tuple[FactorAtom, ...]
    total_weight: int


@dataclass
class EnumerationStats:
    nodes_visited: int = 0
    paths_emitted: int = 0
    pruned_budget: int = 0
    pruned_zero_weight: int = 0
    pruned_zero_overlap: int = 0


def _mask_dtype(n: int) -> type:
    """int64 holds the masks of up to 63 qubits; wider words stay ints."""
    return np.int64 if n <= 63 else object


# --- compiled per-layer transition programs ---------------------------------


class _Branching:
    """A batch of successor words seen through one layer, per row: the word
    after the Clifford part and its sign; as bit masks over the rotations,
    the anti-commuting ones and those whose sin branch has sigma = -1; and
    per rotation (shape (R, rows)), the bit of the child ordinal that
    selects its sin branch, or 63 (always clear) for a commuting one."""

    __slots__ = ("x", "z", "sign", "anti_bits", "neg_bits", "select")


class _LayerProgram:
    """One layer compiled to bit operations on arrays of (x, z) masks."""

    __slots__ = ("cliffords", "atom_pairs", "gx", "gz", "table")

    def __init__(self, layer: Layer, dtype: type) -> None:
        self.cliffords = [
            (gate.kind, *gate.bits)
            for gate in sorted(layer.cliffords, key=lambda g: min(g.qubits))
        ]
        rotations = sorted(
            layer.rotations,
            key=lambda g: (g.generator.x | g.generator.z)
            & -(g.generator.x | g.generator.z),
        )
        keys = [g.param if g.param is not None else g.angle for g in rotations]
        self.atom_pairs = [(FactorAtom("cos", k), FactorAtom("sin", k)) for k in keys]
        self.gx = np.array([g.generator.x for g in rotations], dtype=dtype).reshape(-1, 1)
        self.gz = np.array([g.generator.z for g in rotations], dtype=dtype).reshape(-1, 1)
        bits = [1 << j for j in range(len(rotations))]
        # sin choices (R, rows) -> x flips, z flips and sin bit masks in one product
        self.table = np.array(
            [self.gx[:, 0], self.gz[:, 0], bits], dtype=dtype
        ).reshape(3, len(rotations))

    def branch(self, x: np.ndarray, z: np.ndarray) -> tuple[_Branching, np.ndarray, np.ndarray]:
        """The layer applied to a batch of successor words: the branching,
        and per row the number a of anti-commuting rotations and the least
        weight any of the 2^a children has."""
        b = _Branching()
        sign = np.ones(len(x), dtype=np.int8)
        for kind, b0, b1 in self.cliffords:
            gate_sign, x, z = conjugate_masks(kind, b0, b1, x, z)
            sign = sign * gate_sign
        gx, gz, bits = self.gx, self.gz, self.table[2]
        anti = ((popcount(gx & z) + popcount(gz & x)) & 1).astype(bool)
        # sigma w = i G s with G s = i^k w, so sigma = i^(k+1): -1 when k = 1
        # mod 4; pinned by exp(+i t G/2) s exp(-i t G/2) = cos(t) s + sigma sin(t) w
        neg = ((product_phase_masks(gx, gz, x, z) + 1) & 2).astype(bool)
        weight = popcount(x | z).astype(np.int32)
        gain = popcount((x ^ gx) | (z ^ gz)).astype(np.int32) - weight
        count = np.count_nonzero(anti, axis=0)
        # the first anti-commuting rotation of a row is the most significant
        # ordinal bit: rotation j takes bit count - 1 - (anti-commuting before j)
        below = np.cumsum(anti, axis=0) - anti
        b.x, b.z, b.sign = x, z, sign.astype(np.int8)
        b.anti_bits = bits @ anti
        b.neg_bits = bits @ neg
        b.select = np.where(anti, count - 1 - below, 63).astype(np.int8)
        least = weight + (np.minimum(gain, 0) * anti).sum(axis=0)
        return b, count, least

    def children(self, b: _Branching, parent: np.ndarray, ordinal: np.ndarray):
        """Child `ordinal` of each row `parent` of a branching: masks,
        weight, sign, and the bit mask of the rotations taking sin."""
        sin = (ordinal >> b.select[:, parent]) & 1
        flip_x, flip_z, sin_bits = self.table @ sin
        x = b.x[parent] ^ flip_x
        z = b.z[parent] ^ flip_z
        weight = popcount(x | z).astype(np.int32)
        flips = (popcount(b.neg_bits[parent] & sin_bits) & 1).astype(np.int8)
        return x, z, weight, b.sign[parent] * (1 - 2 * flips), sin_bits

    def atoms(self, anti: int, sin: int) -> tuple[FactorAtom, ...]:
        """Atoms of one step in rotation order, from its bit masks."""
        # tuples from a list get their exact size; from an iterator they are
        # resized, and the freed ones pile up in the interpreter's free lists
        return tuple(
            [pair[sin >> j & 1] for j, pair in enumerate(self.atom_pairs) if anti >> j & 1]
        )


def layer_predecessors(
    layer: Layer, succ: PauliWord
) -> list[tuple[PauliWord, int, tuple[FactorAtom, ...]]]:
    """Predecessors (word, sign, atoms) of a full word through one layer,
    in the order the enumeration walks them."""
    dtype = _mask_dtype(succ.n)
    program = _LayerProgram(layer, dtype)
    b, count, _ = program.branch(
        np.array([succ.x], dtype=dtype), np.array([succ.z], dtype=dtype)
    )
    children = 1 << int(count[0])
    x, z, _, sign, sin = program.children(
        b, np.zeros(children, dtype=np.intp), np.arange(children, dtype=np.int64)
    )
    anti = int(b.anti_bits[0])
    return [
        (PauliWord(succ.n, int(cx), int(cz)), int(s), program.atoms(anti, int(c)))
        for cx, cz, s, c in zip(x, z, sign, sin)
    ]


# --- the batched depth-first walk ------------------------------------------


class _Batch(NamedTuple):
    """Rows at one word index in canonical order: the masks, the weight
    spent so far, and the step into each row: its sign, its sin choices
    and the parent's anti-commuting rotations as bit masks over the
    layer's rotations, and the parent's row."""

    x: np.ndarray
    z: np.ndarray
    spent: np.ndarray
    sign: np.ndarray
    sin: np.ndarray
    parent: np.ndarray
    anti: np.ndarray

    def take(self, keep: np.ndarray) -> _Batch:
        return _Batch(*(field[keep] for field in self))


def _concat(parts: list[_Batch]) -> _Batch:
    if len(parts) == 1:
        return parts[0]
    return _Batch(*(np.concatenate(fields) for fields in zip(*parts)))


_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _outside_stacklevel() -> int:
    """The stacklevel that makes a `warnings.warn` in the calling function
    name the first frame outside this package: the user's line, however
    deep in the package the warning starts (Python 3.10 has no
    `skip_file_prefixes`)."""
    frame = sys._getframe(1)
    level = 1
    while frame.f_back is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame = frame.f_back
        level += 1
    return level


class PathEnumeration:
    """Iterable stream of surviving paths for (circuit, H, rho, M).

    Iterating yields PauliPath objects in the canonical order; `stats` is
    reset at the start of each iteration and holds the counters of the
    most recent (possibly still running) pass.  Every node counts against
    `node_limit`, the root of each term included.
    """

    def __init__(
        self,
        circuit: Circuit,
        h: Hamiltonian,
        rho: SparseDensity,
        m: int | None,
        *,
        path_limit: int = DEFAULT_PATH_LIMIT,
        node_limit: int = DEFAULT_NODE_LIMIT,
    ) -> None:
        check_instance(circuit, h, rho)
        m = truncation_order(circuit, m)
        depth = circuit.depth
        if m < depth + 1:
            warnings.warn(
                f"truncation order {m} is below depth + 1 = {depth + 1};"
                " every path is truncated away",
                stacklevel=_outside_stacklevel(),
            )
        self.circuit = circuit
        self.h = h
        self.rho = rho
        self.m = m
        self.path_limit = path_limit
        self.node_limit = node_limit
        self.stats = EnumerationStats()
        self._dtype = _mask_dtype(circuit.n)
        self._programs = [_LayerProgram(layer, self._dtype) for layer in circuit.layers]
        self._flips = np.array(sorted(rho.flip_masks()), dtype=self._dtype)

    def __iter__(self) -> Iterator[PauliPath]:
        stats = EnumerationStats()
        self.stats = stats
        depth = self.circuit.depth
        terms = [word for word, _ in self.h.terms()]
        for start in range(0, len(terms), BATCH_ROWS):
            chunk = terms[start : start + BATCH_ROWS]
            self._visit(stats, len(chunk))
            weight = np.array([word.weight for word in chunk], dtype=np.int32)
            keep = weight <= self.m - depth
            stats.pruned_budget += int(np.count_nonzero(~keep))
            zeros = np.zeros(len(chunk), dtype=np.intp)
            roots = _Batch(
                np.array([word.x for word in chunk], dtype=self._dtype),
                np.array([word.z for word in chunk], dtype=self._dtype),
                weight,
                np.ones(len(chunk), dtype=np.int8),
                zeros,
                zeros,
                zeros,
            ).take(keep)
            if depth == 0:
                roots = self._admit_leaves(roots, stats)
            yield from self._walk(roots, stats)

    def _visit(self, stats: EnumerationStats, count: int) -> None:
        if stats.nodes_visited + count > self.node_limit:
            raise ResourceLimitError(
                f"more than {self.node_limit} enumeration nodes visited"
            )
        stats.nodes_visited += count

    def _walk(self, roots: _Batch, stats: EnumerationStats) -> Iterator[PauliPath]:
        """Every path below a batch of roots, depth first a batch at a time.
        Per word index from the roots down, `generators` holds the source
        of that index's batches and `levels` the current batch with its
        row cache; the deepest batch is walked to the leaves before its
        parent builds its next children."""
        generators: list[Iterator[_Batch]] = [iter([roots])]
        levels: list[tuple[_Batch, dict]] = []
        while generators:
            # the top generator's previous batch is done with, with all below it
            del levels[len(generators) - 1 :]
            batch = next(generators[-1], None)
            if batch is None:
                generators.pop()
                continue
            levels.append((batch, {}))
            idx = self.circuit.depth + 1 - len(generators)  # word index of batch
            if idx == 0:
                yield from self._paths(levels, stats)
            else:
                generators.append(self._children(batch, idx, stats))

    def _children(
        self, parent: _Batch, idx: int, stats: EnumerationStats
    ) -> Iterator[_Batch]:
        """The surviving children of a parent batch at word index idx in
        canonical order, at most BATCH_ROWS per batch.  All children are
        counted first, and parents none of whose children fit the budget
        are settled unbuilt; then each batch is built from slices of
        ordinals until half a batch survives, each slice no larger than the
        room left."""
        program = self._programs[idx - 1]
        room = self.m - idx + 1  # weight the children may have spent
        b, count, least = program.branch(parent.x, parent.z)
        over = parent.spent + least > room
        # sums of 2^a as exact ints, grouped by a
        per_a = np.bincount(count, minlength=len(program.atom_pairs) + 1)
        pruned_per_a = np.bincount(count[over], minlength=len(per_a))
        total = sum(int(c) << a for a, c in enumerate(per_a))
        pruned = sum(int(c) << a for a, c in enumerate(pruned_per_a))
        self._visit(stats, total)
        stats.pruned_budget += pruned
        built = total - pruned
        if built > _MAX_BATCH_CHILDREN:
            raise ResourceLimitError(
                f"a batch of {len(parent.x)} words has {built}"
                f" predecessors to build, more than {_MAX_BATCH_CHILDREN}"
            )
        rows = np.flatnonzero(~over)
        counts = np.left_shift(1, count[rows].astype(np.int64))
        offsets = np.concatenate(([0], np.cumsum(counts)))
        # only b, rows and offsets stay alive while the children are walked
        del count, least, over, counts

        def build(cursor: int) -> tuple[_Batch | None, int]:
            """The survivors of the slices of ordinals from `cursor` on, and
            the cursor after them.  A function of its own, so that nothing
            of a slice stays alive while its batch is walked."""
            parts: list[_Batch] = []
            kept = 0
            while cursor < built and kept < BATCH_ROWS // 2:
                lo, cursor = cursor, min(cursor + BATCH_ROWS - kept, built)
                ordinal = np.arange(lo, cursor, dtype=np.int64)
                which = np.searchsorted(offsets, ordinal, side="right") - 1
                ordinal -= offsets[which]
                at = rows[which]
                x, z, weight, sign, sin = program.children(b, at, ordinal)
                spent = parent.spent[at] + weight
                zero = weight == 0
                over = spent > room
                stats.pruned_zero_weight += int(np.count_nonzero(zero))
                stats.pruned_budget += int(np.count_nonzero(over & ~zero))
                part = _Batch(x, z, spent, sign, sin, at, b.anti_bits[at])
                keep = ~(zero | over)
                if not keep.all():
                    part = part.take(keep)
                if idx == 1:
                    part = self._admit_leaves(part, stats)
                if len(part.x):
                    parts.append(part)
                    kept += len(part.x)
            return (_concat(parts) if parts else None), cursor

        cursor = 0
        while cursor < built:
            batch, cursor = build(cursor)
            if batch is not None:
                yield batch

    def _admit_leaves(self, leaves: _Batch, stats: EnumerationStats) -> _Batch:
        """The leaf candidates whose state overlap is non-zero.  A candidate
        whose x is not a flip mask of the state has none, and is dropped
        without an overlap call."""
        flips = self._flips
        if len(flips):
            hit = flips[np.minimum(np.searchsorted(flips, leaves.x), len(flips) - 1)] == leaves.x
        else:
            hit = np.zeros(len(leaves.x), dtype=bool)
        rows = np.flatnonzero(hit)
        overlap = self.rho.overlap_masks
        keep = [
            row
            for row, x, z in zip(rows.tolist(), leaves.x[rows].tolist(), leaves.z[rows].tolist())
            if overlap(x, z) != 0.0
        ]
        stats.pruned_zero_overlap += len(leaves.x) - len(keep)
        return leaves.take(np.array(keep, dtype=np.intp))

    def _paths(
        self, levels: list[tuple[_Batch, dict]], stats: EnumerationStats
    ) -> Iterator[PauliPath]:
        """The paths ending in the leaf batch, the last of `levels`.  Each
        level's cache maps a row on an emitted path to its word and the
        atoms of the step into it."""
        leaves = levels[-1][0]
        if stats.paths_emitted + len(leaves.x) > self.path_limit:
            raise ResourceLimitError(
                f"more than {self.path_limit} paths survive truncation"
            )
        n, depth = self.circuit.n, self.circuit.depth
        rows = np.arange(len(leaves.x))
        sign = np.ones(len(leaves.x), dtype=np.int8)
        words, atoms = [], []  # per level, leaf (s_0) to root (s_L): one entry per leaf
        for idx, (batch, cache) in enumerate(reversed(levels)):
            level_rows = rows.tolist()
            new = [row for row in dict.fromkeys(level_rows) if row not in cache]
            picked = np.array(new, dtype=np.intp)
            # a root has no step, and its anti mask is 0
            step_atoms = self._programs[idx].atoms if idx < depth else None
            fields = (batch.x, batch.z, batch.anti, batch.sin)
            for row, x, z, a, s in zip(new, *(f[picked].tolist() for f in fields)):
                cache[row] = (PauliWord(n, x, z), step_atoms(a, s) if a else ())
            steps = [cache[row] for row in level_rows]
            words.append([word for word, _ in steps])
            atoms.append([step for _, step in steps])
            sign *= batch.sign[rows]
            rows = batch.parent[rows]
        for path_words, path_sign, path_atoms, spent in zip(
            zip(*words), sign.tolist(), zip(*atoms), leaves.spent.tolist()
        ):
            stats.paths_emitted += 1
            # a tuple built from an iterator is resized, and the freed
            # tuples pile up in the interpreter's free lists; from a list it
            # gets its exact size
            yield PauliPath(
                path_words, path_sign, tuple(list(chain.from_iterable(path_atoms))), spent
            )
