"""Backward enumeration of weight-truncated Pauli paths.

A path for a depth-L circuit is a word sequence (s_0, ..., s_L).  Working
backward from each observable term s_L, every layer maps a successor word
to its possible predecessors:

  * letters outside all gate supports are copied verbatim;
  * Clifford supports are conjugated through their gates, Vdag s V, by the
    bit-update rule `circuit.conjugate_masks`, one pass per gate kind and
    CNOT offset of the layer (`Layer.clifford_groups`), and the +-1 sign
    multiplies into the path's sign;
  * a rotation support with generator G either commutes with the successor
    (one predecessor, no factor) or anti-commutes (two predecessors: the
    successor itself with a cos factor, and the word w = G s up to phase
    with a sin factor; sigma w = i G s fixes sigma in {+1, -1} through the
    phase rule of `pauli.product_phase_masks`, and sigma multiplies into
    the sign).

A path thus carries one overall sign and one cos or sin atom per
anti-commuting rotation it passes.

Only sequences whose total weight sum_i |s_i| stays within the truncation
order M survive; the branch-and-bound rule prunes a partial sequence as
soon as the weight already spent exceeds M minus the number of words still
to be generated (each must weigh at least 1).  Candidates for s_0 must
additionally overlap the initial state.

Enumeration order is deterministic: observable terms in letter-string
order, then depth first through each layer's Cliffords (their supports are
disjoint, so their order does not matter) and then its rotations in
ascending order of their least support qubit, the cos branch before the
sin branch.  A word with a anti-commuting rotations has 2^a
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
the children by ordinal, a slice at a time, and filters them; at word
index 0 a large batch builds only the leaves that can overlap the state.
The walk is one loop over a stack of these generators, one per word index,
and walks each child batch to the leaves before it asks its parent's
generator for the next.  Children come out in ordinal order, which is the
canonical order, so the paths, their order and every counter equal a
frame-by-frame depth-first walk.  Memory stays O(depth * BATCH_ROWS).

Each leaf batch, with the state overlaps its survivor rule computed, is
traced back through the current batch of every word index into one
`PathBlock`: per path its root coefficient, sign, words, weight and overlap,
and per rotation of layers 1..L its choice, 0 where the path commutes with
it, 1 where it takes cos and 2 where it takes sin, as arrays; only this
module reads the step masks.  Iterating a `PathEnumeration` yields these
blocks; `PathEnumeration.paths()` turns them into `PauliPath` records.

Every child counts in `nodes_visited`, pruned or not.  Term roots, children
and leaf candidates pass one survivor rule (`PathEnumeration._survivors`),
which counts each dropped row by the first reason it breaks: zero weight,
budget, and for a leaf zero overlap.  A parent whose least possible child
weight already exceeds the budget has all 2^a children counted as visited
and pruned by budget without being built.  Leaf candidates are solved, not
filtered: Tr(s_0 rho) is 0 unless the x mask of s_0 is a flip mask i XOR j
of an entry (i, j) of rho, and as a layer's supports are disjoint, that mask
fixes the sin choice of every anti-commuting rotation whose generator has an
X or Y letter (`_LayerProgram.leaves`).  In a batch that can leave more
than a slice of leaves unbuilt, a parent all of whose children fit the
budget builds only those whose x mask is a flip mask or 0, when it has no
more such candidates than children, and the others count as pruned for
zero overlap unbuilt.  Any other parent builds all its leaves, and those
whose x mask is not a flip mask are dropped before the overlaps, which
`SparseDensity.overlaps` computes for a whole leaf batch at once.  The
limits are checked against the exact child count of a batch before it is
built and the path count of a leaf batch before it is yielded, so a run
raises the same error as a frame-by-frame walk, possibly after yielding
fewer paths (and a run over both limits may report either).  The error
names the count reached and the word index of the nodes or paths that
reached it.  `layer_predecessors` refuses too, before it builds anything,
when a word has more than NODE_LIMIT predecessors through its layer.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import chain
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .circuit import Circuit, Layer, check_instance, conjugate_masks
from .observables import Hamiltonian, SparseDensity, warn_caller
from .pauli import PauliWord, mask_dtype, non_negative_int, popcount

PATH_LIMIT = 10_000_000
# must stay below 2^62: a batch's child ordinals are int64, and a batch is
# refused before it is built once its children take the run past this limit
NODE_LIMIT = 100_000_000
# Rows of one batch.  Larger batches make fewer numpy calls and hold more
# memory, O(depth * BATCH_ROWS) per walk.  On ansatz(8,12) at m = 44, the
# array sum of one estimate takes 44, 40 and 38 ms at 1024, 1280 and 1488
# rows (minimum of 30 interleaved runs, one thread of a 2-core x86 VM), and
# peaks at 1.07, 1.24 and 1.40 MB of traced memory (a PauliPath pass at
# 0.94, 1.10 and 1.21 MB).  That instance's 1,491 paths must still span
# more than one batch for the tests that pin it.
BATCH_ROWS = 1488


class ResourceLimitError(RuntimeError):
    """Raised when enumeration exceeds PATH_LIMIT or NODE_LIMIT."""


def truncation_order(circuit: Circuit, m: int | None) -> int:
    """The truncation order a run uses: m, a non-negative integer, or for
    None (untruncated) the largest total weight of a path, n(L+1)."""
    if m is None:
        return circuit.n * (circuit.depth + 1)
    return non_negative_int(m, "truncation order")


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

    __slots__ = ("cliffords", "atom_pairs", "gx", "gz", "gen_y", "table", "shifts", "z_bits")

    def __init__(self, layer: Layer, dtype: type) -> None:
        self.cliffords = layer.clifford_groups
        rotations = sorted(
            layer.rotations,
            key=lambda g: (g.generator.x | g.generator.z)
            & -(g.generator.x | g.generator.z),
        )
        keys = [g.param if g.param is not None else g.angle for g in rotations]
        self.atom_pairs = [(FactorAtom("cos", k), FactorAtom("sin", k)) for k in keys]
        self.shifts = np.arange(len(rotations)).reshape(-1, 1)
        self.gx = np.array([g.generator.x for g in rotations], dtype=dtype).reshape(-1, 1)
        self.gz = np.array([g.generator.z for g in rotations], dtype=dtype).reshape(-1, 1)
        # the Y letters |gx.gz| of each generator, of the dtype of the
        # popcounts they are added to
        self.gen_y = popcount(self.gx & self.gz)
        bits = [1 << j for j in range(len(rotations))]
        # the rotations whose generators have no X or Y letter
        self.z_bits = sum(bit for bit, g in zip(bits, rotations) if not g.generator.x)
        # sin choices (R, rows) -> x flips, z flips and sin bit masks in one product
        self.table = np.array(
            [self.gx[:, 0], self.gz[:, 0], bits], dtype=dtype
        ).reshape(3, len(rotations))

    def branch(
        self, x: np.ndarray, z: np.ndarray
    ) -> tuple[_Branching, np.ndarray, np.ndarray, np.ndarray]:
        """The layer applied to a batch of successor words: the branching,
        per row the number a of anti-commuting rotations and the weight of
        its word, and as (R, rows) the weight each rotation's sin branch
        adds to a child (0 where the rotation commutes)."""
        b = _Branching()
        sign = np.ones(len(x), dtype=np.int8)
        for kind, mask, offset in self.cliffords:
            group_sign, x, z = conjugate_masks(kind, mask, offset, x, z)
            sign = sign * group_sign
        gx, gz, bits = self.gx, self.gz, self.table[2]
        gz_x = popcount(gz & x)
        anti = ((popcount(gx & z) + gz_x) & 1).astype(bool)
        # the sin word w = G s up to phase: G s = i^k w with k = |gx.gz| +
        # |x.z| - |wx.wz| + 2|gz.x| mod 4 (`pauli.product_phase_masks`);
        # unsigned popcounts wrap at a multiple of 4, so k stays exact
        wx, wz = x ^ gx, z ^ gz
        k = self.gen_y + popcount(x & z) - popcount(wx & wz) + 2 * gz_x
        # sigma w = i G s, so sigma = i^(k+1): -1 when k = 1 mod 4; pinned by
        # exp(+i t G/2) s exp(-i t G/2) = cos(t) s + sigma sin(t) w
        neg = ((k + 1) & 2).astype(bool)
        weight = popcount(x | z).astype(np.int32)
        count = np.count_nonzero(anti, axis=0)
        # the first anti-commuting rotation of a row is the most significant
        # ordinal bit: rotation j takes bit count - 1 - (anti-commuting before j)
        below = np.cumsum(anti, axis=0) - anti
        b.x, b.z, b.sign = x, z, sign
        b.anti_bits = bits @ anti
        b.neg_bits = bits @ neg
        b.select = np.where(anti, count - 1 - below, 63).astype(np.int8)
        gain = (popcount(wx | wz).astype(np.int32) - weight) * anti
        return b, count, weight, gain

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

    def leaves(
        self, b: _Branching, parent: np.ndarray, slot: np.ndarray, flips: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The children at word index 0 worth building of rows `parent` of a
        branching, one slot `slot` of a row each, as (pick, ordinal), where
        `pick` indexes the slots.  A row has len(flips) << a_z slots, a_z
        its anti-commuting rotations whose generators have no X or Y letter:
        slot k stands for the child whose x mask is flips[k >> a_z] and
        which takes sin at those rotations by the low bits of k.  The
        supports are disjoint, so that x mask fixes the choice of every
        other anti-commuting rotation: sin where the mask needs its
        generator's x letters.  A slot no child reaches is dropped."""
        select = b.select[:, parent]
        index, chosen = slot, False
        if self.z_bits:
            # the j-th free rotation of a row from its first takes bit j of k
            free = b.anti_bits[parent] & self.z_bits
            index = slot >> popcount(free)
            below = popcount(free & (self.table[2:] - 1).T)
            chosen = ((free >> self.shifts) & (slot >> below) & 1).astype(bool)
        target = b.x[parent] ^ flips[index]
        sin = (((target & self.gx) != 0) | chosen) & (select < 63)
        pick = np.flatnonzero(self.table[0] @ sin == target)
        return pick, np.left_shift(sin[:, pick], select[:, pick], dtype=np.int64).sum(axis=0)

    def choices(self, anti: np.ndarray, sin: np.ndarray) -> np.ndarray:
        """Steps through the layer decoded from their bit masks, as (R, rows)
        int8 at any width: per rotation 0 where the step commutes with it, 1
        for cos and 2 for sin (a sin bit is only ever set with its anti bit)."""
        shifts = self.shifts
        return (((anti >> shifts) & 1) + ((sin >> shifts) & 1)).astype(np.int8)


def _atoms(pairs: Sequence[tuple], column: list[int]) -> tuple[FactorAtom, ...]:
    """The atoms of one path, from the (cos, sin) atom pair of each rotation
    and the path's choice there."""
    # tuples from a list get their exact size; from an iterator they are
    # resized, and the freed ones pile up in the interpreter's free lists
    return tuple([pair[c - 1] for pair, c in zip(pairs, column) if c])


def layer_predecessors(
    layer: Layer, succ: PauliWord
) -> list[tuple[PauliWord, int, tuple[FactorAtom, ...]]]:
    """Predecessors (word, sign, atoms) of a full word through one layer,
    in the order the enumeration walks them; refused before any is built
    when there are more than NODE_LIMIT."""
    dtype = mask_dtype(succ.n)
    program = _LayerProgram(layer, dtype)
    b, count, *_ = program.branch(
        np.array([succ.x], dtype=dtype), np.array([succ.z], dtype=dtype)
    )
    total = 1 << int(count[0])
    if total > NODE_LIMIT:
        raise ResourceLimitError(
            f"more than {NODE_LIMIT} predecessors: {total} through one layer"
        )
    parent = np.zeros(total, dtype=np.intp)
    x, z, _, sign, sin = program.children(b, parent, np.arange(len(parent), dtype=np.int64))
    choice = program.choices(b.anti_bits[parent], sin)
    return [
        (PauliWord(succ.n, int(cx), int(cz)), int(s), _atoms(program.atom_pairs, column))
        for cx, cz, s, column in zip(x, z, sign, choice.T.tolist())
    ]


# --- the batched depth-first walk ------------------------------------------


class _Batch(NamedTuple):
    """Rows at one word index in canonical order: the masks, the weight
    spent so far, and the step into each row: its sign, its sin choices
    and the parent's anti-commuting rotations as bit masks over the
    layer's rotations, and the parent's row (a root's term index).  Leaf
    rows also hold their state overlap."""

    x: np.ndarray
    z: np.ndarray
    spent: np.ndarray
    sign: np.ndarray
    sin: np.ndarray
    parent: np.ndarray
    anti: np.ndarray
    overlap: np.ndarray | None = None

    def take(self, keep: np.ndarray) -> _Batch:
        return _Batch(*(None if field is None else field[keep] for field in self))


def _concat(parts: list[_Batch]) -> _Batch:
    if len(parts) == 1:
        return parts[0]
    return _Batch(
        *(None if column[0] is None else np.concatenate(column) for column in zip(*parts))
    )


@dataclass(frozen=True)
class PathBlock:
    """The paths ending in one leaf batch, in canonical order, as read-only
    arrays with one column per path.  Row r of `choice` is rotation r of
    layers 1..L in program order, whose atoms are
    `PathEnumeration.atoms[r]`."""

    coeff: np.ndarray  # (P,) coefficient of the root term s_L
    sign: np.ndarray  # (P,) int8, the overall sign
    choice: np.ndarray  # (R, P) int8: 0 commutes, 1 takes cos, 2 takes sin
    x: np.ndarray  # (L + 1, P) row i: the x mask of s_i
    z: np.ndarray  # (L + 1, P) row i: the z mask of s_i
    spent: np.ndarray  # (P,) int32, the total weight
    overlap: np.ndarray  # (P,) Tr(s_0 rho), never 0

    def __post_init__(self) -> None:
        for field in fields(self):
            getattr(self, field.name).flags.writeable = False


class PathEnumeration:
    """Iterable stream of surviving paths for (circuit, H, rho, M).

    Iterating yields one `PathBlock` per leaf batch, holding the paths in
    canonical order; `paths()` yields the same paths as PauliPath records.
    `stats` is reset at the start of each iteration and holds the counters
    of the most recent (possibly still running) pass.  Every node counts
    against NODE_LIMIT, the root of each term included, and every path
    against PATH_LIMIT.  `atoms` holds the (cos, sin) atom pair of each
    rotation of layers 1..L in program order, the rows of the blocks'
    `choice`.
    """

    def __init__(
        self,
        circuit: Circuit,
        h: Hamiltonian,
        rho: SparseDensity,
        m: int | None,
    ) -> None:
        check_instance(circuit, h, rho)
        m = truncation_order(circuit, m)
        depth = circuit.depth
        if m < depth + 1:
            warn_caller(
                f"truncation order {m} is below depth + 1 = {depth + 1};"
                " every path is truncated away"
            )
        self.circuit = circuit
        self.h = h
        self.rho = rho
        self.m = m
        self.stats = EnumerationStats()
        self._dtype = mask_dtype(circuit.n)
        self._programs = [_LayerProgram(layer, self._dtype) for layer in circuit.layers]
        self.atoms = tuple(chain.from_iterable(program.atom_pairs for program in self._programs))
        self._coeffs = np.array([c for _, c in h.terms()], dtype=float)
        # the x masks a leaf is solved for: 0 as well, so that every
        # zero-weight leaf is built and counted as such
        self._flips = np.array(sorted(rho.flip_masks() | {0}), dtype=self._dtype)

    def __iter__(self) -> Iterator[PathBlock]:
        stats = EnumerationStats()
        self.stats = stats
        depth = self.circuit.depth
        terms = [word for word, _ in self.h.terms()]
        for start in range(0, len(terms), BATCH_ROWS):
            chunk = terms[start : start + BATCH_ROWS]
            self._visit(stats, len(chunk), depth)
            weight = np.array([word.weight for word in chunk], dtype=np.int32)
            zeros = np.zeros(len(chunk), dtype=np.intp)
            roots = _Batch(
                np.array([word.x for word in chunk], dtype=self._dtype),
                np.array([word.z for word in chunk], dtype=self._dtype),
                weight,
                np.ones(len(chunk), dtype=np.int8),
                zeros,
                np.arange(start, start + len(chunk)),
                zeros,
            )
            yield from self._walk(self._survivors(roots, weight, depth, stats), stats)

    def paths(self) -> Iterator[PauliPath]:
        """One pass over the blocks, as iterating is, yielding each path as
        a PauliPath record."""
        for block in self:
            yield from self._block_paths(block)

    def _block_paths(self, block: PathBlock) -> Iterator[PauliPath]:
        """The PauliPath records of one block.  Its paths share most of
        their words, so each distinct one is built once; a function of its
        own, so that none of it stays alive while the walk builds the next
        block."""
        x, z, choice = (a.T.tolist() for a in (block.x, block.z, block.choice))
        words = {
            key: PauliWord(self.circuit.n, *key)
            for key in dict.fromkeys(chain.from_iterable(map(zip, x, z)))
        }
        for path_x, path_z, path_choice, sign, spent in zip(
            x, z, choice, block.sign.tolist(), block.spent.tolist()
        ):
            yield PauliPath(
                tuple([words[key] for key in zip(path_x, path_z)]),
                sign,
                _atoms(self.atoms, path_choice),
                spent,
            )

    def _visit(self, stats: EnumerationStats, count: int, idx: int) -> None:
        """Count `count` nodes at word index idx against NODE_LIMIT."""
        reached = stats.nodes_visited + count
        if reached > NODE_LIMIT:
            raise ResourceLimitError(
                f"more than {NODE_LIMIT} enumeration nodes visited:"
                f" {reached} at word index {idx}"
            )
        stats.nodes_visited = reached

    def _walk(self, roots: _Batch, stats: EnumerationStats) -> Iterator[PathBlock]:
        """The block of every leaf batch below a batch of roots, depth first
        a batch at a time.  Per word index from the roots down,
        `generators` holds the source of that index's batches and `levels`
        the current batch; the deepest batch is walked to the leaves before
        its parent builds its next children."""
        generators: list[Iterator[_Batch]] = [iter([roots])]
        levels: list[_Batch] = []
        while generators:
            # the top generator's previous batch is done with, with all below it
            del levels[len(generators) - 1 :]
            batch = next(generators[-1], None)
            if batch is None:
                generators.pop()
                continue
            levels.append(batch)
            idx = self.circuit.depth + 1 - len(generators)  # word index of batch
            if idx > 0:
                generators.append(self._children(batch, idx, stats))
            elif len(batch.x):
                yield self._block(levels, stats)

    def _children(
        self, parent: _Batch, idx: int, stats: EnumerationStats
    ) -> Iterator[_Batch]:
        """The surviving children of a parent batch at word index idx in
        canonical order, at most BATCH_ROWS per batch.  All children are
        counted first, and parents none of whose children fit the budget
        are settled unbuilt; then each batch is built from slices of the
        other parents' slots until half a batch survives, each slice no
        larger than the room left.  A slot is a child, except at idx 1, in
        a batch that can leave more than BATCH_ROWS children unbuilt, for a
        parent all of whose children fit the budget: there the leaves are
        solved for the x masks that overlap the state, and the parent's
        slots are those of `_LayerProgram.leaves` when they are no more than
        its children and at most BATCH_ROWS.  Such a parent's slots share
        one slice, whose survivor rule counts the children left unbuilt."""
        program = self._programs[idx - 1]
        room = self.m - idx + 1  # weight the children may have spent
        b, count, weight, gain = program.branch(parent.x, parent.z)
        # the least weight any child of a row has
        over = parent.spent + weight + np.minimum(gain, 0).sum(axis=0) > room
        # sums of 2^a as exact ints, grouped by a
        per_a = np.bincount(count, minlength=len(program.atom_pairs) + 1)
        total = sum(int(c) << a for a, c in enumerate(per_a))
        # at most NODE_LIMIT children, so the int64 offsets below are exact
        self._visit(stats, total, idx - 1)
        rows = np.flatnonzero(~over)
        counts = np.left_shift(1, count[rows].astype(np.int64))
        built = int(counts.sum())
        stats.pruned_budget += total - built
        whole = None
        # solving costs numpy calls of its own, won back only by leaving
        # more than a slice of children unbuilt; a row has at least
        # len(flips) slots, so it leaves at most its other children unbuilt
        if idx == 1 and int(np.maximum(counts - len(self._flips), 0).sum()) > BATCH_ROWS:
            free = popcount(b.anti_bits[rows] & program.z_bits).astype(np.int64)
            slots = len(self._flips) << free
            # the largest weight any child of a row has spent
            most = parent.spent + weight + np.maximum(gain, 0).sum(axis=0)
            whole = (most[rows] > room) | (slots > np.minimum(counts, BATCH_ROWS))
            slots = np.where(whole, counts, slots)
            # skipped[r]: the children the slots of rows 0..r-1 leave unbuilt
            skipped = np.concatenate(([0], np.cumsum(counts - slots)))
            counts = slots
            del free, most
        offsets = np.concatenate(([0], np.cumsum(counts)))
        end = int(offsets[-1])
        # only b, rows, whole, skipped and offsets stay alive while the
        # children are walked
        del count, weight, gain, over, counts

        def build(cursor: int) -> tuple[_Batch | None, int]:
            """The survivors of the slices of slots from `cursor` on, and
            the cursor after them.  A function of its own, so that nothing
            of a slice stays alive while its batch is walked."""
            parts: list[_Batch] = []
            kept = 0
            while cursor < end and kept < BATCH_ROWS // 2:
                lo, cursor = cursor, min(cursor + BATCH_ROWS - kept, end)
                if whole is not None and cursor < end:
                    # a solved row's slots go in one slice, the next batch's
                    # when they do not fit in the room left
                    last = np.searchsorted(offsets, cursor, side="right") - 1
                    if not whole[last]:
                        cursor = int(offsets[last])
                        if cursor == lo:
                            break
                slot = np.arange(lo, cursor, dtype=np.int64)
                which = np.searchsorted(offsets, slot, side="right") - 1
                slot -= offsets[which]
                at = rows[which]
                unbuilt = 0
                keep = None if whole is None else whole[which]
                if keep is not None and not keep.all():
                    solved = np.flatnonzero(~keep)
                    pick, found = program.leaves(b, at[solved], slot[solved], self._flips)
                    unbuilt = len(solved) - len(pick)
                    unbuilt += int(skipped[which[-1] + 1] - skipped[which[0]])
                    # each solved row's children, sorted, take the places
                    # of its picked slots in turn
                    hit = solved[pick]
                    slot[hit] = found[np.lexsort((found, at[hit]))]
                    keep[hit] = True
                    at, slot = at[keep], slot[keep]
                x, z, weight, sign, sin = program.children(b, at, slot)
                part = _Batch(x, z, parent.spent[at] + weight, sign, sin, at, b.anti_bits[at])
                part = self._survivors(part, weight, idx - 1, stats, unbuilt)
                if len(part.x):
                    parts.append(part)
                    kept += len(part.x)
            return (_concat(parts) if parts else None), cursor

        cursor = 0
        while cursor < end:
            batch, cursor = build(cursor)
            if batch is not None:
                yield batch

    def _survivors(
        self,
        part: _Batch,
        weight: np.ndarray,
        idx: int,
        stats: EnumerationStats,
        unbuilt: int = 0,
    ) -> _Batch:
        """The rows of a batch at word index idx that survive, with their
        state overlaps at idx 0.  A dropped row is counted by the first rule
        it breaks: its word has weight 0; its spent weight exceeds m - idx,
        leaving less than 1 for each word still to come; at idx 0, its word
        has no overlap with the state.  Leaves are solved, not filtered,
        where `_children` can: a parent it solves sends only the children
        whose x masks are flip masks of the state or 0, and its other
        children, which have weight, fit the budget and miss the state, are
        among the `unbuilt` counted as having no overlap.  A parent built
        whole sends all its children, and a leaf whose x mask is not a flip
        mask is dropped before the one `SparseDensity.overlaps` call."""
        zero = weight == 0
        over = part.spent > self.m - idx
        stats.pruned_zero_weight += int(np.count_nonzero(zero))
        stats.pruned_budget += int(np.count_nonzero(over & ~zero))
        keep = ~(zero | over)
        if idx > 0:
            return part if keep.all() else part.take(keep)
        candidates = int(np.count_nonzero(keep))
        flips = self._flips
        keep &= flips[np.minimum(np.searchsorted(flips, part.x), len(flips) - 1)] == part.x
        rows = np.flatnonzero(keep)
        values = self.rho.overlaps(part.x[rows], part.z[rows])
        hit = values != 0.0
        stats.pruned_zero_overlap += unbuilt + candidates - int(np.count_nonzero(hit))
        return part.take(rows[hit])._replace(overlap=values[hit])

    def _block(self, levels: list[_Batch], stats: EnumerationStats) -> PathBlock:
        """The paths ending in the leaf batch at word index 0, the last of
        `levels`, traced back through the levels to their root terms."""
        leaves = levels[-1]
        reached = stats.paths_emitted + len(leaves.x)
        if reached > PATH_LIMIT:
            raise ResourceLimitError(
                f"more than {PATH_LIMIT} paths survive truncation:"
                f" {reached} at word index 0"
            )
        stats.paths_emitted = reached
        rows = np.arange(len(leaves.x))
        sign = np.ones(len(rows), dtype=np.int8)
        # per level, leaf (s_0) to root (s_L): the step into word index i is
        # through layer i + 1, and a rotation-free layer adds no choices
        x, z, choice = [], [], [np.empty((0, len(rows)), dtype=np.int8)]
        for batch, program in zip(reversed(levels), [*self._programs, None]):
            x.append(batch.x[rows])
            z.append(batch.z[rows])
            if program is not None and program.atom_pairs:
                choice.append(program.choices(batch.anti[rows], batch.sin[rows]))
            sign *= batch.sign[rows]
            rows = batch.parent[rows]
        # the roots' steps are empty; a root's parent is its term index
        return PathBlock(
            coeff=self._coeffs[rows],
            sign=sign,
            choice=np.concatenate(choice),
            x=np.array(x, dtype=self._dtype),
            z=np.array(z, dtype=self._dtype),
            spent=leaves.spent,
            overlap=leaves.overlap,
        )
