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
    successor itself with a cos factor, and the word w from sigma w = i G s
    with a sin factor, sigma in {+1, -1} multiplying into the sign).

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
before the sin branch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator

from .circuit import Circuit, Layer, RotationGate, conjugate_masks, require_valid
from .observables import Hamiltonian, SparseDensity
from .pauli import PauliWord

DEFAULT_PATH_LIMIT = 10_000_000
DEFAULT_NODE_LIMIT = 100_000_000


class ResourceLimitError(RuntimeError):
    """Raised when enumeration exceeds a configured path or node limit."""


@dataclass(frozen=True, slots=True)
class FactorAtom:
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

    def as_dict(self) -> dict[str, int]:
        return {
            "nodes_visited": self.nodes_visited,
            "paths_emitted": self.paths_emitted,
            "pruned_budget": self.pruned_budget,
            "pruned_zero_weight": self.pruned_zero_weight,
            "pruned_zero_overlap": self.pruned_zero_overlap,
        }

    def merge(self, other: EnumerationStats) -> None:
        """Add the counters of another pass into this one."""
        for name, value in other.as_dict().items():
            setattr(self, name, getattr(self, name) + value)


# --- compiled per-layer transition programs ---------------------------------

class _RotOp:
    __slots__ = ("mask", "gx", "gz", "atom_cos", "atom_sin")

    def __init__(self, gate: RotationGate) -> None:
        gen = gate.generator
        self.mask = gen.x | gen.z
        self.gx = gen.x
        self.gz = gen.z
        key = gate.param if gate.param is not None else gate.angle
        self.atom_cos = FactorAtom("cos", key)
        self.atom_sin = FactorAtom("sin", key)


class _LayerProgram:
    """One layer compiled to bit operations on (x, z) masks."""

    __slots__ = ("cliffords", "rotations")

    def __init__(self, layer: Layer) -> None:
        self.cliffords = [
            (gate.kind, *gate.bits)
            for gate in sorted(layer.cliffords, key=lambda g: min(g.qubits))
        ]
        self.rotations = sorted(
            (_RotOp(g) for g in layer.rotations), key=lambda r: r.mask & -r.mask
        )

    def children(
        self, x: int, z: int
    ) -> list[tuple[int, int, int, tuple[FactorAtom, ...]]]:
        """All predecessors (x, z, sign, atoms) of the word (x, z)."""
        sign = 1
        for kind, b0, b1 in self.cliffords:
            gate_sign, x, z = conjugate_masks(kind, b0, b1, x, z, True)
            sign *= gate_sign
        states = [(x, z, sign, ())]
        for rot in self.rotations:
            sxr = x & rot.mask
            szr = z & rot.mask
            anti = ((rot.gx & szr).bit_count() + (rot.gz & sxr).bit_count()) % 2
            if not anti:
                continue
            px = sxr ^ rot.gx
            pz = szr ^ rot.gz
            # sigma w = i G s fixes the sign of the sin branch; pinned by
            # exp(+i theta G/2) s exp(-i theta G/2) = cos(theta) s + sigma sin(theta) w
            exp = (
                1
                + (rot.gx & rot.gz).bit_count()
                + (sxr & szr).bit_count()
                - (px & pz).bit_count()
                + 2 * (rot.gz & sxr).bit_count()
            ) % 4
            sigma = 1 if exp == 0 else -1
            keep = ~rot.mask
            states = [
                branch
                for sx, sz, s, atoms in states
                for branch in (
                    (sx, sz, s, atoms + (rot.atom_cos,)),
                    (
                        (sx & keep) | px,
                        (sz & keep) | pz,
                        s * sigma,
                        atoms + (rot.atom_sin,),
                    ),
                )
            ]
        return states


def layer_predecessors(
    layer: Layer, succ: PauliWord
) -> list[tuple[PauliWord, int, tuple[FactorAtom, ...]]]:
    """Predecessors (word, sign, atoms) of a full word through one layer,
    in the order the enumeration walks them."""
    return [
        (PauliWord(succ.n, x, z), sign, atoms)
        for x, z, sign, atoms in _LayerProgram(layer).children(succ.x, succ.z)
    ]


class PathEnumeration:
    """Iterable stream of surviving paths for (circuit, H, rho, M).

    Iterating yields PauliPath objects in the canonical order; `stats` is
    reset at the start of each iteration and holds the counters of the
    most recent (possibly still running) pass.  `term_indices` restricts
    the walk to a subset of observable terms, which is how parallel
    workers split the tree.
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
        term_indices: list[int] | None = None,
        warn: bool = True,
    ) -> None:
        require_valid(circuit)
        if h.n != circuit.n:
            raise ValueError(f"observable on {h.n} qubits, circuit has {circuit.n}")
        if rho.n != circuit.n:
            raise ValueError(f"state on {rho.n} qubits, circuit has {circuit.n}")
        depth = circuit.depth
        max_weight = circuit.n * (depth + 1)
        if m is None:
            m = max_weight
        elif m < 0:
            raise ValueError(f"truncation order must be non-negative, got {m}")
        if warn and m < depth + 1:
            warnings.warn(
                f"truncation order {m} is below depth + 1 = {depth + 1};"
                " every path is truncated away",
                stacklevel=2,
            )
        self.circuit = circuit
        self.h = h
        self.rho = rho
        self.m = m
        self.path_limit = path_limit
        self.node_limit = node_limit
        self.term_indices = term_indices
        self.stats = EnumerationStats()
        self._programs = [_LayerProgram(layer) for layer in circuit.layers]

    def __iter__(self) -> Iterator[PauliPath]:
        stats = EnumerationStats()
        self.stats = stats
        n = self.circuit.n
        depth = self.circuit.depth
        m = self.m
        programs = self._programs
        rho = self.rho
        terms = self.h.terms()
        if self.term_indices is not None:
            terms = [terms[i] for i in self.term_indices]
        # frame: (word index, x, z, spent weight, parent frame, sign, atoms added)
        for word, _ in terms:
            stats.nodes_visited += 1
            weight = word.weight
            if weight > m - depth:
                stats.pruned_budget += 1
                continue
            stack = [(depth, word.x, word.z, weight, None, 1, ())]
            while stack:
                frame = stack.pop()
                idx, x, z, spent, _, _, _ = frame
                if idx == 0:
                    if rho.overlap_masks(x, z) == 0.0:
                        stats.pruned_zero_overlap += 1
                        continue
                    stats.paths_emitted += 1
                    if stats.paths_emitted > self.path_limit:
                        raise ResourceLimitError(
                            f"more than {self.path_limit} paths survive truncation"
                        )
                    yield self._build_path(frame, n)
                    continue
                children = programs[idx - 1].children(x, z)
                next_idx = idx - 1
                for cx, cz, sign, atoms in reversed(children):
                    stats.nodes_visited += 1
                    if stats.nodes_visited > self.node_limit:
                        raise ResourceLimitError(
                            f"more than {self.node_limit} enumeration nodes visited"
                        )
                    cw = (cx | cz).bit_count()
                    if cw == 0:
                        stats.pruned_zero_weight += 1
                        continue
                    if spent + cw > m - next_idx:
                        stats.pruned_budget += 1
                        continue
                    stack.append((next_idx, cx, cz, spent + cw, frame, sign, atoms))

    @staticmethod
    def _build_path(frame: tuple, n: int) -> PauliPath:
        words: list[PauliWord] = []
        atoms: list[FactorAtom] = []
        sign = 1
        cursor = frame
        while cursor is not None:  # leaf (s_0) to root (s_L)
            words.append(PauliWord(n, cursor[1], cursor[2]))
            sign *= cursor[5]
            atoms.extend(cursor[6])
            cursor = cursor[4]
        return PauliPath(tuple(words), sign, tuple(atoms), frame[3])
