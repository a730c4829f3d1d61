"""Layered circuit model: Pauli rotations plus H/S/CNOT Cliffords.

A circuit is a list of layers acting on n qubits (1-based indices).  Each
layer holds rotation gates exp(-i theta/2 * G) for a non-identity Pauli
generator G, and Clifford gates, with pairwise disjoint supports inside the
layer.  Rotation angles are either a named parameter symbol or a bound
float; naming is per gate, so symbols may be shared across gates when a
single-point evaluation is all that is needed.

Clifford conjugation is one rule, `conjugate_masks`: closed-form bit updates
on the (x, z) masks that return the new word and a +-1 sign, for int masks
or for numpy arrays of them.  The path engine (on arrays) and
`effected_words` (on ints) both call it, and the test suite checks it
against dense matrix conjugation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .pauli import PauliWord

CLIFFORD_KINDS = ("H", "S", "CNOT")


@dataclass(frozen=True, slots=True)
class RotationGate:
    """exp(-i theta/2 * generator); angle comes from `param` or `angle`."""

    generator: PauliWord
    param: str | None = None
    angle: float | None = None

    def __post_init__(self) -> None:
        if (self.param is None) == (self.angle is None):
            raise ValueError("rotation needs exactly one of param or angle")
        if self.generator.is_identity:
            raise ValueError("rotation generator must be non-identity")

    @property
    def support(self) -> tuple[int, ...]:
        return self.generator.support()


@dataclass(frozen=True, slots=True)
class CliffordGate:
    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in CLIFFORD_KINDS:
            raise ValueError(f"unknown Clifford kind {self.kind!r}")
        want = 2 if self.kind == "CNOT" else 1
        if len(self.qubits) != want:
            raise ValueError(f"{self.kind} takes {want} qubit(s)")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.kind} qubits must be distinct")

    @property
    def support(self) -> tuple[int, ...]:
        return self.qubits

    @property
    def bits(self) -> tuple[int, int]:
        """Mask bits (b0, b1) for `conjugate_masks`: the CNOT control's and
        target's, or the one qubit's bit twice for H and S."""
        return self.qubits[0] - 1, self.qubits[-1] - 1


Gate = RotationGate | CliffordGate


@dataclass(frozen=True, slots=True)
class Layer:
    gates: tuple[Gate, ...]

    @property
    def rotations(self) -> tuple[RotationGate, ...]:
        return tuple(g for g in self.gates if isinstance(g, RotationGate))

    @property
    def cliffords(self) -> tuple[CliffordGate, ...]:
        return tuple(g for g in self.gates if isinstance(g, CliffordGate))


@dataclass(frozen=True, slots=True)
class Circuit:
    """n qubits, depth = len(layers); layer 1 acts first."""

    n: int
    layers: tuple[Layer, ...]

    @property
    def depth(self) -> int:
        return len(self.layers)

    def parameters(self) -> tuple[str, ...]:
        """Distinct rotation symbols in first-use order."""
        seen: dict[str, None] = {}
        for layer in self.layers:
            for gate in layer.rotations:
                if gate.param is not None and gate.param not in seen:
                    seen[gate.param] = None
        return tuple(seen)

    def rotation_count(self) -> int:
        return sum(len(layer.rotations) for layer in self.layers)


def validate(circuit: Circuit) -> list[str]:
    """Collect human-readable defects; an empty list means valid."""
    errors: list[str] = []
    if circuit.n < 1:
        errors.append(f"qubit count must be positive, got {circuit.n}")
        return errors
    for li, layer in enumerate(circuit.layers, start=1):
        used: dict[int, int] = {}
        for gi, gate in enumerate(layer.gates, start=1):
            where = f"layer {li}, gate {gi}"
            if isinstance(gate, RotationGate):
                if gate.generator.n != circuit.n:
                    errors.append(
                        f"{where}: generator is on {gate.generator.n} qubits,"
                        f" circuit has {circuit.n}"
                    )
                    continue
            else:
                bad = [q for q in gate.qubits if not 1 <= q <= circuit.n]
                if bad:
                    errors.append(f"{where}: qubit {bad[0]} outside 1..{circuit.n}")
                    continue
            for q in gate.support:
                if q in used:
                    errors.append(
                        f"{where}: support overlaps gate {used[q]} at qubit {q}"
                    )
                else:
                    used[q] = gi
    return errors


def require_valid(circuit: Circuit) -> None:
    errors = validate(circuit)
    if errors:
        raise ValueError("invalid circuit: " + "; ".join(errors))


def conjugate_masks(kind: str, b0: int, b1: int, x, z, backward: bool):
    """Conjugate the word (x, z) by one Clifford gate; return (sign, x, z).

    backward maps P to Vdag P V, forward maps P to V P Vdag; H and CNOT are
    self-inverse, so only the sign of S depends on it.  (b0, b1) are the
    gate's `CliffordGate.bits`.  The updates are the stabilizer-tableau rule
    of Aaronson & Gottesman (quant-ph/0406196), with c = b0 and t = b1:

      H     swap x_b, z_b        sign -1 when x_b & z_b (Y -> -Y)
      S     z_b ^= x_b           sign -1 forward on Y, backward on X
      CNOT  x_t ^= x_c,          sign -1 when x_c & z_t & not (x_t ^ z_c)
            z_c ^= z_t

    Only bit operations and arithmetic touch x and z, so the same rule maps
    int masks to an int sign and masks, and mask arrays entry by entry to a
    sign array and mask arrays.
    """
    if kind == "CNOT":
        xc = (x >> b0) & 1
        zt = (z >> b1) & 1
        same = ((x >> b1) ^ (z >> b0) ^ 1) & 1
        return 1 - 2 * (xc & zt & same), x ^ (xc << b1), z ^ (zt << b0)
    xb = (x >> b0) & 1
    zb = (z >> b0) & 1
    if kind == "H":
        swap = (xb ^ zb) << b0
        return 1 - 2 * (xb & zb), x ^ swap, z ^ swap
    return 1 - 2 * (xb & (zb ^ int(backward))), x, z ^ (xb << b0)


def effected_words(circuit: Circuit) -> list[PauliWord]:
    """Rotation generators pulled back through all earlier Cliffords.

    For the rotation at (layer i, gate j) with generator G, the effected
    word is V1dag ... V(i-1)dag G V(i-1) ... V1 where Vk is the Clifford
    part of layer k; rotations in earlier layers do not contribute.  Phases
    are discarded.  Order follows (layer, gate) iteration order.
    """
    require_valid(circuit)
    out: list[PauliWord] = []
    for li, layer in enumerate(circuit.layers):
        for gate in layer.rotations:
            x, z = gate.generator.x, gate.generator.z
            for earlier in reversed(circuit.layers[:li]):
                for cliff in reversed(earlier.cliffords):
                    _, x, z = conjugate_masks(cliff.kind, *cliff.bits, x, z, True)
            out.append(PauliWord(circuit.n, x, z))
    return out


def symplectic_vector(word: PauliWord) -> int:
    """GF(2) row (x | z) packed into a single 2n-bit integer."""
    return (word.x << word.n) | word.z


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank of a set of GF(2) row vectors given as integers."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            msb = row.bit_length() - 1
            if msb in pivots:
                row ^= pivots[msb]
            else:
                pivots[msb] = row
                rank += 1
                break
    return rank


def generation_check(words: Iterable[PauliWord]) -> bool:
    """True when the words generate the full n-qubit Pauli group mod phase.

    Group generation mod phase is GF(2) span of the symplectic vectors, so
    the check is rank (x | z) == 2n by Gaussian elimination.
    """
    rows = []
    n = None
    for word in words:
        if n is None:
            n = word.n
        elif word.n != n:
            raise ValueError(f"word lengths differ: {word.n} vs {n}")
        rows.append(symplectic_vector(word))
    if n is None:
        return False
    return gf2_rank(rows) == 2 * n


def circuit_generation_certified(circuit: Circuit) -> bool:
    return generation_check(effected_words(circuit))


# --- JSON wire format -------------------------------------------------------
#
# {"n": 3, "layers": [{"gates": [
#     {"kind": "rot", "pauli": "XIZ", "param": "t1"},
#     {"kind": "rot", "pauli": "IYI", "angle": 0.25},
#     {"kind": "H", "qubit": 2},
#     {"kind": "S", "qubit": 3},
#     {"kind": "CNOT", "control": 1, "target": 3}]}]}


class CircuitFormatError(ValueError):
    pass


def _gate_from_dict(n: int, obj: dict, where: str) -> Gate:
    kind = obj.get("kind")
    if kind == "rot":
        pauli = obj.get("pauli")
        if not isinstance(pauli, str):
            raise CircuitFormatError(f"{where}: rot gate needs a 'pauli' string")
        if len(pauli) != n:
            raise CircuitFormatError(
                f"{where}: pauli string has length {len(pauli)}, expected {n}"
            )
        has_param = "param" in obj
        has_angle = "angle" in obj
        if has_param == has_angle:
            raise CircuitFormatError(
                f"{where}: rot gate needs exactly one of 'param' or 'angle'"
            )
        try:
            generator = PauliWord.from_string(pauli)
            if has_param:
                return RotationGate(generator, param=str(obj["param"]))
            angle = float(obj["angle"])
            if not math.isfinite(angle):
                raise ValueError(f"angle must be finite, got {angle}")
            return RotationGate(generator, angle=angle)
        except (ValueError, TypeError) as exc:
            raise CircuitFormatError(f"{where}: {exc}") from None
    if kind in ("H", "S"):
        qubit = obj.get("qubit")
        if not isinstance(qubit, int):
            raise CircuitFormatError(f"{where}: {kind} gate needs integer 'qubit'")
        return CliffordGate(kind, (qubit,))
    if kind == "CNOT":
        control, target = obj.get("control"), obj.get("target")
        if not isinstance(control, int) or not isinstance(target, int):
            raise CircuitFormatError(
                f"{where}: CNOT needs integer 'control' and 'target'"
            )
        try:
            return CliffordGate("CNOT", (control, target))
        except ValueError as exc:
            raise CircuitFormatError(f"{where}: {exc}") from None
    raise CircuitFormatError(f"{where}: unknown gate kind {kind!r}")


def circuit_from_dict(obj: dict) -> Circuit:
    if not isinstance(obj, dict):
        raise CircuitFormatError("circuit document must be a JSON object")
    n = obj.get("n")
    if not isinstance(n, int) or n < 1:
        raise CircuitFormatError("circuit needs a positive integer 'n'")
    raw_layers = obj.get("layers")
    if not isinstance(raw_layers, list):
        raise CircuitFormatError("circuit needs a 'layers' array")
    layers = []
    for li, raw in enumerate(raw_layers, start=1):
        gates = raw.get("gates") if isinstance(raw, dict) else None
        if not isinstance(gates, list):
            raise CircuitFormatError(f"layer {li}: needs a 'gates' array")
        parsed = tuple(
            _gate_from_dict(n, g, f"layer {li}, gate {gi}")
            for gi, g in enumerate(gates, start=1)
        )
        layers.append(Layer(parsed))
    circuit = Circuit(n, tuple(layers))
    errors = validate(circuit)
    if errors:
        raise CircuitFormatError("; ".join(errors))
    return circuit


def circuit_to_dict(circuit: Circuit) -> dict:
    layers = []
    for layer in circuit.layers:
        gates: list[dict] = []
        for gate in layer.gates:
            if isinstance(gate, RotationGate):
                entry: dict = {"kind": "rot", "pauli": str(gate.generator)}
                if gate.param is not None:
                    entry["param"] = gate.param
                else:
                    entry["angle"] = gate.angle
            elif gate.kind == "CNOT":
                entry = {"kind": "CNOT", "control": gate.qubits[0], "target": gate.qubits[1]}
            else:
                entry = {"kind": gate.kind, "qubit": gate.qubits[0]}
            gates.append(entry)
        layers.append({"gates": gates})
    return {"n": circuit.n, "layers": layers}
