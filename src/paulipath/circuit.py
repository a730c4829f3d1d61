"""Layered circuit model: Pauli rotations plus H/S/CNOT Cliffords.

A circuit is a list of layers acting on n qubits (1-based indices).  Each
layer holds rotation gates exp(-i theta/2 * G) for a non-identity Pauli
generator G, and Clifford gates, with pairwise disjoint supports inside the
layer.  Rotation angles are either a named parameter symbol or a bound
float; naming is per gate, so symbols may be shared across gates when a
single-point evaluation is all that is needed.

Clifford conjugation is one rule, `conjugate_masks`: closed-form bit updates
on the (x, z) masks that pull a word back through a gate, P to Vdag P V,
and return the new word and a +-1 sign, for int masks or for numpy arrays
of them.  The path engine (on arrays) and `effected_words` (on ints) both
call it, and the test suite checks it against dense matrix conjugation.

A `Circuit` is valid by construction, as its gates are: each type checks
its own numbers by the value rules of `pauli`.  The rules tying it to the
rest of a run, `check_instance`, `check_noise_rate` and `check_assignment`,
live here once, and every entry point calls them before any work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from .pauli import PauliWord, finite_real, gf2_rank, is_finite_real, qubit_count, qubit_index

if TYPE_CHECKING:
    from .observables import Hamiltonian, SparseDensity

# each Clifford kind and the names of its qubits, control first for CNOT
CLIFFORD_KINDS = {"H": ("qubit",), "S": ("qubit",), "CNOT": ("control", "target")}


@dataclass(frozen=True, slots=True)
class RotationGate:
    """exp(-i theta/2 * generator); angle comes from the symbol `param` or
    the finite real `angle`, stored as a float."""

    generator: PauliWord
    param: str | None = None
    angle: float | None = None

    def __post_init__(self) -> None:
        if (self.param is None) == (self.angle is None):
            raise ValueError("rotation needs exactly one of param or angle")
        if self.angle is not None:
            object.__setattr__(self, "angle", finite_real(self.angle, "angle"))
        elif not isinstance(self.param, str):
            raise ValueError(f"param must be a str, got {self.param!r}")
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
        fields = CLIFFORD_KINDS[self.kind]
        if len(self.qubits) != len(fields):
            raise ValueError(f"{self.kind} takes {len(fields)} qubit(s)")
        for field, qubit in zip(fields, self.qubits):
            qubit_index(qubit, field)
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
    """n qubits, depth = len(layers); layer 1 acts first.  Construction
    raises ValueError listing every defect by layer and gate."""

    n: int
    layers: tuple[Layer, ...]

    def __post_init__(self) -> None:
        qubit_count(self.n)
        errors: list[str] = []
        for li, layer in enumerate(self.layers, start=1):
            used: dict[int, int] = {}
            for gi, gate in enumerate(layer.gates, start=1):
                where = f"layer {li}, gate {gi}"
                if isinstance(gate, RotationGate):
                    if gate.generator.n != self.n:
                        errors.append(
                            f"{where}: generator is on {gate.generator.n} qubits,"
                            f" circuit has {self.n}"
                        )
                        continue
                else:
                    bad = [q for q in gate.qubits if not 1 <= q <= self.n]
                    if bad:
                        errors.append(f"{where}: qubit {bad[0]} outside 1..{self.n}")
                        continue
                for q in gate.support:
                    if q in used:
                        errors.append(
                            f"{where}: support overlaps gate {used[q]} at qubit {q}"
                        )
                    else:
                        used[q] = gi
        if errors:
            raise ValueError("; ".join(errors))

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


def check_instance(circuit: Circuit, h: Hamiltonian | None, rho: SparseDensity) -> None:
    """Refuse an observable (None skips it) or a state off the circuit's qubits."""
    for what, operand in (("observable", h), ("state", rho)):
        if operand is not None and operand.n != circuit.n:
            raise ValueError(f"{what} on {operand.n} qubits, circuit has {circuit.n}")


def check_noise_rate(lam: float) -> None:
    """Refuse a depolarizing rate that is not a finite real number in [0, 1]."""
    if not is_finite_real(lam) or not 0.0 <= lam <= 1.0:
        raise ValueError(f"noise rate must lie in [0, 1], got {lam!r}")


def check_assignment(circuit: Circuit, assignment: Mapping[str, float]) -> None:
    """Refuse an assignment that does not bind every symbol of the circuit
    to a finite real number, naming the first symbol that breaks the rule."""
    for param in circuit.parameters():
        if param not in assignment:
            raise ValueError(f"parameter {param!r} needs a finite real angle and has none")
        value = assignment[param]
        if not is_finite_real(value):
            raise ValueError(
                f"parameter {param!r} needs a finite real angle, got {value!r}"
            )


def conjugate_masks(kind: str, b0: int, b1: int, x, z):
    """Pull the word P = (x, z) back through one Clifford gate V, P to
    Vdag P V; return (sign, x, z).

    (b0, b1) are the gate's `CliffordGate.bits`.  The updates are the
    stabilizer-tableau rule of Aaronson & Gottesman (quant-ph/0406196),
    with c = b0 and t = b1:

      H     swap x_b, z_b        sign -1 when x_b & z_b (Y -> -Y)
      S     z_b ^= x_b           sign -1 on X
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
    return 1 - 2 * (xb & (zb ^ 1)), x, z ^ (xb << b0)


def effected_words(circuit: Circuit) -> list[PauliWord]:
    """Rotation generators pulled back through all earlier Cliffords.

    For the rotation at (layer i, gate j) with generator G, the effected
    word is V1dag ... V(i-1)dag G V(i-1) ... V1 where Vk is the Clifford
    part of layer k; rotations in earlier layers do not contribute.  Phases
    are discarded.  Order follows (layer, gate) iteration order.
    """
    out: list[PauliWord] = []
    for li, layer in enumerate(circuit.layers):
        for gate in layer.rotations:
            x, z = gate.generator.x, gate.generator.z
            for earlier in reversed(circuit.layers[:li]):
                for cliff in reversed(earlier.cliffords):
                    _, x, z = conjugate_masks(cliff.kind, *cliff.bits, x, z)
            out.append(PauliWord(circuit.n, x, z))
    return out


def symplectic_vector(word: PauliWord) -> int:
    """GF(2) row (x | z) packed into a single 2n-bit integer."""
    return (word.x << word.n) | word.z


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


def _gate_from_dict(obj: dict, where: str) -> Gate:
    """One gate object; the gate types check its numbers and strings."""
    if not isinstance(obj, dict):
        raise CircuitFormatError(f"{where}: must be an object")
    kind = obj.get("kind")
    try:
        if kind == "rot":
            pauli = obj.get("pauli")
            if not isinstance(pauli, str):
                raise ValueError("rot gate needs a 'pauli' string")
            generator = PauliWord.from_string(pauli)
            return RotationGate(generator, param=obj.get("param"), angle=obj.get("angle"))
        if kind in CLIFFORD_KINDS:
            qubits = tuple(obj.get(field) for field in CLIFFORD_KINDS[kind])
            return CliffordGate(kind, qubits)
    except ValueError as exc:
        raise CircuitFormatError(f"{where}: {exc}") from None
    raise CircuitFormatError(f"{where}: unknown gate kind {kind!r}")


def circuit_from_dict(obj: dict) -> Circuit:
    if not isinstance(obj, dict):
        raise CircuitFormatError("circuit document must be a JSON object")
    raw_layers = obj.get("layers")
    if not isinstance(raw_layers, list):
        raise CircuitFormatError("circuit needs a 'layers' array")
    layers = []
    for li, raw in enumerate(raw_layers, start=1):
        gates = raw.get("gates") if isinstance(raw, dict) else None
        if not isinstance(gates, list):
            raise CircuitFormatError(f"layer {li}: needs a 'gates' array")
        parsed = tuple(
            _gate_from_dict(g, f"layer {li}, gate {gi}")
            for gi, g in enumerate(gates, start=1)
        )
        layers.append(Layer(parsed))
    try:
        return Circuit(obj.get("n"), tuple(layers))
    except ValueError as exc:
        raise CircuitFormatError(str(exc)) from None
