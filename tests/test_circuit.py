"""Circuit structure, the Clifford conjugation rule, and the generation check."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulipath import (
    CliffordGate,
    Circuit,
    Hamiltonian,
    Layer,
    PauliWord,
    RotationGate,
    SparseDensity,
)
from paulipath.circuit import (
    CircuitFormatError,
    circuit_from_dict,
    circuit_generation_certified,
    conjugate_masks,
    effected_words,
    generation_check,
    symplectic_vector,
)
from paulipath.pauli import gf2_rank

from conftest import dense_gate, dense_word


def test_gate_constructor_guards():
    with pytest.raises(ValueError, match="exactly one of param or angle"):
        RotationGate(PauliWord.from_string("X"), param="a", angle=1.0)
    with pytest.raises(ValueError, match="exactly one of param or angle"):
        RotationGate(PauliWord.from_string("X"))
    with pytest.raises(ValueError, match="non-identity"):
        RotationGate(PauliWord.identity(2), param="a")
    with pytest.raises(ValueError, match="distinct"):
        CliffordGate("CNOT", (1, 1))
    with pytest.raises(ValueError, match="1 qubit"):
        CliffordGate("H", (1, 2))
    with pytest.raises(ValueError, match="unknown Clifford"):
        CliffordGate("Q", (1,))


_X = PauliWord.from_string("X")
_COUNT = "qubit count must be positive (an int >= 1, not a bool)"
_REAL = "must be a finite real number"
_INDEX = "must be a qubit index (an int, not a bool)"
_BASIS = "must be a basis index (an int, not a bool)"


@pytest.mark.parametrize(
    "build, value, message",
    [
        *(
            (lambda v: RotationGate(_X, angle=v), v, f"angle {_REAL}")
            for v in (math.nan, math.inf, True, "0.3")
        ),
        *(
            (lambda v: CliffordGate("H", (v,)), v, f"qubit {_INDEX}")
            for v in (1.0, True)
        ),
        *(
            (lambda v: Hamiltonian(1, [(_X, 1.0), (_X, v)]), v, f"term 2: coeff {_REAL}")
            for v in (math.nan, True, "0.5")
        ),
        *(
            (lambda v: SparseDensity(1, [(0, 0, v)]), v, f"entry 1: 're' {_REAL}")
            for v in (math.nan, "1")
        ),
        (
            lambda v: SparseDensity(1, [(0, 0, complex(1.0, v))]),
            math.inf,
            f"entry 1: 'im' {_REAL}",
        ),
        *(
            (lambda v: SparseDensity(1, [(v, v, 1.0)]), v, f"entry 1: ket {_BASIS}")
            for v in (True, 1.0, "1")
        ),
        (lambda v: SparseDensity(1, [(0, 0, 0.5), (1, v, 0.5)]), False, f"entry 2: bra {_BASIS}"),
        (lambda v: Circuit(v, ()), True, _COUNT),
        (lambda v: Hamiltonian(v, []), True, _COUNT),
        (lambda v: SparseDensity(v, [(0, 0, 1.0)]), True, _COUNT),
    ],
)
def test_each_type_checks_its_own_numbers(build, value, message):
    # the type that holds a number refuses one that is not finite, real and
    # of the right kind, a bool or a numeric string included, and names it
    with pytest.raises(ValueError, match=f"^{re.escape(f'{message}, got {value!r}')}$"):
        build(value)


def test_layer_splits_gate_kinds():
    rot = RotationGate(PauliWord.from_string("XI"), param="a")
    cliff = CliffordGate("H", (2,))
    layer = Layer((cliff, rot))
    assert layer.rotations == (rot,)
    assert layer.cliffords == (cliff,)


def test_validate_reports_position():
    # a circuit is valid by construction: every defect is named, by layer
    # and gate, when it is built
    overlap = Layer((CliffordGate("CNOT", (1, 2)), CliffordGate("H", (1,))))
    outside = Layer((CliffordGate("H", (3,)),))
    with pytest.raises(ValueError) as info:
        Circuit(2, (overlap, outside))
    assert str(info.value) == (
        "layer 1, gate 2: support overlaps gate 1 at qubit 1;"
        " layer 2, gate 1: qubit 3 outside 1..2"
    )
    with pytest.raises(ValueError, match="qubit count must be positive"):
        Circuit(0, ())


def test_parameters_first_use_order():
    rx = lambda p: RotationGate(PauliWord.from_string("X"), param=p)
    c = Circuit(1, (Layer((rx("b"),)), Layer((rx("a"),)), Layer((rx("b"),))))
    assert c.parameters() == ("b", "a")
    assert c.depth == 3


# every 3-qubit word pulled back through each gate, Vdag P V, against dense
# conjugation; gates are embedded at a non-trivial position to exercise bit
# surgery
@pytest.mark.parametrize(
    "gate",
    [CliffordGate("H", (2,)), CliffordGate("S", (2,)),
     CliffordGate("CNOT", (2, 3)), CliffordGate("CNOT", (3, 1))],
    ids=lambda g: f"backward-{g.kind}{g.qubits}",
)
def test_conjugation_matches_dense(gate):
    n = 3
    u = dense_gate(gate, n, {})
    scalar = []
    for x in range(2**n):
        for z in range(2**n):
            word = PauliWord(n, x, z)
            sign, cx, cz = conjugate_masks(gate.kind, *gate.bits, x, z)
            scalar.append((sign, cx, cz))
            lhs = u.conj().T @ dense_word(word) @ u
            assert np.allclose(lhs, sign * dense_word(PauliWord(n, cx, cz)))
    # the same rule on arrays maps all 64 words at once, entry by entry
    xs, zs = np.divmod(np.arange(4**n, dtype=np.int64), 2**n)
    signs, axs, azs = conjugate_masks(gate.kind, *gate.bits, xs, zs)
    assert list(zip(signs.tolist(), axs.tolist(), azs.tolist())) == scalar


def test_effected_words_pull_back_through_cliffords():
    # H on qubit 1 maps the later Z generator back to X
    c = Circuit(
        2,
        (
            Layer((CliffordGate("H", (1,)),)),
            Layer((RotationGate(PauliWord.from_string("ZI"), param="a"),)),
        ),
    )
    assert [str(w) for w in effected_words(c)] == ["XI"]


def test_effected_words_skip_earlier_rotations():
    c = Circuit(
        1,
        (
            Layer((RotationGate(PauliWord.from_string("X"), param="a"),)),
            Layer((RotationGate(PauliWord.from_string("Z"), param="b"),)),
        ),
    )
    assert [str(w) for w in effected_words(c)] == ["X", "Z"]


def _subgroup_size(words: list[PauliWord]) -> int:
    """Size of the group generated under multiplication, phases ignored."""
    seen = {(w.x, w.z) for w in words}
    seen.add((0, 0))
    frontier = list(seen)
    while frontier:
        new = []
        for a in frontier:
            for b in list(seen):
                key = (a[0] ^ b[0], a[1] ^ b[1])
                if key not in seen:
                    seen.add(key)
                    new.append(key)
        frontier = new
    return len(seen)


@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, 2**n - 1), st.integers(0, 2**n - 1)),
            min_size=1,
            max_size=5,
        ).map(lambda pairs: [PauliWord(n, x, z) for x, z in pairs])
    )
)
@settings(max_examples=60, deadline=None)
def test_gf2_rank_counts_generated_subgroup(words):
    rank = gf2_rank([symplectic_vector(w) for w in words])
    assert _subgroup_size(words) == 2**rank


def test_generation_check_full_and_partial():
    full = [PauliWord.from_string(s) for s in ("XI", "ZI", "IX", "IZ")]
    assert generation_check(full)
    assert not generation_check(full[:3])
    assert not generation_check([PauliWord.from_string("ZI"), PauliWord.from_string("ZZ")])
    with pytest.raises(ValueError, match="^word lengths differ: 2 vs 1$"):
        generation_check([PauliWord.from_string("Z"), PauliWord.from_string("ZZ")])


def test_circuit_certification():
    certified = Circuit(
        1,
        (
            Layer((RotationGate(PauliWord.from_string("X"), param="a"),)),
            Layer((RotationGate(PauliWord.from_string("Z"), param="b"),)),
        ),
    )
    assert circuit_generation_certified(certified)
    only_z = Circuit(
        1, (Layer((RotationGate(PauliWord.from_string("Z"), param="a"),)),) * 2
    )
    assert not circuit_generation_certified(only_z)


def test_json_round_trip():
    # every gate kind of the wire format, as a literal document
    doc = json.loads(
        """{"n": 3, "layers": [
            {"gates": [{"kind": "rot", "pauli": "XZI", "param": "t0"},
                       {"kind": "H", "qubit": 3}]},
            {"gates": [{"kind": "CNOT", "control": 1, "target": 3}]},
            {"gates": [{"kind": "rot", "pauli": "IIY", "angle": 0.75}]}]}"""
    )
    c = Circuit(
        3,
        (
            Layer(
                (
                    RotationGate(PauliWord.from_string("XZI"), param="t0"),
                    CliffordGate("H", (3,)),
                )
            ),
            Layer((CliffordGate("CNOT", (1, 3)),)),
            Layer((RotationGate(PauliWord.from_string("IIY"), angle=0.75),)),
        ),
    )
    assert circuit_from_dict(doc) == c


@pytest.mark.parametrize(
    "obj,match",
    [
        ({"layers": []}, "n"),
        ({"n": 2, "layers": [{"nope": []}]}, "gates"),
        ({"n": 2, "layers": [{"gates": [{"kind": "wat"}]}]}, "wat"),
        ({"n": 2, "layers": [{"gates": [{"kind": "rot", "pauli": "XX"}]}]}, "param"),
        ({"n": 2, "layers": [{"gates": [{"kind": "H"}]}]}, "qubit"),
        ({"n": 2, "layers": [{"gates": [{"kind": "CNOT", "control": 1}]}]}, "target"),
        ({"n": 2, "layers": [{"gates": [5]}]}, "layer 1, gate 1: must be an object"),
        ([], "^circuit document must be a JSON object$"),
        ({"n": 2}, "^circuit needs a 'layers' array$"),
        (
            {"n": 2, "layers": [{"gates": [{"kind": "rot", "pauli": 5, "param": "a"}]}]},
            "^layer 1, gate 1: rot gate needs a 'pauli' string$",
        ),
        (
            {"n": 2, "layers": [{"gates": [{"kind": "rot", "pauli": "XX", "param": 3}]}]},
            "^layer 1, gate 1: param must be a str, got 3$",
        ),
        (
            {"n": 2, "layers": [{"gates": [{"kind": "rot", "pauli": "XYZ", "param": "a"}]}]},
            "^layer 1, gate 1: generator is on 3 qubits, circuit has 2$",
        ),
        (
            {"n": 2, "layers": [{"gates": [{"kind": "rot", "pauli": "", "param": "a"}]}]},
            "^layer 1, gate 1: empty Pauli string$",
        ),
    ],
)
def test_format_errors(obj, match):
    with pytest.raises(CircuitFormatError, match=match):
        circuit_from_dict(obj)
