"""Circuit structure, the Clifford conjugation rule, and the generation check."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulipath import CliffordGate, Circuit, Layer, PauliWord, RotationGate
from paulipath.circuit import (
    CircuitFormatError,
    circuit_from_dict,
    circuit_generation_certified,
    circuit_to_dict,
    conjugate_masks,
    effected_words,
    generation_check,
    gf2_rank,
    require_valid,
    symplectic_vector,
    validate,
)

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


def test_layer_splits_gate_kinds():
    rot = RotationGate(PauliWord.from_string("XI"), param="a")
    cliff = CliffordGate("H", (2,))
    layer = Layer((cliff, rot))
    assert layer.rotations == (rot,)
    assert layer.cliffords == (cliff,)


def test_validate_reports_position():
    c = Circuit(2, (Layer((CliffordGate("CNOT", (1, 2)), CliffordGate("H", (1,)))),))
    msgs = validate(c)
    assert msgs == ["layer 1, gate 2: support overlaps gate 1 at qubit 1"]
    c2 = Circuit(2, (Layer((CliffordGate("H", (3,)),)),))
    assert "qubit 3 outside 1..2" in validate(c2)[0]
    with pytest.raises(ValueError):
        require_valid(c)


def test_parameters_first_use_order():
    rx = lambda p: RotationGate(PauliWord.from_string("X"), param=p)
    c = Circuit(1, (Layer((rx("b"),)), Layer((rx("a"),)), Layer((rx("b"),))))
    assert c.parameters() == ("b", "a")
    assert c.rotation_count() == 3
    assert c.depth == 3


# every 3-qubit word, both directions, against dense conjugation;
# gates are embedded at a non-trivial position to exercise bit surgery
@pytest.mark.parametrize(
    "gate",
    [CliffordGate("H", (2,)), CliffordGate("S", (2,)),
     CliffordGate("CNOT", (2, 3)), CliffordGate("CNOT", (3, 1))],
    ids=lambda g: f"{g.kind}{g.qubits}",
)
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_conjugation_matches_dense(gate, direction):
    n = 3
    u = dense_gate(gate, n, {})
    backward = direction == "backward"
    scalar = []
    for x in range(2**n):
        for z in range(2**n):
            word = PauliWord(n, x, z)
            sign, cx, cz = conjugate_masks(gate.kind, *gate.bits, x, z, backward)
            scalar.append((sign, cx, cz))
            if direction == "forward":
                lhs = u @ dense_word(word) @ u.conj().T
            else:
                lhs = u.conj().T @ dense_word(word) @ u
            assert np.allclose(lhs, sign * dense_word(PauliWord(n, cx, cz)))
    # the same rule on arrays maps all 64 words at once, entry by entry
    xs, zs = np.divmod(np.arange(4**n, dtype=np.int64), 2**n)
    signs, axs, azs = conjugate_masks(gate.kind, *gate.bits, xs, zs, backward)
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
    assert circuit_from_dict(circuit_to_dict(c)) == c


@pytest.mark.parametrize(
    "obj,match",
    [
        ({"layers": []}, "n"),
        ({"n": 2, "layers": [{"nope": []}]}, "gates"),
        ({"n": 2, "layers": [{"gates": [{"kind": "wat"}]}]}, "wat"),
        ({"n": 2, "layers": [{"gates": [{"kind": "rot", "pauli": "XX"}]}]}, "param"),
        ({"n": 2, "layers": [{"gates": [{"kind": "H"}]}]}, "qubit"),
        ({"n": 2, "layers": [{"gates": [{"kind": "CNOT", "control": 1}]}]}, "target"),
    ],
)
def test_format_errors(obj, match):
    with pytest.raises(CircuitFormatError, match=match):
        circuit_from_dict(obj)


def test_self_inverse_tables():
    # H and CNOT are involutions, so both directions coincide on every input
    for gate in (CliffordGate("H", (1,)), CliffordGate("CNOT", (1, 2))):
        n = max(gate.qubits)
        for x, z in itertools.product(range(2**n), repeat=2):
            fwd = conjugate_masks(gate.kind, *gate.bits, x, z, False)
            bwd = conjugate_masks(gate.kind, *gate.bits, x, z, True)
            assert fwd == bwd
