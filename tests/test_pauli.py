"""Pauli word algebra against an independent dense implementation."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paulipath import Layer, RotationGate
from paulipath.engine import layer_predecessors
from paulipath.observables import pauli_sum_matrix
from paulipath.pauli import (
    LETTERS,
    PauliWord,
    commutes,
    symmetry_word,
)

from conftest import dense_word


def test_from_string_orientation():
    # leftmost character is qubit 1
    w = PauliWord.from_string("XIZ")
    assert w.n == 3
    assert w.letter(1) == "X"
    assert w.letter(2) == "I"
    assert w.letter(3) == "Z"
    assert str(w) == "XIZ"
    assert w.weight == 2
    assert w.support() == (1, 3)


def test_from_map_matches_from_string():
    assert PauliWord.from_map(4, {2: "Y", 4: "X"}) == PauliWord.from_string("IYIX")
    assert PauliWord.from_map(2, {}) == PauliWord.identity(2)
    with pytest.raises(ValueError):
        PauliWord.from_map(2, {3: "X"})
    with pytest.raises(ValueError):
        PauliWord.from_map(2, {1: "Q"})


def test_identity_predicates():
    assert PauliWord.identity(3).is_identity
    assert PauliWord.identity(3).weight == 0
    assert not PauliWord.from_string("IIX").is_identity


def test_restrict_keeps_sorted_support_order():
    w = PauliWord.from_string("XIZY")
    assert str(w.restrict({1, 3})) == "XZ"
    assert str(w.restrict({4, 1})) == "XY"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: PauliWord(0, 0, 0), "word needs at least one qubit, got n=0"),
        (lambda: PauliWord(1, 2, 0), "bit masks exceed 1 qubits"),
        (lambda: PauliWord.from_string("XY").restrict([]), "cannot restrict to an empty index set"),
        (lambda: PauliWord.from_string("XY").restrict([1, 3]), "qubit 3 outside 1..2"),
        (lambda: PauliWord.from_string("XY").letter(0), "qubit 0 outside 1..2"),
        (
            lambda: commutes(PauliWord.from_string("X"), PauliWord.from_string("XY")),
            "word lengths differ: 1 vs 2",
        ),
    ],
)
def test_word_refusals_name_the_fault(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# single-letter products a b = i^k c, checked against dense 2x2 algebra
_SINGLE_PRODUCTS = {
    ("X", "Y"): (1, "Z"),
    ("Y", "X"): (3, "Z"),
    ("Y", "Z"): (1, "X"),
    ("Z", "Y"): (3, "X"),
    ("Z", "X"): (1, "Y"),
    ("X", "Z"): (3, "Y"),
    ("X", "X"): (0, "I"),
    ("Y", "Y"): (0, "I"),
    ("Z", "Z"): (0, "I"),
}


@pytest.mark.parametrize("pair,expected", sorted(_SINGLE_PRODUCTS.items()))
def test_single_letter_products(pair, expected):
    # the table against dense algebra, and against the path engine, which
    # applies the product's phase rule to its sin signs: through a rotation
    # about a, a successor b that anti-commutes with it has the sin
    # predecessor sigma c with sigma c = i a b = i^(k+1) c
    a, b = (PauliWord.from_string(s) for s in pair)
    exponent, letter = expected
    assert str(_product_word(a, b)) == letter
    dense = 1j**exponent * dense_word(PauliWord.from_string(letter))
    assert np.allclose(dense_word(a) @ dense_word(b), dense)
    layer = Layer((RotationGate(a, param="t"),))
    steps = [(word, sign) for word, sign, _ in layer_predecessors(layer, b)]
    if commutes(a, b):
        assert steps == [(b, 1)]
    else:
        sigma = round((1j ** (exponent + 1)).real)
        assert steps == [(b, 1), (_product_word(a, b), sigma)]


def _product_word(a: PauliWord, b: PauliWord) -> PauliWord:
    return PauliWord(a.n, a.x ^ b.x, a.z ^ b.z)


def _word_strategy(n):
    return st.builds(
        PauliWord,
        st.just(n),
        st.integers(0, 2**n - 1),
        st.integers(0, 2**n - 1),
    )


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(_word_strategy(n), _word_strategy(n))))
@settings(max_examples=150, deadline=None)
def test_commutes_matches_dense(pair):
    a, b = pair
    ma, mb = dense_word(a), dense_word(b)
    dense_commutes = np.allclose(ma @ mb, mb @ ma)
    assert commutes(a, b) == dense_commutes


@pytest.mark.parametrize("letter", list(LETTERS))
def test_basis_matrix_element(letter):
    word = PauliWord.from_string(letter)
    dense = dense_word(word)
    got = pauli_sum_matrix(1, [(word, 1.0)])
    for bra in (0, 1):
        for ket in (0, 1):
            assert got[bra, ket] == dense[bra, ket]


def _words(*letters):
    return [PauliWord.from_string(s) for s in letters]


@given(
    st.integers(1, 3).flatmap(lambda n: st.lists(_word_strategy(n), max_size=6)),
    st.booleans(),
)
@example(_words("ZZI", "IZZ", "XII", "IXI", "IIX"), True)  # the ansatz H: XXX
@example(_words("ZZI", "IXY", "IZX", "ZIZ"), True)  # only a pair sum has even Y
@example(_words("YXY", "YII", "XZY"), True)  # only a sum of three has even Y
@example(_words("XI", "ZI", "IX", "IZ"), False)  # the whole group: only I commutes
@settings(max_examples=300, deadline=None)
def test_symmetry_word_finds_one_exactly_when_one_exists(words, even_y):
    n = words[0].n if words else 1

    def wanted(s: PauliWord) -> bool:
        even = (s.x & s.z).bit_count() % 2 == 0
        return s.x != 0 and all(commutes(s, w) for w in words) and (even or not even_y)

    exists = any(wanted(PauliWord(n, x, z)) for x in range(2**n) for z in range(2**n))
    found = symmetry_word(n, words, even_y=even_y)
    assert (found is not None) == exists
    if found is not None:
        assert wanted(found)
