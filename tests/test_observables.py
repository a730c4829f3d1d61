"""Observable container, norm certificates, and sparse state overlaps."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paulipath import Hamiltonian, PauliWord, SparseDensity
from paulipath.observables import (
    ObservableFormatError,
    hamiltonian_from_dict,
    hamiltonian_to_dict,
    norm_bound,
    state_from_dict,
    state_to_dict,
)

from conftest import dense_hamiltonian, dense_state, dense_word, pauli_sums


def _h(*pairs):
    n = len(pairs[0][0])
    return Hamiltonian(n, [(PauliWord.from_string(s), c) for s, c in pairs])


def test_terms_merge_and_identity_split():
    h = Hamiltonian(
        2,
        [
            (PauliWord.from_string("XZ"), 0.25),  # order decided at qubit 2
            (PauliWord.from_string("XI"), 1.0),
            (PauliWord.from_string("XI"), 0.5),
            (PauliWord.from_string("ZZ"), -1.5),
            (PauliWord.identity(2), 0.3),
            (PauliWord.from_string("YY"), 0.0),  # exact zero dropped
        ],
    )
    assert [(str(w), c) for w, c in h.terms()] == [
        ("XI", 1.5),
        ("XZ", 0.25),
        ("ZZ", -1.5),
    ]
    assert h.identity_coeff == 0.3
    assert h.term_count == 3
    assert h.coefficient_l1() == 3.25
    assert h.coeff(PauliWord.from_string("XI")) == 1.5
    assert h.coeff(PauliWord.from_string("YY")) == 0.0
    assert h.coeff(PauliWord.from_string("XY")) == 0.0


def test_coeff_rejects_size_mismatch():
    h = _h(("XI", 1.0))
    with pytest.raises(ValueError):
        h.coeff(PauliWord.from_string("X"))


@given(pauli_sums())
@example(_h(("XI", 1.5), ("ZZ", -1.5), ("II", 0.3)))
@settings(max_examples=80, deadline=None)
def test_norm_bound_exact_matches_dense_traceless(h):
    nb = norm_bound(h)
    assert nb.kind == "exact-dense"
    dense = dense_hamiltonian(h) - h.identity_coeff * np.eye(2**h.n)
    expected = max(abs(np.linalg.eigvalsh(dense)))
    assert nb.value == pytest.approx(expected, abs=1e-12)
    # identity offsets never count toward the certificate
    assert nb.value == pytest.approx(norm_bound(Hamiltonian(h.n, h.terms())).value)
    # the bound is cached on the instance
    assert norm_bound(h) is nb


def test_norm_bound_falls_back_to_l1():
    h = _h(("XI", 1.5), ("ZZ", -1.5))
    nb = norm_bound(h, exact_threshold=1)
    assert nb.kind == "coefficient-1-norm"
    assert nb.value == 3.0
    assert nb.value >= norm_bound(h).value  # fallback is always an upper bound


def test_density_constructor_warnings():
    with pytest.warns(UserWarning, match="not Hermitian"):
        SparseDensity(1, [(0, 0, 0.7), (1, 1, 0.3), (0, 1, 0.3)])
    with pytest.warns(UserWarning, match="trace is 0.7"):
        SparseDensity(1, [(0, 0, 0.7)])


def test_density_entry_cap():
    with pytest.raises(ValueError, match="exceed the cap"):
        SparseDensity(1, [(0, 0, 0.5), (1, 1, 0.5), (0, 1, 0.1)], entry_cap=2)


def test_known_overlaps():
    rho = SparseDensity(
        1, [(0, 0, 0.5), (1, 1, 0.5), (0, 1, 0.25 + 0.1j), (1, 0, 0.25 - 0.1j)]
    )
    assert rho.trace() == pytest.approx(1.0)
    assert rho.overlap(PauliWord.from_string("I")) == pytest.approx(1.0)
    assert rho.overlap(PauliWord.from_string("Z")) == pytest.approx(0.0)
    assert rho.overlap(PauliWord.from_string("X")) == pytest.approx(0.5)
    assert rho.overlap(PauliWord.from_string("Y")) == pytest.approx(-0.2)


@st.composite
def _density_cases(draw):
    n = draw(st.integers(1, 3))
    dim = 2**n
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    entries = []
    for ket, bra in pairs:
        re = draw(st.floats(-1, 1, allow_nan=False))
        im = 0.0 if ket == bra else draw(st.floats(-1, 1, allow_nan=False))
        entries.append((ket, bra, complex(re, im)))
        if ket != bra:
            entries.append((bra, ket, complex(re, -im)))
    word = PauliWord(
        n, draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
    )
    return n, entries, word


@given(_density_cases())
@settings(max_examples=120, deadline=None)
def test_overlap_matches_dense_trace(case):
    n, entries, word = case
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # random entries rarely have unit trace
        rho = SparseDensity(n, entries)
    expected = np.trace(dense_word(word) @ dense_state(rho))
    assert abs(expected.imag) < 1e-12
    assert rho.overlap(word) == pytest.approx(expected.real, abs=1e-12)


def test_hamiltonian_json_round_trip():
    h = _h(("XI", 1.5), ("ZZ", -1.5), ("II", 0.3))
    back = hamiltonian_from_dict(hamiltonian_to_dict(h))
    assert back.terms() == h.terms()
    assert back.identity_coeff == h.identity_coeff


def test_state_json_round_trip():
    rho = SparseDensity(
        2, [(0, 0, 0.5), (3, 3, 0.5), (0, 3, 0.25 + 0.1j), (3, 0, 0.25 - 0.1j)]
    )
    assert sorted(state_from_dict(state_to_dict(rho)).entries()) == sorted(rho.entries())


def test_state_bit_string_orientation():
    # ket "10" means qubit 1 is |1>, qubit 2 is |0>, i.e. basis index 1
    doc = state_to_dict(SparseDensity.computational_basis(2, 1))
    assert doc["entries"] == [{"ket": "10", "bra": "10", "re": 1.0, "im": 0.0}]


@pytest.mark.parametrize(
    "loader,obj,match",
    [
        (hamiltonian_from_dict, {"terms": []}, "positive integer 'n'"),
        (hamiltonian_from_dict, {"n": 2, "terms": [{"pauli": "XQ", "coeff": 1}]}, "invalid Pauli"),
        (hamiltonian_from_dict, {"n": 2, "terms": [{"pauli": "X", "coeff": 1}]}, "length 2"),
        (state_from_dict, {"n": 1, "entries": [{"ket": "0", "bra": "0"}]}, "'re'"),
        (state_from_dict, {"n": 1, "entries": [{"ket": "2", "bra": "0", "re": 1}]}, "bit string"),
        (state_from_dict, {"n": 1}, "entries"),
    ],
)
def test_format_errors(loader, obj, match):
    with pytest.raises(ObservableFormatError, match=match):
        loader(obj)
