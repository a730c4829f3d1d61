"""Observable container, norm certificates, and sparse state overlaps."""

import json
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paulipath import Hamiltonian, PauliWord, SparseDensity, observables
from paulipath.observables import (
    ObservableFormatError,
    _norm_symmetry,
    _roundoff_margin,
    hamiltonian_from_dict,
    norm_bound,
    pauli_sum_matrix,
    state_from_dict,
)
from paulipath.pauli import commutes

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
    assert h.coeff(PauliWord.identity(2)) == h.identity_coeff


def test_coeff_rejects_size_mismatch():
    h = _h(("XI", 1.0))
    with pytest.raises(ValueError):
        h.coeff(PauliWord.from_string("X"))
    with pytest.raises(ValueError, match="^term on 1 qubits, Hamiltonian has 2$"):
        Hamiltonian(2, [(PauliWord.from_string("X"), 1.0)])
    rho = SparseDensity.computational_basis(1)
    with pytest.raises(ValueError, match="^word on 2 qubits, state has 1$"):
        rho.overlap(PauliWord.from_string("XI"))


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


@given(pauli_sums())
@example(_h(("XY", -1.25)))  # one word: the norm is the 1-norm, the cap binds
@example(_h(("ZZI", 1.0), ("IZZ", 1.0), ("XII", 0.5), ("IXI", 0.5), ("IIX", 0.5)))
# subnormal coefficients: the relative margin terms underflow to 0
@example(_h(("XI", 5e-324), ("ZI", 5e-324)))
@settings(max_examples=80, deadline=None)
def test_norm_bound_is_an_upper_bound_within_its_margin(h):
    # the reference never goes through pauli_sum_matrix: the kron-built
    # complex matrix of the traceless part
    dense = dense_hamiltonian(Hamiltonian(h.n, h.terms()))
    reference = float(max(abs(np.linalg.eigvalsh(dense))))
    value, l1 = norm_bound(h).value, h.coefficient_l1()
    # the 1-norm bounds the norm by the triangle inequality; where the cap
    # binds, the reference can exceed it by its own roundoff
    assert value >= min(reference, l1)
    assert value <= l1
    # the computed max|eigenvalue| lies within one margin of the norm, so the
    # bound lies within two of it
    assert value <= reference + 2 * _roundoff_margin(h, _norm_symmetry(h))


@given(pauli_sums())
@example(_h(("YY", 0.5), ("XZ", -1.0), ("II", 0.25)))
@example(_h(("YZ", 0.5), ("XX", 1.0)))
@settings(max_examples=80, deadline=None)
def test_pauli_sum_matrix_is_real_iff_every_word_has_even_y_count(h):
    matrix = pauli_sum_matrix(h.n, h.terms(), h.identity_coeff)
    real = all(str(word).count("Y") % 2 == 0 for word, _ in h.terms())
    assert matrix.dtype == (np.float64 if real else np.complex128)
    np.testing.assert_allclose(matrix, dense_hamiltonian(h), rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "pairs, dtype",
    [
        # ansatz-style ZZ + X, plus a YY term, which is real too
        ((("ZZI", 1.0), ("IZZ", 1.0), ("XII", 0.5), ("IXI", 0.5), ("YYI", 0.3)), np.float64),
        ((("ZZI", 1.0), ("XII", 0.5), ("IYI", 0.5)), np.complex128),
    ],
)
def test_exact_norm_bound_solves_a_real_matrix_when_h_is_real(pairs, dtype, monkeypatch):
    # both cases commute with a word with x != 0 (XXX, IIX), so the solver
    # sees two blocks of half the size, each of the case's dtype
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def recording(matrix):
        seen.append((matrix.dtype, matrix.shape))
        return eigvalsh(matrix)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    norm_bound(_h(*pairs))
    assert seen == [(dtype, (4, 4))] * 2


@st.composite
def _symmetric_sums(draw, max_n: int = 5):
    """A random Hamiltonian, as in `pauli_sums`, whose every word commutes
    with a planted word S with x != 0; returns (H, S)."""
    n = draw(st.integers(1, max_n))
    masks = st.integers(0, 2**n - 1)
    s = PauliWord(n, draw(st.integers(1, 2**n - 1)), draw(masks))
    word = st.builds(PauliWord, st.just(n), masks, masks).filter(lambda w: commutes(w, s))
    words = draw(st.lists(word, min_size=1, max_size=4))
    coeffs = st.floats(-2, 2, allow_nan=False)
    terms = draw(st.lists(st.tuples(st.sampled_from(words), coeffs), min_size=1, max_size=8))
    return Hamiltonian(n, terms + [(PauliWord.identity(n), draw(coeffs))]), s


@given(_symmetric_sums())
@example((_h(("ZZI", 1.0), ("IZZ", 1.0), ("XII", 0.5), ("IXI", 0.5), ("IIX", 0.5)),
          PauliWord.from_string("XXX")))
@example((_h(("ZZI", 1.0), ("XII", 0.5), ("IYI", 0.5)), PauliWord.from_string("IIY")))
@example((_h(("ZI", 1.0), ("XI", -0.5), ("YY", 0.25)), PauliWord.from_string("IY")))  # odd Y only
@settings(max_examples=150, deadline=None)
def test_norm_bound_on_symmetry_blocks_is_an_upper_bound_within_its_margin(case):
    h, s = case
    dense = dense_hamiltonian(Hamiltonian(h.n, h.terms()))
    spectrum = np.linalg.eigvalsh(dense)
    reference = float(max(abs(spectrum)))
    value, l1 = norm_bound(h).value, h.coefficient_l1()
    assert value >= min(reference, l1)
    assert value <= l1
    assert value <= reference + 2 * _roundoff_margin(h, _norm_symmetry(h))
    # the search finds a symmetry unless H is real and S's Y count is odd
    real = all(str(word).count("Y") % 2 == 0 for word, _ in h.terms())
    if not real or str(s).count("Y") % 2 == 0:
        assert _norm_symmetry(h) is not None
    # the planted S and the one found both split H's spectrum in two, and
    # each block is H folded by S: B[i, j] = H[r_i, r_j] + sign s(r_j)
    # H[r_i, r_j ^ x_S] over the states r with S's lowest x bit p clear,
    # s(r) = i^{|x_S & z_S|} (-1)^{|r & z_S|}
    for sym in {s, _norm_symmetry(h)} - {None}:
        blocks = [pauli_sum_matrix(h.n, h.terms(), block=(sym, sign)) for sign in (1, -1)]
        halves = [np.linalg.eigvalsh(b) for b in blocks]
        np.testing.assert_allclose(np.sort(np.concatenate(halves)), spectrum, rtol=0, atol=1e-12)
        p = (sym.x & -sym.x).bit_length() - 1
        i = np.arange(1 << (h.n - 1))
        r = ((i >> p) << (p + 1)) | (i & ((1 << p) - 1))
        phase = [1, 1j, -1, -1j][(sym.x & sym.z).bit_count() % 4]
        s_r = phase * np.where(np.bitwise_count(r & sym.z) & 1, -1, 1)
        for sign, b in zip((1, -1), blocks):
            folded = dense[np.ix_(r, r)] + sign * s_r * dense[np.ix_(r, r ^ sym.x)]
            np.testing.assert_allclose(b, folded, rtol=0, atol=1e-12 * max(1.0, l1))


@given(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=15))
@example([2.3, 2.3, 0.1])
@settings(max_examples=200, deadline=None)
def test_coefficient_l1_is_the_exact_sum_rounded_up(coeffs):
    h = Hamiltonian(4, [(PauliWord(4, 0, k + 1), c) for k, c in enumerate(coeffs)])
    exact = sum(Fraction(abs(c)) for c in coeffs)
    l1 = h.coefficient_l1()
    assert Fraction(l1) >= exact
    assert Fraction(math.nextafter(l1, -math.inf)) < exact


def test_norm_bounds_of_a_commuting_sum_cover_its_exact_1_norm():
    # ||H|| equals the sum of |c| here, which rounds to 4.699999999999999
    h = _h(("ZII", 2.3), ("IZI", 2.3), ("IIZ", 0.1))
    exact = Fraction(2.3) * 2 + Fraction(0.1)
    assert Fraction(norm_bound(h).value) >= exact
    assert Fraction(norm_bound(h, exact_threshold=0).value) >= exact


def test_norm_bound_falls_back_to_l1():
    h = _h(("XI", 1.5), ("ZZ", -1.5))
    nb = norm_bound(h, exact_threshold=1)
    assert nb.kind == "coefficient-1-norm"
    assert nb.value == 3.0
    assert nb.value >= norm_bound(h).value  # fallback is always an upper bound


@pytest.mark.parametrize("threshold", [True, -1, "x"])
def test_norm_bound_refuses_a_threshold_that_is_not_a_count(threshold):
    h = _h(("XI", 1.5), ("ZZ", -1.5))
    message = f"exact_threshold must be a non-negative integer, got {threshold!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        norm_bound(h, threshold)


def test_density_constructor_warnings():
    with pytest.warns(UserWarning, match="not Hermitian"):
        SparseDensity(1, [(0, 0, 0.7), (1, 1, 0.3), (0, 1, 0.3)])
    with pytest.warns(UserWarning, match="trace is 0.7"):
        SparseDensity(1, [(0, 0, 0.7)])


def test_density_basis_indices():
    # numpy ints are ints; the range is the state's own check, by entry
    rho = SparseDensity(1, [(np.int64(1), np.uint8(1), 1.0)])
    assert rho.entries() == [(1, 1, 1.0)]
    # stored as Python ints, so masks wider than the numpy type still work
    rho = SparseDensity(9, [(np.uint8(1), np.uint8(1), 1.0)])
    assert [type(i) for i in rho.entries()[0][:2]] == [int, int]
    assert rho.overlap_masks(0, 0b100000001) == -1.0
    with pytest.raises(ValueError, match=r"^entry 2: basis index outside 0\.\.1$"):
        SparseDensity(1, [(0, 0, 0.5), (2, 2, 0.5)])


def test_density_entry_cap(monkeypatch):
    monkeypatch.setattr(observables, "ENTRY_CAP", 2)
    with pytest.raises(ValueError, match="exceed the cap"):
        SparseDensity(1, [(0, 0, 0.5), (1, 1, 0.5), (0, 1, 0.1)])


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


def test_overlap_imaginary_check_scales_with_the_entries():
    # summation roundoff in an overlap grows with the entries it adds; a
    # state scaled by 1e5 keeps its overlaps, scaled, and raises nothing
    rng = np.random.default_rng(0)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    dense = a @ a.conj().T
    dense /= np.trace(dense).real
    entries = [(k, b, dense[k, b]) for k in range(8) for b in range(8)]
    rho = SparseDensity(3, entries)
    with pytest.warns(UserWarning, match="trace"):
        scaled = SparseDensity(3, [(k, b, 1e5 * v) for k, b, v in entries])
    for x in range(8):
        for z in range(8):
            expected = 1e5 * rho.overlap_masks(x, z)
            assert scaled.overlap_masks(x, z) == pytest.approx(expected, rel=1e-12)


def _scalar_overlap(rho, x, z):
    """Tr(word * rho) by the one-word rule: the group's entries summed in
    stored order from 0j, then times i^{#Y}."""
    acc = 0j
    for ket, bra, value in rho.entries():
        if ket ^ bra == x:
            acc += -value if (ket & z).bit_count() & 1 else value
    return (acc * (1, 1j, -1, -1j)[(x & z).bit_count() % 4]).real


def _random_state(n, keep, seed):
    """A random Hermitian state on n qubits, each off-diagonal pair kept
    with probability `keep`, so that its flip groups hold different
    numbers of entries with non-trivial phases."""
    import warnings

    rng = np.random.default_rng(seed)
    d = 2**n
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    dense = a @ a.conj().T
    dense /= np.trace(dense).real
    kept = np.triu(rng.random((d, d)) < keep)
    kept |= kept.T
    entries = [(int(k), int(b), dense[k, b]) for k, b in zip(*np.nonzero(kept))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a thinned state's trace moves
        return SparseDensity(n, entries), SparseDensity(
            n + 62, [(k << 62, b << 62, v) for k, b, v in entries]
        )


@pytest.mark.parametrize("n, keep", [(3, 1.0), (4, 1.0), (4, 0.5)])
def test_overlaps_equal_the_one_word_rule_bit_for_bit(n, keep):
    """The array rule sums every word's group in stored order, a j-th
    entry of all groups at once: on every word, in shuffled order with
    repeats, it equals the one-word rule and `overlap_masks` bit for bit,
    and moved onto the top qubits of n + 62, where masks are Python ints,
    it gives the same values."""
    rho, wide = _random_state(n, keep, seed=n + int(10 * keep))
    rng = np.random.default_rng(1)
    d = 2**n
    words = rng.permutation(np.concatenate([np.arange(d * d), rng.integers(0, d * d, 40)]))
    x, z = words // d, words % d
    sizes = Counter(ket ^ bra for ket, bra, _ in rho.entries()).values()
    assert (len(set(sizes)) > 1) == (keep < 1.0)
    want = [_scalar_overlap(rho, int(wx), int(wz)).hex() for wx, wz in zip(x, z)]
    assert [v.hex() for v in rho.overlaps(x, z).tolist()] == want
    one = [rho.overlap_masks(int(wx), int(wz)).hex() for wx, wz in zip(x, z)]
    assert one == want
    moved = [np.array([int(w) << 62 for w in masks], dtype=object) for masks in (x, z)]
    assert [v.hex() for v in wide.overlaps(*moved).tolist()] == want


def test_overlaps_refuse_an_imaginary_part_as_overlap_masks_does():
    """A state whose entries are turned by a phase after Hermitization has
    overlaps e^{0.3i} Tr(word * rho); both rules refuse the first such word
    with the same message."""
    rho, _ = _random_state(3, 1.0, seed=2)
    rho._values = rho._values * np.exp(0.3j)
    x, z = np.array([0, 5, 3]), np.array([0, 1, 6])
    with pytest.raises(ValueError) as one:
        rho.overlap_masks(0, 0)
    with pytest.raises(ValueError) as batch:
        rho.overlaps(x, z)
    assert re.fullmatch(
        r"overlap has imaginary part \S+; state entries are inconsistent", str(one.value)
    )
    assert str(batch.value) == str(one.value)


def test_hamiltonian_json_round_trip():
    # the identity word goes to identity_coeff, the rest sort by letters
    doc = json.loads(
        """{"n": 2, "terms": [{"pauli": "ZZ", "coeff": -1.5},
                              {"pauli": "II", "coeff": 0.3},
                              {"pauli": "XI", "coeff": 1.5}]}"""
    )
    h = _h(("XI", 1.5), ("ZZ", -1.5), ("II", 0.3))
    back = hamiltonian_from_dict(doc)
    assert back.terms() == h.terms()
    assert back.identity_coeff == h.identity_coeff


def test_state_json_round_trip():
    doc = json.loads(
        """{"n": 2, "entries": [{"ket": "00", "bra": "00", "re": 0.5, "im": 0.0},
                                {"ket": "11", "bra": "11", "re": 0.5},
                                {"ket": "00", "bra": "11", "re": 0.25, "im": 0.1},
                                {"ket": "11", "bra": "00", "re": 0.25, "im": -0.1}]}"""
    )
    rho = SparseDensity(
        2, [(0, 0, 0.5), (3, 3, 0.5), (0, 3, 0.25 + 0.1j), (3, 0, 0.25 - 0.1j)]
    )
    assert sorted(state_from_dict(doc).entries()) == sorted(rho.entries())


def test_state_bit_string_orientation():
    # ket "10" means qubit 1 is |1>, qubit 2 is |0>, i.e. basis index 1
    doc = json.loads('{"n": 2, "entries": [{"ket": "10", "bra": "10", "re": 1.0, "im": 0.0}]}')
    assert state_from_dict(doc).entries() == [(1, 1, 1.0 + 0j)]


@pytest.mark.parametrize(
    "loader,obj,match",
    [
        (hamiltonian_from_dict, {"terms": []}, "positive integer 'n'"),
        (hamiltonian_from_dict, {"n": 2, "terms": [{"pauli": "XQ", "coeff": 1}]}, "invalid Pauli"),
        (hamiltonian_from_dict, {"n": 2, "terms": [{"pauli": "X", "coeff": 1}]}, "length 2"),
        (state_from_dict, {"n": 1, "entries": [{"ket": "0", "bra": "0"}]}, "'re'"),
        (state_from_dict, {"n": 1, "entries": [{"ket": "2", "bra": "0", "re": 1}]}, "bit string"),
        (state_from_dict, {"n": 1}, "entries"),
        (hamiltonian_from_dict, [], "^Hamiltonian document must be a JSON object$"),
        (state_from_dict, "0", "^state document must be a JSON object$"),
        (hamiltonian_from_dict, {"n": 1}, "^Hamiltonian needs a 'terms' array$"),
        (hamiltonian_from_dict, {"n": 1, "terms": [5]}, "^term 1: must be an object$"),
        (state_from_dict, {"n": 1, "entries": [[0, 0, 1]]}, "^entry 1: must be an object$"),
    ],
)
def test_format_errors(loader, obj, match):
    with pytest.raises(ObservableFormatError, match=match):
        loader(obj)
