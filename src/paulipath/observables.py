"""Observables and initial states for mean-value estimation.

Hamiltonians are real linear combinations of unnormalized Pauli words,
whose terms are kept once, in `_terms`, a dict from word to coefficient in
letter-string order, so coefficient lookup is one dict access and the term
list is that dict's items.  The identity component
is split off into `identity_coeff`; `coeff` relates to traces by
Tr(H w) = coeff(w) * 2^n.

Initial states are sparse density matrices: lists of |ket><bra| entries
over computational basis states.  Bit strings follow the same convention
as Pauli strings, leftmost character = qubit 1.

The package's two output rules live here, in its lowest module that
needs them: every report is a `Document`, and every warning comes from
`warn_caller`, which names the first line outside the package.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
import warnings
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

from .pauli import _PHASE_VALUES, PauliWord, basis_index, finite_real, mask_dtype
from .pauli import non_negative_int, popcount, qubit_count, symmetry_word

HERMITIZE_WARN = 1e-9
TRACE_TOL = 1e-9
IMAG_TOL = 1e-12
ENTRY_CAP = 1_000_000
DEFAULT_EXACT_NORM_QUBITS = 12
# JSON keys that differ from their field names
_DOCUMENT_KEYS = {"lam": "lambda", "norm": "norm_bound"}
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep
# i^k for k = 0..3, indexed by |x & z| mod 4, the Y count of a word
_PHASES = np.array(_PHASE_VALUES)


class Document:
    """A report dataclass that serializes as a JSON document: its field
    names in field order, `lam` as "lambda" and `norm` as "norm_bound".  A
    nested report becomes its own document, a named tuple an object."""

    __slots__ = ()

    def to_dict(self) -> dict:
        document = {}
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, Document):
                value = value.to_dict()
            elif isinstance(value, tuple) and hasattr(value, "_asdict"):
                value = value._asdict()
            document[_DOCUMENT_KEYS.get(field.name, field.name)] = value
        return document


def warn_caller(message: str) -> None:
    """Warn naming the first line outside this package on the stack: the
    caller's line, however deep in the package the warning starts (Python
    3.10 and 3.11 have no `skip_file_prefixes`)."""
    frame, level = sys._getframe(), 1
    while frame.f_back is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


class Hamiltonian:
    """Pauli-term observable with O(1) coefficient lookup.

    Duplicate words are merged by coefficient addition at build time and
    exact-zero sums are dropped.  `terms()` iterates non-identity terms in
    order of their letter strings (I < X < Y < Z, qubit 1 first), which
    fixes a canonical term order for enumeration and reporting.  A
    coefficient that is not a finite real number is named by its position.
    The square of the coefficient 1-norm must be finite: the 1-norm bounds
    every matrix entry and eigenvalue, and the MSE bounds square the norm
    bound.
    """

    def __init__(self, n: int, terms: Iterable[tuple[PauliWord, float]]) -> None:
        qubit_count(n)
        self.n = n
        self.identity_coeff = 0.0
        merged: dict[PauliWord, float] = {}
        for ti, (word, coeff) in enumerate(terms, start=1):
            if word.n != n:
                raise ValueError(f"term on {word.n} qubits, Hamiltonian has {n}")
            coeff = finite_real(coeff, f"term {ti}: coeff")
            if word.is_identity:
                self.identity_coeff += coeff
                continue
            merged[word] = merged.get(word, 0.0) + coeff
        # "IXYZ" is also ASCII order, so sorting letter strings sorts by letter
        self._terms = dict(
            sorted(((w, c) for w, c in merged.items() if c != 0.0), key=lambda t: str(t[0]))
        )
        l1 = self.coefficient_l1()
        if not np.isfinite(l1 * l1):
            raise ValueError(
                f"Hamiltonian coefficients overflow: the square of their 1-norm {l1}"
                " is not finite"
            )
        self._norm_bounds: dict[bool, NormBound] = {}

    def coeff(self, word: PauliWord) -> float:
        """Coefficient of a word; 0.0 when absent."""
        if word.n != self.n:
            raise ValueError(f"word on {word.n} qubits, Hamiltonian has {self.n}")
        if word.is_identity:
            return self.identity_coeff
        return self._terms.get(word, 0.0)

    def terms(self) -> list[tuple[PauliWord, float]]:
        """Non-identity terms in letter-string order."""
        return list(self._terms.items())

    @property
    def term_count(self) -> int:
        return len(self._terms)

    def coefficient_l1(self) -> float:
        """Sum of |coeff| over non-identity terms, never below the exact
        sum: `fsum` rounds it to nearest, and one ulp up when it rounded down."""
        magnitudes = [abs(c) for c in self._terms.values()]
        try:
            total = math.fsum(magnitudes)
        except OverflowError:
            return math.inf
        if math.fsum([*magnitudes, -total]) > 0:
            total = math.nextafter(total, math.inf)
        return total


def _phased(terms: Iterable[tuple[PauliWord, float]], extra: PauliWord):
    """Terms as (word, coeff * i^{|x & z|}), and whether these words and
    `extra` all have an even Y count, which makes them real (and the
    values floats)."""
    phased = [(word, coeff, (word.x & word.z).bit_count() % 4) for word, coeff in terms]
    real = all(k % 2 == 0 for _, _, k in phased) and (extra.x & extra.z).bit_count() % 2 == 0
    return [
        (word, coeff * (_PHASE_VALUES[k].real if real else _PHASE_VALUES[k]))
        for word, coeff, k in phased
    ], real


def _signs(states: np.ndarray, z: int) -> np.ndarray:
    """(-1)^{|b & z|} as a parity per basis state b: 1 where it is -1."""
    return np.bitwise_count(states & z) & 1


def pauli_sum_matrix(
    n: int,
    terms: Iterable[tuple[PauliWord, float]],
    identity: float = 0.0,
    block: tuple[PauliWord, int] | None = None,
) -> np.ndarray:
    """Dense matrix of H = identity * 1 + sum of coeff * word, whole or on
    one eigenspace of a symmetry, O(2^n) per term.

    A word sends basis state b (bit q-1 = qubit q, as in `PauliWord`) to
    b XOR x with the factor i^{|x & z|} (-1)^{|b & z|}.  `block` is
    (S, sign): a word S with x_S != 0 that commutes with every word, and
    the eigenvalue (+1 or -1) of the eigenspace.  S sends r to r XOR x_S
    with a factor s(r), so with p the lowest set bit of x_S, the block over
    the states r with bit p clear (numbered with bit p removed) is
    B[r, r'] = H[r, r'] + sign s(r') H[r, r' XOR x_S].  The whole matrix is
    the case x_S = 0 with p = n: every state has bit p clear and the second
    term is absent.  Each word adds one entry per column, and the words of
    one x-mask pair {x, x XOR x_S} share theirs, summed in term order.
    Real (float64) when every word and S have an even number of Y letters,
    complex128 otherwise.  The two blocks together have the eigenvalues of H."""
    if block is None:
        symmetry, sign, p = PauliWord.identity(n), 1, n
    else:
        symmetry, sign = block
        p = (symmetry.x & -symmetry.x).bit_length() - 1
    terms, real = _phased(terms, symmetry)
    low = (1 << p) - 1
    index = np.arange(1 << n if block is None else 1 << (n - 1))
    cols = ((index & ~low) << 1) | (index & low)  # bit p clear
    flipped = sign * _PHASE_VALUES[(symmetry.x & symmetry.z).bit_count() % 4]
    flipped = flipped.real if real else flipped
    flipped_odd = _signs(cols, symmetry.z)
    matrix = np.diag(np.full(index.size, identity, dtype=float if real else complex))
    for word, value in terms:
        if (word.x >> p) & 1:
            src = cols ^ symmetry.x
            odd = _signs(src, word.z) ^ flipped_odd
            value = value * flipped
        else:
            src, odd = cols, _signs(cols, word.z)
        rows = src ^ word.x
        matrix[((rows >> 1) & ~low) | (rows & low), index] += np.where(odd, -value, value)
    return matrix


@dataclass(frozen=True, slots=True)
class NormBound(Document):
    """An upper bound on the spectral norm of the traceless part."""

    value: float
    kind: str  # "exact-dense" | "coefficient-1-norm"


def norm_bound(
    h: Hamiltonian, exact_threshold: int = DEFAULT_EXACT_NORM_QUBITS
) -> NormBound:
    """Spectral-norm bound for the non-identity part of H.

    Exact dense eigenvalue computation up to `exact_threshold` qubits, a
    non-negative integer, the coefficient 1-norm beyond that.  The identity
    offset never enters: it shifts every eigenvalue equally and cancels
    from truncation error.  Cached on the immutable `h`, one entry per
    branch.  `Hamiltonian` refuses coefficients whose 1-norm squared
    overflows, so neither branch can overflow.

    The exact branch returns min(1-norm, max|eigenvalue| + `_roundoff_margin`),
    the roundoff margin making it an upper bound despite floating point.
    When a word S with x != 0 commutes with every term (`_norm_symmetry`),
    the eigenvalues come from H's two half-size blocks, built one at a
    time by `pauli_sum_matrix`, and H is never built whole; otherwise from
    H.  A real H (every word with an even Y count) keeps real blocks, and
    `eigvalsh` runs the real symmetric solver.
    """
    exact = h.n <= non_negative_int(exact_threshold, "exact_threshold")
    if exact in h._norm_bounds:
        return h._norm_bounds[exact]
    if h.term_count == 0:
        bound = NormBound(0.0, "exact-dense")
    elif exact:
        terms, symmetry = h.terms(), _norm_symmetry(h)
        blocks = [None] if symmetry is None else [(symmetry, 1), (symmetry, -1)]
        top = max(
            float(np.max(np.abs(np.linalg.eigvalsh(pauli_sum_matrix(h.n, terms, block=b)))))
            for b in blocks
        )
        top = math.nextafter(top + _roundoff_margin(h, symmetry), math.inf)
        bound = NormBound(min(h.coefficient_l1(), top), "exact-dense")
    else:
        bound = NormBound(h.coefficient_l1(), "coefficient-1-norm")
    h._norm_bounds[exact] = bound
    return bound


def _norm_symmetry(h: Hamiltonian) -> PauliWord | None:
    """The word `norm_bound` splits H along, or None.  A real H takes only
    a symmetry with an even number of Y letters, which keeps its blocks
    real."""
    words = [word for word, _ in h.terms()]
    real = all((word.x & word.z).bit_count() % 2 == 0 for word in words)
    return symmetry_word(h.n, words, even_y=real)


def _roundoff_margin(h: Hamiltonian, symmetry: PauliWord | None) -> float:
    """How far the computed max|eigenvalue| of the traceless part of H can
    lie from its spectral norm, from the coefficients alone.

    Let d = 2^n and eps = 2^-52, and let x_S be the x mask of `symmetry`,
    the word `norm_bound` splits H along (x_S = 0 for None, when it builds
    H whole).  Two errors separate the computed eigenvalues from those of H:

    - Building the matrices.  `pauli_sum_matrix` returns B + E for each
      block B.  The words whose x masks form one pair {x, x XOR x_S}
      share their entries, one per row and column, and each entry is a
      recursive sum of exactly that pair group's signed coefficients (the
      phases ±1, ±i multiply exactly), off by at most (k - 1) eps times
      the sum of their |c| for k words.  A matrix with one entry per row
      and column has spectral norm equal to its largest entry, so
      ||E||_2 <= s, the sum of those entry bounds over the pair groups.
    - The eigensolver.  LAPACK returns the exact eigenvalues of B + E + F
      with ||F||_2 <= p(m) eps ||B + E||_2 for a block of size m, p(m) a
      modestly growing function of m; here p(m) = m <= d.  Distinct words
      are orthogonal, Tr(P Q) = d delta_PQ, so ||B||_2 <= ||H||_2 <=
      ||H||_F = sqrt(d sum c^2).

    By Weyl's inequality no eigenvalue moves by more than ||E + F||_2, so

        | max|computed eigenvalue| - ||H||_2 | <= s + d eps (||H||_F + s).

    Those terms are relative, and at subnormal scale they underflow to 0
    while each step still errs by up to an absolute ulp(0) = 2^-1074.  The
    margin returned adds d ulp(0), so that it is never 0 for a non-zero H;
    at normal scale the sum absorbs it.  The caller adds the margin and
    rounds up by one ulp, so its bound lies between ||H||_2 and ||H||_2
    plus twice the margin.  A margin that overflows leaves the bound to the
    1-norm cap.
    """
    eps = float(np.finfo(float).eps)
    x_s = 0 if symmetry is None else symmetry.x
    groups: dict[int, list[float]] = {}
    for word, coeff in h.terms():
        groups.setdefault(min(word.x, word.x ^ x_s), []).append(abs(coeff))
    s = eps * sum((len(g) - 1) * sum(g) for g in groups.values())
    d = 1 << h.n
    frobenius = math.sqrt(d) * math.hypot(*(c for _, c in h.terms()))
    return s + d * eps * (frobenius + s) + d * math.ulp(0.0)


def _entry_value(re, im, where: str) -> complex:
    """re + i im, each part a finite real number named at `where`."""
    return complex(finite_real(re, f"{where}: 're'"), finite_real(im, f"{where}: 'im'"))


class SparseDensity:
    """Sparse density matrix sum_k v_k |a_k><b_k| over basis bit strings.

    Each value v_k is a number whose parts 're' and 'im' are finite real
    numbers; a defective one is named by its position.  Entries are
    Hermitized on construction, rho <- (rho + rho^dag)/2; a warning fires
    when that moves any entry by more than 1e-9, and when the trace strays
    from 1 by more than 1e-9.  Entries are indexed by the flip mask a XOR b
    so that Pauli-word overlaps only touch the entries that can contribute.
    """

    def __init__(
        self,
        n: int,
        entries: Iterable[tuple[int, int, complex]],
    ) -> None:
        qubit_count(n)
        self.n = n
        limit = 1 << n
        raw: dict[tuple[int, int], complex] = {}
        for ei, (ket, bra, value) in enumerate(entries, start=1):
            ket = basis_index(ket, f"entry {ei}: ket")
            bra = basis_index(bra, f"entry {ei}: bra")
            if not 0 <= ket < limit or not 0 <= bra < limit:
                raise ValueError(f"entry {ei}: basis index outside 0..{limit - 1}")
            if isinstance(value, numbers.Complex) and not isinstance(value, numbers.Real):
                value = _entry_value(value.real, value.imag, f"entry {ei}")
            else:
                value = _entry_value(value, 0.0, f"entry {ei}")
            raw[(ket, bra)] = raw.get((ket, bra), 0j) + value
        if len(raw) > ENTRY_CAP:
            raise ValueError(f"{len(raw)} entries exceed the cap of {ENTRY_CAP}")
        adjustment = 0.0
        symmetrized: dict[tuple[int, int], complex] = {}
        for (ket, bra), value in raw.items():
            mirrored = raw.get((bra, ket), 0j).conjugate()
            fixed = (value + mirrored) / 2
            adjustment = max(adjustment, abs(fixed - value))
            symmetrized[(ket, bra)] = fixed
            if (bra, ket) not in raw:
                symmetrized[(bra, ket)] = fixed.conjugate()
        if adjustment > HERMITIZE_WARN:
            warn_caller(f"state was not Hermitian: largest adjustment {adjustment:.3e}")
        # the non-zero entries grouped by flip mask, for O(matching entries)
        # word overlaps, as arrays: the flip masks ascending, and per group
        # its entries (ket, value) in stored order, one run each, and the
        # imaginary-part tolerance of its overlaps
        groups: dict[int, list[tuple[int, complex]]] = {}
        for (ket, bra), value in symmetrized.items():
            if value != 0:
                groups.setdefault(ket ^ bra, []).append((ket, value))
        runs = [groups[flip] for flip in sorted(groups)]
        dtype = mask_dtype(n)
        self._flips = np.array(sorted(groups), dtype=dtype)
        self._sizes = np.array([len(run) for run in runs], dtype=np.intp)
        self._starts = np.cumsum(self._sizes) - self._sizes
        self._kets = np.array([ket for run in runs for ket, _ in run], dtype=dtype)
        self._values = np.array([v for run in runs for _, v in run], dtype=complex)
        self._imag_tol = np.array(
            [IMAG_TOL * max(1.0, sum(abs(v) for _, v in run)) for run in runs]
        )
        tr = self.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            warn_caller(f"state trace is {tr!r}, expected 1")

    @classmethod
    def computational_basis(cls, n: int, bits: int = 0) -> SparseDensity:
        """|bits><bits| with the all-zeros default."""
        return cls(n, [(bits, bits, 1.0 + 0j)])

    def entries(self) -> list[tuple[int, int, complex]]:
        """The non-zero entries (ket, bra, value), grouped by flip mask."""
        bras = self._kets ^ np.repeat(self._flips, self._sizes)
        return list(zip(self._kets.tolist(), bras.tolist(), self._values.tolist()))

    def trace(self) -> float:
        diagonal = self._sizes[0] if len(self._flips) and self._flips[0] == 0 else 0
        return sum(self._values[:diagonal].real.tolist())

    def flip_masks(self) -> frozenset[int]:
        return frozenset(self._flips.tolist())

    def overlaps(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Tr(word * rho) for each word of the (x, z) mask arrays (int64, or
        object beyond 63 qubits), as a float array.

        Only entries with ket XOR bra equal to the word's x mask can
        contribute; each contributes v * i^{#Y} * (-1)^{popcount(ket & z)}.
        Every word sums its group's entries in stored order, and the j-th
        entries of all groups are added to their words at once.  Each total
        must be real within 1e-12 * max(1, sum of |v| over the group), the
        scale of its roundoff; the sum is at most 1 for a normalized
        positive semidefinite state.
        """
        values = np.zeros(len(x))
        flips = self._flips
        if not len(flips):
            return values
        group = np.minimum(np.searchsorted(flips, x), len(flips) - 1)
        rows = np.flatnonzero(flips[group] == x)
        # the words on a group of the state, those of the largest groups
        # first, so that the words with a j-th entry are a prefix
        rows = rows[np.argsort(-self._sizes[group[rows]], kind="stable")]
        group = group[rows]
        minus_size = -self._sizes[group]
        start = self._starts[group]
        word_z = z[rows]
        acc = np.zeros(len(rows), dtype=complex)
        for j in range(-int(minus_size[0]) if len(rows) else 0):
            live = np.searchsorted(minus_size, -j)
            at = start[:live] + j
            value = self._values[at]
            odd = popcount(word_z[:live] & self._kets[at]) & 1
            acc[:live] += np.where(odd, -value, value)
        acc *= _PHASES[popcount(word_z & x[rows]) & 3]
        bad = np.abs(acc.imag) > self._imag_tol[group]
        if bad.any():
            raise ValueError(
                f"overlap has imaginary part {float(acc.imag[bad][0])!r};"
                " state entries are inconsistent"
            )
        values[rows] = acc.real
        return values

    def overlap_masks(self, x: int, z: int) -> float:
        """Tr(word * rho) for a word given as raw (x, z) masks, by
        `overlaps`."""
        dtype = mask_dtype(self.n)
        return float(self.overlaps(np.array([x], dtype=dtype), np.array([z], dtype=dtype))[0])

    def overlap(self, word: PauliWord) -> float:
        """Tr(word * rho), checked real as in `overlap_masks`."""
        if word.n != self.n:
            raise ValueError(f"word on {word.n} qubits, state has {self.n}")
        return self.overlap_masks(word.x, word.z)


# --- JSON wire formats ------------------------------------------------------
#
# Hamiltonian: {"n": 2, "terms": [{"pauli": "XZ", "coeff": 0.5}]}
# State:       {"n": 2, "entries": [{"ket": "01", "bra": "00",
#                                    "re": 0.1, "im": -0.2}]}


class ObservableFormatError(ValueError):
    pass


def _document_qubits(obj: dict, what: str) -> int:
    """The document's 'n', which the readers need to check string lengths."""
    try:
        return qubit_count(obj.get("n"))
    except ValueError as exc:
        raise ObservableFormatError(f"{what} needs a positive integer 'n': {exc}") from None


def hamiltonian_from_dict(obj: dict) -> Hamiltonian:
    if not isinstance(obj, dict):
        raise ObservableFormatError("Hamiltonian document must be a JSON object")
    n = _document_qubits(obj, "Hamiltonian")
    raw = obj.get("terms")
    if not isinstance(raw, list):
        raise ObservableFormatError("Hamiltonian needs a 'terms' array")
    terms = []
    for ti, entry in enumerate(raw, start=1):
        where = f"term {ti}"
        if not isinstance(entry, dict):
            raise ObservableFormatError(f"{where}: must be an object")
        pauli = entry.get("pauli")
        if not isinstance(pauli, str) or len(pauli) != n:
            raise ObservableFormatError(
                f"{where}: needs a 'pauli' string of length {n}"
            )
        try:
            terms.append((PauliWord.from_string(pauli), entry.get("coeff")))
        except ValueError as exc:
            raise ObservableFormatError(f"{where}: {exc}") from None
    try:
        return Hamiltonian(n, terms)
    except ValueError as exc:
        raise ObservableFormatError(str(exc)) from None


def _bits_from_string(text: str, n: int, where: str) -> int:
    if not isinstance(text, str) or len(text) != n or set(text) - {"0", "1"}:
        raise ObservableFormatError(
            f"{where}: needs a length-{n} bit string of 0s and 1s"
        )
    # leftmost character is qubit 1, i.e. bit 0
    return int(text[::-1], 2)


def state_from_dict(obj: dict) -> SparseDensity:
    """A state document; 're' and 'im' are checked here, as `SparseDensity`
    sees them only combined."""
    if not isinstance(obj, dict):
        raise ObservableFormatError("state document must be a JSON object")
    n = _document_qubits(obj, "state")
    raw = obj.get("entries")
    if not isinstance(raw, list):
        raise ObservableFormatError("state needs an 'entries' array")
    entries = []
    for ei, entry in enumerate(raw, start=1):
        where = f"entry {ei}"
        if not isinstance(entry, dict):
            raise ObservableFormatError(f"{where}: must be an object")
        ket = _bits_from_string(entry.get("ket"), n, where)
        bra = _bits_from_string(entry.get("bra"), n, where)
        try:
            value = _entry_value(entry.get("re"), entry.get("im", 0.0), where)
        except ValueError as exc:
            raise ObservableFormatError(str(exc)) from None
        entries.append((ket, bra, value))
    return SparseDensity(n, entries)
