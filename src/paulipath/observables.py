"""Observables and initial states for mean-value estimation.

Hamiltonians are real linear combinations of unnormalized Pauli words,
stored both as a sorted term list and as a dict keyed by the word's (x, z)
masks, so coefficient lookup is one dict access.  The identity component
is split off into `identity_coeff`; `coeff` relates to traces by
Tr(H w) = coeff(w) * 2^n.

Initial states are sparse density matrices: lists of |ket><bra| entries
over computational basis states.  Bit strings follow the same convention
as Pauli strings, leftmost character = qubit 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .pauli import _PHASE_VALUES, PauliWord

HERMITIZE_WARN = 1e-9
TRACE_TOL = 1e-9
IMAG_TOL = 1e-12
DEFAULT_ENTRY_CAP = 1_000_000
DEFAULT_EXACT_NORM_QUBITS = 12


class Hamiltonian:
    """Pauli-term observable with O(1) coefficient lookup.

    Duplicate words are merged by coefficient addition at build time and
    exact-zero sums are dropped.  `terms()` iterates non-identity terms in
    order of their letter strings (I < X < Y < Z, qubit 1 first), which
    fixes a canonical term order for enumeration and reporting.
    """

    def __init__(self, n: int, terms: Iterable[tuple[PauliWord, float]]) -> None:
        if n < 1:
            raise ValueError(f"qubit count must be positive, got {n}")
        self.n = n
        self.identity_coeff = 0.0
        merged: dict[tuple[int, int], float] = {}
        for word, coeff in terms:
            if word.n != n:
                raise ValueError(f"term on {word.n} qubits, Hamiltonian has {n}")
            coeff = float(coeff)
            if word.is_identity:
                self.identity_coeff += coeff
                continue
            key = (word.x, word.z)
            merged[key] = merged.get(key, 0.0) + coeff
        self._coeffs = {key: c for key, c in merged.items() if c != 0.0}
        # "IXYZ" is also ASCII order, so sorting letter strings sorts by letter
        self._terms = sorted(
            ((PauliWord(n, x, z), c) for (x, z), c in self._coeffs.items()),
            key=lambda term: str(term[0]),
        )
        self._norm_bounds: dict[bool, NormBound] = {}
        self._matrix: np.ndarray | None = None  # dense H, built by the oracle

    def coeff(self, word: PauliWord) -> float:
        """Coefficient of a word; 0.0 when absent."""
        if word.n != self.n:
            raise ValueError(f"word on {word.n} qubits, Hamiltonian has {self.n}")
        if word.is_identity:
            return self.identity_coeff
        return self._coeffs.get((word.x, word.z), 0.0)

    def terms(self) -> list[tuple[PauliWord, float]]:
        """Non-identity terms in letter-string order."""
        return list(self._terms)

    @property
    def term_count(self) -> int:
        return len(self._terms)

    def coefficient_l1(self) -> float:
        """Sum of |coeff| over non-identity terms."""
        return sum(abs(c) for _, c in self._terms)


def pauli_sum_matrix(
    n: int, terms: Iterable[tuple[PauliWord, float]], identity: float = 0.0
) -> np.ndarray:
    """Dense matrix of identity * 1 + sum of coeff * word, O(2^n) per term:
    a word sends basis state b (bit q-1 = qubit q, as in `PauliWord`) to
    b XOR x with the factor i^{|x & z|} (-1)^{|b & z|}."""
    basis = np.arange(1 << n)
    matrix = np.diag(np.full(basis.size, complex(identity)))
    for word, coeff in terms:
        value = coeff * _PHASE_VALUES[(word.x & word.z).bit_count() % 4]
        odd = np.bitwise_count(basis & word.z) & 1
        matrix[basis ^ word.x, basis] += np.where(odd, -value, value)
    return matrix


@dataclass(frozen=True, slots=True)
class NormBound:
    """An upper bound on the spectral norm of the traceless part."""

    value: float
    kind: str  # "exact-dense" | "coefficient-1-norm"


def norm_bound(
    h: Hamiltonian, exact_threshold: int = DEFAULT_EXACT_NORM_QUBITS
) -> NormBound:
    """Spectral-norm bound for the non-identity part of H.

    Exact dense eigenvalue computation up to `exact_threshold` qubits, the
    coefficient 1-norm beyond that.  The identity offset never enters: it
    shifts every eigenvalue equally and cancels from truncation error.
    Cached on the immutable `h`, one entry per branch.  The 1-norm bounds
    every matrix entry and eigenvalue, so it is the overflow check: its
    square must be finite, because the MSE bounds square the norm bound.
    """
    exact = h.n <= exact_threshold
    if exact in h._norm_bounds:
        return h._norm_bounds[exact]
    l1 = h.coefficient_l1()
    if not np.isfinite(l1 * l1):
        raise ValueError(
            f"Hamiltonian coefficients overflow: the square of their 1-norm {l1}"
            " is not finite"
        )
    if h.term_count == 0:
        bound = NormBound(0.0, "exact-dense")
    elif exact:
        eigs = np.linalg.eigvalsh(pauli_sum_matrix(h.n, h.terms()))
        bound = NormBound(float(np.max(np.abs(eigs))), "exact-dense")
    else:
        bound = NormBound(l1, "coefficient-1-norm")
    h._norm_bounds[exact] = bound
    return bound


class SparseDensity:
    """Sparse density matrix sum_k v_k |a_k><b_k| over basis bit strings.

    Entries are Hermitized on construction, rho <- (rho + rho^dag)/2; a
    warning fires when that moves any entry by more than 1e-9, and when
    the trace strays from 1 by more than 1e-9.  Entries are indexed by the
    flip mask a XOR b so that Pauli-word overlaps only touch the entries
    that can contribute.
    """

    def __init__(
        self,
        n: int,
        entries: Iterable[tuple[int, int, complex]],
        entry_cap: int = DEFAULT_ENTRY_CAP,
    ) -> None:
        if n < 1:
            raise ValueError(f"qubit count must be positive, got {n}")
        self.n = n
        limit = 1 << n
        raw: dict[tuple[int, int], complex] = {}
        for ket, bra, value in entries:
            if not 0 <= ket < limit or not 0 <= bra < limit:
                raise ValueError(f"basis index outside 0..{limit - 1}")
            raw[(ket, bra)] = raw.get((ket, bra), 0j) + complex(value)
        if len(raw) > entry_cap:
            raise ValueError(f"{len(raw)} entries exceed the cap of {entry_cap}")
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
            warnings.warn(
                f"state was not Hermitian: largest adjustment {adjustment:.3e}",
                stacklevel=2,
            )
        self._entries = [
            (ket, bra, value)
            for (ket, bra), value in symmetrized.items()
            if value != 0
        ]
        # group by flip mask for O(matching entries) word overlaps
        self._by_flip: dict[int, list[tuple[int, complex]]] = {}
        for ket, bra, value in self._entries:
            self._by_flip.setdefault(ket ^ bra, []).append((ket, value))
        tr = self.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            warnings.warn(f"state trace is {tr!r}, expected 1", stacklevel=2)

    @classmethod
    def computational_basis(cls, n: int, bits: int = 0) -> SparseDensity:
        """|bits><bits| with the all-zeros default."""
        return cls(n, [(bits, bits, 1.0 + 0j)])

    def entries(self) -> list[tuple[int, int, complex]]:
        return list(self._entries)

    def trace(self) -> float:
        return sum(v.real for k, b, v in self._entries if k == b)

    def flip_masks(self) -> frozenset[int]:
        return frozenset(self._by_flip)

    def overlap_masks(self, x: int, z: int) -> float:
        """Tr(word * rho) for a word given as raw (x, z) masks.

        Only entries with ket XOR bra equal to the word's x mask can
        contribute; each contributes v * i^{#Y} * (-1)^{popcount(ket & z)}.
        The total is asserted real within 1e-12.
        """
        group = self._by_flip.get(x)
        if not group:
            return 0.0
        acc = 0j
        for ket, value in group:
            if (ket & z).bit_count() & 1:
                acc -= value
            else:
                acc += value
        acc *= _PHASE_VALUES[(x & z).bit_count() % 4]
        if abs(acc.imag) > IMAG_TOL:
            raise ValueError(
                f"overlap has imaginary part {acc.imag!r};"
                " state entries are inconsistent"
            )
        return acc.real

    def overlap(self, word: PauliWord) -> float:
        """Tr(word * rho), asserted real within 1e-12."""
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


def hamiltonian_from_dict(obj: dict) -> Hamiltonian:
    if not isinstance(obj, dict):
        raise ObservableFormatError("Hamiltonian document must be a JSON object")
    n = obj.get("n")
    if not isinstance(n, int) or n < 1:
        raise ObservableFormatError("Hamiltonian needs a positive integer 'n'")
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
        if "coeff" not in entry:
            raise ObservableFormatError(f"{where}: needs a 'coeff' number")
        try:
            word = PauliWord.from_string(pauli)
            coeff = float(entry["coeff"])
            if not np.isfinite(coeff):
                raise ValueError(f"coeff must be finite, got {coeff}")
        except (ValueError, TypeError) as exc:
            raise ObservableFormatError(f"{where}: {exc}") from None
        terms.append((word, coeff))
    return Hamiltonian(n, terms)


def hamiltonian_to_dict(h: Hamiltonian) -> dict:
    terms = [
        {"pauli": str(word), "coeff": coeff} for word, coeff in h.terms()
    ]
    if h.identity_coeff != 0.0:
        terms.insert(0, {"pauli": "I" * h.n, "coeff": h.identity_coeff})
    return {"n": h.n, "terms": terms}


def _bits_from_string(text: str, n: int, where: str) -> int:
    if not isinstance(text, str) or len(text) != n or set(text) - {"0", "1"}:
        raise ObservableFormatError(
            f"{where}: needs a length-{n} bit string of 0s and 1s"
        )
    # leftmost character is qubit 1, i.e. bit 0
    return int(text[::-1], 2)


def state_from_dict(obj: dict, entry_cap: int = DEFAULT_ENTRY_CAP) -> SparseDensity:
    if not isinstance(obj, dict):
        raise ObservableFormatError("state document must be a JSON object")
    n = obj.get("n")
    if not isinstance(n, int) or n < 1:
        raise ObservableFormatError("state needs a positive integer 'n'")
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
        if "re" not in entry:
            raise ObservableFormatError(f"{where}: needs a numeric 're'")
        try:
            value = complex(float(entry["re"]), float(entry.get("im", 0.0)))
            if not np.isfinite(value):
                raise ValueError(f"'re' and 'im' must be finite, got {value}")
        except (ValueError, TypeError) as exc:
            raise ObservableFormatError(f"{where}: {exc}") from None
        entries.append((ket, bra, value))
    return SparseDensity(n, entries, entry_cap=entry_cap)


def state_to_dict(rho: SparseDensity) -> dict:
    def bit_string(bits: int) -> str:
        return "".join("1" if (bits >> i) & 1 else "0" for i in range(rho.n))

    entries = [
        {"ket": bit_string(ket), "bra": bit_string(bra), "re": v.real, "im": v.imag}
        for ket, bra, v in sorted(rho.entries(), key=lambda e: (e[0], e[1]))
    ]
    return {"n": rho.n, "entries": entries}
