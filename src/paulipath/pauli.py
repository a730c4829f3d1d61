"""Exact algebra of n-qubit Pauli words on packed bit masks.

A word is stored as two n-bit integers ``(x, z)``; qubit ``q`` (1-based,
leftmost character in the text form) owns bit ``q - 1``.  Per-qubit letter
encoding: I=(0,0), X=(1,0), Y=(1,1), Z=(0,1), with the matrix convention

    word = i^(x.z) * X^x * Z^z        (so Y = iXZ per qubit)

Products and commutation tests reduce to word-parallel bit operations: the
product of a and b is the word (x_a ^ x_b, z_a ^ z_b) times a phase i^k,
and `product_phase_exponent` gives k mod 4 exactly, never as a floating
complex number.  `product_phase_masks` is the same rule on raw masks, for
ints or for numpy arrays of masks (int64, or object beyond 63 qubits, the
`mask_dtype`); the path engine inlines it for its sin signs, reusing the
popcounts it already has.  Words are unnormalized: Tr(w * w) = 2^n.

GF(2) elimination on packed rows (`gf2_echelon`) serves the generation
certificate (`gf2_rank`) and the symmetry search (`symmetry_word`).

The value rules of every input number live here once: `finite_real` (with
its test `is_finite_real`), `qubit_count`, `qubit_index`, `basis_index`
and `non_negative_int`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import xor
from typing import Iterable

import numpy as np

LETTERS = "IXYZ"

# letter -> (x bit, z bit)
_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_LETTER = {bits: letter for letter, bits in _LETTER_BITS.items()}

_PHASE_VALUES = (1 + 0j, 1j, -1 + 0j, -1j)

_object_bit_count = np.frompyfunc(int.bit_count, 1, 1)


def is_finite_real(value) -> bool:
    """The finite-real rule: an int or a float (numpy scalars included)
    that is finite.  A bool or a str is not a number here."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def finite_real(value, field: str) -> float:
    """`value` as a float; ValueError naming `field` when it breaks the
    finite-real rule."""
    if not is_finite_real(value):
        raise ValueError(f"{field} must be a finite real number, got {value!r}")
    return float(value)


def qubit_count(n) -> int:
    """`n`, or ValueError when it breaks the qubit-count rule: an int of at
    least 1, not a bool."""
    if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 1:
        raise ValueError(f"qubit count must be positive (an int >= 1, not a bool), got {n!r}")
    return n


def qubit_index(qubit, field: str) -> None:
    """The qubit-index rule: an int, not a bool; ValueError naming `field`.
    The range 1..n is the circuit's to check."""
    if not isinstance(qubit, numbers.Integral) or isinstance(qubit, bool):
        raise ValueError(f"{field} must be a qubit index (an int, not a bool), got {qubit!r}")


def basis_index(index, field: str) -> int:
    """`index` as a Python int, or ValueError naming `field` when it breaks
    the basis-index rule: an int, not a bool.  The range 0..2^n-1 is the
    state's to check."""
    if not isinstance(index, numbers.Integral) or isinstance(index, bool):
        raise ValueError(f"{field} must be a basis index (an int, not a bool), got {index!r}")
    return int(index)


def non_negative_int(value, field: str) -> int:
    """`value` as a Python int, or ValueError naming `field` when it breaks
    the non-negative-integer rule: an int of at least 0, not a bool."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{field} must be a non-negative integer, got {value!r}")
    return int(value)


@dataclass(frozen=True, slots=True)
class PauliWord:
    """An unnormalized n-qubit Pauli word on (x, z) bit masks."""

    n: int
    x: int
    z: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"word needs at least one qubit, got n={self.n}")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError(f"bit masks exceed {self.n} qubits")

    @classmethod
    def identity(cls, n: int) -> PauliWord:
        return cls(n, 0, 0)

    @classmethod
    def from_string(cls, text: str) -> PauliWord:
        """Parse a letter string; leftmost letter acts on qubit 1."""
        if not text:
            raise ValueError("empty Pauli string")
        x = z = 0
        for pos, letter in enumerate(text):
            try:
                xb, zb = _LETTER_BITS[letter]
            except KeyError:
                raise ValueError(
                    f"invalid Pauli letter {letter!r} at position {pos + 1}"
                ) from None
            x |= xb << pos
            z |= zb << pos
        return cls(len(text), x, z)

    @classmethod
    def from_map(cls, n: int, letters: dict[int, str]) -> PauliWord:
        """Build a word from a {qubit: letter} map, identity elsewhere."""
        x = z = 0
        for qubit, letter in letters.items():
            if not 1 <= qubit <= n:
                raise ValueError(f"qubit {qubit} outside 1..{n}")
            try:
                xb, zb = _LETTER_BITS[letter]
            except KeyError:
                raise ValueError(f"invalid Pauli letter {letter!r}") from None
            x |= xb << (qubit - 1)
            z |= zb << (qubit - 1)
        return cls(n, x, z)

    def letter(self, qubit: int) -> str:
        """Letter on a 1-based qubit index."""
        if not 1 <= qubit <= self.n:
            raise ValueError(f"qubit {qubit} outside 1..{self.n}")
        bit = qubit - 1
        return _BITS_LETTER[((self.x >> bit) & 1, (self.z >> bit) & 1)]

    def __str__(self) -> str:
        return "".join(self.letter(q) for q in range(1, self.n + 1))

    @property
    def weight(self) -> int:
        """Number of non-identity letters."""
        return (self.x | self.z).bit_count()

    @property
    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def support(self) -> tuple[int, ...]:
        """1-based qubit indices carrying a non-identity letter."""
        occ = self.x | self.z
        return tuple(q for q in range(1, self.n + 1) if (occ >> (q - 1)) & 1)

    def restrict(self, qubits: Iterable[int]) -> PauliWord:
        """Sub-word over the given 1-based positions, ascending order."""
        picked = sorted(set(qubits))
        if not picked:
            raise ValueError("cannot restrict to an empty index set")
        x = z = 0
        for out_bit, qubit in enumerate(picked):
            if not 1 <= qubit <= self.n:
                raise ValueError(f"qubit {qubit} outside 1..{self.n}")
            bit = qubit - 1
            x |= ((self.x >> bit) & 1) << out_bit
            z |= ((self.z >> bit) & 1) << out_bit
        return PauliWord(len(picked), x, z)


def mask_dtype(n: int) -> type:
    """The dtype of mask arrays of n-qubit words: int64 holds the masks of
    up to 63 qubits; wider words stay Python ints in object arrays."""
    return np.int64 if n <= 63 else object


def popcount(masks):
    """Set bits of an int mask, or of every entry of a mask array: uint8
    counts for int64 masks, int64 counts for object arrays of ints (the
    masks of words beyond 63 qubits)."""
    if not isinstance(masks, np.ndarray):
        return masks.bit_count()
    if masks.dtype == object:
        return _object_bit_count(masks).astype(np.int64)
    return np.bitwise_count(masks)


def product_phase_masks(ax, az, bx, bz):
    """Power of i in a*b relative to the bare product word, mod 4, for words
    given as raw (x, z) masks: ints, or arrays of masks entry by entry.

    With the i^(x.z) X^x Z^z convention the per-qubit bookkeeping collapses
    to popcounts: exponent = x_a.z_a + x_b.z_b - x_c.z_c + 2 z_a.x_b mod 4,
    where c = a XOR b.  Array popcounts are uint8, whose wrap-around is a
    multiple of 4, so the result stays exact mod 4.
    """
    cx = ax ^ bx
    cz = az ^ bz
    exp = (
        popcount(ax & az)
        + popcount(bx & bz)
        - popcount(cx & cz)
        + 2 * popcount(az & bx)
    )
    return exp % 4


def product_phase_exponent(a: PauliWord, b: PauliWord) -> int:
    """Power of i in a*b relative to the bare product word."""
    return product_phase_masks(a.x, a.z, b.x, b.z)


def commutes(a: PauliWord, b: PauliWord) -> bool:
    """True when the symplectic form <a, b> = x_a.z_b + z_a.x_b is even."""
    if a.n != b.n:
        raise ValueError(f"word lengths differ: {a.n} vs {b.n}")
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2 == 0


def gf2_echelon(rows: Iterable[int]) -> dict[int, int]:
    """Echelon basis of the GF(2) span of integer rows, by leading bit."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            msb = row.bit_length() - 1
            if msb not in pivots:
                pivots[msb] = row
                break
            row ^= pivots[msb]
    return pivots


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank of a set of GF(2) row vectors given as integers."""
    return len(gf2_echelon(rows))


def symmetry_word(n: int, words: Iterable[PauliWord], even_y: bool = False) -> PauliWord | None:
    """A word S with x != 0 that commutes with every one of `words`, with
    an even number of Y letters if `even_y`; None when there is none.

    Those S are the null space of the words' swapped rows (z | x), found by
    eliminating [A^T | 1].  In an echelon basis of it in (x | z) order, any
    sum with an x-led vector has x != 0.  The Y parity q is quadratic,
    q(u + v) = q(u) + q(v) + <u, v>, so if a wanted S = c + u exists (c
    x-led), q(u) + <c, u> = q(c) already holds for u = 0, for one other
    basis vector or for a pair of them: sums of one to three basis vectors
    suffice.
    """
    width = 2 * n
    swapped = [(word.z << n) | word.x for word in words]
    columns = (
        (sum(((row >> j) & 1) << t for t, row in enumerate(swapped)) << width) | (1 << j)
        for j in range(width)
    )
    null = [row for msb, row in gf2_echelon(columns).items() if msb < width]
    basis = sorted(gf2_echelon(null).values(), reverse=True)
    for size in (1, 2, 3):
        for picked in combinations(basis, size):
            v = reduce(xor, picked)
            x, z = v >> n, v & ((1 << n) - 1)
            if x and not (even_y and (x & z).bit_count() % 2):
                return PauliWord(n, x, z)
    return None
