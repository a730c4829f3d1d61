"""Exact algebra of n-qubit Pauli words on packed bit masks.

A word is stored as two n-bit integers ``(x, z)``; qubit ``q`` (1-based,
leftmost character in the text form) owns bit ``q - 1``.  Per-qubit letter
encoding: I=(0,0), X=(1,0), Y=(1,1), Z=(0,1), with the matrix convention

    word = i^(x.z) * X^x * Z^z        (so Y = iXZ per qubit)

Products and commutation tests reduce to word-parallel bit operations.
Phases live in the exact four-element group {1, i, -1, -i}, represented as
a power of i, never as a floating complex number.  Words are unnormalized:
Tr(w * w) = 2^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

LETTERS = "IXYZ"

# letter -> (x bit, z bit)
_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_LETTER = {bits: letter for letter, bits in _LETTER_BITS.items()}

_PHASE_VALUES = (1 + 0j, 1j, -1 + 0j, -1j)


@dataclass(frozen=True, slots=True)
class Phase:
    """A power of i: value = i**exponent, exponent kept mod 4."""

    exponent: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "exponent", self.exponent % 4)

    def __mul__(self, other: Phase) -> Phase:
        return Phase(self.exponent + other.exponent)

    @property
    def value(self) -> complex:
        """Exact complex value; only ever one of 1, i, -1, -i."""
        return _PHASE_VALUES[self.exponent]

    @property
    def is_real(self) -> bool:
        return self.exponent % 2 == 0

    @property
    def real_sign(self) -> int:
        """+1 or -1 for a real phase; raises for an imaginary one."""
        if not self.is_real:
            raise ValueError(f"phase i^{self.exponent} is not real")
        return 1 if self.exponent == 0 else -1


PHASE_ONE = Phase(0)
PHASE_I = Phase(1)
PHASE_MINUS_ONE = Phase(2)
PHASE_MINUS_I = Phase(3)


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


@dataclass(frozen=True, slots=True)
class PhasedPauli:
    """A Pauli word together with an exact phase."""

    phase: Phase
    word: PauliWord

    def __mul__(self, other: PhasedPauli) -> PhasedPauli:
        prod = multiply(self.word, other.word)
        return PhasedPauli(self.phase * other.phase * prod.phase, prod.word)


def _check_same_n(a: PauliWord, b: PauliWord) -> None:
    if a.n != b.n:
        raise ValueError(f"word lengths differ: {a.n} vs {b.n}")


def product_phase_exponent(a: PauliWord, b: PauliWord) -> int:
    """Power of i in a*b relative to the bare product word.

    With the i^(x.z) X^x Z^z convention the per-qubit bookkeeping collapses
    to popcounts: exponent = x_a.z_a + x_b.z_b - x_c.z_c + 2 z_a.x_b mod 4,
    where c = a XOR b.
    """
    cx = a.x ^ b.x
    cz = a.z ^ b.z
    exp = (
        (a.x & a.z).bit_count()
        + (b.x & b.z).bit_count()
        - (cx & cz).bit_count()
        + 2 * (a.z & b.x).bit_count()
    )
    return exp % 4


def multiply(a: PauliWord, b: PauliWord) -> PhasedPauli:
    """Exact product a*b as (phase, word)."""
    _check_same_n(a, b)
    return PhasedPauli(
        Phase(product_phase_exponent(a, b)), PauliWord(a.n, a.x ^ b.x, a.z ^ b.z)
    )


def commutes(a: PauliWord, b: PauliWord) -> bool:
    """True when the symplectic form <a, b> = x_a.z_b + z_a.x_b is even."""
    _check_same_n(a, b)
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2 == 0


def basis_matrix_element(letter: str, bra: int, ket: int) -> complex:
    """Single-qubit element <bra| letter |ket>; bits must be 0 or 1."""
    if letter not in _LETTER_BITS:
        raise ValueError(f"invalid Pauli letter {letter!r}")
    if bra not in (0, 1) or ket not in (0, 1):
        raise ValueError(f"basis bits must be 0 or 1, got ({bra}, {ket})")
    x, z = _LETTER_BITS[letter]
    if bra != ket ^ x:
        return 0j
    return _PHASE_VALUES[x & z] * (-1) ** (ket & z)
