"""Exact phased Pauli-string algebra on non-negative integer sites.

A string is two Python-integer rows and a phase. Bit ``s`` of ``x`` marks
site ``s`` as X or Y, bit ``s`` of ``z`` marks it as Z or Y: the symplectic
rows of Aaronson–Gottesman (quant-ph/0406196), the layout of the tableau,
``_gf2`` and ``jw``. A product XORs the rows and takes its phase from
``_kernels.int_product_phase``. A phase is a plain ``int``, the exponent k
of i**k, reduced mod 4 when the string is built: exact, never a float, and
the same exponent ``jw`` and the tableau kernels carry.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from ._kernels import int_product_phase, set_bits

LETTERS = ("X", "Y", "Z")
# a site's letter, indexed by its x bit plus twice its z bit
_LETTER_OF_BITS = (None, "X", "Z", "Y")

_PHASE_STR = {0: "", 1: "i·", 2: "-", 3: "-i·"}
_PHASE_COMPLEX = {0: 1 + 0j, 1: 1j, 2: -1 + 0j, 3: -1j}


@dataclass(frozen=True)
class PauliString:
    """Phased product of single-site Pauli letters on non-negative sites.

    ``x`` and ``z`` are the letters' integer rows, ``phase`` the exponent of
    the power of i in front, taken mod 4. Equality and hashing compare these
    three fields. ``support``, the (site, letter) pairs sorted by site, is
    derived from the rows on first use.
    """

    x: int = 0
    z: int = 0
    phase: int = 0

    def __post_init__(self):
        object.__setattr__(self, "phase", self.phase % 4)

    @staticmethod
    def from_dict(letters: Mapping[int, str], phase: int = 0) -> "PauliString":
        items = sorted((operator.index(s), letter) for s, letter in letters.items())
        x = z = 0
        for site, letter in items:
            if letter not in LETTERS:
                raise ValueError(f"unknown Pauli letter {letter!r} at site {site}")
            if site < 0:
                raise ValueError(f"site {site} is negative; sites are non-negative")
            x |= (letter != "Z") << site
            z |= (letter != "X") << site
        out = PauliString(x, z, phase)
        out.__dict__["support"] = tuple(items)  # spares deriving it again
        return out

    @staticmethod
    def identity() -> "PauliString":
        return PauliString()

    @staticmethod
    def single(site: int, letter: str, phase: int = 0) -> "PauliString":
        return PauliString.from_dict({site: letter}, phase)

    @cached_property
    def support(self) -> tuple[tuple[int, str], ...]:
        return tuple((s, self.letter_at(s)) for s in set_bits(self.x | self.z))

    def letters(self) -> dict[int, str]:
        return dict(self.support)

    @property
    def sites(self) -> tuple[int, ...]:
        return tuple(set_bits(self.x | self.z))

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def letter_at(self, site: int) -> str | None:
        return _LETTER_OF_BITS[(self.x >> site & 1) | (self.z >> site & 1) << 1]

    def __mul__(self, other: "PauliString") -> "PauliString":
        x1, z1, x2, z2 = self.x, self.z, other.x, other.z
        phase = self.phase + other.phase + int_product_phase(x1, z1, x2, z2)
        return PauliString(x1 ^ x2, z1 ^ z2, phase)

    def commutes_with(self, other: "PauliString") -> bool:
        """True iff the two strings clash (differ, neither being I) on an
        even number of sites."""
        return not ((self.x & other.z) ^ (self.z & other.x)).bit_count() & 1

    @property
    def is_hermitian(self) -> bool:
        return not self.phase & 1

    def negate(self) -> "PauliString":
        return PauliString(self.x, self.z, self.phase + 2)

    def dagger(self) -> "PauliString":
        # A bare letter string is Hermitian; only the phase conjugates.
        return PauliString(self.x, self.z, -self.phase)

    def __str__(self) -> str:
        # read from the rows, site by site: rendering does not build (and
        # cache) ``support``
        x, z = self.x, self.z
        sites = x | z
        if not sites:
            return _PHASE_STR[self.phase] + "1"
        tokens = []
        while sites:
            low = sites & -sites
            sites ^= low
            letter = _LETTER_OF_BITS[bool(x & low) + 2 * bool(z & low)]
            tokens.append(f"{letter}{low.bit_length() - 1}")
        return _PHASE_STR[self.phase] + " ".join(tokens)

    @staticmethod
    def from_str(text: str) -> "PauliString":
        """Parse the rendering produced by ``str()``, e.g. ``"i·Z9 Y10 X12"``."""
        text = text.strip()
        exponent = 0
        for prefix, k in (("-i·", 3), ("i·", 1), ("-", 2)):
            if text.startswith(prefix):
                exponent, text = k, text[len(prefix):]
                break
        if text == "1":
            return PauliString(phase=exponent)
        letters: dict[int, str] = {}
        for token in text.split():
            m = re.fullmatch(r"([XYZ])(\d+)", token)
            if m is None:
                raise ValueError(f"bad Pauli token {token!r}")
            letters[int(m.group(2))] = m.group(1)
        return PauliString.from_dict(letters, exponent)


def product(ops: Iterable[PauliString]) -> PauliString:
    out = PauliString.identity()
    for op in ops:
        out = out * op
    return out
