"""Exact phased Pauli-string algebra over an arbitrary set of integer site ids.

Operators are stored sparsely: identity sites never appear in the support.
Phases live in the cyclic group {+1, +i, -1, -i} and are tracked exactly as
powers of i, never as floats.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping

LETTERS = ("X", "Y", "Z")

# Single-site products L1 * L2 -> (letter or None, power of i).
# Convention: X*Y = i Z, Y*Z = i X, Z*X = i Y (so Y = i X Z, X*Z = -i Y).
_PRODUCT = {
    ("X", "X"): (None, 0),
    ("Y", "Y"): (None, 0),
    ("Z", "Z"): (None, 0),
    ("X", "Y"): ("Z", 1),
    ("Y", "X"): ("Z", 3),
    ("Y", "Z"): ("X", 1),
    ("Z", "Y"): ("X", 3),
    ("Z", "X"): ("Y", 1),
    ("X", "Z"): ("Y", 3),
}

_PHASE_STR = {0: "", 1: "i·", 2: "-", 3: "-i·"}
_PHASE_COMPLEX = {0: 1 + 0j, 1: 1j, 2: -1 + 0j, 3: -1j}


@dataclass(frozen=True)
class Phase:
    """Element of {+1, +i, -1, -i}, stored as the exponent of i (mod 4)."""

    exponent: int = 0

    def __post_init__(self):
        object.__setattr__(self, "exponent", self.exponent % 4)

    def __mul__(self, other: "Phase") -> "Phase":
        return Phase(self.exponent + other.exponent)

    def inverse(self) -> "Phase":
        return Phase(-self.exponent)

    @property
    def value(self) -> complex:
        return _PHASE_COMPLEX[self.exponent]

    @property
    def is_real(self) -> bool:
        return self.exponent % 2 == 0

    def __str__(self) -> str:
        return {0: "+1", 1: "+i", 2: "-1", 3: "-i"}[self.exponent]


@dataclass(frozen=True)
class PauliString:
    """Phased product of single-site Pauli letters, sparse over site ids.

    ``support`` is stored canonically as a tuple of (site, letter) pairs
    sorted by site id, which makes equality and hashing deterministic.
    """

    support: tuple[tuple[int, str], ...] = ()
    phase: Phase = Phase(0)

    @staticmethod
    def from_dict(letters: Mapping[int, str], phase: int = 0) -> "PauliString":
        for site, letter in letters.items():
            if letter not in LETTERS:
                raise ValueError(f"unknown Pauli letter {letter!r} at site {site}")
        items = tuple(sorted(letters.items()))
        return PauliString(items, Phase(phase))

    @staticmethod
    def identity() -> "PauliString":
        return PauliString()

    @staticmethod
    def single(site: int, letter: str, phase: int = 0) -> "PauliString":
        return PauliString.from_dict({site: letter}, phase)

    def letters(self) -> dict[int, str]:
        return dict(self.support)

    @property
    def sites(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.support)

    @property
    def weight(self) -> int:
        return len(self.support)

    @staticmethod
    def from_bits(x: int, z: int, phase: int = 0) -> "PauliString":
        """Inverse of ``bits``: X where only ``x`` has a site's bit, Z where
        only ``z`` has it, Y where both have it."""
        support = []
        sites = x | z
        while sites:
            low = sites & -sites
            letter = "Z" if not x & low else "Y" if z & low else "X"
            support.append((low.bit_length() - 1, letter))
            sites ^= low
        return PauliString(tuple(support), Phase(phase))

    def bits(self) -> tuple[int, int]:
        """The (x, z) bit rows of the letters, bit ``s`` for site ``s``: x
        marks X and Y, z marks Z and Y. Sites must be non-negative."""
        x = z = 0
        for site, letter in self.support:
            if letter != "Z":
                x |= 1 << site
            if letter != "X":
                z |= 1 << site
        return x, z

    def letter_at(self, site: int) -> str | None:
        for s, letter in self.support:
            if s == site:
                return letter
        return None

    def __mul__(self, other: "PauliString") -> "PauliString":
        a, b = dict(self.support), dict(other.support)
        exponent = self.phase.exponent + other.phase.exponent
        out: dict[int, str] = {}
        for site in set(a) | set(b):
            la, lb = a.get(site), b.get(site)
            if la is None:
                out[site] = lb  # type: ignore[assignment]
            elif lb is None:
                out[site] = la
            else:
                letter, k = _PRODUCT[(la, lb)]
                exponent += k
                if letter is not None:
                    out[site] = letter
        return PauliString(tuple(sorted(out.items())), Phase(exponent))

    def commutes_with(self, other: "PauliString") -> bool:
        b = dict(other.support)
        clashes = 0
        for site, la in self.support:
            lb = b.get(site)
            if lb is not None and lb != la:
                clashes += 1
        return clashes % 2 == 0

    @property
    def is_hermitian(self) -> bool:
        return self.phase.is_real

    def negate(self) -> "PauliString":
        return PauliString(self.support, self.phase * Phase(2))

    def dagger(self) -> "PauliString":
        # A bare letter string is Hermitian; only the phase conjugates.
        return PauliString(self.support, self.phase.inverse())

    def __str__(self) -> str:
        if not self.support:
            return _PHASE_STR[self.phase.exponent] + "1"
        body = " ".join(f"{letter}{site}" for site, letter in self.support)
        return _PHASE_STR[self.phase.exponent] + body

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
            return PauliString((), Phase(exponent))
        letters: dict[int, str] = {}
        for token in text.split():
            m = re.fullmatch(r"([XYZ])(\d+)", token)
            if m is None:
                raise ValueError(f"bad Pauli token {token!r}")
            letters[int(m.group(2))] = m.group(1)
        return PauliString.from_dict(letters, exponent)


def multiply(p: PauliString, q: PauliString) -> PauliString:
    """Group product p·q with exact phase."""
    return p * q


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff pq = qp (parity of clashing non-identity letters)."""
    return p.commutes_with(q)


def product(ops: Iterable[PauliString]) -> PauliString:
    out = PauliString.identity()
    for op in ops:
        out = out * op
    return out
