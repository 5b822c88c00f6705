"""Generalized 2D Jordan-Wigner transformation over a snake-ordered lattice.

Every spin operator maps to a monomial in 2N Majorana modes (two per site,
kinds ``a`` and ``b``): with ``U_j`` the product of the string letters of all
path-predecessors of ``j``,

    X_j = U_j b_j        Z_j = U_j a_j        Y_j = i b_j a_j .

The string letter is Y by default. Boundary-substituted sites swap the roles:
an ``x`` substitution exchanges X and Y (string letter X, X_j = i a_j b_j), a
``z`` substitution exchanges Z and Y (string letter Z, Z_j = i a_j b_j). The
substituted maps keep the exact single-site Pauli algebra.

Phases are exact throughout. A monomial is a 2N-bit mask over the modes in
path order (bit ``2k`` is the ``a`` mode and bit ``2k+1`` the ``b`` mode at
path position ``k``) plus a power of i, its exponent a plain ``int`` mod 4
as on a ``PauliString``; its canonical product runs over the
set bits in increasing order. Multiplying two monomials XORs the masks and
adds one sign per transposition needed to sort the product, whose parity is a
prefix-parity count. ``U_j`` is the mask of all bits below ``2j``, so mapping
a spin operator takes prefix XORs of these masks.

The stabilizer reduction works on the same idea one level down: Pauli
strings and plaquettes as x/z integer bit rows, weights as popcounts. It
reads the lattice's plaquette operators (``TwistLattice.plaquette_ops``) and
checks a string against them through their columns
(``TwistLattice.face_columns``), as a tableau finds its anticommuting rows.
Its search is exact up to ``_MAX_EXHAUSTIVE`` candidate plaquettes and greedy
beyond; strings of equal weight are ordered by their rendered form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from . import _kernels
from .lattice import GeometryError, TwistLattice
from .pauli import _PHASE_STR, PauliString

# Up to this many box candidates the stabilizer reduction is exact.
_MAX_EXHAUSTIVE = 18
# Rows of one block of the exhaustive reduction walk: 2**12 = 4096 subsets.
_BLOCK_BITS = 12

# The string, b and a letters of a site, by the site's substitution. A letter
# of role 0 maps to a_j b_j, of role 1 to U_j b_j, of role 2 to U_j a_j.
_LETTERS = {None: "YXZ", "x": "XYZ", "z": "ZXY"}
_ROLES = {sub: {letter: role for role, letter in enumerate(letters)}
          for sub, letters in _LETTERS.items()}


class MajoranaMode(NamedTuple):
    site: int
    kind: str  # "a" or "b"

    def __str__(self) -> str:
        return f"{self.kind}{self.site}"


@dataclass(frozen=True)
class MajoranaMonomial:
    """Canonical ordered product of Majorana modes times a quartic phase.

    Bit ``2k`` (``2k+1``) of ``mask`` is the ``a`` (``b``) mode of the site
    at position ``k`` of ``order``, the path the monomial was built on;
    ``phase`` is the exponent of the power of i in front, taken mod 4.
    """

    mask: int
    phase: int
    order: tuple[int, ...] = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "phase", self.phase % 4)

    @property
    def factors(self) -> tuple[MajoranaMode, ...]:
        out = []
        mask = self.mask
        while mask:
            bit = (mask & -mask).bit_length() - 1
            out.append(MajoranaMode(self.order[bit >> 1], "ab"[bit & 1]))
            mask &= mask - 1
        return tuple(out)

    @property
    def weight(self) -> int:
        return self.mask.bit_count()

    def __mul__(self, other: "MajoranaMonomial") -> "MajoranaMonomial":
        """Product of two monomials on one path."""
        phase = self.phase + other.phase + 2 * _crossing_parity(self.mask, other.mask)
        return MajoranaMonomial(self.mask ^ other.mask, phase, self.order)

    def __str__(self) -> str:
        body = " ".join(str(m) for m in self.factors) if self.mask else "1"
        return _PHASE_STR[self.phase] + body


@dataclass(frozen=True)
class JWPath:
    """Snake ordering of the lattice sites plus boundary letter-swaps."""

    order: tuple[int, ...]  # order[k] = site at path position k
    substitutions: dict[int, str]  # site -> "x" | "z"

    def __post_init__(self):
        for site, sub in self.substitutions.items():
            if sub not in ("x", "z"):
                raise ValueError(f"unknown substitution {sub!r} at site {site}")

    @cached_property
    def positions(self) -> dict[int, int]:
        """Path position of each site: ``positions[order[k]] == k``."""
        return {site: k for k, site in enumerate(self.order)}

    def b_letter(self, site: int) -> str:
        return _LETTERS[self.substitutions.get(site)][1]

    def a_letter(self, site: int) -> str:
        return _LETTERS[self.substitutions.get(site)][2]

    @cached_property
    def _string_exponents(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per path position ``k``: the phase exponent of the string letter's
        image (mask ``0b11 << 2k``) and that of ``U_k`` (mask of all bits
        below ``2k``), both in canonical order. The string letter is i·a·b at
        a substituted site and i·b·a = -i·a·b elsewhere: exponent 1 or 3."""
        own, prefix = [], [0]
        for site in self.order:
            own.append(1 if site in self.substitutions else 3)
            prefix.append((prefix[-1] + own[-1]) % 4)
        return tuple(own), tuple(prefix)

    @cached_property
    def _string_bits(self) -> tuple[tuple[int, int], ...]:
        """Per path position ``k``: the (x, z) bit rows (``PauliString.x``
        and ``.z``) of the spin string ``U_k``, the string letters of
        positions below k."""
        subs = self.substitutions
        x = z = 0
        out = [(x, z)]
        for site in self.order:
            # the string letter is Y, or X at an "x" and Z at a "z" site
            sub = subs.get(site)
            if sub != "z":
                x |= 1 << site
            if sub != "x":
                z |= 1 << site
            out.append((x, z))
        return tuple(out)


def snake_order(width: int, height: int) -> tuple[int, ...]:
    order: list[int] = []
    for r in range(height):
        cols = range(width) if r % 2 == 0 else range(width - 1, -1, -1)
        order.extend(r * width + c for c in cols)
    return tuple(order)


def default_path(lat: TwistLattice, pair: int | None = None) -> JWPath:
    """Boustrophedon path; with ``pair`` given, adds the boundary letter-swaps
    at the two path-turn sites between that pair's twists so the pair's parity
    string avoids a residual two-letter tail at the turn. Raises ``KeyError``
    for a pair outside 0..n_pairs-1."""
    order = snake_order(lat.width, lat.height)
    substitutions: dict[int, str] = {}
    if pair is not None:
        lat.twist_pair(pair)
        seg = lat.segments[pair]
        r, w = seg.row, lat.width
        if r % 2 == 0:  # row r runs left->right, turn at the right boundary
            upper, lower = lat.site_id(r, w - 1), lat.site_id(r + 1, w - 1)
            substitutions[upper] = "x"
            substitutions[lower] = "z"
        else:  # row r runs right->left, turn at the left boundary
            upper, lower = lat.site_id(r, 0), lat.site_id(r + 1, 0)
            substitutions[upper] = "z"
            substitutions[lower] = "x"
    return JWPath(order, substitutions)


# -- monomial algebra ---------------------------------------------------------


def _crossing_parity(left: int, right: int) -> int:
    """Parity of the transpositions that sort the product ``left · right`` of
    two canonical monomials: the pairs of a ``left`` mode above a ``right``
    mode. Bit ``k`` of the prefix XOR below is the parity of ``left``'s bits
    above ``k``."""
    above = left >> 1
    shift = 1
    while shift < above.bit_length():
        above ^= above >> shift
        shift <<= 1
    return (above & right).bit_count() & 1


def canonicalize(
    factors: Iterable[MajoranaMode], phase_exponent: int, path: JWPath
) -> MajoranaMonomial:
    """Sort modes by (path position, kind), cancel squared modes, track sign."""
    pos = path.positions
    mask, exponent = 0, phase_exponent
    for m in factors:
        bit = 2 * pos[m.site] + (0 if m.kind == "a" else 1)
        # the new mode moves left past every held mode above it; a repeated
        # mode then meets its twin and squares to 1
        exponent += 2 * (mask >> (bit + 1)).bit_count()
        mask ^= 1 << bit
    return MajoranaMonomial(mask, exponent, path.order)


def pair_monomial(
    mode1: MajoranaMode, mode2: MajoranaMode, path: JWPath
) -> MajoranaMonomial:
    """Canonical form of the parity i * mode1 * mode2."""
    return canonicalize((mode1, mode2), 1, path)


# -- the transformation -------------------------------------------------------

def _letter_mask(j: int, role: int) -> int:
    """Mode mask of the image of a letter with ``role`` at path position j."""
    if role == 0:
        return 0b11 << 2 * j
    if role == 1:
        return ((1 << 2 * j) - 1) | (2 << 2 * j)
    return (2 << 2 * j) - 1


def jw_map(p: PauliString, path: JWPath) -> MajoranaMonomial:
    """Exact Majorana image of a Pauli string, in canonical form."""
    pos = path.positions
    for site in p.sites:
        if site not in pos:
            raise GeometryError(f"operator acts on site {site} not on the path")
    own_exp, prefix_exp = path._string_exponents

    mask, exponent = 0, p.phase
    for site, letter in sorted(p.support, key=lambda item: pos[item[0]]):
        j = pos[site]
        role = _ROLES[path.substitutions.get(site)][letter]
        image = _letter_mask(j, role)
        exponent += (own_exp[j] if role == 0 else prefix_exp[j]) \
            + 2 * _crossing_parity(mask, image)
        mask ^= image
    return MajoranaMonomial(mask, exponent, path.order)


def spin_form(monomial: MajoranaMonomial, path: JWPath) -> PauliString:
    """Inverse map: spin representation of a Majorana monomial.

    Mode ``m`` at position ``j`` is ``U_j`` times its own letter at its site;
    the modes' strings are multiplied on integer bit rows."""
    pos = path.positions
    x = z = 0
    exponent = monomial.phase
    for mode in monomial.factors:
        mx, mz = path._string_bits[pos[mode.site]]
        own = path.b_letter(mode.site) if mode.kind == "b" else path.a_letter(mode.site)
        mx |= (own != "Z") << mode.site
        mz |= (own != "X") << mode.site
        exponent += _kernels.int_product_phase(x, z, mx, mz)
        x, z = x ^ mx, z ^ mz
    return PauliString(x, z, exponent)


# -- mode bookkeeping ---------------------------------------------------------


@dataclass(frozen=True)
class ModeClassification:
    paired: frozenset[MajoranaMode]
    unpaired: frozenset[MajoranaMode]  # bulk modes absent from every plaquette
    boundary: frozenset[MajoranaMode]  # edge modes absent because of the boundary


def plaquette_images(
    lat: TwistLattice, path: JWPath
) -> dict[int, MajoranaMonomial]:
    return {k: jw_map(op, path) for k, op in enumerate(lat.plaquette_ops)}


def _used_modes(lat: TwistLattice, path: JWPath) -> int:
    """Mask of the modes that some plaquette image uses: the union of the
    images' masks, which needs neither their phases nor their order."""
    pos, subs = path.positions, path.substitutions
    used = 0
    for op in lat.plaquette_ops:
        mask = 0
        for site, letter in op.support:
            mask ^= _letter_mask(pos[site], _ROLES[subs.get(site)][letter])
        used |= mask
    return used


def classify_modes(lat: TwistLattice, path: JWPath) -> ModeClassification:
    """Partition all 2N modes by whether any plaquette image uses them."""
    used = _used_modes(lat, path)
    pos = path.positions
    paired, unpaired, boundary = set(), set(), set()
    for site in lat.sites:
        for bit, kind in enumerate("ab"):
            mode = MajoranaMode(site, kind)
            if used >> (2 * pos[site] + bit) & 1:
                paired.add(mode)
            elif lat.on_boundary(site):
                boundary.add(mode)
            else:
                unpaired.add(mode)
    return ModeClassification(frozenset(paired), frozenset(unpaired),
                              frozenset(boundary))


def twist_modes(lat: TwistLattice, path: JWPath) -> list[MajoranaMode]:
    """The unpaired bulk mode of each twist, in twist registry order."""
    used = _used_modes(lat, path)
    pos = path.positions
    out: list[MajoranaMode] = []
    for twist in lat.twists:
        site = twist.twist_site
        free = [] if lat.on_boundary(site) else [
            kind for bit, kind in enumerate("ab")
            if not used >> (2 * pos[site] + bit) & 1]
        if len(free) != 1:
            raise GeometryError(
                f"twist {twist.id} carries {len(free)} unpaired modes, expected 1"
            )
        out.append(MajoranaMode(site, free[0]))
    return out


def mode_parity_operator(
    lat: TwistLattice, path: JWPath, mode1: MajoranaMode, mode2: MajoranaMode
) -> PauliString:
    """Spin form of the pair parity i * mode1 * mode2."""
    return spin_form(pair_monomial(mode1, mode2, path), path)


def parity_operator(lat: TwistLattice, path: JWPath, pair: int) -> PauliString:
    """Spin form of the parity of one twist pair's two unpaired modes."""
    first, second = lat.twist_pair(pair)
    modes = twist_modes(lat, path)
    return mode_parity_operator(lat, path, modes[first.id], modes[second.id])


def bracket_parity(
    lat: TwistLattice, path: JWPath, pair: int,
    modes: list[MajoranaMode] | None = None,
) -> PauliString:
    """Edge-mode pair parity bracketing a segment's two rows.

    A charge loop encircling a twist pair equals the pair parity times this
    operator (times plaquettes): the snake path enters row r and leaves row
    r+1 on the same boundary column, and the two same-kind modes there absorb
    the disorder-string mismatch of the enclosed region. Pinning it at
    initialization makes the loop readout reproduce the pair parity.
    ``modes`` are the path's twist modes, derived here when not given.
    Raises ``KeyError`` for a pair outside 0..n_pairs-1.
    """
    lat.twist_pair(pair)
    seg = lat.segments[pair]
    col = lat.width - 1 if seg.row % 2 else 0
    if modes is None:
        modes = twist_modes(lat, path)
    kind = modes[2 * pair].kind
    m1 = MajoranaMode(lat.site_id(seg.row, col), kind)
    m2 = MajoranaMode(lat.site_id(seg.row + 1, col), kind)
    return mode_parity_operator(lat, path, m1, m2)


# -- stabilizer reduction -----------------------------------------------------


def _words(rows: list[int], n_words: int) -> np.ndarray:
    """Integer bit rows as little-endian 64-bit words, one array row each."""
    data = b"".join(r.to_bytes(8 * n_words, "little") for r in rows)
    return np.frombuffer(data, dtype="<u8").reshape(len(rows), n_words)


def _subset_table(x: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x and z words of the product of every subset of the rows: row ``i`` of
    the table multiplies the rows selected by the bits of ``i``."""
    k, n_words = x.shape
    tx = np.zeros((1 << k, n_words), dtype=x.dtype)
    tz = np.zeros((1 << k, n_words), dtype=z.dtype)
    for j in range(k):
        tx[1 << j: 2 << j] = tx[: 1 << j] ^ x[j]
        tz[1 << j: 2 << j] = tz[: 1 << j] ^ z[j]
    return tx, tz


def check_commutant(p: PauliString, lat: TwistLattice) -> PauliString:
    """Return ``p`` if it lies on the lattice and commutes with every
    plaquette. The faces it anticommutes with are the XOR of the plaquette
    columns (``TwistLattice.face_columns``) at its sites, one integer
    operation per site. Raises ``GeometryError`` for a site off the lattice
    and ``ValueError`` outside the commutant."""
    px, pz = p.x, p.z
    if (px | pz) >> lat.n_sites:
        raise GeometryError("operator acts on a site off the lattice")
    if _kernels.anticommuting_rows(*lat.face_columns, px, pz):
        raise ValueError("operator is outside the plaquette commutant")
    return p


def reduce_by_stabilizers(p: PauliString, lat: TwistLattice) -> PauliString:
    """Multiply ``p`` by plaquette operators to minimize its support weight.

    ``p`` must pass ``check_commutant``, which this checks first.
    The candidates are the plaquettes inside the bounding box of ``p``'s
    support. Up to ``_MAX_EXHAUSTIVE`` of them the search is exact: it walks
    every subset, on XOR tables of blocks of at most 4096 subsets. Past that
    it is a greedy descent that takes the best one-plaquette step while the
    key falls, weighing every candidate again at each step.

    The key is (weight, rendered string), so the result does not depend on
    the search order. Weights are popcounts of the integer bit rows; a
    string is built, with ``PauliString.__mul__``, only at the least weight,
    and rendered only when more than one ties there.
    """
    check_commutant(p, lat)
    support = p.x | p.z
    if not support:
        return p

    # the sites outside the box, as a mask
    w = lat.width
    rows, cols = zip(*(divmod(s, w) for s in _kernels.set_bits(support)))
    span = (2 << max(cols)) - (1 << min(cols))
    outside = ~sum(span << (r * w) for r in range(min(rows), max(rows) + 1))
    chosen = [op for op in lat.plaquette_ops if not (op.x | op.z) & outside]
    n = len(chosen)

    if n > _MAX_EXHAUSTIVE:
        best = p
        while True:
            weights = [((op.x ^ best.x) | (op.z ^ best.z)).bit_count()
                       for op in chosen]
            m = min(weights)
            if m > best.weight:
                return best
            # the current string comes first, so an equal key stops the descent
            ties = [best] if m == best.weight else []
            ties += [best * op for op, k in zip(chosen, weights) if k == m]
            step = min(ties, key=str) if len(ties) > 1 else ties[0]
            if step is best:
                return best
            best = step

    # one table over the low candidates; each block XORs in one subset of
    # the others, stepping through them in Gray-code order
    n_words = -(-lat.n_sites // 64)
    wx = _words([op.x for op in chosen], n_words)
    wz = _words([op.z for op in chosen], n_words)
    low = min(n, _BLOCK_BITS)
    low_x, low_z = _subset_table(wx[:low], wz[:low])
    low_x ^= _words([p.x], n_words)
    low_z ^= _words([p.z], n_words)
    high_x, high_z = np.zeros_like(low_x[0]), np.zeros_like(low_z[0])
    best_w, ties = None, []
    for b in range(1 << (n - low)):
        if b:
            j = low + (b & -b).bit_length() - 1
            high_x ^= wx[j]
            high_z ^= wz[j]
        weights = np.bitwise_count(low_x ^ high_x | low_z ^ high_z).sum(1)
        m = int(weights.min())
        if best_w is None or m < best_w:
            best_w, ties = m, []
        if m == best_w:
            high = (b ^ (b >> 1)) << low
            ties.extend(high | int(i) for i in np.flatnonzero(weights == m))
    products = []
    for subset in ties:
        q = p
        for j in _kernels.set_bits(subset):
            q = q * chosen[j]
        products.append(q)
    return min(products, key=str) if len(products) > 1 else products[0]
