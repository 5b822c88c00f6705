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
path position ``k``) plus a power of i; its canonical product runs over the
set bits in increasing order. Multiplying two monomials XORs the masks and
adds one sign per transposition needed to sort the product, whose parity is a
prefix-parity count. ``U_j`` is the mask of all bits below ``2j``, so mapping
a spin operator takes prefix XORs of these masks.

The stabilizer reduction works on the same idea one level down: Pauli
strings and plaquettes as x/z integer bit rows, weights as popcounts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from . import _kernels
from .lattice import GeometryError, TwistLattice
from .pauli import PauliString, Phase

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
    at position ``k`` of ``order``, the path the monomial was built on.
    """

    mask: int
    phase: Phase
    order: tuple[int, ...] = field(repr=False)

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

    def modes(self) -> frozenset[MajoranaMode]:
        return frozenset(self.factors)

    def __str__(self) -> str:
        from .pauli import _PHASE_STR  # shared phase prefix convention

        body = " ".join(str(m) for m in self.factors) if self.mask else "1"
        return _PHASE_STR[self.phase.exponent] + body


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

    def string_letter(self, site: int) -> str:
        return _LETTERS[self.substitutions.get(site)][0]

    def b_letter(self, site: int) -> str:
        return _LETTERS[self.substitutions.get(site)][1]

    def a_letter(self, site: int) -> str:
        return _LETTERS[self.substitutions.get(site)][2]

    def pair_factors(self, site: int) -> tuple[int, tuple[MajoranaMode, ...]]:
        """Majorana image (phase exponent, modes) of the site's string letter."""
        if site in self.substitutions:
            return 1, (MajoranaMode(site, "a"), MajoranaMode(site, "b"))
        return 1, (MajoranaMode(site, "b"), MajoranaMode(site, "a"))

    @cached_property
    def _string_exponents(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per path position ``k``: the phase exponent of the string letter's
        image (mask ``0b11 << 2k``) and that of ``U_k`` (mask of all bits
        below ``2k``). Both images are already in canonical order."""
        own, prefix = [], [0]
        for site in self.order:
            own.append(canonicalize(self.pair_factors(site)[1], 1, self)
                       .phase.exponent)
            prefix.append((prefix[-1] + own[-1]) % 4)
        return tuple(own), tuple(prefix)

    @cached_property
    def _string_bits(self) -> tuple[tuple[int, int], ...]:
        """Per path position ``k``: the (x, z) bit rows (``PauliString.bits``)
        of the spin string ``U_k``, the string letters of positions below k."""
        x = z = 0
        out = [(x, z)]
        for site in self.order:
            letter = self.string_letter(site)
            x |= (letter != "Z") << site
            z |= (letter != "X") << site
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
    string avoids a residual two-letter tail at the turn."""
    order = snake_order(lat.width, lat.height)
    substitutions: dict[int, str] = {}
    if pair is not None:
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
    return MajoranaMonomial(mask, Phase(exponent), path.order)


def multiply_monomials(
    m1: MajoranaMonomial, m2: MajoranaMonomial, path: JWPath
) -> MajoranaMonomial:
    exponent = m1.phase.exponent + m2.phase.exponent \
        + 2 * _crossing_parity(m1.mask, m2.mask)
    return MajoranaMonomial(m1.mask ^ m2.mask, Phase(exponent), path.order)


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

    mask, exponent = 0, p.phase.exponent
    for site, letter in sorted(p.support, key=lambda item: pos[item[0]]):
        j = pos[site]
        role = _ROLES[path.substitutions.get(site)][letter]
        image = _letter_mask(j, role)
        exponent += (own_exp[j] if role == 0 else prefix_exp[j]) \
            + 2 * _crossing_parity(mask, image)
        mask ^= image
    return MajoranaMonomial(mask, Phase(exponent), path.order)


def spin_form(monomial: MajoranaMonomial, path: JWPath) -> PauliString:
    """Inverse map: spin representation of a Majorana monomial.

    Mode ``m`` at position ``j`` is ``U_j`` times its own letter at its site;
    the modes' strings are multiplied on integer bit rows."""
    pos = path.positions
    x = z = 0
    exponent = monomial.phase.exponent
    for mode in monomial.factors:
        mx, mz = path._string_bits[pos[mode.site]]
        own = path.b_letter(mode.site) if mode.kind == "b" else path.a_letter(mode.site)
        mx |= (own != "Z") << mode.site
        mz |= (own != "X") << mode.site
        exponent += _kernels.int_product_phase(x, z, mx, mz)
        x, z = x ^ mx, z ^ mz
    return PauliString.from_bits(x, z, exponent)


# -- mode bookkeeping ---------------------------------------------------------


@dataclass(frozen=True)
class ModeClassification:
    paired: frozenset[MajoranaMode]
    unpaired: frozenset[MajoranaMode]  # bulk modes absent from every plaquette
    boundary: frozenset[MajoranaMode]  # edge modes absent because of the boundary


def _context(lat: TwistLattice):
    """The lattice's ``tableau.CodeContext``, which owns its plaquette rows."""
    from .tableau import code_context  # local import: tableau builds on jw

    return code_context(lat)


def plaquette_images(
    lat: TwistLattice, path: JWPath
) -> dict[int, MajoranaMonomial]:
    return {p.id: jw_map(op, path)
            for p, op in zip(lat.plaquettes, _context(lat).plaquette_ops)}


def _used_modes(lat: TwistLattice, path: JWPath) -> int:
    """Mask of the modes that some plaquette image uses: the union of the
    images' masks, which needs neither their phases nor their order."""
    pos, subs = path.positions, path.substitutions
    used = 0
    for op in _context(lat).plaquette_ops:
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
    """
    seg = lat.segments[pair]
    col = lat.width - 1 if seg.row % 2 else 0
    if modes is None:
        modes = twist_modes(lat, path)
    kind = modes[2 * pair].kind
    m1 = MajoranaMode(lat.site_id(seg.row, col), kind)
    m2 = MajoranaMode(lat.site_id(seg.row + 1, col), kind)
    return mode_parity_operator(lat, path, m1, m2)


# -- stabilizer reduction -----------------------------------------------------


class PackedPlaquettes(NamedTuple):
    """A lattice's plaquette operators as ``PauliString.bits`` rows, one per
    plaquette."""

    x: tuple[int, ...]  # bit s set where site s holds X or Y
    z: tuple[int, ...]  # bit s set where site s holds Z or Y
    boxes: np.ndarray   # (faces, 4): min row, max row, min col, max col


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


def _weights(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    return np.bitwise_count(x | z).sum(axis=1)


# str() order of the phase prefixes, indexed by the exponent of i:
# "-" < "-i·" < "" < "i·" (a body starts with a letter or "1").
_PHASE_RANK = (2, 3, 0, 1)


def _token(x: int, z: int, start: int) -> str:
    """The rendered token (letter and site) of the lowest site at or above
    ``start`` in the bit rows."""
    above = (x | z) >> start
    site = start + (above & -above).bit_length() - 1
    bit = 1 << site
    return ("Z" if not x & bit else "Y" if z & bit else "X") + str(site)


def _before(a: tuple[int, int, int], b: tuple[int, int, int]) -> bool:
    """Whether ``str()`` of string ``a`` sorts before that of ``b``; both are
    (x, z, exponent) of one weight.

    Unequal phase prefixes decide alone. Otherwise the tokens below the
    lowest site where the letters differ are common, so the next token of
    each decides: a space sorts below every token character, so a token
    that is a prefix of the other sorts first, as in the whole strings.
    """
    if (a[2] - b[2]) % 4:
        return _PHASE_RANK[a[2] % 4] < _PHASE_RANK[b[2] % 4]
    diff = (a[0] ^ b[0]) | (a[1] ^ b[1])
    if not diff:
        return False
    start = (diff & -diff).bit_length() - 1
    return _token(a[0], a[1], start) < _token(b[0], b[1], start)


def _least(strings: list[tuple[int, int, int]]) -> int:
    """Index of the first of ``strings`` with the least ``str()``."""
    best = 0
    for i in range(1, len(strings)):
        if _before(strings[i], strings[best]):
            best = i
    return best


def reduce_by_stabilizers(
    p: PauliString, lat: TwistLattice, max_exhaustive: int = 18
) -> PauliString:
    """Multiply ``p`` by plaquette operators to minimize its support weight.

    The candidates are the plaquettes contained in the bounding box of
    ``p``'s support. Up to ``max_exhaustive`` candidates the search is exact:
    the weights of all subset products come from XOR tables of the packed
    rows, built in blocks of at most 4096 subsets. Beyond that it is a greedy
    descent that weighs every one-plaquette step at once and takes the best
    while the key falls.

    The key is (weight, rendered string), so the result does not depend on
    the search order. Products are formed on the integer bit rows, with the
    phase of ``_kernels.int_product_phase``, and only for minimum-weight
    ties; one ``PauliString`` is built, for the result. No tie is rendered:
    two ties' strings compare by their phase prefixes ("-" < "-i·" < "" <
    "i·") or, when those are equal, by the one token where they first
    differ, at the lowest site where their letters differ.
    """
    rows = _context(lat).packed_plaquettes
    if p.sites and not 0 <= p.sites[0] <= p.sites[-1] < lat.n_sites:
        raise GeometryError("operator acts on a site off the lattice")
    px, pz = p.bits()
    if any(((x & pz) ^ (z & px)).bit_count() & 1 for x, z in zip(rows.x, rows.z)):
        raise ValueError("operator is outside the plaquette commutant")
    if not p.support:
        return p

    coords = [lat.site_coords(s) for s in p.sites]
    rmin = min(r for r, _ in coords)
    rmax = max(r for r, _ in coords)
    cmin = min(c for _, c in coords)
    cmax = max(c for _, c in coords)
    boxes = rows.boxes
    chosen = np.flatnonzero((boxes[:, 0] >= rmin) & (boxes[:, 1] <= rmax)
                            & (boxes[:, 2] >= cmin) & (boxes[:, 3] <= cmax))
    cx = [rows.x[k] for k in chosen]
    cz = [rows.z[k] for k in chosen]
    n = len(cx)
    if not n:
        return p

    if n <= max_exhaustive:
        # one table over the low candidates; each block XORs in one subset
        # of the others, stepping through those subsets in Gray-code order
        n_words = -(-lat.n_sites // 64)
        wx, wz = _words(cx, n_words), _words(cz, n_words)
        low = min(n, _BLOCK_BITS)
        low_x, low_z = _subset_table(wx[:low], wz[:low])
        low_x ^= _words([px], n_words)
        low_z ^= _words([pz], n_words)
        high_x, high_z = np.zeros_like(low_x[0]), np.zeros_like(low_z[0])
        best_w, ties = None, []
        for b in range(1 << (n - low)):
            if b:
                j = low + (b & -b).bit_length() - 1
                high_x ^= wx[j]
                high_z ^= wz[j]
            w = _weights(low_x ^ high_x, low_z ^ high_z)
            m = int(w.min())
            if best_w is None or m < best_w:
                best_w, ties = m, []
            if m == best_w:
                high = (b ^ (b >> 1)) << low
                ties.extend(high | int(i) for i in np.flatnonzero(w == m))
        products = []
        for subset in ties:
            qx, qz, e = px, pz, p.phase.exponent
            for j in range(n):
                if subset >> j & 1:
                    e += _kernels.int_product_phase(qx, qz, cx[j], cz[j])
                    qx, qz = qx ^ cx[j], qz ^ cz[j]
            products.append((qx, qz, e))
        return PauliString.from_bits(*products[_least(products)])

    bx, bz, be, weight = px, pz, p.phase.exponent, p.weight
    while True:
        w = [((x ^ bx) | (z ^ bz)).bit_count() for x, z in zip(cx, cz)]
        m = min(w)
        if m > weight:
            break
        ties = [i for i in range(n) if w[i] == m]
        steps = [(bx ^ cx[i], bz ^ cz[i],
                  be + _kernels.int_product_phase(bx, bz, cx[i], cz[i]))
                 for i in ties]
        if m == weight:  # a step must also beat the current string's key
            steps.append((bx, bz, be))
        k = _least(steps)
        if k == len(ties):
            break
        (bx, bz, be), weight = steps[k], m
    return PauliString.from_bits(bx, bz, be)
