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
strings and plaquettes as x/z bit rows in 64-bit words, weights as popcounts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from . import _gf2, _kernels
from .lattice import GeometryError, TwistLattice, plaquette_operator
from .pauli import PauliString, Phase

# Rows of one block of the exhaustive reduction walk: 2**12 = 4096 subsets.
_BLOCK_BITS = 12


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

    @property
    def positions(self) -> dict[int, int]:
        return {site: k for k, site in enumerate(self.order)}

    def position(self, site: int) -> int:
        return self._pos()[site]

    def _pos(self) -> dict[int, int]:
        cached = getattr(self, "_pos_cache", None)
        if cached is None:
            cached = self.positions
            object.__setattr__(self, "_pos_cache", cached)
        return cached

    def string_letter(self, site: int) -> str:
        return {"x": "X", "z": "Z"}.get(self.substitutions.get(site, ""), "Y")

    def b_letter(self, site: int) -> str:
        return "Y" if self.substitutions.get(site) == "x" else "X"

    def a_letter(self, site: int) -> str:
        return "Y" if self.substitutions.get(site) == "z" else "Z"

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
    pos = path._pos()
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


def jw_map(p: PauliString, path: JWPath) -> MajoranaMonomial:
    """Exact Majorana image of a Pauli string, in canonical form."""
    pos = path._pos()
    for site in p.sites:
        if site not in pos:
            raise GeometryError(f"operator acts on site {site} not on the path")
    own_exp, prefix_exp = path._string_exponents

    mask, exponent = 0, p.phase.exponent
    for site, letter in sorted(p.support, key=lambda item: pos[item[0]]):
        j = pos[site]
        if letter == path.string_letter(site):
            image, k = 0b11 << 2 * j, own_exp[j]
        elif letter == path.b_letter(site):
            image, k = ((1 << 2 * j) - 1) | (1 << (2 * j + 1)), prefix_exp[j]
        elif letter == path.a_letter(site):
            image, k = (1 << (2 * j + 1)) - 1, prefix_exp[j]
        else:  # pragma: no cover - letters are exhaustive
            raise AssertionError(f"unmapped letter {letter} at site {site}")
        exponent += k + 2 * _crossing_parity(mask, image)
        mask ^= image
    return MajoranaMonomial(mask, Phase(exponent), path.order)


def spin_form(monomial: MajoranaMonomial, path: JWPath) -> PauliString:
    """Inverse map: spin representation of a Majorana monomial."""
    pos = path._pos()
    result = PauliString.from_dict({}, monomial.phase.exponent)
    for mode in monomial.factors:
        j = pos[mode.site]
        letters = {path.order[q]: path.string_letter(path.order[q]) for q in range(j)}
        own = path.b_letter(mode.site) if mode.kind == "b" else path.a_letter(mode.site)
        letters[mode.site] = own
        result = result * PauliString.from_dict(letters)
    return result


# -- mode bookkeeping ---------------------------------------------------------


@dataclass(frozen=True)
class ModeClassification:
    paired: frozenset[MajoranaMode]
    unpaired: frozenset[MajoranaMode]  # bulk modes absent from every plaquette
    boundary: frozenset[MajoranaMode]  # edge modes absent because of the boundary


def plaquette_images(
    lat: TwistLattice, path: JWPath
) -> dict[int, MajoranaMonomial]:
    return {
        p.id: jw_map(plaquette_operator(lat, p.id), path) for p in lat.plaquettes
    }


def classify_modes(lat: TwistLattice, path: JWPath) -> ModeClassification:
    """Partition all 2N modes by whether any plaquette image uses them."""
    used = 0
    for image in plaquette_images(lat, path).values():
        used |= image.mask
    pos = path._pos()
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
    unpaired = classify_modes(lat, path).unpaired
    by_site: dict[int, list[MajoranaMode]] = {}
    for mode in unpaired:
        by_site.setdefault(mode.site, []).append(mode)
    out: list[MajoranaMode] = []
    for twist in lat.twists:
        modes = by_site.get(twist.twist_site, [])
        if len(modes) != 1:
            raise GeometryError(
                f"twist {twist.id} carries {len(modes)} unpaired modes, expected 1"
            )
        out.append(modes[0])
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
    """A lattice's plaquette operators as bit rows, one row per plaquette."""

    x: np.ndarray      # (faces, words) uint64: sites with X or Y
    z: np.ndarray      # (faces, words) uint64: sites with Z or Y
    boxes: np.ndarray  # (faces, 4): min row, max row, min col, max col


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


def reduce_by_stabilizers(
    p: PauliString, lat: TwistLattice, max_exhaustive: int = 18
) -> PauliString:
    """Multiply ``p`` by plaquette operators to minimize its support weight.

    The candidates are the plaquettes contained in the bounding box of
    ``p``'s support. Up to ``max_exhaustive`` candidates the search is exact:
    the weights of all subset products come from XOR tables of the packed
    rows, built in blocks of at most 4096 subsets. Beyond that it is a greedy
    descent that weighs every one-plaquette step at once and takes the best
    while the key falls. The key is (weight, rendered string), so exact
    ``PauliString`` products are formed only for minimum-weight ties, and the
    result does not depend on the search order.
    """
    from .tableau import code_context  # local import: tableau builds on jw

    ctx = code_context(lat)
    rows = ctx.packed_plaquettes
    if p.sites and not 0 <= p.sites[0] <= p.sites[-1] < lat.n_sites:
        raise GeometryError("operator acts on a site off the lattice")
    px, pz = _kernels.pack_bits(
        _gf2.symplectic_vector(p, lat.n_sites).reshape(2, -1))
    if _kernels.anticommute_mask(rows.x, rows.z, px, pz).any():
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
    candidates = [ctx.plaquette_ops[int(k)] for k in chosen]
    cx, cz = rows.x[chosen], rows.z[chosen]

    def product(subset: int) -> PauliString:
        q = p
        for j, c in enumerate(candidates):
            if subset >> j & 1:
                q = q * c
        return q

    if len(candidates) <= max_exhaustive:
        # one table over the low candidates; each block XORs in one subset
        # of the others, stepping through those subsets in Gray-code order
        low = min(len(candidates), _BLOCK_BITS)
        low_x, low_z = _subset_table(cx[:low], cz[:low])
        low_x ^= px
        low_z ^= pz
        high_x, high_z = np.zeros_like(px), np.zeros_like(pz)
        best_w, ties = None, []
        for b in range(1 << (len(candidates) - low)):
            if b:
                j = low + (b & -b).bit_length() - 1
                high_x ^= cx[j]
                high_z ^= cz[j]
            w = _weights(low_x ^ high_x, low_z ^ high_z)
            m = int(w.min())
            if best_w is None or m < best_w:
                best_w, ties = m, []
            if m == best_w:
                high = (b ^ (b >> 1)) << low
                ties.extend(high | int(i) for i in np.flatnonzero(w == m))
        return min((product(s) for s in ties), key=str)

    best = p
    bx, bz = px, pz
    while candidates:
        w = _weights(cx ^ bx, cz ^ bz)
        m = int(w.min())
        if m > best.weight:
            break
        steps = {int(i): best * candidates[int(i)] for i in np.flatnonzero(w == m)}
        i = min(steps, key=lambda i: str(steps[i]))
        if (m, str(steps[i])) >= (best.weight, str(best)):
            break
        best, bx, bz = steps[i], bx ^ cx[i], bz ^ cz[i]
    return best
