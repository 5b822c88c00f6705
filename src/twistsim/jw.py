"""Generalized 2D Jordan-Wigner transformation over a snake-ordered lattice.

Every spin operator maps to a monomial in 2N Majorana modes (two per site,
kinds ``a`` and ``b``): with ``U_j`` the product of the string letters of all
path-predecessors of ``j``,

    X_j = U_j b_j        Z_j = U_j a_j        Y_j = i b_j a_j .

The string letter is Y by default. Boundary-substituted sites swap the roles:
an ``x`` substitution exchanges X and Y (string letter X, X_j = i a_j b_j), a
``z`` substitution exchanges Z and Y (string letter Z, Z_j = i a_j b_j). The
substituted maps keep the exact single-site Pauli algebra.

Phases are exact throughout; monomials are canonicalized by sorting modes
along the path and counting anticommutation transpositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .lattice import GeometryError, TwistLattice, all_plaquette_operators, \
    plaquette_operator
from .pauli import PauliString, Phase


class MajoranaMode(NamedTuple):
    site: int
    kind: str  # "a" or "b"

    def __str__(self) -> str:
        return f"{self.kind}{self.site}"


@dataclass(frozen=True)
class MajoranaMonomial:
    """Canonical ordered product of Majorana modes times a quartic phase."""

    factors: tuple[MajoranaMode, ...]
    phase: Phase

    @property
    def weight(self) -> int:
        return len(self.factors)

    def modes(self) -> frozenset[MajoranaMode]:
        return frozenset(self.factors)

    def __str__(self) -> str:
        from .pauli import _PHASE_STR  # shared phase prefix convention

        body = " ".join(str(m) for m in self.factors) if self.factors else "1"
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


def _sort_count_inversions(keys: list[int], modes: list[MajoranaMode]):
    """Merge sort by key, counting crossings of strictly unequal keys."""
    n = len(keys)
    if n < 2:
        return keys, modes, 0
    mid = n // 2
    lk, lm, linv = _sort_count_inversions(keys[:mid], modes[:mid])
    rk, rm, rinv = _sort_count_inversions(keys[mid:], modes[mid:])
    merged_k: list[int] = []
    merged_m: list[MajoranaMode] = []
    inv = linv + rinv
    i = j = 0
    while i < len(lk) and j < len(rk):
        if rk[j] < lk[i]:
            inv += len(lk) - i
            merged_k.append(rk[j])
            merged_m.append(rm[j])
            j += 1
        else:
            merged_k.append(lk[i])
            merged_m.append(lm[i])
            i += 1
    merged_k.extend(lk[i:])
    merged_m.extend(lm[i:])
    merged_k.extend(rk[j:])
    merged_m.extend(rm[j:])
    return merged_k, merged_m, inv


def canonicalize(
    factors: Iterable[MajoranaMode], phase_exponent: int, path: JWPath
) -> MajoranaMonomial:
    """Sort modes by (path position, kind), cancel squared modes, track sign."""
    pos = path._pos()
    modes = list(factors)
    keys = [2 * pos[m.site] + (0 if m.kind == "a" else 1) for m in modes]
    keys, modes, inversions = _sort_count_inversions(keys, modes)
    exponent = (phase_exponent + 2 * inversions) % 4
    out: list[MajoranaMode] = []
    for m in modes:
        if out and out[-1] == m:
            out.pop()  # gamma^2 = 1, adjacent equal modes cancel signlessly
        else:
            out.append(m)
    return MajoranaMonomial(tuple(out), Phase(exponent))


def multiply_monomials(
    m1: MajoranaMonomial, m2: MajoranaMonomial, path: JWPath
) -> MajoranaMonomial:
    return canonicalize(
        m1.factors + m2.factors, m1.phase.exponent + m2.phase.exponent, path
    )


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

    # Precompute, along the path, the flattened mode list and phase of the
    # running disorder-string product U_k = prod_{j<k} (string letter of j).
    prefix_modes: list[MajoranaMode] = []
    prefix_exp = [0]
    prefix_len = [0]
    for site in path.order:
        k, pair = path.pair_factors(site)
        prefix_modes.extend(pair)
        prefix_exp.append((prefix_exp[-1] + k) % 4)
        prefix_len.append(len(prefix_modes))

    factors: list[MajoranaMode] = []
    exponent = p.phase.exponent
    for site, letter in sorted(p.support, key=lambda item: pos[item[0]]):
        j = pos[site]
        if letter == path.string_letter(site):
            k, pair = path.pair_factors(site)
            exponent += k
            factors.extend(pair)
        elif letter == path.b_letter(site):
            exponent += prefix_exp[j]
            factors.extend(prefix_modes[: prefix_len[j]])
            factors.append(MajoranaMode(site, "b"))
        elif letter == path.a_letter(site):
            exponent += prefix_exp[j]
            factors.extend(prefix_modes[: prefix_len[j]])
            factors.append(MajoranaMode(site, "a"))
        else:  # pragma: no cover - letters are exhaustive
            raise AssertionError(f"unmapped letter {letter} at site {site}")
    return canonicalize(factors, exponent, path)


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
    used: set[MajoranaMode] = set()
    for image in plaquette_images(lat, path).values():
        used |= set(image.factors)
    paired, unpaired, boundary = set(), set(), set()
    for site in lat.sites:
        for kind in ("a", "b"):
            mode = MajoranaMode(site, kind)
            if mode in used:
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


def reduce_by_stabilizers(
    p: PauliString, lat: TwistLattice, max_exhaustive: int = 18
) -> PauliString:
    """Multiply ``p`` by plaquette operators to minimize its support weight.

    The search is exact (exhaustive) over the plaquettes contained in the
    bounding box of ``p``'s support; beyond ``max_exhaustive`` candidates it
    falls back to a deterministic greedy descent. Ties break on the rendered
    string, so results are reproducible.
    """
    ops = all_plaquette_operators(lat)
    for op in ops:
        if not p.commutes_with(op):
            raise ValueError("operator is outside the plaquette commutant")

    coords = [lat.site_coords(s) for s in p.sites]
    if not coords:
        return p
    rmin = min(r for r, _ in coords)
    rmax = max(r for r, _ in coords)
    cmin = min(c for _, c in coords)
    cmax = max(c for _, c in coords)

    def inside(op: PauliString) -> bool:
        return all(
            rmin <= r <= rmax and cmin <= c <= cmax
            for r, c in (lat.site_coords(s) for s in op.sites)
        )

    candidates = [op for op in ops if inside(op)]

    def key(q: PauliString) -> tuple[int, str]:
        return (q.weight, str(q))

    best = p
    if len(candidates) <= max_exhaustive:
        # Gray-code walk: one multiplication per visited subset.
        q = p
        prev_gray = 0
        for step in range(1, 1 << len(candidates)):
            gray = step ^ (step >> 1)
            q = q * candidates[(gray ^ prev_gray).bit_length() - 1]
            prev_gray = gray
            if key(q) < key(best):
                best = q
    else:
        improved = True
        while improved:
            improved = False
            step = min((best * c for c in candidates), key=key, default=best)
            if key(step) < key(best):
                best, improved = step, True
    return best
