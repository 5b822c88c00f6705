"""Planar surface-code lattice with twist-defect (dislocation) pairs.

Geometry and operator conventions
---------------------------------

Spins sit on the vertices of a ``width x height`` grid; site ids are
row-major (``id = row*width + col``). Every interior face of the grid hosts a
four-body plaquette operator. Letters follow one global sublattice rule:

    Z . X        face (r, c) acts with  Z on (r, c)      X on (r, c+1)
    . o .                               X on (r+1, c)    Z on (r+1, c+1)
    X . Z

so X sits on one diagonal of each face and Z on the other, and any two
edge-adjacent faces overlap on two spins with clashing letters (hence
commute), while diagonal neighbours overlap on one spin with equal letters.

A twist pair is created by a horizontal dislocation segment: face columns
``col_start..col_end`` of face row ``row`` are re-stitched into one fewer
face. Interior faces of the segment become sheared quadrilaterals (top edge
at columns c,c+1; bottom edge shifted right by one), and the two terminal
faces become pentagons that absorb one extra spin each:

    left pentagon                      right pentagon
    T1 T2 . .                          .  T1 T2 T3
    B1 B2 B3 .                         .  .  B1 B2

The pentagon operator keeps the alternating X/Z pattern on its four cycle
corners and acts with Y on the twist site (``B2`` on the left, ``T2`` on the
right). This is the unique letter assignment for which all operators commute
and the twist sites drop out of every operator's Majorana image.

The lattice owns these operators: ``TwistLattice.plaquette_ops`` builds them
once, in face-id order, and ``TwistLattice.face_columns`` holds the faces at
each site, split by letter. The Jordan-Wigner images, the stabilizer
reduction, the tableau and both readouts all read this one form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

from . import _gf2, _kernels
from .pauli import PauliString


class SizeError(ValueError):
    """Lattice dimensions too small."""


class GeometryError(ValueError):
    """Dislocation segment placement is invalid."""


@dataclass(frozen=True)
class Segment:
    """Horizontal dislocation: face row ``row``, face columns start..end."""

    row: int
    col_start: int
    col_end: int


@dataclass(frozen=True)
class Plaquette:
    id: int
    kind: str  # "square" or "pentagon"
    ordered_sites: tuple[int, ...]  # X,Z,X,Z corners (cyclic), then Y site

    @property
    def sites(self) -> tuple[int, ...]:
        return self.ordered_sites


@dataclass(frozen=True)
class TwistDefect:
    id: int
    host_plaquette_id: int
    twist_site: int
    partner_twist_id: int
    segment_index: int


@dataclass(frozen=True)
class TwistLattice:
    width: int
    height: int
    segments: tuple[Segment, ...]
    plaquettes: tuple[Plaquette, ...]
    twists: tuple[TwistDefect, ...]
    coloring: dict[int, str] = field(repr=False)

    # -- site helpers ------------------------------------------------------

    @property
    def n_sites(self) -> int:
        return self.width * self.height

    @property
    def sites(self) -> range:
        return range(self.n_sites)

    def site_id(self, row: int, col: int) -> int:
        if not (0 <= row < self.height and 0 <= col < self.width):
            raise GeometryError(f"site ({row}, {col}) outside the grid")
        return row * self.width + col

    def site_coords(self, site: int) -> tuple[int, int]:
        return divmod(site, self.width)

    def on_boundary(self, site: int) -> bool:
        r, c = self.site_coords(site)
        return r in (0, self.height - 1) or c in (0, self.width - 1)

    # -- plaquette helpers --------------------------------------------------

    def plaquette(self, plaq_id: int) -> Plaquette:
        if not (0 <= plaq_id < len(self.plaquettes)):
            raise KeyError(f"unknown plaquette id {plaq_id}")
        return self.plaquettes[plaq_id]

    def twist_pair(self, pair_index: int) -> tuple[TwistDefect, TwistDefect]:
        if not (0 <= pair_index < len(self.segments)):
            raise KeyError(f"unknown twist pair {pair_index}")
        return self.twists[2 * pair_index], self.twists[2 * pair_index + 1]

    @property
    def n_pairs(self) -> int:
        return len(self.segments)

    @cached_property
    def plaquette_ops(self) -> tuple[PauliString, ...]:
        """The plaquette operators in face-id order, built once."""
        return tuple(all_plaquette_operators(self))

    @cached_property
    def face_columns(self) -> tuple[list[int], list[int]]:
        """Per site, the faces acting there with X or Y, and those acting
        with Z or Y: bit ``k`` for face ``k``. These are the plaquettes'
        columns in the layout ``_kernels`` gives a tableau's (``cx``,
        ``cz``), so ``_kernels.anticommuting_rows`` reads off the faces a
        string anticommutes with."""
        cx, cz = [0] * self.n_sites, [0] * self.n_sites
        for k, op in enumerate(self.plaquette_ops):
            bit = 1 << k
            for s, letter in op.support:
                if letter != "Z":
                    cx[s] |= bit
                if letter != "X":
                    cz[s] |= bit
        return cx, cz

    def stabilizer_matrix(self) -> list[int]:
        """One (x|z) row (``_gf2.symplectic_vector``) per plaquette operator."""
        return [op.x | op.z << self.n_sites for op in self.plaquette_ops]

    def logical_qubit_count(self) -> int:
        return self.n_sites - _gf2.rank(self.stabilizer_matrix())


# letters along a face's ordered sites; a square stops after the fourth
_LETTERS = "XZXZY"


def _segment_sites(width: int, seg: Segment) -> set[tuple[int, int]]:
    rows = (seg.row, seg.row + 1)
    return {(r, c) for r in rows for c in range(seg.col_start, seg.col_end + 2)}


def build_lattice(
    width: int, height: int, twist_pairs: list[Segment] | list[tuple[int, int, int]]
) -> TwistLattice:
    """Build the planar lattice, re-stitching faces along each dislocation."""
    if width < 4 or height < 4:
        raise SizeError(f"lattice must be at least 4x4, got {width}x{height}")

    segments = tuple(
        seg if isinstance(seg, Segment) else Segment(*seg) for seg in twist_pairs
    )
    occupied: set[tuple[int, int]] = set()
    for seg in segments:
        if seg.col_end < seg.col_start + 2:
            raise GeometryError(
                f"segment {seg} too short: needs at least two terminal faces"
            )
        if not (1 <= seg.row <= height - 3):
            raise GeometryError(f"segment {seg} touches the top/bottom boundary")
        if not (1 <= seg.col_start and seg.col_end + 1 <= width - 2):
            raise GeometryError(f"segment {seg} touches the left/right boundary")
        sites = _segment_sites(width, seg)
        if occupied & sites:
            raise GeometryError(f"segment {seg} overlaps another segment")
        occupied |= sites

    def sid(r: int, c: int) -> int:
        return r * width + c

    # key -> (kind, ordered_sites); keys sort row-major for deterministic ids
    faces: list[tuple[tuple[int, int], str, tuple[int, ...]]] = []
    # face columns taken by the segments of each face row, two segments on
    # one row included
    segment_face_cols: dict[int, set[int]] = {}
    for seg in segments:
        segment_face_cols.setdefault(seg.row, set()).update(
            range(seg.col_start, seg.col_end + 1))

    for r in range(height - 1):
        taken = segment_face_cols.get(r, set())
        for c in range(width - 1):
            if c not in taken:
                ordered = (sid(r, c + 1), sid(r + 1, c + 1), sid(r + 1, c), sid(r, c))
                faces.append(((r, c), "square", ordered))

    twist_records: list[tuple[tuple[int, int], int, int]] = []  # (face key, site, seg#)
    for seg_index, seg in enumerate(segments):
        r, c1, c2 = seg.row, seg.col_start, seg.col_end
        # left pentagon: twist on the bottom-middle spin
        left = (sid(r, c1 + 1), sid(r + 1, c1 + 2), sid(r + 1, c1), sid(r, c1),
                sid(r + 1, c1 + 1))
        faces.append(((r, c1), "pentagon", left))
        # sheared interior faces
        for c in range(c1 + 1, c2 - 1):
            ordered = (sid(r, c + 1), sid(r + 1, c + 2), sid(r + 1, c + 1), sid(r, c))
            faces.append(((r, c), "square", ordered))
        # right pentagon: twist on the top-middle spin
        right = (sid(r, c2 + 1), sid(r + 1, c2 + 1), sid(r + 1, c2), sid(r, c2 - 1),
                 sid(r, c2))
        faces.append(((r, c2 - 1), "pentagon", right))
        twist_records.append(((r, c2 - 1), sid(r, c2), seg_index))       # top twist
        twist_records.append(((r, c1), sid(r + 1, c1 + 1), seg_index))   # bottom twist

    faces.sort(key=lambda item: item[0])
    key_to_id = {key: i for i, (key, _, _) in enumerate(faces)}
    plaquettes = tuple(
        Plaquette(i, kind, ordered)
        for i, (key, kind, ordered) in enumerate(faces)
    )

    twists = []
    for t, (face_key, site, seg_index) in enumerate(twist_records):
        partner = t + 1 if t % 2 == 0 else t - 1
        twists.append(TwistDefect(t, key_to_id[face_key], site, partner, seg_index))

    coloring = {
        key_to_id[(r, c)]: ("dark" if (r + c) % 2 == 0 else "light")
        for (r, c), kind, _ in faces
        if kind == "square" and c not in segment_face_cols.get(r, set())
    }

    return TwistLattice(width, height, segments, plaquettes, tuple(twists), coloring)


def plaquette_operator(lat: TwistLattice, plaq_id: int) -> PauliString:
    """The operator of face ``plaq_id``, read from ``lat.plaquette_ops``."""
    lat.plaquette(plaq_id)  # KeyError for an unknown id
    return lat.plaquette_ops[plaq_id]


def all_plaquette_operators(lat: TwistLattice) -> list[PauliString]:
    """X,Z,X,Z on each face's ordered corners (plus Y on a pentagon's twist
    site), in face-id order: the one builder, which ``lat.plaquette_ops``
    calls once."""
    ops = []
    for p in lat.plaquettes:
        s = p.ordered_sites
        y = 1 << s[4] if len(s) == 5 else 0
        op = PauliString(1 << s[0] | 1 << s[2] | y, 1 << s[1] | 1 << s[3] | y)
        op.__dict__["support"] = tuple(sorted(zip(s, _LETTERS)))  # read by jw
        ops.append(op)
    return ops


def excitations_of(lat: TwistLattice, error: PauliString) -> set[int]:
    """Plaquettes whose operators anticommute with ``error``: the XOR of
    the plaquette columns (``TwistLattice.face_columns``) at its sites."""
    if (error.x | error.z) >> lat.n_sites:
        raise GeometryError(f"error acts on off-lattice site {error.sites[-1]}")
    return set(_kernels.set_bits(
        _kernels.anticommuting_rows(*lat.face_columns, error.x, error.z)))


def twist_logicals(
    lat: TwistLattice, pair_index: int
) -> tuple[PauliString, PauliString]:
    """(Z_logical, X_logical) of one twist pair.

    Z_logical is the stabilizer-reduced spin form of the pair's Majorana
    parity. X_logical is found by a symplectic solve: it commutes with every
    plaquette and with the other pairs' logicals, anticommutes with this
    pair's Z_logical, and is then weight-reduced. Raises ``KeyError`` outside
    0..n_pairs-1.
    """
    from .tableau import code_context  # local import: tableau builds on this module

    lat.twist_pair(pair_index)
    ctx = code_context(lat)
    return ctx.z_logicals[pair_index], ctx.x_logical(pair_index)


# -- lattice description files ----------------------------------------------


def lattice_spec_dumps(lat: TwistLattice) -> str:
    doc = {
        "format": "twistsim-lattice/1",
        "width": lat.width,
        "height": lat.height,
        "segments": [
            {"row": s.row, "col_start": s.col_start, "col_end": s.col_end}
            for s in lat.segments
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def lattice_spec_loads(text: str) -> TwistLattice:
    doc = json.loads(text)
    if doc.get("format") != "twistsim-lattice/1":
        raise ValueError(f"unsupported lattice file format: {doc.get('format')!r}")
    segments = [
        Segment(s["row"], s["col_start"], s["col_end"]) for s in doc["segments"]
    ]
    return build_lattice(doc["width"], doc["height"], segments)
