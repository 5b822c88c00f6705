"""CHP-style stabilizer tableau simulation of the twisted planar code.

The tableau carries n destabilizer and n stabilizer rows (binary symplectic
vectors plus a sign bit). On top of the generic simulator this module
implements the code-level machinery: ground-state preparation with pinned
twist-pair parities, the direct (turn-off-and-measure) parity readout, and
the indirect readout that drags a hole around the twists. Each readout runs
on a ``Tableau.copy`` of the ground, which owns only what a shot changes: its
signs, its registered logicals and its Pauli frame. Which faces a readout
switches off is the readout's geometry, not tableau state. The plaquette
operators are the lattice's own (``TwistLattice.plaquette_ops``); what these
operations derive from them through ``jw`` or a tableau, the readouts'
geometry included, lives in the lattice's ``CodeContext``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, wraps
from typing import NamedTuple

import numpy as np

from . import _gf2, _kernels, jw
from .dense import InconsistentOutcomeError
from .lattice import GeometryError, TwistLattice, plaquette_operator
from .pauli import PauliString, product

# a row's letters as the binary digits of its x and z integers
_X_BITS = str.maketrans("IXZY", "0101")
_Z_BITS = str.maketrans("IXZY", "0011")
# a site's letter from its x bit plus twice its z bit, as bytes
_LETTER_OF_CODE = bytes.maketrans(bytes(range(4)), b"IXZY")

# Moves one family of tableau copies stores (see ``_SharedRows``), so at most
# as many x/z states. The hole and direct readouts of one 14x12 lattice,
# flipped and unflipped, store 52 to 57.
SHARED_MOVES = 256


class _Family:
    """How many moves the ``_SharedRows`` reached from one first ``copy``
    store together."""

    __slots__ = ("stored",)

    def __init__(self):
        self.stored = 0


class _SharedRows:
    """An x/z state that tableau copies share and never write.

    ``Tableau.copy`` hands the copy the original's x, z, cx and cz lists and
    makes both tableaux read them from here; each keeps its own signs. The x/z
    rows a measurement leads to depend only on the rows and on the measured
    ``(p.x, p.z)``, never on an outcome, and a Pauli changes signs only. So
    each state stores, keyed on ``(p.x, p.z)``, what the first copy to
    measure ``p`` computed (``moves``) and which signs applying ``p`` flips
    (``flips``); a later copy replays it and runs only the sign updates. The
    CHP update split into a shared x/z move and a per-copy sign step is the
    frame idea of Gidney (arXiv:2103.02202) carried across copies over time.
    A family stores at most ``SHARED_MOVES`` moves. Past that, a random
    outcome's next state belongs to no family (``family`` is None): the
    tableau that computed it takes its rows as its own.
    """

    __slots__ = ("x", "z", "cx", "cz", "family", "moves", "flips")

    def __init__(self, x, z, cx, cz, family: _Family | None):
        self.x, self.z, self.cx, self.cz = x, z, cx, cz
        self.family = family
        self.moves: dict[tuple[int, int], _Fixed | _Random] = {}
        self.flips: dict[tuple[int, int], list[int]] = {}

    def store(self, table: dict, key: tuple[int, int], move) -> None:
        """Store ``move`` under ``key`` in ``table``, one of this state's two,
        if the family has room."""
        if self.family.stored < SHARED_MOVES:
            self.family.stored += 1
            table[key] = move


class _Fixed(NamedTuple):
    """A fixed outcome: its sign is ``phase`` times the signs of ``rows``,
    the stabilizer rows that multiply to ±p, over p's own sign."""
    rows: list[int]
    phase: int


class _Random(NamedTuple):
    """A random outcome's sign program: the rows ``same`` take the pivot's
    sign, the rows ``negated`` its negation, the pivot's destabilizer takes
    it, and the pivot takes the outcome over p's sign. ``after`` is the next
    x/z state."""
    after: _SharedRows
    pivot: int
    same: list[int]
    negated: list[int]


class Tableau:
    """Stabilizer state of ``n`` qubits, its signs and its Pauli frame.

    Rows ``x`` and ``z`` are lists of 2n Python integers, bit ``j`` for site
    ``j``; ``cx`` and ``cz`` hold the same bits by site, bit ``i`` for row
    ``i``. Bit ``s`` of the sign integer ``r[i]`` is shot ``s``'s sign, and
    ``all_shots`` has one bit per shot (see ``_kernels``): a tableau is a lone
    shot, a batch of one, until ``spread`` makes it a batch of shots that
    share its rows. ``measure``, ``expectation_sign`` and ``to_text`` read a
    lone tableau only. A fresh tableau owns its rows and updates them in
    place; ``copy`` makes the copy and the original share them instead (see
    ``_SharedRows``), and ``spread`` takes them back.

    Besides its stabilizer state a tableau carries only its registered
    ``logicals`` and its Pauli frame, ``reference_signs``. Its generator
    ``rng`` draws the random outcomes of ``measure``; a copy shares it, so a
    caller that wants a separate stream sets ``rng`` on the copy.
    ``last_random`` tells whether the latest ``measure`` had a random outcome
    (probability 1/2) rather than a fixed one.
    """

    def __init__(self, n: int, rng: np.random.Generator):
        self.n = n
        # rows and their transposed columns as Python integers, see
        # ``_kernels``: destabilizer i is X_i, stabilizer i is Z_i
        self.x = [1 << i for i in range(n)] + [0] * n
        self.z = [0] * n + [1 << i for i in range(n)]
        self.cx = [1 << j for j in range(n)]
        self.cz = [1 << (n + j) for j in range(n)]
        self.r = [0] * (2 * n)
        self.all_shots = 1
        self._shared: _SharedRows | None = None  # None: the rows are its own
        self.rng = rng
        self.last_random = False
        self.lattice: TwistLattice | None = None
        self.logicals: dict[str, PauliString] = {}
        # last deliberately recorded sign of each stabilizer (the Pauli frame)
        self.reference_signs: dict[int, int] = {}

    @classmethod
    def zero_state(cls, n: int, seed: int | np.random.Generator = 0) -> "Tableau":
        rng = seed if isinstance(seed, np.random.Generator) else \
            np.random.default_rng(seed)
        return cls(n, rng)

    def copy(self) -> "Tableau":
        """Independent signs and registries. The lattice and the generator are
        shared, and so are the x/z rows, which neither tableau writes from
        then on (``_SharedRows``)."""
        if self._shared is None:
            self._shared = _SharedRows(self.x, self.z, self.cx, self.cz, _Family())
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__)
        out.r = list(self.r)
        out.logicals = dict(self.logicals)
        out.reference_signs = dict(self.reference_signs)
        return out

    def spread(self, shots: int) -> None:
        """Make this lone tableau a batch of ``shots`` shots in its state,
        with rows of its own."""
        self._require_lone()
        if shots < 1:
            raise ValueError(f"a batch needs at least one shot, not {shots}")
        if self._shared is not None:
            self.x, self.z, self.cx, self.cz = (
                list(v) for v in (self.x, self.z, self.cx, self.cz))
            self._shared = None
        self.all_shots = (1 << shots) - 1
        self.r = [-bit & self.all_shots for bit in self.r]

    def _require_lone(self) -> None:
        if self.all_shots != 1:
            raise ValueError("a batch has one sign per shot: use measure_signs")

    # -- row/operator conversions -------------------------------------------

    def _bits_of(self, p: PauliString) -> tuple[int, int, int]:
        if p.phase & 1:
            raise ValueError(f"operator {p} is not Hermitian (phase must be ±1)")
        px, pz = p.x, p.z
        if (px | pz) >> self.n:
            site = (px | pz).bit_length() - 1
            raise ValueError(f"site {site} of {p} is outside 0..{self.n - 1}")
        return px, pz, p.phase >> 1

    def _codes(self) -> np.ndarray:
        """Per tableau row, each site's x bit plus twice its z bit (the
        index of its letter in "IXZY")."""
        n_bytes = -(-self.n // 8)

        def unpack(rows):
            raw = b"".join(v.to_bytes(n_bytes, "little") for v in rows)
            packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(rows), n_bytes)
            return np.unpackbits(packed, axis=1, bitorder="little")[:, :self.n]

        return unpack(self.x) + 2 * unpack(self.z)

    def row_operator(self, i: int) -> PauliString:
        return PauliString(self.x[i], self.z[i], 2 * int(self.r[i]))

    # -- measurement ---------------------------------------------------------

    def measure(self, p: PauliString, force: int | None = None) -> int:
        """Projective measurement of a Hermitian Pauli string on a lone
        tableau, returns ±1; ``force`` (±1) sets the outcome, as in
        ``measure_signs``."""
        self._require_lone()
        if force is not None:
            if force not in (1, -1):
                raise ValueError(f"forced outcome {force!r} is not ±1")
            force = int(force == -1)
        return 1 - 2 * self.measure_signs(p, self._draw, force)

    def _draw(self) -> int:
        """A lone tableau's random outcome bit."""
        return int(self.rng.integers(2))

    def measure_signs(self, p: PauliString, draw, force: int | None = None) -> int:
        """Measure a Hermitian Pauli string; returns the outcome bits, bit
        ``s`` for shot ``s`` (0 for +1).

        A random outcome takes its bits from ``draw()``; a fixed one is read
        from ``r``. Either way x and z evolve alike for every shot. ``force``,
        the outcome bit of every shot, replaces the draw; a fixed outcome
        that differs from it raises ``InconsistentOutcomeError``. A force
        other than 0 or 1 raises ``ValueError``; neither error changes a row.
        On rows shared with copies, the x/z update is a stored move (see
        ``_SharedRows``) and this tableau writes only its signs.
        """
        if force not in (None, 0, 1):
            raise ValueError(f"forced outcome bit {force!r} is not 0 or 1")
        forced = self.all_shots if force else 0
        px, pz, pr = self._bits_of(p)
        shared = self._shared
        move = None if shared is None else shared.moves.get((px, pz))
        if move is None:
            anti = _kernels.anticommuting_rows(self.cx, self.cz, px, pz)
            stab = anti >> self.n
            if stab and shared is None:  # rows of its own: the CHP update in place
                self.last_random = True
                outcome = draw() if force is None else forced
                pivot = self.n + (stab & -stab).bit_length() - 1
                _kernels.random_update(self.x, self.z, self.cx, self.cz, self.r,
                                       self.all_shots, anti, pivot, px, pz, pr, outcome)
                return outcome
            move = self._move(px, pz, anti)
        self.last_random = type(move) is _Random
        if not self.last_random:
            bits = self._fixed_bits(move, pr)
            if force is not None and bits != forced:
                raise InconsistentOutcomeError(
                    f"outcome bit {force} requested, but the outcome bits are {bits:b}")
            return bits
        outcome = draw() if force is None else forced
        after, pivot, same, negated = move
        r, ones = self.r, self.all_shots
        rp = r[pivot]
        if rp:  # a sign of 0 flips no row
            for i in same:
                r[i] ^= rp
        rp_negated = rp ^ ones
        if rp_negated:
            for i in negated:
                r[i] ^= rp_negated
        r[pivot - self.n] = rp
        r[pivot] = outcome ^ ones if pr else outcome
        self.x, self.z, self.cx, self.cz = after.x, after.z, after.cx, after.cz
        self._shared = after if after.family is not None else None
        return outcome

    def _move(self, px: int, pz: int, anti: int) -> _Fixed | _Random:
        """What measuring (px|pz), whose anticommuting rows ``anti`` marks,
        does to this tableau: a ``_Fixed`` for a fixed outcome, a ``_Random``
        for a random one on shared rows. A move on shared rows is stored
        while the family has room."""
        n, shared = self.n, self._shared
        stab = anti >> n
        if not stab:
            # the stabilizer rows whose destabilizer partner anticommutes
            # with p multiply to ±p
            rows = [n + i for i in _kernels.set_bits(anti)]
            acc_x, acc_z, exponent = _kernels.row_product(self.x, self.z, rows)
            if acc_x != px or acc_z != pz:
                raise AssertionError("deterministic branch accumulated a wrong operator")
            # the product's sign is (-1)^(sign bits) * i^exponent, the
            # exponent even since the rows commute
            move = _Fixed(rows, exponent % 4 // 2)
        else:
            # the CHP update on copies of the rows, with probe signs: one
            # pivot sign 0b01 over two shots leaves 0b01 on the rows that take
            # it and 0b10 on the rows that take its negation
            pivot = n + (stab & -stab).bit_length() - 1
            copies = [list(v) for v in (self.x, self.z, self.cx, self.cz)]
            probe = [0] * (2 * n)
            probe[pivot] = 0b01
            _kernels.random_update(*copies, probe, 0b11, anti, pivot, px, pz, 0, 0)
            signed = _kernels.set_bits(anti & ~(1 << pivot | 1 << (pivot - n)))
            family = shared.family if shared.family.stored < SHARED_MOVES else None
            move = _Random(_SharedRows(*copies, family), pivot,
                           [i for i in signed if probe[i] == 0b01],
                           [i for i in signed if probe[i] == 0b10])
        if shared is not None:
            shared.store(shared.moves, (px, pz), move)
        return move

    def _fixed_bits(self, move: _Fixed, pr: int) -> int:
        """Outcome bits of a fixed measurement, as ``measure_signs`` returns
        them: the sign of its rows' product over p's own, sign bit ``pr``."""
        bits = self.all_shots if move.phase ^ pr else 0
        for i in move.rows:
            bits ^= self.r[i]
        return bits

    def apply_pauli(self, p: PauliString, shots: int | None = None) -> None:
        """Conjugate the state by a Pauli unitary (sign flips only): every
        shot, or with ``shots`` only the shots whose bit is set in it."""
        px, pz, _ = self._bits_of(p)
        mask = self.all_shots if shots is None else shots
        shared = self._shared
        rows = None if shared is None else shared.flips.get((px, pz))
        if rows is None:
            rows = _kernels.set_bits(_kernels.anticommuting_rows(self.cx, self.cz, px, pz))
            if shared is not None:
                shared.store(shared.flips, (px, pz), rows)
        r = self.r
        for i in rows:
            r[i] ^= mask

    def expectation_sign(self, p: PauliString) -> int | None:
        """±1 if ``p`` is fixed by the lone tableau's state, None if the
        outcome is random."""
        self._require_lone()
        px, pz, pr = self._bits_of(p)
        move = None if self._shared is None else self._shared.moves.get((px, pz))
        if move is None:
            anti = _kernels.anticommuting_rows(self.cx, self.cz, px, pz)
            if anti >> self.n:
                return None
            move = self._move(px, pz, anti)
        if type(move) is _Random:
            return None
        return 1 - 2 * self._fixed_bits(move, pr)

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        """A header line, then per row its kind (D or S), its sign and its
        letters, site 0 first."""
        self._require_lone()
        n = self.n
        lines = np.empty((2 * n, n + 3), dtype=np.uint8)
        lines[:n, 0], lines[n:, 0] = ord("D"), ord("S")
        lines[:, 1] = np.frombuffer(b"+-", dtype=np.uint8)[self.r]
        lines[:, 2:-1] = self._codes()
        lines[:, -1] = ord("\n")
        # codes 0-3 become letters; the other columns hold no byte below 4
        text = lines.tobytes().translate(_LETTER_OF_CODE).decode()
        return f"twistsim-tableau v1 n={n}\n" + text

    @classmethod
    def from_text(cls, text: str, seed: int = 0) -> "Tableau":
        """The tableau ``to_text`` wrote; raises ``ValueError`` unless the
        text has 2n rows, n D rows then n S rows, each a sign of + or - and n
        letters of IXYZ."""
        lines = text.strip().splitlines() or [""]
        header = lines[0].split()
        if header[:2] != ["twistsim-tableau", "v1"] or len(header) != 3 \
                or not header[2].startswith("n="):
            raise ValueError(f"unsupported tableau format: {lines[0]!r}")
        n = int(header[2][2:])
        if len(lines) != 2 * n + 1:
            raise ValueError(f"a tableau of n={n} has {2 * n} rows, not {len(lines) - 1}")
        t = cls.zero_state(n, seed)
        for i, line in enumerate(lines[1:]):
            kind = "D" if i < n else "S"
            if len(line) != n + 2 or line[0] != kind or line[1] not in "+-" \
                    or line[2:].strip("IXYZ"):
                raise ValueError(f"row {i} is not {kind}, a sign and {n} letters "
                                 f"of IXYZ: {line!r}")
            t.r[i] = int(line[1] == "-")
            letters = line[:1:-1]            # site 0 last: the lowest bit
            _kernels.set_row(t.x, t.cx, i, int("0" + letters.translate(_X_BITS), 2))
            _kernels.set_row(t.z, t.cz, i, int("0" + letters.translate(_Z_BITS), 2))
        return t


# -- per-lattice derived data -------------------------------------------------


def _memo(method):
    """Cache ``method`` per instance, keyed on its positional arguments, which
    must be hashable (a loop is a tuple, not a list). The entries live in the
    instance's ``__dict__`` under ``_memo_<name>``, a key the method's own
    name never shadows, so they die with the instance (``functools.lru_cache``
    would keep every instance alive in a class-level cache). A hit costs two
    dictionary lookups."""
    slot = f"_memo_{method.__name__}"

    @wraps(method)
    def cached(self, *args):
        memo = self.__dict__.get(slot)
        if memo is None:
            memo = self.__dict__[slot] = {}
        try:
            return memo[args]
        except KeyError:
            pass
        out = memo[args] = method(self, *args)
        return out

    return cached


class HolePlan(NamedTuple):
    """The route of a hole readout of one pair along one loop (see
    ``CodeContext.hole_plan``)."""
    encloses_pair: bool
    anchor: int | None               # the fixed hole, None when there is none
    z_logical: PauliString | None    # the cut from the anchor to loop[0]
    # per hop: the face left, the face entered, the hop's cut operator and
    # the left face's plaquette operator
    hops: tuple[tuple[int, int, PauliString, PauliString], ...]


class DirectPlan(NamedTuple):
    """What a direct readout of one string measures (see
    ``CodeContext.direct_plan``)."""
    faces: tuple[int, ...]                           # turned off, id order
    sites: tuple[tuple[int, PauliString], ...]       # site, single-site operator


class CodeContext:
    """What the code-level operations derive from one lattice through ``jw``
    or a tableau: the twist modes, the parity and bracket strings, the
    logicals, the ground tableau and the readouts' geometry. The plaquette
    operators and their rows are the lattice's own
    (``TwistLattice.plaquette_ops``, ``stabilizer_matrix()``).

    A parity or bracket string is a logical operator: any string that
    differs from it by plaquettes has the same eigenvalue on a state whose
    plaquettes read +1. ``raw_parity_string`` and ``raw_bracket_string`` are
    the strings as the Jordan-Wigner map gives them; ``parity_string`` and
    ``bracket_string`` are their stabilizer-reduced, minimum-weight forms.
    The reduced forms serve ``init_ground`` and the readouts, since the
    direct readout measures a string site by site, and ``derive``. ``ground``
    pins the raw forms: a projective measurement takes any form, so the
    lattice backend's ground and braids run no reduction.

    Each object is built at most once, on first use: the attributes through
    ``cached_property``, the methods through ``_memo``, keyed on their
    arguments. ``code_context(lat)`` stores the context on the lattice, so it
    and every cached entry live exactly as long as the lattice. Entries that
    also depend on a tableau's registered logicals are keyed on those
    logicals, never on how many there are.

    The readouts' geometry lives here too:

    * ``hole_plan(loop, pair)``: the hole readout's whole route, keyed on
      the loop and the pair: whether the loop encloses the pair
      (``_validate_loop``), the anchor face and its cut, and each hop's cut
      and vacated face; an invalid loop raises and is not stored;
    * ``direct_plan(string)``: the plaquettes a parity string touches, in
      face-id order, which the direct readout turns off, and the string's
      single-site operators, keyed on the string.

    A readout shot thus reads its geometry from one entry.
    """

    def __init__(self, lat: TwistLattice):
        self.lat = lat

    @cached_property
    def path(self) -> jw.JWPath:
        return jw.default_path(self.lat)

    @cached_property
    def modes(self) -> list[jw.MajoranaMode]:
        """The unpaired mode of each twist along ``path``."""
        return jw.twist_modes(self.lat, self.path)

    @_memo
    def raw_parity_string(self, a: int, b: int) -> PauliString:
        """Jordan-Wigner parity string of twist modes ``a`` and ``b``, as
        ``jw`` derives it, checked to commute with the plaquettes."""
        return jw.check_commutant(jw.mode_parity_operator(
            self.lat, self.path, self.modes[a], self.modes[b]), self.lat)

    @_memo
    def raw_bracket_string(self, pair: int) -> PauliString:
        """Jordan-Wigner edge bracket of one segment's rows, as ``jw``
        derives it, checked to commute with the plaquettes."""
        return jw.check_commutant(
            jw.bracket_parity(self.lat, self.path, pair, self.modes), self.lat)

    @_memo
    def parity_string(self, a: int, b: int) -> PauliString:
        """Stabilizer-reduced ``raw_parity_string``."""
        return jw.reduce_by_stabilizers(self.raw_parity_string(a, b), self.lat)

    @_memo
    def bracket_string(self, pair: int) -> PauliString:
        """Stabilizer-reduced ``raw_bracket_string``."""
        return jw.reduce_by_stabilizers(self.raw_bracket_string(pair), self.lat)

    @cached_property
    def z_logicals(self) -> tuple[PauliString, ...]:
        """Stabilizer-reduced parity of each twist pair, each on its own path
        (see ``lattice.twist_logicals``)."""
        return tuple(
            jw.reduce_by_stabilizers(
                jw.parity_operator(self.lat, jw.default_path(self.lat, pair), pair),
                self.lat)
            for pair in range(self.lat.n_pairs)
        )

    @_memo
    def x_logical(self, pair: int) -> PauliString:
        """Weight-reduced conjugate of ``z_logicals[pair]``: it commutes with
        every plaquette and every other pair's Z logical. Raises
        ``KeyError`` outside 0..n_pairs-1."""
        self.lat.twist_pair(pair)
        n = self.lat.n_sites
        constraints = [(v, 0) for v in self.lat.stabilizer_matrix()]
        for j, z in enumerate(self.z_logicals):
            constraints.append((_gf2.symplectic_vector(z, n), 1 if j == pair else 0))
        vec = _gf2.solve_symplectic(constraints, n)
        if vec is None:  # pragma: no cover - cannot happen on a valid lattice
            raise GeometryError("no logical X operator exists; lattice is inconsistent")
        return jw.reduce_by_stabilizers(_gf2.pauli_from_vector(vec, n), self.lat)

    @_memo
    def ground(self, pins: tuple[tuple[int, int, int], ...]) -> Tableau:
        """Seed-0 ground tableau with ``pins`` pinned as ``init_ground`` pins
        them, but on the raw strings, which it also registers. Each raw
        string is its reduced string times plaquettes, which the ground fixes
        at +1 first, so both pin the same value. Callers copy it."""
        return _pinned_ground(self.lat, 0, list(pins),
                              self.raw_parity_string, self.raw_bracket_string)

    def face_flip(self, pid: int, logicals: dict[str, PauliString]) -> PauliString:
        """Pauli anticommuting with exactly one plaquette, ``pid``, and with
        none of ``logicals``."""
        return self._face_flip(pid, tuple(sorted(logicals.items())))

    @_memo
    def _face_flip(self, pid: int, registry: tuple) -> PauliString:
        constraints = [(v, 1 if k == pid else 0)
                       for k, v in enumerate(self.lat.stabilizer_matrix())]
        constraints += [(v, 0) for v in self._independent_logicals(registry)]
        vec = _gf2.solve_symplectic(constraints, self.lat.n_sites)
        if vec is None:  # pragma: no cover - independent commuting generators
            raise GeometryError(f"no frame-flip operator exists for face {pid}")
        return _gf2.pauli_from_vector(vec, self.lat.n_sites)

    @_memo
    def _independent_logicals(self, registry: tuple) -> list[int]:
        # registered logicals are not independent modulo the face group
        # (products of pair parities can fall back into it); keep a maximal
        # independent subset, which already pins the rest: each logical
        # outside the span of the faces and of the logicals kept before it.
        return _gf2.outside_span(
            self.lat.stabilizer_matrix(),
            [_gf2.symplectic_vector(op, self.lat.n_sites) for _, op in registry])

    @_memo
    def hole_plan(self, loop: tuple[int, ...], pair: int) -> HolePlan:
        """The route of a hole readout of ``pair`` along ``loop``: whether
        the loop encloses the pair; the fixed hole, a square diagonal
        neighbour of ``loop[0]`` off the loop and outside it (None when there
        is none), and its cut to ``loop[0]``; and each hop of the loop with
        its ``cut_operator``. Raises ``GeometryError`` for an invalid loop or
        a hop without a cut operator."""
        lat = self.lat
        encloses_pair = _validate_loop(lat, loop, pair)
        ops = lat.plaquette_ops
        hops = tuple((f, g, cut_operator(lat, f, g), ops[f])
                     for f, g in zip(loop, loop[1:] + loop[:1]))
        for p in lat.plaquettes:
            if p.id in loop or p.kind != "square":
                continue
            try:
                z_logical = cut_operator(lat, p.id, loop[0])
            except GeometryError:
                continue
            if not _loop_encloses(lat, loop, p.ordered_sites[0]):
                return HolePlan(encloses_pair, p.id, z_logical, hops)
        return HolePlan(encloses_pair, None, None, hops)

    @_memo
    def direct_plan(self, string: PauliString) -> DirectPlan:
        """Ids of the plaquettes sharing a site with ``string``, sorted, and
        the string's single-site operators."""
        sites = string.x | string.z
        return DirectPlan(
            tuple(k for k, op in enumerate(self.lat.plaquette_ops)
                  if (op.x | op.z) & sites),
            _site_operators(string))

    @_memo
    def loop_decomposition(
        self, loop: tuple[int, ...], pair: int,
        parity_string: PauliString, bracket: PauliString,
    ) -> tuple[list[int], PauliString]:
        """Split the loop operator into factors with readable signs.

        The loop operator, the product of the cut operators along ``loop``,
        lies in the class of (pair parity) x (row bracket) x plaquettes when
        the loop encircles the pair. Returns ``(faces, factor)``: ``factor``
        is the loop operator times the pair parity if enclosed, and equals
        the product of the plaquettes ``faces`` (and of the bracket, where
        the class needs it) up to its sign.
        """
        n = self.lat.n_sites
        plan = self.hole_plan(loop, pair)
        loop_op = product(cut for _, _, cut, _ in plan.hops)
        factor = loop_op * parity_string if plan.encloses_pair else loop_op
        rows = self.lat.stabilizer_matrix() + [_gf2.symplectic_vector(bracket, n)]
        sel = _gf2.solve(rows, _gf2.symplectic_vector(factor, n))
        if sel is None:
            raise GeometryError("loop operator is not in the expected logical class")
        n_faces = len(self.lat.plaquettes)
        return [k for k in _kernels.set_bits(sel) if k < n_faces], factor


def code_context(lat: TwistLattice) -> CodeContext:
    """The lattice's ``CodeContext``, created on first use."""
    ctx = lat.__dict__.get("_code_context")
    if ctx is None:
        ctx = CodeContext(lat)
        object.__setattr__(lat, "_code_context", ctx)  # the lattice is frozen
    return ctx


# -- code-level operations ----------------------------------------------------


def init_ground(
    lat: TwistLattice,
    seed: int | np.random.Generator = 0,
    pinned_pairs: list[tuple[int, int]] | list[tuple[int, int, int]] | None = None,
) -> Tableau:
    """Ground state with all plaquettes at +1 and pair parities pinned.

    ``pinned_pairs`` lists twist-mode index pairs (0-based registry order)
    whose parity strings are pinned, optionally with an explicit sign as a
    third entry (default -1, the bare-convention vacuum). Defaults to each
    segment's own pair. The construction is fully deterministic; the seed
    only feeds later random measurements. The pinned and registered strings
    are the stabilizer-reduced ones (``CodeContext.parity_string`` and
    ``bracket_string``), which the readouts measure.
    """
    ctx = code_context(lat)
    return _pinned_ground(lat, seed, pinned_pairs,
                          ctx.parity_string, ctx.bracket_string)


def _pinned_ground(lat, seed, pinned_pairs, parity_string, bracket_string) -> Tableau:
    """``init_ground`` with the strings of mode pair ``(a, b)`` and segment
    ``pair`` taken from ``parity_string(a, b)`` and ``bracket_string(pair)``.
    Refuses, before any measurement, a mode outside 0..2*n_pairs-1, a pin of
    a mode with itself, whose string is i·1, and a pin sharing one mode with
    an earlier pin, whose sign it would randomize."""
    t = Tableau.zero_state(lat.n_sites, seed)
    t.lattice = lat

    generators: list[tuple[PauliString, int]] = [
        (op, +1) for op in lat.plaquette_ops
    ]
    if pinned_pairs is None:
        pinned_pairs = [(2 * k, 2 * k + 1) for k in range(lat.n_pairs)]
    modes = range(2 * lat.n_pairs)
    for k, (a, b, *pin_sign) in enumerate(pinned_pairs):
        if a not in modes or b not in modes:
            raise ValueError(f"pinned mode outside 0..{len(modes) - 1}: ({a}, {b})")
        if a == b:
            raise ValueError(f"pin ({a}, {b}) pairs a mode with itself")
        if any(len({a, b} & set(pin[:2])) == 1 for pin in pinned_pairs[:k]):
            raise ValueError(f"pin ({a}, {b}) shares one mode with an earlier pin")
        string = parity_string(a, b)
        t.logicals[f"parity_{a}_{b}"] = string
        generators.append((string, pin_sign[0] if pin_sign else -1))
    for pair in range(lat.n_pairs):
        bracket = bracket_string(pair)
        t.logicals[f"bracket_{pair}"] = bracket
        generators.append((bracket, +1))

    enforced: list[PauliString] = []
    for op, sign in generators:
        try:
            t.measure(op, force=sign)
        except InconsistentOutcomeError:
            # op is already in the enforced group with the opposite sign; flip
            # it with a Pauli that anticommutes with op only, if one exists.
            constraints = [(_gf2.symplectic_vector(g, lat.n_sites), 0)
                           for g in enforced]
            constraints.append((_gf2.symplectic_vector(op, lat.n_sites), 1))
            vec = _gf2.solve_symplectic(constraints, lat.n_sites)
            if vec is None:
                raise GeometryError("cannot pin stabilizer sign; generators conflict")
            t.apply_pauli(_gf2.pauli_from_vector(vec, lat.n_sites))
            t.measure(op, force=sign)
        enforced.append(op)
    t.reference_signs = {p.id: 1 for p in lat.plaquettes}
    return t


def syndrome(t: Tableau) -> dict[int, int]:
    """Sign of every plaquette stabilizer of the tableau's lattice, 0 where it
    is random; empty without a lattice."""
    ops = () if t.lattice is None else t.lattice.plaquette_ops
    out = {}
    for pid, op in enumerate(ops):
        sign = t.expectation_sign(op)
        out[pid] = 0 if sign is None else sign
    return out


@dataclass
class DirectParityResult:
    outcome: int
    site_outcomes: dict[int, int]
    repaired_signs: dict[int, int]
    syndrome_flags: set[int] = field(default_factory=set)


def measure_parity_direct(
    t: Tableau,
    string: PauliString,
    check_syndrome: bool = False,
) -> DirectParityResult:
    """Measure a parity string by single-site measurements of its letters.

    The stabilizers overlapping the string (``CodeContext.direct_plan``)
    are switched off, each letter is measured individually, their product
    (times the string's sign) is the parity, and the stabilizers are
    re-measured afterwards. The parity is a quantum non-demolition readout:
    the string commutes with every plaquette, so re-enabling cannot change
    it, and the flips that push a -1 face back to +1 commute with the string,
    registered or not, so the tableau is left at the returned outcome.
    """
    if not string.is_hermitian:
        raise ValueError("parity string must be Hermitian")
    flags: set[int] = set()
    if check_syndrome:
        before = syndrome(t)
        flags |= {
            pid for pid, sign in before.items()
            if sign != t.reference_signs.get(pid, sign)
        }

    if t.lattice is not None:
        faces, sites = code_context(t.lattice).direct_plan(string)
    else:
        faces, sites = (), _site_operators(string)

    phase_sign = 1 if string.phase == 0 else -1
    site_outcomes: dict[int, int] = {}
    partial = 1
    for site, op in sites:
        lam = t.measure(op)
        site_outcomes[site] = lam
        partial *= lam
    outcome = phase_sign * partial

    repaired = {pid: t.measure(t.lattice.plaquette_ops[pid]) for pid in faces}
    # restore the Pauli frame: push every re-measured stabilizer back to +1
    # with flip operators chosen to commute with all registered logicals, so
    # spectator parities keep their meaning across repeated readouts, and
    # with the string just read, so the tableau keeps its outcome. Unless
    # registered, the string goes first (key ""), so it is the one
    # ``_independent_logicals`` keeps when a registered one depends on it.
    logicals = t.logicals
    for pid, sign in repaired.items():
        if sign == -1:
            if string not in logicals.values():
                logicals = {**logicals, "": string}
            t.apply_pauli(code_context(t.lattice).face_flip(pid, logicals))
        t.reference_signs[pid] = 1

    if check_syndrome:
        after = syndrome(t)
        flags |= {
            pid for pid, sign in after.items()
            if sign != t.reference_signs.get(pid, sign)
        }
    return DirectParityResult(outcome, site_outcomes, repaired, flags)


def _site_operators(string: PauliString) -> tuple[tuple[int, PauliString], ...]:
    """Each site of ``string`` with its letter as a single-site operator."""
    return tuple((site, PauliString.single(site, letter))
                 for site, letter in string.support)


# -- hole-based parity measurement --------------------------------------------


def cut_operator(lat: TwistLattice, f1: int, f2: int) -> PauliString:
    """Single-site operator whose excitation pair is exactly {f1, f2}.

    Works for diagonally adjacent faces: they share one corner where both act
    with the same letter; the clashing letter of the other diagonal is the
    cut. Used both as hole-moving 'edge' operator and as chain segment.
    """
    op1, op2 = plaquette_operator(lat, f1), plaquette_operator(lat, f2)
    shared = (op1.x | op1.z) & (op2.x | op2.z)
    if shared.bit_count() != 1:
        raise GeometryError(f"faces {f1},{f2} are not diagonal neighbours")
    site = shared.bit_length() - 1
    la, lb = op1.letter_at(site), op2.letter_at(site)
    if la != lb:
        raise GeometryError(f"faces {f1},{f2} clash at site {site}; not a hop")
    if la == "Y":
        raise GeometryError(f"cannot cut through letter Y at site {site}")
    return PauliString.single(site, "Z" if la == "X" else "X")


def diamond_loop(lat: TwistLattice, pair: int, radius: int) -> list[int]:
    """Closed staircase loop of same-colour faces around a twist pair."""
    lat.twist_pair(pair)  # raises KeyError outside 0..n_pairs-1
    seg = lat.segments[pair]
    center_r = seg.row
    center_c = (seg.col_start + seg.col_end) // 2
    steps = [(-1, 1)] * radius + [(-1, -1)] * radius + [(1, -1)] * radius + \
        [(1, 1)] * radius
    key = (center_r + radius, center_c)  # start at the bottom corner
    face_keys = []
    r, c = key
    for dr, dc in steps:
        face_keys.append((r, c))
        r, c = r + dr, c + dc
    if (r, c) != key:  # pragma: no cover - construction is closed by design
        raise GeometryError("loop failed to close")
    # a face's key is its least row and least column; ids are row-major
    w = lat.width
    by_key = {(min(p.ordered_sites) // w, min(s % w for s in p.ordered_sites)): p
              for p in lat.plaquettes}
    loop = []
    for fk in face_keys:
        if fk not in by_key:
            raise GeometryError(f"loop face {fk} does not exist on this lattice")
        p = by_key[fk]
        if p.kind != "square":
            raise GeometryError("loop must avoid dislocation faces")
        loop.append(p.id)
    return loop


def _loop_encloses(lat: TwistLattice, loop: list[int], site: int) -> bool:
    """Even-odd test of a site against the polygon of loop-face centres."""
    centers = []
    for pid in loop:
        coords = [lat.site_coords(s) for s in lat.plaquette(pid).ordered_sites]
        centers.append(
            (sum(r for r, _ in coords) / len(coords),
             sum(c for _, c in coords) / len(coords))
        )
    py, px = lat.site_coords(site)
    inside = False
    m = len(centers)
    for i in range(m):
        y1, x1 = centers[i]
        y2, x2 = centers[(i + 1) % m]
        if (y1 > py) != (y2 > py):
            x_cross = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if px < x_cross:
                inside = not inside
    return inside


def _validate_loop(lat: TwistLattice, loop: list[int], pair: int) -> bool:
    """Check closure and enclosure; returns True when the pair is enclosed."""
    if len(loop) < 4:
        raise GeometryError("loop too short")
    for i, pid in enumerate(loop):
        nxt = loop[(i + 1) % len(loop)]
        shared = set(lat.plaquette(pid).sites) & set(lat.plaquette(nxt).sites)
        if len(shared) != 1:
            raise GeometryError("loop is not a closed chain of diagonal hops")
    enclosed = [t.id for t in lat.twists if _loop_encloses(lat, loop, t.twist_site)]
    mine = {2 * pair, 2 * pair + 1}
    if not enclosed:
        return False
    if set(enclosed) != mine:
        raise GeometryError(
            f"loop encloses twists {enclosed}, expected exactly {sorted(mine)}"
        )
    return True


def measure_parity_hole(
    t: Tableau, pair: int, loop: list[int]
) -> tuple[int, HolePlan]:
    """Parity readout by braiding a measurement hole around the twist pair.

    Creates a two-hole ancilla qubit next to the loop, the fixed hole at the
    plan's anchor and the mobile one at ``loop[0]``, measures its connecting
    logical, drags the mobile hole once around the loop (extend with the edge
    operator, heal the vacated stabilizer, tracking every sign), re-measures
    the logical, and combines the record into the enclosed pair parity.
    Returns the parity and the route, ``CodeContext.hole_plan``. Every
    refusal of the geometry comes before the first measurement.
    """
    lat = t.lattice
    if lat is None:
        raise ValueError("tableau carries no lattice")
    ctx = code_context(lat)
    loop = tuple(loop)
    plan = ctx.hole_plan(loop, pair)
    parity_string = t.logicals.get(f"parity_{2 * pair}_{2 * pair + 1}")
    if parity_string is None:
        raise ValueError(f"pair {pair} has no registered parity string")
    anchor, mobile, z_logical = plan.anchor, loop[0], plan.z_logical
    if anchor is None:
        raise GeometryError("no anchor face available next to the loop")
    # the loop operator (product of the cut operators) is the pair parity
    # times a product of plaquettes and the bracket, whose sign the state
    # fixes once the hole is back at loop[0]; none of those plaquettes may be
    # one of the two holes.
    bracket = t.logicals.get(f"bracket_{pair}", PauliString.identity())
    faces, factor = ctx.loop_decomposition(loop, pair, parity_string, bracket)
    if anchor in faces or mobile in faces:
        raise GeometryError("loop decomposition touches an open hole")

    z1 = t.measure(z_logical)
    lam_product = 1
    for f, _, cut, face in plan.hops:
        lam_product *= t.measure(cut)  # extend the hole onto the next face
        t.reference_signs[f] = t.measure(face)  # heal vacated face
    z2 = t.measure(z_logical)

    sign = t.expectation_sign(factor)
    if sign is None:
        raise InconsistentOutcomeError(
            "loop readout needs a fixed edge bracket; state has none"
        )
    outcome = z1 * z2 * lam_product * sign

    # close the holes: re-measure both hole stabilizers
    ops = lat.plaquette_ops
    t.reference_signs[mobile] = t.measure(ops[mobile])
    t.reference_signs[anchor] = t.measure(ops[anchor])
    return outcome, plan
