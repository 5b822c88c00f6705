"""CHP-style stabilizer tableau simulation of the twisted planar code.

The tableau carries n destabilizer and n stabilizer rows (binary symplectic
vectors plus a sign bit). On top of the generic simulator this module
implements the code-level machinery: ground-state preparation with pinned
twist-pair parities, the direct (turn-off-and-measure) parity readout, and
the indirect readout that drags a hole around the twists. Each readout runs
on a ``Tableau.copy`` of the ground, which owns only what a shot changes: its
signs, its registered logicals and its Pauli frame. Which faces a readout
switches off is part of the readout's plan, not tableau state; what a readout
does to the signs is its program, recorded once per plan and start state
(``_readout``). The plaquette operators are the lattice's own
(``TwistLattice.plaquette_ops``); what these operations derive from them
through ``jw`` or a tableau, the readouts' plans included, a ``CodeContext``
keeps in a store that the lattice owns.
The lattice owns the store, a context owns its lattice, and so does every
tableau ``CodeContext.ground`` hands out; nothing in the store points back
at a lattice or a context, so a job's lattice dies by reference counting as
soon as the job drops it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
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


class Tableau:
    """Stabilizer state of ``n`` qubits, its signs and its Pauli frame.

    Rows ``x`` and ``z`` are lists of 2n Python integers, bit ``j`` for site
    ``j``; ``cx`` and ``cz`` hold the same bits by site, bit ``i`` for row
    ``i``. Bit ``s`` of the sign integer ``r[i]`` is shot ``s``'s sign, and
    ``all_shots`` has one bit per shot (see ``_kernels``): a tableau is a lone
    shot, a batch of one, until ``spread`` makes it a batch of shots that
    share its rows. ``measure``, ``expectation_sign`` and ``to_text`` read a
    lone tableau only. A fresh tableau owns its rows and updates them in
    place; ``copy`` makes the copy and the original share them copy-on-write,
    and whichever first updates them in place, or ``spread``s, takes a copy
    of its own. Rows that copies share carry the readout programs recorded
    from them (``_programs``, see ``_readout``).

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
        # None while the rows are its own; once copies share them, the readout
        # programs recorded from them, by plan
        self._programs: dict[int, tuple] | None = None
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
        shared, and so are the x/z rows, copy-on-write."""
        if self._programs is None:
            self._programs = {}
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__)
        out.r = list(self.r)
        out.logicals = dict(self.logicals)
        out.reference_signs = dict(self.reference_signs)
        return out

    def _own_rows(self) -> None:
        """Take a copy of rows shared with copies, before writing them."""
        if self._programs is not None:
            self.x, self.z, self.cx, self.cz = (
                list(v) for v in (self.x, self.z, self.cx, self.cz))
            self._programs = None

    def spread(self, shots: int) -> None:
        """Make this lone tableau a batch of ``shots`` shots in its state,
        with rows of its own."""
        self._require_lone()
        if shots < 1:
            raise ValueError(f"a batch needs at least one shot, not {shots}")
        self._own_rows()
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
        Every sign update is an XOR of signs, outcome bits and ``all_shots``,
        so it is linear over GF(2) with ``all_shots`` as 1 (see ``_readout``).
        """
        if force not in (None, 0, 1):
            raise ValueError(f"forced outcome bit {force!r} is not 0 or 1")
        forced = self.all_shots if force else 0
        px, pz, pr = self._bits_of(p)
        anti = _kernels.anticommuting_rows(self.cx, self.cz, px, pz)
        stab = anti >> self.n
        self.last_random = bool(stab)
        if not stab:
            bits = self._fixed_bits(px, pz, pr, anti)
            if force is not None and bits != forced:
                raise InconsistentOutcomeError(
                    f"outcome bit {force} requested, but the outcome bits are {bits:b}")
            return bits
        outcome = draw() if force is None else forced
        self._own_rows()
        pivot = self.n + (stab & -stab).bit_length() - 1
        _kernels.random_update(self.x, self.z, self.cx, self.cz, self.r,
                               self.all_shots, anti, pivot, px, pz, pr, outcome)
        return outcome

    def _fixed_bits(self, px: int, pz: int, pr: int, anti: int) -> int:
        """Outcome bits of a fixed measurement of (px|pz), sign bit ``pr``,
        whose anticommuting rows ``anti`` are all destabilizers: the sign of
        the product of their stabilizer partners, which is ±p, over p's own."""
        # the stabilizer rows whose destabilizer partner anticommutes with p
        # multiply to ±p
        rows = [self.n + i for i in _kernels.set_bits(anti)]
        acc_x, acc_z, exponent = _kernels.row_product(self.x, self.z, rows)
        if acc_x != px or acc_z != pz:
            raise AssertionError("deterministic branch accumulated a wrong operator")
        # the product's sign is (-1)^(sign bits) * i^exponent, the exponent
        # even since the rows commute
        bits = self.all_shots if exponent % 4 // 2 ^ pr else 0
        for i in rows:
            bits ^= self.r[i]
        return bits

    def apply_pauli(self, p: PauliString, shots: int | None = None) -> None:
        """Conjugate the state by a Pauli unitary (sign flips only): every
        shot, or with ``shots`` only the shots whose bit is set in it."""
        px, pz, _ = self._bits_of(p)
        mask = self.all_shots if shots is None else shots
        r = self.r
        for i in _kernels.set_bits(_kernels.anticommuting_rows(self.cx, self.cz, px, pz)):
            r[i] ^= mask

    def expectation_sign(self, p: PauliString) -> int | None:
        """±1 if ``p`` is fixed by the lone tableau's state, None if the
        outcome is random."""
        self._require_lone()
        px, pz, pr = self._bits_of(p)
        anti = _kernels.anticommuting_rows(self.cx, self.cz, px, pz)
        if anti >> self.n:
            return None
        return 1 - 2 * self._fixed_bits(px, pz, pr, anti)

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
    """Cache ``method`` per context, keyed on its positional arguments, which
    must be hashable (a loop is a tuple, not a list). The entries live in the
    context's ``store`` under the method's name, so they die with the lattice
    that owns the store (``functools.lru_cache`` would keep every lattice
    alive in a class-level cache). A hit costs two dictionary lookups."""
    name = method.__name__

    @wraps(method)
    def cached(self, *args):
        memo = self.store.get(name)
        if memo is None:
            memo = self.store[name] = {}
        try:
            return memo[args]
        except KeyError:
            pass
        out = memo[args] = method(self, *args)
        return out

    return cached


class HolePlan(NamedTuple):
    """The whole plan of a hole readout of one pair along one loop (see
    ``CodeContext.hole_plan``)."""
    encloses_pair: bool
    anchor: int                      # the fixed hole
    z_logical: PauliString           # the cut from the anchor to loop[0]
    # per hop: the face left, the face entered, the hop's cut operator and
    # the left face's plaquette operator
    hops: tuple[tuple[int, int, PauliString, PauliString], ...]
    factor: PauliString              # the loop factor whose sign the state fixes


class DirectPlan(NamedTuple):
    """The whole plan of a direct readout of one string (see
    ``CodeContext.direct_plan``)."""
    sites: tuple[tuple[int, PauliString], ...]       # site, single-site operator
    # per face turned off, in id order: its id, its plaquette operator and
    # the frame flip that takes it back to +1
    faces: tuple[tuple[int, PauliString, PauliString], ...]


class CodeContext:
    """What the code-level operations derive from one lattice through ``jw``
    or a tableau: the twist modes, the parity and bracket strings, the
    logicals, the ground tableau and the readouts' plans. The plaquette
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

    Each object is built at most once, on first use, through ``_memo``,
    keyed on its arguments (none for ``path``, ``modes`` and
    ``z_logicals``). Who owns whom: the lattice owns ``store``, a plain dict
    that holds every entry; a context owns its lattice and reads and writes
    the lattice's store; a tableau that ``ground`` hands out owns its
    lattice too. Nothing in the store points back at a lattice or a
    context: the stored ground holds no lattice. So a context keeps its
    lattice alive, and dropping the last context, tableau and lattice of a
    job frees them all by reference counting, without waiting for the
    cyclic garbage collector. Entries that also depend on a tableau's
    registered logicals are keyed on those logicals, never on how many
    there are.

    Each readout's whole plan lives here too, one entry per readout:

    * ``hole_plan(loop, pair, parity_string, bracket)``: whether the loop
      encloses the pair (``_validate_loop``), the anchor face and its cut,
      each hop's cut and vacated face, and the loop factor whose sign the
      state fixes; a refused readout raises and is not stored;
    * ``direct_plan(string, registry)``: the string's single-site operators
      and, per plaquette it touches, the plaquette operator and its frame
      flip against the registered logicals ``registry``; a refused readout
      raises and is not stored.

    A readout shot thus reads its plan from one entry.
    """

    __slots__ = ("lat", "store")

    def __init__(self, lat: TwistLattice, store: dict):
        self.lat = lat
        self.store = store

    @property
    @_memo
    def path(self) -> jw.JWPath:
        return jw.default_path(self.lat)

    @property
    @_memo
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

    @property
    @_memo
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

    def ground(self, pins: tuple[tuple[int, int, int], ...]) -> Tableau:
        """Seed-0 ground tableau with ``pins`` pinned as ``init_ground`` pins
        them, but on the raw strings, which it also registers. Each raw
        string is its reduced string times plaquettes, which the ground fixes
        at +1 first, so both pin the same value. Each call returns a fresh
        lone ``copy`` of the stored ground, on this context's lattice."""
        t = self._ground(pins).copy()
        t.lattice = self.lat
        return t

    @_memo
    def _ground(self, pins: tuple[tuple[int, int, int], ...]) -> Tableau:
        t = _pinned_ground(self.lat, 0, list(pins),
                           self.raw_parity_string, self.raw_bracket_string)
        t.lattice = None  # the store points back at no lattice
        return t

    def _face_flips(self, faces: list[int], logicals: dict[str, PauliString]
                    ) -> list[PauliString]:
        """Per face in ``faces``, a Pauli anticommuting with exactly that
        plaquette and with none of ``logicals``; solved on every call
        (``direct_plan`` keeps the flips a direct readout needs)."""
        n = self.lat.n_sites
        stabs = self.lat.stabilizer_matrix()
        # registered logicals are not independent modulo the face group
        # (products of pair parities can fall back into it); keep a maximal
        # independent subset, which already pins the rest: in name order,
        # each logical outside the span of the faces and of those kept before
        kept = _gf2.outside_span(stabs, [_gf2.symplectic_vector(op, n)
                                         for _, op in sorted(logicals.items())])
        flips = []
        for pid in faces:
            constraints = [(v, int(k == pid)) for k, v in enumerate(stabs)]
            vec = _gf2.solve_symplectic(constraints + [(v, 0) for v in kept], n)
            if vec is None:  # pragma: no cover - independent commuting generators
                raise GeometryError(f"no frame-flip operator exists for face {pid}")
            flips.append(_gf2.pauli_from_vector(vec, n))
        return flips

    @_memo
    def hole_plan(self, loop: tuple[int, ...], pair: int,
                  parity_string: PauliString | None,
                  bracket: PauliString) -> HolePlan:
        """The plan of a hole readout of ``pair`` along ``loop``, given
        the pair's registered parity string (None without one) and bracket:
        whether the loop encloses the pair; the fixed hole, a square
        diagonal neighbour of ``loop[0]`` off the loop and outside it, and
        its cut to ``loop[0]``; each hop with its ``cut_operator``; and the
        loop factor. The loop operator, the product of the cuts, lies in the
        class of (pair parity) x (bracket) x plaquettes when the loop
        encircles the pair; the factor, the loop operator times the pair
        parity if enclosed, is thus a product of plaquettes and the bracket
        up to its sign, which the state fixes once the hole is back.

        Refuses, in this order: an invalid loop or a hop without a cut
        (``GeometryError``), no parity string (``ValueError``), then no
        anchor, a factor outside that class, or one whose plaquettes include
        either hole (``GeometryError``)."""
        lat = self.lat
        encloses_pair = _validate_loop(lat, loop, pair)
        ops = lat.plaquette_ops
        hops = tuple((f, g, cut_operator(lat, f, g), ops[f])
                     for f, g in zip(loop, loop[1:] + loop[:1]))
        if parity_string is None:
            raise ValueError(f"pair {pair} has no registered parity string")
        for p in lat.plaquettes:
            if p.id in loop or p.kind != "square":
                continue
            try:
                z_logical = cut_operator(lat, p.id, loop[0])
            except GeometryError:
                continue
            if not _loop_encloses(lat, loop, p.ordered_sites[0]):
                anchor = p.id
                break
        else:
            raise GeometryError("no anchor face available next to the loop")
        loop_op = product(cut for _, _, cut, _ in hops)
        factor = loop_op * parity_string if encloses_pair else loop_op
        n = lat.n_sites
        sel = _gf2.solve(lat.stabilizer_matrix() + [_gf2.symplectic_vector(bracket, n)],
                         _gf2.symplectic_vector(factor, n))
        if sel is None:
            raise GeometryError("loop operator is not in the expected logical class")
        if sel >> anchor & 1 or sel >> loop[0] & 1:  # bit k < n_faces: face k
            raise GeometryError("loop decomposition touches an open hole")
        return HolePlan(encloses_pair, anchor, z_logical, hops, factor)

    @_memo
    def direct_plan(self, string: PauliString,
                    registry: tuple[tuple[str, PauliString], ...]) -> DirectPlan:
        """The string's single-site operators, and per plaquette sharing a
        site with it, in id order, the plaquette operator and its flip: a
        Pauli that anticommutes with that plaquette alone and with none of
        the registered logicals ``registry`` (name, string pairs) and,
        unless registered, the string itself, which goes first (name ""), so
        that it is the one kept when a registered one depends on it (see
        ``_face_flips``). Refuses a string that ``jw.check_commutant``
        refuses (``GeometryError`` or ``ValueError``)."""
        jw.check_commutant(string, self.lat)
        cx, cz = self.lat.face_columns
        touched = 0
        for site in string.sites:
            touched |= cx[site] | cz[site]
        faces = _kernels.set_bits(touched)
        logicals = dict(registry)
        if string not in logicals.values():
            logicals[""] = string
        ops = self.lat.plaquette_ops
        return DirectPlan(
            tuple((site, PauliString.single(site, letter))
                  for site, letter in string.support),
            tuple(zip(faces, (ops[k] for k in faces),
                      self._face_flips(faces, logicals))))


def code_context(lat: TwistLattice) -> CodeContext:
    """A ``CodeContext`` on the lattice's store, which the lattice owns and
    which is created on first use. Every context of one lattice reads the
    same entries; the context owns the lattice, never the other way round."""
    store = lat.__dict__.get("_code_store")
    if store is None:
        store = {}
        object.__setattr__(lat, "_code_store", store)  # the lattice is frozen
    return CodeContext(lat, store)


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


class _Program(NamedTuple):
    """A readout run once on one x/z state, with symbolic signs (see
    ``_readout``). A form is an integer over GF(2): bit 8i is row i's start
    sign, bit 1 the constant 1, bit 16n + k the k-th draw."""
    signs: tuple[tuple[int, int], ...]   # each changed sign's row and form
    bits: tuple[int, ...]                # each result bit's form
    draws: int
    # the end x, z, cx and cz and the programs recorded from them; None if
    # the readout made no random measurement, which leaves the rows as they
    # were
    end: tuple | None


def _readout(t: Tableau, plan, body) -> list[int]:
    """The result bits of a readout, ``body``, on the lone tableau ``t``.

    ``body(s, draw)`` runs the readout's measurements on ``s`` with
    ``measure_signs`` and ``apply_pauli`` and returns its result bits, but
    only on a copy whose sign of row i is the variable 8i, whose
    ``all_shots`` is the constant and whose k-th ``draw`` is a new variable:
    every sign update is linear, so each sign and result bit is an affine
    form of the start signs and the draws, and the x/z rows at the end are
    the same for every shot. That run is the readout's ``_Program``, which
    the start rows keep, keyed on its plan's identity, for every copy that
    shares them; it dies with them. A refusal in ``body`` comes before ``t``
    changes, and stores nothing. Each shot draws once per random
    measurement, in order, as ``measure`` does, evaluates the forms and takes
    the end rows, shared copy-on-write.
    """
    t._require_lone()
    if t._programs is None:
        t._programs = {}  # rows of its own: the record's copy will share them
    entry = t._programs.get(id(plan))
    if entry is None:
        s = t.copy()
        s.r = [1 << 8 * i for i in range(2 * t.n)]
        s.all_shots = 0b10
        draws = []

        def draw():
            draws.append(1 << 16 * t.n + len(draws))
            return draws[-1]

        bits = tuple(body(s, draw))
        signs = tuple((i, form) for i, form in enumerate(s.r) if form != 1 << 8 * i)
        end = None if s._programs is not None else (s.x, s.z, s.cx, s.cz, {})
        program = _Program(signs, bits, len(draws), end)
        # the entry keeps the plan, and so its identity, alive
        t._programs[id(plan)] = plan, program
    else:
        program = entry[1]
    drawn = 0
    for k in range(program.draws):
        drawn |= t._draw() << k
    start = int.from_bytes(bytes(t.r), "little") | 0b10 | drawn << 16 * t.n
    r = t.r
    for i, form in program.signs:
        r[i] = (form & start).bit_count() & 1
    if program.end is not None:
        t.x, t.z, t.cx, t.cz, t._programs = program.end
    return [(form & start).bit_count() & 1 for form in program.bits]


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


def measure_parity_direct(t: Tableau, string: PauliString) -> DirectParityResult:
    """Measure a parity string by single-site measurements of its letters.

    The stabilizers overlapping the string are switched off, each letter is
    measured individually, their product (times the string's sign) is the
    parity, and the stabilizers are re-measured afterwards. The parity is a
    quantum non-demolition readout: the string commutes with every
    plaquette, so re-enabling cannot change it, and the flips that push a -1
    face back to +1 commute with the string, registered or not, so the
    tableau is left at the returned outcome. The whole plan is one
    ``CodeContext.direct_plan`` entry, which refuses a string off the lattice
    or outside the plaquette commutant before the tableau changes. A tableau
    without a lattice has no plaquettes to switch off and is refused
    (``ValueError``) before it changes too, as ``measure_parity_hole``
    refuses it.
    """
    if not string.is_hermitian:
        raise ValueError("parity string must be Hermitian")
    if t.lattice is None:
        raise ValueError("tableau carries no lattice")
    plan = code_context(t.lattice).direct_plan(string, tuple(t.logicals.items()))
    outcome, *signs = (1 - 2 * bit for bit in _readout(
        t, plan, lambda s, draw: _direct_bits(s, draw, string, plan)))
    sites, faces = plan
    site_outcomes = {site: sign for (site, _), sign in zip(sites, signs)}
    repaired = {pid: sign for (pid, _, _), sign in zip(faces, signs[len(sites):])}
    for pid, _, _ in faces:
        t.reference_signs[pid] = 1
    return DirectParityResult(outcome, site_outcomes, repaired)


def _direct_bits(t: Tableau, draw, string: PauliString, plan: DirectPlan) -> list[int]:
    """The direct readout's measurements on ``t``, in outcome bits: the
    parity, each site's outcome and each re-measured face's sign."""
    sites, faces = plan
    site_bits = [t.measure_signs(op, draw) for _, op in sites]
    parity = t.all_shots if string.phase else 0
    for bit in site_bits:
        parity ^= bit
    repaired = [t.measure_signs(op, draw) for _, op, _ in faces]
    # restore the Pauli frame: push every re-measured stabilizer back to +1
    # with the plan's flips, which commute with all registered logicals, so
    # spectator parities keep their meaning across repeated readouts, and
    # with the string just read, so the tableau keeps its outcome
    for bit, (_, _, flip) in zip(repaired, faces):
        t.apply_pauli(flip, bit)
    return [parity, *site_bits, *repaired]


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
    Returns the parity and the readout's plan, ``CodeContext.hole_plan``,
    keyed on the tableau's registered parity and bracket strings of the pair
    (the identity without a bracket). Every refusal of the plan, and of a
    loop factor the state does not fix, comes before the tableau changes.
    """
    lat = t.lattice
    if lat is None:
        raise ValueError("tableau carries no lattice")
    logicals = t.logicals
    plan = code_context(lat).hole_plan(
        tuple(loop), pair, logicals.get(f"parity_{2 * pair}_{2 * pair + 1}"),
        logicals.get(f"bracket_{pair}", PauliString()))

    outcome, *frame = (1 - 2 * bit for bit in _readout(
        t, plan, lambda s, draw: _hole_bits(s, draw, plan)))
    faces = [f for f, _, _, _ in plan.hops] + [loop[0], plan.anchor]
    for f, sign in zip(faces, frame):
        t.reference_signs[f] = sign
    return outcome, plan


def _hole_bits(t: Tableau, draw, plan: HolePlan) -> list[int]:
    """The hole readout's measurements on ``t``, in outcome bits: the parity,
    then each healed face's sign, hop by hop, and the two closed holes'.
    Refuses a random loop factor before its caller changes (see
    ``_readout``)."""
    z1 = t.measure_signs(plan.z_logical, draw)
    lam, healed = 0, []
    for _, _, cut, face in plan.hops:
        lam ^= t.measure_signs(cut, draw)  # extend the hole onto the next face
        healed.append(t.measure_signs(face, draw))  # heal the vacated face
    z2 = t.measure_signs(plan.z_logical, draw)
    sign = t.measure_signs(plan.factor, draw)
    if t.last_random:
        raise InconsistentOutcomeError(
            "loop readout needs a fixed edge bracket; state has none"
        )
    # close the holes: re-measure both hole stabilizers
    ops = t.lattice.plaquette_ops
    closed = [t.measure_signs(ops[f], draw) for f in (plan.hops[0][0], plan.anchor)]
    return [z1 ^ z2 ^ lam ^ sign, *healed, *closed]
