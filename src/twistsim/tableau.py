"""CHP-style stabilizer tableau simulation of the twisted planar code.

The tableau carries n destabilizer and n stabilizer rows (binary symplectic
vectors plus a sign bit). On top of the generic simulator this module
implements the code-level machinery: ground-state preparation with pinned
twist-pair parities, the direct (turn-off-and-measure) parity readout, and
the indirect readout that drags a hole around the twists. Everything these
derive from a lattice alone lives in the lattice's ``CodeContext``.
"""

from __future__ import annotations

import copy
import io
from dataclasses import dataclass, field
from functools import cached_property, wraps

import numpy as np

from . import _gf2, _kernels, jw
from .dense import InconsistentOutcomeError
from .lattice import (GeometryError, TwistLattice, all_plaquette_operators,
                      plaquette_operator)
from .pauli import PauliString, product

# a row's letters as the binary digits of its x and z integers
_X_BITS = str.maketrans("IXZY", "0101")
_Z_BITS = str.maketrans("IXZY", "0011")


class Tableau:
    """Stabilizer state of ``n`` qubits plus code-level bookkeeping.

    Rows ``x`` and ``z`` are lists of 2n Python integers, bit ``j`` for site
    ``j``; ``cx`` and ``cz`` hold the same bits by site, bit ``i`` for row
    ``i``, and ``r`` the sign bits as a uint8 array (see ``_kernels``): one
    column, shape (2n,), or S columns, shape (2n, S), one per shot of a batch
    that shares these x/z rows. ``measure``, ``expectation_sign`` and the text
    format need the 1-D form.

    ``active`` is the set of plaquette ids currently enforced by the code
    cycle; disabling a stabilizer is bookkeeping only and never touches the
    quantum state. ``last_random`` tells whether the latest ``measure`` had a
    random outcome (probability 1/2) rather than a fixed one.
    """

    def __init__(self, n: int, rng: np.random.Generator):
        self.n = n
        # rows and their transposed columns as Python integers, see
        # ``_kernels``: destabilizer i is X_i, stabilizer i is Z_i
        self.x = [1 << i for i in range(n)] + [0] * n
        self.z = [0] * n + [1 << i for i in range(n)]
        self.cx = [1 << j for j in range(n)]
        self.cz = [1 << (n + j) for j in range(n)]
        self.r = np.zeros(2 * n, dtype=np.uint8)
        self.rng = rng
        self.last_random = False
        self.lattice: TwistLattice | None = None
        self.plaquette_ops: tuple[PauliString, ...] = ()
        self.active: set[int] = set()
        self.logicals: dict[str, PauliString] = {}
        # last deliberately recorded sign of each stabilizer (the Pauli frame)
        self.reference_signs: dict[int, int] = {}

    @classmethod
    def zero_state(cls, n: int, seed: int | np.random.Generator = 0) -> "Tableau":
        rng = seed if isinstance(seed, np.random.Generator) else \
            np.random.default_rng(seed)
        return cls(n, rng)

    def copy(self) -> "Tableau":
        """Independent state and registries; the generator continues from the
        same state. The lattice and its plaquette operators are shared."""
        out = copy.copy(self)
        out.rng = np.random.Generator(copy.copy(self.rng.bit_generator))
        out.x = list(self.x)
        out.z = list(self.z)
        out.cx = list(self.cx)
        out.cz = list(self.cz)
        out.r = self.r.copy()
        out.active = set(self.active)
        out.logicals = dict(self.logicals)
        out.reference_signs = dict(self.reference_signs)
        return out

    # -- row/operator conversions -------------------------------------------

    def _bits_of(self, p: PauliString) -> tuple[int, int, int]:
        if not p.is_hermitian:
            raise ValueError(f"operator {p} is not Hermitian (phase must be ±1)")
        if p.support and not 0 <= p.support[0][0] <= p.support[-1][0] < self.n:
            site = p.support[0][0] if p.support[0][0] < 0 else p.support[-1][0]
            raise ValueError(f"site {site} of {p} is outside 0..{self.n - 1}")
        px, pz = p.bits()
        return px, pz, p.phase.exponent // 2

    def _letters(self) -> np.ndarray:
        """One row of ASCII Pauli letters per tableau row."""
        n_bytes = -(-self.n // 8)

        def bits(rows):
            raw = b"".join(v.to_bytes(n_bytes, "little") for v in rows)
            packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(rows), n_bytes)
            return np.unpackbits(packed, axis=1, bitorder="little")[:, :self.n]

        return np.frombuffer(b"IXZY", dtype=np.uint8)[bits(self.x) + 2 * bits(self.z)]

    def row_operator(self, i: int) -> PauliString:
        return PauliString.from_bits(self.x[i], self.z[i], 2 * int(self.r[i]))

    # -- measurement ---------------------------------------------------------

    def measure(self, p: PauliString, force: int | None = None) -> int:
        """Projective measurement of a Hermitian Pauli string, returns ±1."""
        def draw() -> int:
            if force is None:
                return int(self.rng.integers(2))
            return 0 if force == 1 else 1

        outcome = 1 - 2 * self.measure_signs(p, draw)
        if force is not None and force != outcome:
            raise InconsistentOutcomeError(
                f"outcome {force} requested for a measurement fixed at {outcome}"
            )
        return outcome

    def measure_signs(self, p: PauliString, draw):
        """Measure a Hermitian Pauli string; returns the outcome bit (0 for
        +1): an int for a 1-D ``r``, one uint8 per column for (2n, S) ``r``.

        A random outcome takes its bit(s) from ``draw()``; a fixed one is read
        from ``r``. Either way x and z evolve alike for every column.
        """
        px, pz, pr = self._bits_of(p)
        anti = _kernels.anticommuting_rows(self.cx, self.cz, px, pz)
        stab = anti >> self.n
        self.last_random = stab != 0
        if not self.last_random:
            return self._fixed_outcome_bit(px, pz, pr, anti)
        outcome_bit = draw()
        pivot = self.n + (stab & -stab).bit_length() - 1
        _kernels.random_update(self.x, self.z, self.cx, self.cz, self.r, anti,
                               pivot, px, pz, pr, outcome_bit)
        return outcome_bit

    def _fixed_outcome_bit(self, px, pz, pr, destabs):
        """Outcome bit(s) of a measurement that commutes with every
        stabilizer, as ``measure_signs`` returns them; reads the state
        without changing it. ``destabs`` marks the destabilizer rows that
        anticommute with p."""
        # the stabilizer rows whose destabilizer partner anticommutes with p
        # multiply to ±p
        rows = [self.n + i for i in _kernels.set_bits(destabs)]
        acc_x, acc_z, exponent = _kernels.row_product(self.x, self.z, rows)
        if acc_x != px or acc_z != pz:
            raise AssertionError("deterministic branch accumulated a wrong operator")
        # the product's sign is (-1)^(sign bits) * i^exponent, the exponent
        # even since the rows commute; the outcome is that sign over p's own.
        shared = (exponent % 4 // 2 + pr) % 2
        bits = np.bitwise_xor.reduce(self.r[rows], axis=0) ^ shared
        return int(bits) if self.r.ndim == 1 else bits

    def apply_pauli(self, p: PauliString, shots: np.ndarray | None = None) -> None:
        """Conjugate the state by a Pauli unitary (sign flips only): every
        sign column, or with ``shots`` only the columns marked 1 in it."""
        px, pz, _ = self._bits_of(p)
        rows = _kernels.set_bits(_kernels.anticommuting_rows(self.cx, self.cz, px, pz))
        self.r[rows] ^= 1 if shots is None else shots.astype(np.uint8)

    def expectation_sign(self, p: PauliString) -> int | None:
        """±1 if ``p`` is fixed by the state, None if the outcome is random."""
        px, pz, pr = self._bits_of(p)
        anti = _kernels.anticommuting_rows(self.cx, self.cz, px, pz)
        if anti >> self.n:
            return None
        return 1 - 2 * self._fixed_outcome_bit(px, pz, pr, anti)

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        buf = io.StringIO()
        buf.write(f"twistsim-tableau v1 n={self.n}\n")
        for i, letters in enumerate(self._letters()):
            kind = "D" if i < self.n else "S"
            sign = "-" if self.r[i] else "+"
            buf.write(f"{kind}{sign}{letters.tobytes().decode()}\n")
        return buf.getvalue()

    @classmethod
    def from_text(cls, text: str, seed: int = 0) -> "Tableau":
        lines = text.strip().splitlines()
        header = lines[0].split()
        if header[0] != "twistsim-tableau" or header[1] != "v1":
            raise ValueError(f"unsupported tableau format: {lines[0]!r}")
        n = int(header[2].split("=")[1])
        t = cls.zero_state(n, seed)
        for i, line in enumerate(lines[1:]):
            t.r[i] = line[1] == "-"
            letters = line[:1:-1]            # site 0 last: the lowest bit
            _kernels.set_row(t.x, t.cx, i, int("0" + letters.translate(_X_BITS), 2))
            _kernels.set_row(t.z, t.cz, i, int("0" + letters.translate(_Z_BITS), 2))
        return t


# -- per-lattice derived data -------------------------------------------------


def _memo(method):
    """Cache ``method`` per instance, keyed on its positional arguments, each
    list among them as its tuple, which the method then receives. The entries
    live in the instance's ``__dict__`` under ``_memo_<name>``, a key the
    method's own name never shadows, so they die with the instance
    (``functools.lru_cache`` would keep every instance alive in a class-level
    cache)."""
    slot = f"_memo_{method.__name__}"

    @wraps(method)
    def cached(self, *args):
        args = tuple(tuple(a) if isinstance(a, list) else a for a in args)
        memo = self.__dict__.setdefault(slot, {})
        if args not in memo:
            memo[args] = method(self, *args)
        return memo[args]

    return cached


class CodeContext:
    """Everything the code-level operations derive from one lattice.

    Each object is built at most once, on first use: the attributes through
    ``cached_property``, the methods through ``_memo``, keyed on their
    arguments. ``code_context(lat)`` stores the context on the lattice, so it
    and every cached entry live exactly as long as the lattice. Entries that
    also depend on a tableau's registered logicals are keyed on those
    logicals, never on how many there are.

    The readouts' geometry lives here too:

    * ``cut(f, g)``: the cut operator of one hop (``cut_operator``);
    * ``hole_plan(loop, pair)``: whether the loop encloses the pair
      (``_validate_loop``) and the anchor face of the hole readout, keyed on
      the loop and the pair; a loop that fails either check raises and is
      not stored;
    * ``string_faces(string)``: the plaquettes a parity string touches, in
      face-id order, keyed on the string (the faces the direct readout turns
      off).
    """

    def __init__(self, lat: TwistLattice):
        self.lat = lat

    @cached_property
    def plaquette_ops(self) -> tuple[PauliString, ...]:
        return tuple(all_plaquette_operators(self.lat))

    @cached_property
    def stabilizer_matrix(self) -> list[int]:
        """One (x|z) row (``_gf2.symplectic_vector``) per plaquette operator."""
        packed = self.packed_plaquettes
        return [x | z << self.lat.n_sites for x, z in zip(packed.x, packed.z)]

    @cached_property
    def packed_plaquettes(self) -> jw.PackedPlaquettes:
        """Plaquette operators as integer bit rows with their site bounding
        boxes, the form the stabilizer reduction works on."""
        xs, zs, boxes = [], [], []
        for op in self.plaquette_ops:
            x, z = op.bits()
            xs.append(x)
            zs.append(z)
            rows, cols = zip(*(self.lat.site_coords(s) for s in op.sites))
            boxes.append((min(rows), max(rows), min(cols), max(cols)))
        return jw.PackedPlaquettes(tuple(xs), tuple(zs), np.array(boxes))

    @cached_property
    def path(self) -> jw.JWPath:
        return jw.default_path(self.lat)

    @cached_property
    def modes(self) -> list[jw.MajoranaMode]:
        """The unpaired mode of each twist along ``path``."""
        return jw.twist_modes(self.lat, self.path)

    @_memo
    def parity_string(self, a: int, b: int) -> PauliString:
        """Stabilizer-reduced parity string of twist modes ``a`` and ``b``."""
        raw = jw.mode_parity_operator(self.lat, self.path,
                                      self.modes[a], self.modes[b])
        return jw.reduce_by_stabilizers(raw, self.lat)

    @_memo
    def bracket_string(self, pair: int) -> PauliString:
        """Stabilizer-reduced edge bracket of one segment's rows."""
        raw = jw.bracket_parity(self.lat, self.path, pair, self.modes)
        return jw.reduce_by_stabilizers(raw, self.lat)

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
        every plaquette and every other pair's Z logical."""
        n = self.lat.n_sites
        constraints = [(v, 0) for v in self.stabilizer_matrix]
        for j, z in enumerate(self.z_logicals):
            constraints.append((_gf2.symplectic_vector(z, n), 1 if j == pair else 0))
        vec = _gf2.solve_symplectic(constraints, n)
        if vec is None:  # pragma: no cover - cannot happen on a valid lattice
            raise GeometryError("no logical X operator exists; lattice is inconsistent")
        return jw.reduce_by_stabilizers(_gf2.pauli_from_vector(vec, n), self.lat)

    @_memo
    def ground(self, pins: tuple[tuple[int, int, int], ...]) -> Tableau:
        """Seed-0 ground tableau with ``pins`` pinned (see ``init_ground``).
        Callers copy it; other pairs' strings come from ``parity_string``."""
        return init_ground(self.lat, seed=0, pinned_pairs=list(pins))

    def face_flip(self, pid: int, logicals: dict[str, PauliString]) -> PauliString:
        """Pauli anticommuting with exactly one plaquette, ``pid``, and with
        none of ``logicals``."""
        return self._face_flip(pid, tuple(sorted(logicals.items())))

    @_memo
    def _face_flip(self, pid: int, registry: tuple) -> PauliString:
        constraints = [(v, 1 if k == pid else 0)
                       for k, v in enumerate(self.stabilizer_matrix)]
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
            self.stabilizer_matrix,
            [_gf2.symplectic_vector(op, self.lat.n_sites) for _, op in registry])

    @_memo
    def cut(self, f: int, g: int) -> PauliString:
        """``cut_operator`` of the hop from face ``f`` to face ``g``."""
        return cut_operator(self.lat, f, g)

    @_memo
    def hole_plan(self, loop: tuple[int, ...], pair: int) -> tuple[bool, int | None]:
        """``(encloses_pair, anchor)`` of a hole readout of ``pair`` along
        ``loop``: whether the loop encloses the pair, and the fixed hole, a
        square diagonal neighbour of ``loop[0]`` off the loop and outside it
        (None when there is none). Raises ``GeometryError`` for an invalid
        loop."""
        lat = self.lat
        encloses_pair = _validate_loop(lat, loop, pair)
        for p in lat.plaquettes:
            if p.id in loop or p.kind != "square":
                continue
            try:
                cut_operator(lat, p.id, loop[0])
            except GeometryError:
                continue
            if not _loop_encloses(lat, loop, p.ordered_sites[0]):
                return encloses_pair, p.id
        return encloses_pair, None

    @_memo
    def string_faces(self, string: PauliString) -> list[int]:
        """Ids of the plaquettes sharing a site with ``string``, sorted."""
        support = set(string.sites)
        return [k for k, op in enumerate(self.plaquette_ops)
                if not support.isdisjoint(op.sites)]

    @_memo
    def loop_decomposition(
        self, loop: tuple[int, ...], pair: int, encloses_pair: bool,
        parity_string: PauliString, bracket: PauliString,
    ) -> tuple[list[tuple[int | None, PauliString]], int]:
        """Split the loop operator into factors with readable signs.

        The loop operator, the product of the cut operators along ``loop``,
        lies in the class of (pair parity) x (row bracket) x plaquettes when
        the loop encircles the pair. Returns ``(factors, rel_sign)``: the
        product of the factors (plaquette id or None for the bracket, and the
        operator), times the pair parity if enclosed, is ``rel_sign`` times
        the loop operator.
        """
        n = self.lat.n_sites
        loop_op = product(self.cut(f, g) for f, g in zip(loop, loop[1:] + loop[:1]))
        target = loop_op * parity_string if encloses_pair else loop_op
        sel = _gf2.solve(self.stabilizer_matrix + [_gf2.symplectic_vector(bracket, n)],
                         _gf2.symplectic_vector(target, n))
        if sel is None:
            raise GeometryError("loop operator is not in the expected logical class")
        n_faces = len(self.plaquette_ops)
        factors = []
        known = PauliString.identity()
        for k in _kernels.set_bits(sel):
            op = self.plaquette_ops[k] if k < n_faces else bracket
            factors.append((k if k < n_faces else None, op))
            known = known * op
        check = (parity_string * known) if encloses_pair else known
        rel_sign = 1 if check == loop_op else -1
        if rel_sign == -1 and check.negate() != loop_op:  # pragma: no cover
            raise AssertionError("loop operator decomposition is inconsistent")
        return factors, rel_sign


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
    only feeds later random measurements.
    """
    ctx = code_context(lat)
    t = Tableau.zero_state(lat.n_sites, seed)
    t.lattice = lat
    t.plaquette_ops = ctx.plaquette_ops
    t.active = {p.id for p in lat.plaquettes}

    generators: list[tuple[PauliString, int]] = [
        (op, +1) for op in t.plaquette_ops
    ]
    if pinned_pairs is None:
        pinned_pairs = [(2 * k, 2 * k + 1) for k in range(lat.n_pairs)]
    if lat.n_pairs:
        for entry in pinned_pairs:
            a, b = entry[0], entry[1]
            sign = entry[2] if len(entry) > 2 else -1
            string = ctx.parity_string(a, b)
            t.logicals[f"parity_{a}_{b}"] = string
            generators.append((string, sign))
        for pair in range(lat.n_pairs):
            bracket = ctx.bracket_string(pair)
            t.logicals[f"bracket_{pair}"] = bracket
            generators.append((bracket, +1))

    enforced: list[PauliString] = []
    for op, sign in generators:
        try:
            t.measure(op, force=sign)
        except InconsistentOutcomeError:
            # op is already in the enforced group with the opposite sign; flip
            # it with a Pauli that anticommutes with op only.
            constraints = [(_gf2.symplectic_vector(g, lat.n_sites), 0)
                           for g in enforced]
            constraints.append((_gf2.symplectic_vector(op, lat.n_sites), 1))
            vec = _gf2.solve_symplectic(constraints, lat.n_sites)
            if vec is None:  # pragma: no cover - generators are independent
                raise GeometryError("cannot pin stabilizer sign; generators conflict")
            t.apply_pauli(_gf2.pauli_from_vector(vec, lat.n_sites))
            t.measure(op, force=sign)
        enforced.append(op)
    t.reference_signs = {p.id: 1 for p in lat.plaquettes}
    return t


def syndrome(t: Tableau) -> dict[int, int]:
    """Deterministic sign of every active plaquette stabilizer."""
    out = {}
    for pid in sorted(t.active):
        sign = t.expectation_sign(t.plaquette_ops[pid])
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
    force: int | None = None,
    check_syndrome: bool = False,
) -> DirectParityResult:
    """Measure a parity string by single-site measurements of its letters.

    Stabilizers overlapping the string are switched off, each letter is
    measured individually, their product (times the string's sign) is the
    parity, and the stabilizers are re-measured afterwards. The parity is a
    quantum non-demolition readout: the string commutes with every plaquette,
    so re-enabling cannot change it.
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

    faces = (code_context(t.lattice).string_faces(string)
             if t.lattice is not None else ())
    overlapping = [pid for pid in faces if pid in t.active]
    t.active.difference_update(overlapping)

    phase_sign = 1 if string.phase.exponent == 0 else -1
    site_outcomes: dict[int, int] = {}
    items = list(string.support)
    partial = 1
    for k, (site, letter) in enumerate(items):
        single = PauliString.single(site, letter)
        if force is not None and k == len(items) - 1:
            target = force * phase_sign * partial
            lam = t.measure(single, force=target)
        else:
            lam = t.measure(single)
        site_outcomes[site] = lam
        partial *= lam
    outcome = phase_sign * partial

    repaired: dict[int, int] = {}
    for pid in overlapping:
        repaired[pid] = t.measure(t.plaquette_ops[pid])
        t.active.add(pid)
    # restore the Pauli frame: push every re-measured stabilizer back to +1
    # with flip operators chosen to commute with all registered logicals, so
    # spectator parities keep their meaning across repeated readouts.
    for pid, sign in repaired.items():
        if sign == -1:
            t.apply_pauli(code_context(t.lattice).face_flip(pid, t.logicals))
    for pid in overlapping:
        t.reference_signs[pid] = 1

    if check_syndrome:
        after = syndrome(t)
        flags |= {
            pid for pid, sign in after.items()
            if sign != t.reference_signs.get(pid, sign)
        }
    return DirectParityResult(outcome, site_outcomes, repaired, flags)


# -- hole-based parity measurement --------------------------------------------


@dataclass
class HolePair:
    anchor: int              # plaquette id of the fixed hole
    mobile: int              # plaquette id of the moving hole
    z_logical: PauliString   # chain connecting the two holes
    x_logical: PauliString   # the anchor hole's stabilizer


def cut_operator(lat: TwistLattice, f1: int, f2: int) -> PauliString:
    """Single-site operator whose excitation pair is exactly {f1, f2}.

    Works for diagonally adjacent faces: they share one corner where both act
    with the same letter; the clashing letter of the other diagonal is the
    cut. Used both as hole-moving 'edge' operator and as chain segment.
    """
    s1 = set(lat.plaquette(f1).sites)
    s2 = set(lat.plaquette(f2).sites)
    shared = s1 & s2
    if len(shared) != 1:
        raise GeometryError(f"faces {f1},{f2} are not diagonal neighbours")
    site = shared.pop()
    la = plaquette_operator(lat, f1).letter_at(site)
    lb = plaquette_operator(lat, f2).letter_at(site)
    if la != lb:
        raise GeometryError(f"faces {f1},{f2} clash at site {site}; not a hop")
    other = {"X", "Z"} - {la}
    if not other:
        raise GeometryError(f"cannot cut through letter {la} at site {site}")
    return PauliString.single(site, other.pop())


def diamond_loop(lat: TwistLattice, pair: int, radius: int) -> list[int]:
    """Closed staircase loop of same-colour faces around a twist pair."""
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
    by_key = {}
    for p in lat.plaquettes:
        coords = [lat.site_coords(s) for s in p.ordered_sites]
        by_key[(min(x for x, _ in coords), min(y for _, y in coords))] = p
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
) -> tuple[int, HolePair]:
    """Parity readout by braiding a measurement hole around the twist pair.

    Creates a two-hole ancilla qubit next to the loop, measures its connecting
    logical, drags the mobile hole once around the loop (extend with the edge
    operator, heal the vacated stabilizer, tracking every sign), re-measures
    the logical, and combines the record into the enclosed pair parity.
    """
    lat = t.lattice
    if lat is None:
        raise ValueError("tableau carries no lattice")
    ctx = code_context(lat)
    encloses_pair, anchor = ctx.hole_plan(loop, pair)
    parity_string = t.logicals.get(f"parity_{2 * pair}_{2 * pair + 1}")
    if parity_string is None:
        raise ValueError(f"pair {pair} has no registered parity string")
    if anchor is None:
        raise GeometryError("no anchor face available next to the loop")

    z_logical = ctx.cut(anchor, loop[0])
    hole = HolePair(anchor, loop[0], z_logical, t.plaquette_ops[anchor])

    t.active -= {anchor, loop[0]}
    z1 = t.measure(z_logical)

    lam_product = 1
    for i in range(len(loop)):
        f, g = loop[i], loop[(i + 1) % len(loop)]
        t.active.discard(g)            # extend the hole onto the next face
        lam_product *= t.measure(ctx.cut(f, g))
        t.reference_signs[f] = t.measure(t.plaquette_ops[f])  # heal vacated face
        t.active.add(f)

    z2 = t.measure(z_logical)

    # the loop operator (product of the cut operators) is the pair parity
    # times factors whose current signs the state fixes; read them all.
    bracket = t.logicals.get(f"bracket_{pair}", PauliString.identity())
    factors, rel_sign = ctx.loop_decomposition(
        loop, pair, encloses_pair, parity_string, bracket)
    sigma_product = 1
    for k, op in factors:
        if k is not None and k not in t.active:
            raise GeometryError("loop decomposition touches an open hole")
        sign = t.expectation_sign(op)
        if sign is None:
            raise InconsistentOutcomeError(
                "loop readout needs a fixed edge bracket; state has none"
            )
        sigma_product *= sign

    outcome = z1 * z2 * lam_product * rel_sign * sigma_product

    # close the holes: re-measure and re-enable both hole stabilizers
    t.reference_signs[hole.mobile] = t.measure(t.plaquette_ops[hole.mobile])
    t.reference_signs[hole.anchor] = t.measure(t.plaquette_ops[hole.anchor])
    t.active |= {hole.anchor, hole.mobile}
    return outcome, hole
