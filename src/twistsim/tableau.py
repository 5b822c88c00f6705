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
from functools import cached_property
from itertools import combinations

import numpy as np

from . import _gf2, _kernels, jw
from .lattice import GeometryError, TwistLattice, all_plaquette_operators
from .pauli import PauliString, product


class InconsistentOutcomeError(ValueError):
    """A forced measurement outcome has zero probability."""


class Tableau:
    """Stabilizer state of ``n`` qubits plus code-level bookkeeping.

    ``active`` is the set of plaquette ids currently enforced by the code
    cycle; disabling a stabilizer is bookkeeping only and never touches the
    quantum state.
    """

    def __init__(self, n: int, rng: np.random.Generator):
        self.n = n
        self.x = np.zeros((2 * n, n), dtype=np.uint8)
        self.z = np.zeros((2 * n, n), dtype=np.uint8)
        self.r = np.zeros(2 * n, dtype=np.uint8)
        for i in range(n):
            self.x[i, i] = 1          # destabilizer X_i
            self.z[n + i, i] = 1      # stabilizer Z_i
        self.rng = rng
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
        out.x = self.x.copy()
        out.z = self.z.copy()
        out.r = self.r.copy()
        out.active = set(self.active)
        out.logicals = dict(self.logicals)
        out.reference_signs = dict(self.reference_signs)
        return out

    # -- row/operator conversions -------------------------------------------

    def _bits_of(self, p: PauliString) -> tuple[np.ndarray, np.ndarray, int]:
        if not p.is_hermitian:
            raise ValueError(f"operator {p} is not Hermitian (phase must be ±1)")
        px = np.zeros(self.n, dtype=np.uint8)
        pz = np.zeros(self.n, dtype=np.uint8)
        for site, letter in p.support:
            if letter in ("X", "Y"):
                px[site] = 1
            if letter in ("Z", "Y"):
                pz[site] = 1
        return px, pz, p.phase.exponent // 2

    def row_operator(self, i: int) -> PauliString:
        letters: dict[int, str] = {}
        for j in range(self.n):
            x, z = int(self.x[i, j]), int(self.z[i, j])
            if x and z:
                letters[j] = "Y"
            elif x:
                letters[j] = "X"
            elif z:
                letters[j] = "Z"
        return PauliString.from_dict(letters, 2 * int(self.r[i]))

    def stabilizer_generators(self) -> list[PauliString]:
        return [self.row_operator(self.n + i) for i in range(self.n)]

    # -- measurement ---------------------------------------------------------

    def measure(self, p: PauliString, force: int | None = None) -> int:
        """Projective measurement of a Hermitian Pauli string, returns ±1."""
        px, pz, pr = self._bits_of(p)
        mask = _kernels.anticommute_mask(self.x, self.z, px, pz)
        stab_anti = np.flatnonzero(mask[self.n:])
        if stab_anti.size:
            pivot = self.n + int(stab_anti[0])
            if force is None:
                outcome_bit = int(self.rng.integers(2))
            else:
                outcome_bit = 0 if force == 1 else 1
            anti_rows = np.flatnonzero(mask)
            _kernels.measurement_update(
                self.x, self.z, self.r, px, pz, pr, pivot, anti_rows, outcome_bit
            )
            return 1 if outcome_bit == 0 else -1
        outcome = self._fixed_outcome(px, pz, pr, mask)
        if force is not None and force != outcome:
            raise InconsistentOutcomeError(
                f"outcome {force} requested for a measurement fixed at {outcome}"
            )
        return outcome

    def _fixed_outcome(self, px, pz, pr, mask) -> int:
        """Outcome of a measurement that commutes with every stabilizer; reads
        the state without changing it. ``mask`` is ``anticommute_mask`` of p."""
        # accumulate stabilizer rows whose destabilizer partner anticommutes
        # with p; the product equals ±p and fixes the outcome.
        acc_x = np.zeros(self.n, dtype=np.uint8)
        acc_z = np.zeros(self.n, dtype=np.uint8)
        exponent = 0
        for i in np.flatnonzero(mask[: self.n]):
            row = self.n + int(i)
            exponent += 2 * int(self.r[row])
            exponent += _kernels.rowsum_phase(acc_x, acc_z, self.x[row], self.z[row])
            acc_x ^= self.x[row]
            acc_z ^= self.z[row]
        if not (np.array_equal(acc_x, px) and np.array_equal(acc_z, pz)):
            raise AssertionError("deterministic branch accumulated a wrong operator")
        return 1 if (exponent - 2 * pr) % 4 == 0 else -1

    def apply_pauli(self, p: PauliString) -> None:
        """Conjugate the state by a Pauli unitary (sign flips only)."""
        px, pz, _ = self._bits_of(p)
        mask = _kernels.anticommute_mask(self.x, self.z, px, pz)
        self.r ^= mask.astype(np.uint8)

    def expectation_sign(self, p: PauliString) -> int | None:
        """±1 if ``p`` is fixed by the state, None if the outcome is random."""
        px, pz, pr = self._bits_of(p)
        mask = _kernels.anticommute_mask(self.x, self.z, px, pz)
        if mask[self.n:].any():
            return None
        return self._fixed_outcome(px, pz, pr, mask)

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        buf = io.StringIO()
        buf.write(f"twistsim-tableau v1 n={self.n}\n")
        for i in range(2 * self.n):
            kind = "D" if i < self.n else "S"
            sign = "-" if self.r[i] else "+"
            letters = []
            for j in range(self.n):
                x, z = int(self.x[i, j]), int(self.z[i, j])
                letters.append("IXZY"[x + 2 * z] if x + 2 * z != 3 else "Y")
            buf.write(f"{kind}{sign}{''.join(letters)}\n")
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
            t.r[i] = 1 if line[1] == "-" else 0
            for j, letter in enumerate(line[2:]):
                t.x[i, j] = 1 if letter in "XY" else 0
                t.z[i, j] = 1 if letter in "ZY" else 0
        return t


# -- per-lattice derived data -------------------------------------------------


class CodeContext:
    """Everything the code-level operations derive from one lattice.

    Each object is built at most once, on first use. ``code_context(lat)``
    stores the context on the lattice, so it lives exactly as long as the
    lattice. Entries that also depend on a tableau's registered logicals are
    keyed on those logicals, never on how many there are.
    """

    def __init__(self, lat: TwistLattice):
        self.lat = lat
        self._parity_strings: dict[tuple[int, int], PauliString] = {}
        self._bracket_strings: dict[int, PauliString] = {}
        self._x_logicals: dict[int, PauliString] = {}
        self._grounds: dict[tuple, Tableau] = {}
        self._flip_bases: dict[tuple, list[np.ndarray]] = {}
        self._flips: dict[tuple, PauliString] = {}
        self._loops: dict[tuple, tuple[list, int]] = {}

    @cached_property
    def site_index(self) -> dict[int, int]:
        return {s: s for s in self.lat.sites}

    @cached_property
    def plaquette_ops(self) -> tuple[PauliString, ...]:
        return tuple(all_plaquette_operators(self.lat))

    @cached_property
    def stabilizer_matrix(self) -> np.ndarray:
        """One (x|z) row per plaquette operator."""
        return self.lat.stabilizer_matrix()

    @cached_property
    def packed_plaquettes(self) -> jw.PackedPlaquettes:
        """Plaquette operators as 64-bit words with their site bounding boxes,
        the form the stabilizer reduction works on."""
        n, mat = self.lat.n_sites, self.stabilizer_matrix
        boxes = []
        for op in self.plaquette_ops:
            rows, cols = zip(*(self.lat.site_coords(s) for s in op.sites))
            boxes.append((min(rows), max(rows), min(cols), max(cols)))
        return jw.PackedPlaquettes(jw.pack_bits(mat[:, :n]), jw.pack_bits(mat[:, n:]),
                                   np.array(boxes))

    @cached_property
    def path(self) -> jw.JWPath:
        return jw.default_path(self.lat)

    @cached_property
    def modes(self) -> list[jw.MajoranaMode]:
        """The unpaired mode of each twist along ``path``."""
        return jw.twist_modes(self.lat, self.path)

    def parity_string(self, a: int, b: int) -> PauliString:
        """Stabilizer-reduced parity string of twist modes ``a`` and ``b``."""
        if (a, b) not in self._parity_strings:
            raw = jw.mode_parity_operator(self.lat, self.path,
                                          self.modes[a], self.modes[b])
            self._parity_strings[a, b] = jw.reduce_by_stabilizers(raw, self.lat)
        return self._parity_strings[a, b]

    def bracket_string(self, pair: int) -> PauliString:
        """Stabilizer-reduced edge bracket of one segment's rows."""
        if pair not in self._bracket_strings:
            raw = jw.bracket_parity(self.lat, self.path, pair, self.modes)
            self._bracket_strings[pair] = jw.reduce_by_stabilizers(raw, self.lat)
        return self._bracket_strings[pair]

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

    def x_logical(self, pair: int) -> PauliString:
        """Weight-reduced conjugate of ``z_logicals[pair]``: it commutes with
        every plaquette and every other pair's Z logical."""
        if pair not in self._x_logicals:
            constraints = [(v, 0) for v in self.stabilizer_matrix]
            for j, z in enumerate(self.z_logicals):
                constraints.append((_gf2.symplectic_vector(z, self.site_index),
                                    1 if j == pair else 0))
            vec = _gf2.solve_symplectic(constraints, self.lat.n_sites)
            if vec is None:  # pragma: no cover - cannot happen on a valid lattice
                raise GeometryError(
                    "no logical X operator exists; lattice is inconsistent")
            self._x_logicals[pair] = jw.reduce_by_stabilizers(
                _gf2.pauli_from_vector(vec, list(self.lat.sites)), self.lat)
        return self._x_logicals[pair]

    def ground(self, pins: tuple[tuple[int, int, int], ...]) -> Tableau:
        """Seed-0 ground tableau with ``pins`` pinned (see ``init_ground``)
        and every mode-pair parity string registered. Callers copy it."""
        if pins not in self._grounds:
            t = init_ground(self.lat, seed=0, pinned_pairs=list(pins))
            for a, b in combinations(range(2 * self.lat.n_pairs), 2):
                t.logicals.setdefault(f"parity_{a}_{b}", self.parity_string(a, b))
            self._grounds[pins] = t
        return self._grounds[pins]

    def face_flip(self, pid: int, logicals: dict[str, PauliString]) -> PauliString:
        """Pauli anticommuting with exactly one plaquette, ``pid``, and with
        none of ``logicals``."""
        registry = tuple(sorted(logicals.items()))
        if (pid, registry) not in self._flips:
            if registry not in self._flip_bases:
                self._flip_bases[registry] = self._independent_logicals(registry)
            constraints = [(v, 1 if k == pid else 0)
                           for k, v in enumerate(self.stabilizer_matrix)]
            constraints += [(v, 0) for v in self._flip_bases[registry]]
            vec = _gf2.solve_symplectic(constraints, self.lat.n_sites)
            if vec is None:  # pragma: no cover - independent commuting generators
                raise GeometryError(f"no frame-flip operator exists for face {pid}")
            self._flips[pid, registry] = _gf2.pauli_from_vector(
                vec, list(self.lat.sites))
        return self._flips[pid, registry]

    def _independent_logicals(self, registry: tuple) -> list[np.ndarray]:
        # registered logicals are not independent modulo the face group
        # (products of pair parities can fall back into it); keep a maximal
        # independent subset, which already pins the rest.
        rows = list(self.stabilizer_matrix)
        keep = []
        r = _gf2.rank(np.array(rows, dtype=np.uint8))
        for _, op in registry:
            v = _gf2.symplectic_vector(op, self.site_index)
            r_new = _gf2.rank(np.array(rows + [v], dtype=np.uint8))
            if r_new > r:
                rows.append(v)
                keep.append(v)
                r = r_new
        return keep

    def loop_decomposition(
        self, loop: list[int], pair: int, encloses_pair: bool,
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
        key = (tuple(loop), pair, parity_string, bracket)
        if key not in self._loops:
            lat = self.lat
            loop_op = product(cut_operator(lat, f, g)
                              for f, g in zip(loop, loop[1:] + loop[:1]))
            target = loop_op * parity_string if encloses_pair else loop_op
            full = np.vstack([self.stabilizer_matrix,
                              _gf2.symplectic_vector(bracket, self.site_index)])
            sel = _gf2.solve(full, _gf2.symplectic_vector(target, self.site_index))
            if sel is None:
                raise GeometryError(
                    "loop operator is not in the expected logical class")
            n_faces = len(self.plaquette_ops)
            factors = []
            known = PauliString.identity()
            for k in np.flatnonzero(sel):
                k = int(k)
                op = self.plaquette_ops[k] if k < n_faces else bracket
                factors.append((k if k < n_faces else None, op))
                known = known * op
            check = (parity_string * known) if encloses_pair else known
            rel_sign = 1 if check == loop_op else -1
            if rel_sign == -1 and check.negate() != loop_op:  # pragma: no cover
                raise AssertionError("loop operator decomposition is inconsistent")
            self._loops[key] = (factors, rel_sign)
        return self._loops[key]


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
            constraints = [(_gf2.symplectic_vector(g, ctx.site_index), 0)
                           for g in enforced]
            constraints.append((_gf2.symplectic_vector(op, ctx.site_index), 1))
            vec = _gf2.solve_symplectic(constraints, lat.n_sites)
            if vec is None:  # pragma: no cover - generators are independent
                raise GeometryError("cannot pin stabilizer sign; generators conflict")
            t.apply_pauli(_gf2.pauli_from_vector(vec, list(lat.sites)))
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

    support = set(string.sites)
    overlapping = [
        pid for pid in sorted(t.active)
        if support & set(t.plaquette_ops[pid].sites)
    ]
    t.active -= set(overlapping)

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
    la = dict(zip(lat.plaquette(f1).ordered_sites, ("X", "Z", "X", "Z", "Y")))[site]
    lb = dict(zip(lat.plaquette(f2).ordered_sites, ("X", "Z", "X", "Z", "Y")))[site]
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
    encloses_pair = _validate_loop(lat, loop, pair)
    parity_string = t.logicals.get(f"parity_{2 * pair}_{2 * pair + 1}")
    if parity_string is None:
        raise ValueError(f"pair {pair} has no registered parity string")

    # anchor hole: a diagonal neighbour of loop[0] that is not on the loop
    anchor = None
    for p in lat.plaquettes:
        if p.id in loop or p.kind != "square":
            continue
        try:
            cut_operator(lat, p.id, loop[0])
        except GeometryError:
            continue
        if not _loop_encloses(lat, loop, p.ordered_sites[0]):
            anchor = p.id
            break
    if anchor is None:
        raise GeometryError("no anchor face available next to the loop")

    z_logical = cut_operator(lat, anchor, loop[0])
    hole = HolePair(anchor, loop[0], z_logical, t.plaquette_ops[anchor])

    t.active -= {anchor, loop[0]}
    z1 = t.measure(z_logical)

    lam_product = 1
    for i in range(len(loop)):
        f, g = loop[i], loop[(i + 1) % len(loop)]
        t.active.discard(g)            # extend the hole onto the next face
        lam_product *= t.measure(cut_operator(lat, f, g))
        t.reference_signs[f] = t.measure(t.plaquette_ops[f])  # heal vacated face
        t.active.add(f)

    z2 = t.measure(z_logical)

    # the loop operator (product of the cut operators) is the pair parity
    # times factors whose current signs the state fixes; read them all.
    bracket = t.logicals.get(f"bracket_{pair}", PauliString.identity())
    factors, rel_sign = code_context(lat).loop_decomposition(
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
