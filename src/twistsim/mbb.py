"""Measurement-based braiding: the fixed three-measurement cycle, outcome
corrections, the forced-measurement variant, and the parity-flip statistics.

The engine runs against three interchangeable backends:

* ``AnyonBackend``   - fusion amplitudes in the start pairing (4 or 6 sigma
                       anyons),
* ``FockBackend``    - explicit Majorana matrices (the exactness oracle),
* ``LatticeBackend`` - twist pairs on the planar code with stabilizer-
                       formalism parity measurements.

Every backend runs a batch of shots, and its random source, the second
argument, sets the shot count: a ``ShotStreams`` runs S shots, a numpy
``Generator`` is a batch of one. ``measure`` returns per-shot arrays, one
uint8 label and one probability per shot, and may be forced;
``apply_parity`` may act on marked shots only. A batch holds one tableau
sign bit per shot per row on shared x/z rows, or, on the anyon and Fock
backends, one small integer per shot: the index of its state vector in a
transition table. Pair measurements and parity flips are Clifford, so a start
vector reaches a few hundred states at most; the table holds each state, with
phase, and per pair its +1-branch probability and the successor of each
branch and of a flip. It is filled lazily, at a state's first visit, by the
same Born-rule arithmetic (``dense.measure_involution``) a lone vector would
run, and shared by every backend on that start vector in the process, so a
measurement is a few gathers and one uniform draw per shot.
``ShotStreams`` computes every shot's random stream at once: shot k's stream
equals, draw for draw, that of numpy's PCG64 ``Generator`` on the k-th
``SeedSequence`` child, and each shot draws in the order a lone shot would,
so it reads what it would read alone.

The anyon and Fock backends are one state-vector backend with two
constructors: each measures a pair through a Hermitian involution O (the
pair's ``anyon.label_operator``, or i*g_a*g_b itself), built once per pair,
and knows whether O's +1 eigenspace is fusion label 0. Both share
``measure``, ``apply_parity`` and ``vector``.

A measured pair's fusion label relates to the Majorana parity i*g_a*g_b by a
pairing-dependent sign (the vacuum sign): it is derived once per pairing from
the fusion-basis states expressed in the Fock representation, never assumed.
Two caches hold the Fock side: ``_fock_space(n)`` the space and its
reference-pairing basis, which the vacuum signs and ``_fock_vector`` read,
and ``_fock_setup(n)`` the start vectors, which only ``FockBackend`` reads; a
``LatticeBackend`` builds no start vector.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import anyon, dense, tableau
from .anyon import TopoState, make_state, transform_state
from .dense import FockSpace
from .lattice import TwistLattice

REFERENCE_PAIRINGS = {4: ((1, 2), (3, 4)), 6: ((1, 2), (3, 4), (5, 6))}
# The anyon and Fock backends start at chain label 0 on each pair (four
# anyons: alpha on labels (0, 0), beta on (0, 1)), the lattice at measured
# label 0. So a first measurement of (4,6) reads 1 on anyon and Fock but 0 on
# the lattice; the braid protocol never measures anyon 6.
START_PAIRINGS = {4: ((1, 2), (3, 4)), 6: ((1, 2), (3, 5), (4, 6))}


@lru_cache(maxsize=None)
def _fock_space(n_anyons: int) -> tuple[FockSpace, dict[tuple[int, ...], np.ndarray]]:
    """The ``n_anyons``-mode Fock space, built once per n, and its read-only
    basis of ``REFERENCE_PAIRINGS[n_anyons]`` (``FockSpace.pairing_basis``)."""
    space = FockSpace(n_anyons)
    basis = space.pairing_basis(list(REFERENCE_PAIRINGS[n_anyons]))
    for vec in basis.values():
        vec.flags.writeable = False
    return space, basis


def _fock_vector(state: TopoState) -> np.ndarray:
    """Fusion state as a Fock vector via the reference pairing, on the
    cached basis of ``_fock_space``.

    A chain-basis entry is the Fock pairing-basis state up to a sign: the
    Majorana form of braiding leaves 2k, 2k+1 carries a Jordan-Wigner string
    over the pairs before k, which the chain basis does not. The sign
    (-1)^(sum of l_i * l_j over pairs j >= i + 2) absorbs it; it is 1 for
    four anyons.
    """
    space, basis = _fock_space(state.n_anyons)
    stb = transform_state(state, REFERENCE_PAIRINGS[state.n_anyons])
    vec = np.zeros(space.dim, dtype=np.complex128)
    for amp, label in zip(stb.amps, stb.labels()):
        far = sum(label[i] * sum(label[i + 2:]) for i in range(len(label)))
        vec += (-1) ** far * amp * basis[label]
    return vec


@lru_cache(maxsize=None)
def _fock_setup(n_anyons: int) -> tuple[np.ndarray, ...]:
    """The Fock backend's read-only start vectors: the (0,0) and (0,1) states
    of the four-anyon start pairing, which alpha and beta mix (that pairing
    is the reference pairing, so they are entries of the cached basis), or
    the one six-anyon start vector. Only ``FockBackend`` reads them."""
    if n_anyons == 4:
        basis = _fock_space(4)[1]
        return basis[(0, 0)], basis[(0, 1)]
    vac = make_state(START_PAIRINGS[6], "even", {(0, 0, 0): 1.0})
    start = _fock_vector(vac)
    start.flags.writeable = False
    return (start,)


@lru_cache(maxsize=None)
def parity_sign_for(pair: tuple[int, int], n_anyons: int) -> int:
    """Sign s with: fusion label 0 of ``pair`` <-> i g_a g_b = s, in the
    deterministic pairing used to measure it (the pair first, remaining
    anyons paired in index order).

    Derived by expressing the all-vacuum fusion state of that pairing in the
    Majorana Fock space of ``_fock_space`` and reading the pair's parity
    expectation; in the odd sector a pair with one end on anyon 3 or 4 has
    label 0 at -s.
    """
    pairing = anyon._pairing_with(pair, n_anyons)
    space = _fock_space(n_anyons)[0]
    vec = _fock_vector(make_state(pairing, "even", {(0,) * len(pairing): 1.0}))
    expect = np.real(np.vdot(vec, space.parity_op(*pair) @ vec))
    if abs(abs(expect) - 1.0) > 1e-9:
        raise ValueError(f"pair {pair} has no definite parity in {pairing}")
    return 1 if expect > 0 else -1


# -- records and corrections ---------------------------------------------------


@dataclass
class MBBRecord:
    """One cycle's labels and probabilities: per-shot arrays, or ints."""
    n13: np.ndarray | int
    n14: np.ndarray | int
    n12_final: np.ndarray | int
    attempts: tuple[int, int, int] | None = None  # forced variant only
    probabilities: tuple = (0.5, 0.5, 0.5)

    def shot(self, k: int) -> MBBRecord:
        """Shot ``k`` of a per-shot record, as Python scalars."""
        return MBBRecord(self.n13[k].item(), self.n14[k].item(),
                         self.n12_final[k].item(), self.attempts,
                         tuple(p[k].item() for p in self.probabilities))


CORRECTIONS = {
    (0, 0): ("I", None),
    (1, 0): ("Z", (3, 4)),
    (0, 1): ("Y", (1, 4)),
    (1, 1): ("X", (1, 3)),
}


def correction_for(record: MBBRecord) -> tuple[str, tuple[int, int] | None]:
    """Outcome-dependent logical Pauli completing one shot's braid."""
    return CORRECTIONS[(record.n13 ^ record.n14, record.n12_final)]


# -- backends ------------------------------------------------------------------


@lru_cache(maxsize=None)
def _anyon_involution(n_anyons: int, pair: tuple[int, int]) -> tuple[np.ndarray, bool]:
    """``anyon.label_operator`` of ``pair`` on fusion amplitudes in the start
    pairing; four anyons stack the even block and the odd block. Its +1
    eigenspace is label 1."""
    blocks = [anyon.label_operator(n_anyons, START_PAIRINGS[n_anyons], pair, total)
              for total in ((0, 1) if n_anyons == 4 else (0,))]
    dim = len(blocks[0])
    op = np.zeros((dim * len(blocks),) * 2, dtype=np.complex128)
    for k, block in enumerate(blocks):
        op[k * dim:(k + 1) * dim, k * dim:(k + 1) * dim] = block
    op.flags.writeable = False
    return op, False


@lru_cache(maxsize=None)
def _fock_involution(n_anyons: int, pair: tuple[int, int]) -> tuple[np.ndarray, bool]:
    """i*g_a*g_b on the Fock space, whose +1 eigenspace is label 0 when the
    pair's vacuum sign is +1 and label 1 when it is -1."""
    op = _fock_space(n_anyons)[0].parity_op(*pair)
    op.flags.writeable = False
    return op, parity_sign_for(pair, n_anyons) == 1


def _shot_source(rng: np.random.Generator | ShotStreams):
    """``(shots, random, bits)`` of a ``Generator``, a batch of one, or of a
    ``ShotStreams`` or any source with ``__len__``, ``random`` and ``bit``: per
    draw, a uniform float per shot, or one bit per shot packed into an int."""
    if isinstance(rng, np.random.Generator):
        return 1, rng.random, lambda: int(rng.integers(2))
    return len(rng), rng.random, lambda: _pack(rng.bit())


# States one transition table may hold. From the six-anyon start, measuring
# every pair at either label and flipping every pair reaches 480 states with
# phase kept (60 up to phase).
TABLE_CAP = 512


class _TransitionTable:
    """The states a start vector reaches, with phase kept, and their moves.

    ``vectors[s]`` is state s, state 0 the start. Per measured pair,
    ``p_plus[s]`` is the probability of the involution's +1 branch (NaN until
    s is visited) and ``succ[2 * s + b]`` the state after branch b (-1 where
    b is impossible); per flipped pair, ``flip[s]`` is the state after the
    involution (-1 until visited). A state's entries are filled at its first
    visit by ``dense.measure_involution`` and ``@ op.T`` on the block of the
    states met for the first time, so the Born-rule arithmetic stays in
    ``dense``. A new vector within 1e-12 of a known state is that state: the vector seen
    first stays.
    """

    def __init__(self, start: np.ndarray):
        self.vectors = np.empty((TABLE_CAP, len(start)), dtype=np.complex128)
        self.vectors[0] = start
        self.size = 1
        self._measures: dict = {}
        self._flips: dict = {}

    def _distinct(self, states: np.ndarray) -> np.ndarray:
        """The distinct entries of ``states``, ascending."""
        seen = np.zeros(self.size, dtype=bool)
        seen[states] = True
        return np.flatnonzero(seen)

    def _index(self, rows: np.ndarray) -> np.ndarray:
        """The state of each row, appending those not yet in the table. A
        row is a state when no real or imaginary part of their difference
        exceeds 1e-12; the first such state is taken."""
        def close(a, b):
            diff = (a[:, None] - b[None]).view(np.float64)
            return np.abs(diff).max(axis=2) <= 1e-12

        known = close(rows, self.vectors[:self.size])
        out = np.where(known.any(axis=1), known.argmax(axis=1), -1)
        new = np.flatnonzero(out < 0)
        if new.size:
            # the first of the new rows close to each other opens a state
            leads = []
            for k, same in enumerate(close(rows[new], rows[new]).tolist()):
                lead = next((j for j in leads if same[j]), None)
                if lead is None:
                    out[new[k]] = self.size + len(leads)
                    leads.append(k)
                else:
                    out[new[k]] = out[new[lead]]
            if self.size + len(leads) > TABLE_CAP:
                raise RuntimeError(f"more than {TABLE_CAP} states reached from "
                                   "one start vector")
            self.vectors[self.size:self.size + len(leads)] = rows[new[leads]]
            self.size += len(leads)
        return out

    def measurement(self, pair: tuple[int, int], op: np.ndarray,
                    states: np.ndarray):
        """``(p, succ)``: the +1-branch probability of measuring ``pair``
        through its involution ``op`` for each entry of ``states``, and the
        table's successors of ``pair``."""
        if pair not in self._measures:
            self._measures[pair] = (np.full(TABLE_CAP, np.nan),
                                    np.full(2 * TABLE_CAP, -1, dtype=np.intp))
        p_plus, succ = self._measures[pair]
        p = p_plus[states]
        unvisited = np.isnan(p)
        if unvisited.any():
            new = self._distinct(states[unvisited])
            block = self.vectors[new]
            o_block = block @ op.T
            _, p_new = dense.plus_branch(block, o_block)
            slots, posts = [], []
            for branch, prob in ((0, 1.0 - p_new), (1, p_new)):
                rows = np.flatnonzero(prob >= dense.MIN_BRANCH_PROB)
                slots.append(2 * new[rows] + branch)
                posts.append(dense.measure_involution(block[rows], o_block[rows],
                                                      None, branch)[2])
            succ[np.concatenate(slots)] = self._index(np.concatenate(posts))
            p_plus[new] = p_new
            p = p_plus[states]
        return p, succ

    def flip(self, pair: tuple[int, int], op: np.ndarray,
             states: np.ndarray) -> np.ndarray:
        """The state after applying ``pair``'s involution ``op``, for each
        entry of ``states``."""
        if pair not in self._flips:
            self._flips[pair] = np.full(TABLE_CAP, -1, dtype=np.intp)
        succ = self._flips[pair]
        out = succ[states]
        unvisited = out < 0
        if unvisited.any():
            new = self._distinct(states[unvisited])
            succ[new] = self._index(self.vectors[new] @ op.T)
            out = succ[states]
        return out


@lru_cache(maxsize=32)
def _transition_table(backend: type, n_anyons: int, start: bytes) -> _TransitionTable:
    """The table of one backend class, anyon count and start vector."""
    return _TransitionTable(np.frombuffer(start, dtype=np.complex128))


def _forced_bit(force, flip: bool) -> int | None:
    """The outcome bit a forced label asks for, the label XOR ``flip``, or
    None unforced. A label other than None, 0 or 1 raises ``ValueError``
    before any state changes."""
    if force is None:
        return None
    if force not in (0, 1):
        raise ValueError(f"forced label {force!r} is not 0 or 1")
    return int(force) ^ flip


class _VectorBackend:
    """State vectors, held as one index per shot into the transition table of
    the start vector (``_TransitionTable``), which every backend of the same
    class, anyon count and start shares. A measurement gathers each shot's
    +1-branch probability, draws its branch and gathers its next state; a
    flip gathers the next state. ``_involution(n, pair)`` gives the pair's
    Hermitian involution O and whether its +1 eigenspace is label 0.
    ``apply_parity`` applies O, which is i*g_a*g_b up to a global sign.
    """

    def __init__(self, n_anyons: int, rng: np.random.Generator | ShotStreams,
                 state: np.ndarray):
        self.n = n_anyons
        self.shots, self._random, _ = _shot_source(rng)
        self._start = state
        self.index = np.zeros(self.shots, dtype=np.intp)

    @cached_property
    def _table(self) -> _TransitionTable:
        # looked up at the first use, so constructing a backend builds nothing
        return _transition_table(type(self), self.n, self._start.tobytes())

    def measure(self, pair: tuple[int, int], force: int | None = None):
        """``(labels, probabilities)`` of ``pair``, one per shot. A
        measurement takes one uniform draw per shot, unless forced; an
        impossible forced label is refused as ``dense.born_branch`` refuses
        it."""
        pair = tuple(pair)
        op, plus_is_label_0 = self._involution(self.n, pair)
        p_plus, succ = self._table.measurement(pair, op, self.index)
        took, prob = dense.born_branch(p_plus, self._random,
                                       _forced_bit(force, plus_is_label_0))
        index = succ[2 * self.index + took]
        if index.min() < 0:
            raise RuntimeError(f"a shot drew a branch of {pair} whose "
                               f"probability is below {dense.MIN_BRANCH_PROB}")
        self.index = index
        return took.astype(np.uint8) ^ plus_is_label_0, prob

    def apply_parity(self, pair: tuple[int, int],
                     shots: np.ndarray | None = None) -> None:
        """Apply ``pair``'s involution to every shot, or to the shots marked 1
        in ``shots``."""
        pair = tuple(pair)
        op = self._involution(self.n, pair)[0]
        rows = slice(None) if shots is None else np.flatnonzero(shots)
        self.index[rows] = self._table.flip(pair, op, self.index[rows])

    def vector(self) -> np.ndarray:
        """Each shot's state vector, one row per shot."""
        return self._table.vectors[self.index]


def amplitude_norm(alpha: complex, beta: complex) -> float:
    """The norm the four-anyon start ``alpha``, ``beta`` is divided by;
    ``ValueError`` unless it is a normal float."""
    norm = math.hypot(alpha.real, alpha.imag, beta.real, beta.imag)
    if not sys.float_info.min <= norm < math.inf:
        raise ValueError(f"alpha and beta must not both be zero, and their norm "
                         f"{norm} must be a normal float")
    return np.hypot(abs(alpha), abs(beta))


class AnyonBackend(_VectorBackend):
    """Fusion amplitudes in the start pairing: for 4 anyons the even block
    then the odd block (both parity sectors), for 6 the even sector."""

    _involution = staticmethod(_anyon_involution)

    def __init__(self, n_anyons: int, rng: np.random.Generator | ShotStreams,
                 alpha: complex = 1.0, beta: complex = 0.0):
        if n_anyons == 4:
            # chain charge 0 carries labels (0, 0) when even, (0, 1) when odd
            state = np.array([alpha, 0, beta, 0], dtype=np.complex128)
            state /= amplitude_norm(alpha, beta)
        else:
            state = np.eye(4, dtype=np.complex128)[0]  # labels (0, 0, 0)
        super().__init__(n_anyons, rng, state)


class FockBackend(_VectorBackend):
    """Dense 4- or 6-mode Majorana oracle with full state access."""

    _involution = staticmethod(_fock_involution)

    def __init__(self, n_anyons: int, rng: np.random.Generator | ShotStreams,
                 alpha: complex = 1.0, beta: complex = 0.0):
        self.space = _fock_space(n_anyons)[0]
        starts = _fock_setup(n_anyons)
        start = starts[0]
        if n_anyons == 4:  # starts are the (0,0) and (0,1) states
            norm = amplitude_norm(alpha, beta)  # raises before any arithmetic
            start = (alpha * start + beta * starts[1]) / norm
        super().__init__(n_anyons, rng, start)


class LatticeBackend:
    """Twist modes on the planar code.

    Each backend copies the lattice's pinned ground tableau. Pair parities are
    read out as projective measurements of the pairs' parity strings.
    Acceptance criterion 9 checks only that the two code-level readouts
    (``tableau.measure_parity_direct`` and ``tableau.measure_parity_hole``)
    agree on one pair's own registered parity string; a direct readout of a
    string across pairs can flip a segment's bracket, which a projective
    measurement does not. The ground, the measurements and the corrections
    use the raw Jordan-Wigner strings (``CodeContext.raw_parity_string``),
    not the reduced ones: a projective measurement reads the same label on
    any string that differs by plaquettes, which the ground fixes at +1, so
    the backend runs no stabilizer reduction.

    Which rows a measurement touches, and whether it is random, depend only
    on the measured strings; outcomes and corrections change signs only. So
    one tableau carries the x/z trajectory every shot shares, and bit ``s``
    of each of its sign integers is shot ``s``'s sign (Stim's frame idea,
    arXiv:2103.02202, applied to the CHP sign column). A random measurement
    takes one bit per shot, ``Generator.integers(2)`` or ``ShotStreams.bit()``,
    the same draw, packed into one integer; ``measure`` unpacks the labels.
    """

    def __init__(self, lat: TwistLattice, rng: np.random.Generator | ShotStreams):
        n = 2 * lat.n_pairs
        if n not in (4, 6):
            raise ValueError("lattice must host 4 or 6 twists")
        # each start pair is pinned, 0-based, at its fusion-vacuum parity sign
        pins = tuple((a - 1, b - 1, parity_sign_for((a, b), n))
                     for a, b in START_PAIRINGS[n])
        self.n = n
        self.ctx = tableau.code_context(lat)
        self.shots, _, self._bits = _shot_source(rng)
        self.tab = self.ctx.ground(pins).copy()
        self.tab.spread(self.shots)

    def _string(self, pair: tuple[int, int]):
        return self.ctx.raw_parity_string(pair[0] - 1, pair[1] - 1)

    def measure(self, pair: tuple[int, int], force: int | None = None):
        """``(labels, probabilities)`` of ``pair``, one per shot. An
        impossible forced label is refused as ``Tableau.measure_signs``
        refuses it."""
        pair = tuple(pair)
        # outcome bit 0 is parity +1, label 0 when the vacuum sign is +1
        flip = parity_sign_for(pair, self.n) == -1
        bits = self.tab.measure_signs(self._string(pair), self._bits,
                                      _forced_bit(force, flip))
        # bit s of ``bits`` is shot s's outcome
        raw = np.frombuffer(bits.to_bytes(-(-self.shots // 8), "little"), np.uint8)
        labels = np.unpackbits(raw, count=self.shots, bitorder="little") ^ flip
        return labels, np.full(self.shots, 0.5 if self.tab.last_random else 1.0)

    def apply_parity(self, pair: tuple[int, int],
                     shots: np.ndarray | None = None) -> None:
        """Apply ``pair``'s parity to every shot, or to the shots marked 1 in
        ``shots``."""
        self.tab.apply_pauli(self._string(pair), None if shots is None else _pack(shots))


def _pack(bits: np.ndarray) -> int:
    """The integer whose bit ``s`` is set where ``bits[s]`` is nonzero."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


# -- shot streams --------------------------------------------------------------

_M32 = 0xFFFF_FFFF
# SeedSequence's hash constants (numpy.random.bit_generator)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier, as (high, low) 64-bit words
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _uint32_words(value: int) -> list[int]:
    """``value`` as little-endian uint32 words, as SeedSequence reads an
    integer (0 is one word)."""
    return [(value >> (32 * i)) & _M32
            for i in range(max(1, -(-value.bit_length() // 32)))]


def _hash(values: np.ndarray, init: int, mult: int, first: int) -> np.ndarray:
    """SeedSequence's hashmix of each row of ``values``, the rows being
    consecutive calls: row i takes the hash constant ``first + i`` steps after
    ``init``."""
    consts = [init * pow(mult, k, 2**32) & _M32
              for k in range(first, first + len(values) + 1)]
    values = (values ^ np.array(consts[:-1], np.uint32)[:, None]) \
        * np.array(consts[1:], np.uint32)[:, None]
    return values ^ (values >> 16)


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of each 128-bit product ``a * b``, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    t = a1 * b0 + ((a0 * b0) >> 32)
    return a1 * b1 + (t >> 32) + (((t & _M32) + a0 * b1) >> 32)


class ShotStreams:
    """The random streams of shots ``start .. start + count - 1``, computed
    for all of them at once.

    Shot k's stream is, draw for draw, that of numpy's PCG64 ``Generator``
    seeded with the k-th child of ``np.random.SeedSequence(seed).spawn``,
    the child with spawn key ``(k,)``. The ``SeedSequence`` pool hashing runs
    on uint32 lanes, one per shot, and PCG64 (M. E. O'Neill,
    HMC-CS-2014-0905) seeds and steps its 128-bit state as (high, low) uint64
    pairs. NEP 19 keeps both streams stable. ``random()`` and ``bit()`` draw
    one value per shot, like ``Generator.random()`` and
    ``Generator.integers(2)``; the latter is Lemire's method on PCG64's
    buffered 32-bit output, which NEP 19 does not freeze, so the tests check
    it against numpy itself.

    Spawn keys of one range must hash as the same number of uint32 words, so
    a range may not cross 2^32.
    """

    def __init__(self, seed: int, start: int, count: int):
        seed, start, count = (operator.index(v) for v in (seed, start, count))
        if seed < 0 or start < 0 or count <= 0:
            raise ValueError("seed and start must be >= 0 and count > 0")
        stop = start + count - 1
        if stop >= 2**64 or len(_uint32_words(start)) != len(_uint32_words(stop)):
            raise ValueError(f"spawn keys {start}..{stop} cross a uint32 word "
                             "boundary")
        self.count = count
        keys = np.arange(start, start + count, dtype=np.uint64)
        # SeedSequence.mix_entropy: the seed's words (padded to the pool size,
        # as a spawned child pads them) come first and are the same for every
        # shot, so numpy mixes them; each spawn-key word then takes one hash
        # step per pool word, lane by lane.
        run = _uint32_words(seed)
        run += [0] * (_POOL_SIZE - len(run))
        pool = np.random.SeedSequence(run).pool[:, None]
        steps = _POOL_SIZE * len(run)  # hash steps that mixing ``run`` took
        for i in range(len(_uint32_words(start))):
            word = (keys >> (32 * i)).astype(np.uint32)
            hashed = _hash(np.broadcast_to(word, (_POOL_SIZE, count)),
                           _INIT_A, _MULT_A, steps + _POOL_SIZE * i)
            pool = _MIX_MULT_L * pool - _MIX_MULT_R * hashed
            pool ^= pool >> 16
        # generate_state(4, np.uint64): eight uint32 words, low word first
        words = _hash(pool[np.arange(8) % _POOL_SIZE], _INIT_B, _MULT_B, 0)
        words = words.astype(np.uint64)
        seed_hi, seed_lo, inc_hi, inc_lo = words[0::2] | (words[1::2] << 32)
        # pcg_setseq_128_srandom_r: inc = 2*initseq + 1, then step, add, step
        self._inc = ((inc_hi << 1) | (inc_lo >> 63), (inc_lo << 1) | 1)
        lo = self._inc[1] + seed_lo
        self._state = self._inc[0] + seed_hi + (lo < seed_lo), lo
        self._step()
        # PCG64's 32-bit buffer: bit 63 of an output whose low half was drawn
        self._half = None

    def __len__(self) -> int:
        return self.count

    def _step(self) -> None:
        """state = state * multiplier + inc, mod 2^128."""
        (hi, lo), (inc_hi, inc_lo) = self._state, self._inc
        prod_lo = lo * _PCG_MULT_LO
        new_lo = prod_lo + inc_lo
        new_hi = (_mulhi64(lo, _PCG_MULT_LO) + hi * _PCG_MULT_LO
                  + lo * _PCG_MULT_HI + inc_hi + (new_lo < prod_lo))
        self._state = new_hi, new_lo

    def _next64(self) -> np.ndarray:
        """PCG64's next output per shot: step, then XSL-RR."""
        self._step()
        hi, lo = self._state
        rot = hi >> 58
        x = hi ^ lo
        return (x >> rot) | (x << ((64 - rot) & 63))

    def random(self) -> np.ndarray:
        """One ``Generator.random()`` per shot."""
        return (self._next64() >> 11) * (1.0 / 2**53)

    def bit(self) -> np.ndarray:
        """One ``Generator.integers(2)`` per shot, as uint8: bit 31 of a new
        output, then bit 63 of the same output."""
        if self._half is not None:
            out, self._half = self._half, None
            return out
        out = self._next64()
        self._half = (out >> 63).astype(np.uint8)
        return ((out >> 31) & 1).astype(np.uint8)


# -- protocol ------------------------------------------------------------------


CYCLE_PAIRS = ((1, 3), (1, 4), (1, 2))


def run_cycle(backend, force: tuple[int, int, int] | None = None,
              check_vacuum: bool = False) -> MBBRecord:
    """One braid cycle: measure the (1,3), (1,4), (1,2) labels in order.

    The ancilla pair must start in the vacuum; backends guarantee it by
    construction (and each correction restores it), so the explicit check is
    off by default to keep the cycle at exactly three measurements.
    """
    if check_vacuum:
        n12, _ = backend.measure((1, 2))
        if np.any(n12 != 0):
            raise ValueError("ancilla pair is not in the vacuum channel")
    forces = force if force is not None else (None, None, None)
    (n13, p13), (n14, p14), (n12, p12) = (
        backend.measure(pair, f) for pair, f in zip(CYCLE_PAIRS, forces))
    return MBBRecord(n13, n14, n12, probabilities=(p13, p14, p12))


def apply_correction(backend, record: MBBRecord) -> None:
    """Apply each shot's ``correction_for``, one masked ``apply_parity`` each."""
    parity = record.n13 ^ record.n14
    for (n13_n14, n12_final), (_, pair) in CORRECTIONS.items():
        if pair is None:
            continue
        shots = (parity == n13_n14) & (record.n12_final == n12_final)
        if shots.any():
            backend.apply_parity(pair, shots)


def braid_once(backend, force=None) -> MBBRecord:
    record = run_cycle(backend, force)
    apply_correction(backend, record)
    return record


def run_forced(backend, max_attempts: int = 64) -> MBBRecord:
    """Forced-measurement braid of one shot: re-measure the previous pair and
    retry until each of the three target labels comes out 0."""
    if backend.shots != 1:
        raise ValueError(f"run_forced runs one shot, not a batch of "
                         f"{backend.shots}")
    steps = [((1, 3), (1, 2)), ((1, 4), (1, 3)), ((1, 2), (1, 4))]
    attempts = []
    for target, reset in steps:
        count = 1
        n, _ = backend.measure(target)
        while n != 0:
            if count >= max_attempts:
                raise RuntimeError(
                    f"forced measurement of {target} exceeded {max_attempts} tries"
                )
            backend.measure(reset)
            n, _ = backend.measure(target)
            count += 1
        attempts.append(count)
    return MBBRecord(0, 0, 0, attempts=tuple(attempts))


def run_shots(backend_factory, n_braids: int, streams: ShotStreams,
              records: list | None = None) -> int:
    """Run the shots of ``streams`` in one batch: ``n_braids`` braids of 3,4,
    then a (3,5) label readout. Returns how many shots read label 1; appends
    each shot's trace to ``records`` when given.

    ``backend_factory`` takes the ``ShotStreams`` and returns a backend on
    that source, such as ``lambda streams: AnyonBackend(6, streams)``. Each
    braid is ``braid_once``, the same cycle a lone shot runs.
    """
    backend = backend_factory(streams)
    braids = [braid_once(backend) for _ in range(n_braids)]
    n35, _ = backend.measure((3, 5))
    if records is not None:
        cycles = [list(zip(r.n13.tolist(), r.n14.tolist(), r.n12_final.tolist()))
                  for r in braids]
        for k, label in enumerate(n35.tolist()):
            trace = [(a, b, c, CORRECTIONS[(a ^ b, c)][0])
                     for a, b, c in (cycle[k] for cycle in cycles)]
            records.append({"cycles": trace, "n35": label})
    return int(n35.sum())


# Shots per ``run_shots`` batch. A batch holds each shot's 128-bit stream
# state and increment, and its state index or one sign bit per tableau row.
# At 1024 a 400-shot stats job is one batch, which ran stats-anyon at about
# 1.4x the shots/s of 256 on a 2-core host; a default 10^4-shot ``stats`` run
# then peaks at 0.4 (anyon) to 0.7 MB (Fock) under tracemalloc. 4096 was
# 10-25% faster on that run but peaked at 1.4 to 2.5 MB.
SHOT_BLOCK = 1024


def _blocks(shots: int):
    """(start, count) of each ``run_shots`` batch: ``SHOT_BLOCK`` shots, cut
    where a spawn key grows a uint32 word (at 2^32)."""
    start = 0
    while start < shots:
        boundary = 1 << (32 * len(_uint32_words(start)))
        stop = min(start + SHOT_BLOCK, shots, boundary)
        yield start, stop - start
        start = stop


def run_statistics(
    backend_factory, n_braids: int, shots: int, seed: int,
    keep_records: bool = False,
) -> dict:
    """Fraction of shots whose (3,5) fusion label flips after n braids of 3,4,
    with its 3-sigma confidence band.

    Shot k draws, draw for draw, what numpy's PCG64 ``Generator`` would on
    the k-th child of ``SeedSequence(seed)``, so any split of the shots over
    ``run_shots`` calls gives the same flips. The shots run in batches of at
    most ``SHOT_BLOCK``, and each batch computes every shot's stream at once
    (``ShotStreams``).
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    records = [] if keep_records else None
    flips = sum(run_shots(backend_factory, n_braids,
                          ShotStreams(seed, start, count), records)
                for start, count in _blocks(shots))
    freq = flips / shots
    half_width = 3.0 * np.sqrt(max(freq * (1 - freq), 1e-12) / shots)
    out = {
        "n_braids": n_braids,
        "shots": shots,
        "flip_frequency": freq,
        "confidence_3sigma": (max(0.0, freq - half_width),
                              min(1.0, freq + half_width)),
    }
    if keep_records:
        out["records"] = records
    return out


def verify_braid_equivalence(
    initial: np.ndarray, final: np.ndarray, record: MBBRecord, space: FockSpace
) -> float:
    """|<R_34 psi_initial | P psi_final>| for one completed cycle."""
    name, pair = correction_for(record)
    corrected = final if pair is None else space.parity_op(*pair) @ final
    rotated = space.braid_op(3, 4) @ initial
    return dense.fidelity_up_to_phase(rotated, corrected)
