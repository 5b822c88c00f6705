"""Measurement-based braiding: the fixed three-measurement cycle, outcome
corrections, the forced-measurement variant, and the parity-flip statistics.

The engine runs against three interchangeable backends:

* ``AnyonBackend``   - fusion amplitudes in the start pairing (4 or 6 sigma
                       anyons),
* ``FockBackend``    - explicit Majorana matrices (the exactness oracle),
* ``LatticeBackend`` - twist pairs on the planar code with stabilizer-
                       formalism parity measurements.

Each backend takes its random source as its second argument, and the source
sets the shot count: a numpy ``Generator`` runs one shot, whose ``measure``
returns an int label and may be forced; a ``ShotStreams`` runs a batch of S
shots, whose ``measure`` returns one uint8 label per shot and whose
``apply_parity`` may act on marked shots only. A batch holds one anyon or
Fock state vector per shot in one array, or one tableau sign column per shot
on a shared x/z trajectory. ``ShotStreams`` computes every shot's random
stream at once: shot k's stream equals, draw for draw, that of numpy's PCG64
``Generator`` on the k-th ``SeedSequence`` child, and each shot draws in the
order a one-shot backend would, so it reads what it would read alone.

The anyon and Fock backends are one state-vector backend with two
constructors: each measures a pair through a Hermitian involution O (the
pair's ``anyon.label_operator``, or i*g_a*g_b itself), built once per pair,
and knows whether O's +1 eigenspace is fusion label 0. Both share
``measure``, ``apply_parity`` and ``vector``.

A measured pair's fusion label relates to the Majorana parity i*g_a*g_b by a
pairing-dependent sign (the vacuum sign): it is derived once per pairing from
the fusion-basis states expressed in the Fock representation, never assumed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

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


def _fock_vector(state: TopoState, space: FockSpace) -> np.ndarray:
    """Fusion state as a Fock vector via the reference pairing.

    A chain-basis entry is the Fock pairing-basis state up to a sign: the
    Majorana form of braiding leaves 2k, 2k+1 carries a Jordan-Wigner string
    over the pairs before k, which the chain basis does not. The sign
    (-1)^(sum of l_i * l_j over pairs j >= i + 2) absorbs it; it is 1 for
    four anyons.
    """
    ref = REFERENCE_PAIRINGS[state.n_anyons]
    stb = transform_state(state, ref)
    basis = space.pairing_basis(list(ref))
    vec = np.zeros(space.dim, dtype=np.complex128)
    for amp, label in zip(stb.amps, stb.labels()):
        far = sum(label[i] * sum(label[i + 2:]) for i in range(len(label)))
        vec += (-1) ** far * amp * basis[label]
    return vec


@lru_cache(maxsize=None)
def _fock_setup(n_anyons: int) -> tuple[FockSpace, tuple[np.ndarray, ...]]:
    """The ``n_anyons``-mode Fock space, built once per n, and its read-only
    start vectors: the (0,0) and (0,1) states of the four-anyon start pairing
    (mixed by alpha, beta), or the one six-anyon start vector."""
    space = FockSpace(n_anyons)
    if n_anyons == 4:
        basis = space.pairing_basis(list(START_PAIRINGS[4]))
        starts = (basis[(0, 0)], basis[(0, 1)])
    else:
        vac = make_state(START_PAIRINGS[6], "even", {(0, 0, 0): 1.0})
        starts = (_fock_vector(vac, space),)
    for vec in starts:
        vec.flags.writeable = False
    return space, starts


@lru_cache(maxsize=None)
def parity_sign_for(pair: tuple[int, int], n_anyons: int) -> int:
    """Sign s with: fusion label 0 of ``pair`` <-> i g_a g_b = s, in the
    deterministic pairing used to measure it (the pair first, remaining
    anyons paired in index order).

    Derived by expressing the all-vacuum fusion state of that pairing in the
    Majorana Fock space and reading the pair's parity expectation; in the odd
    sector a pair with one end on anyon 3 or 4 has label 0 at -s.
    """
    pairing = anyon._pairing_with(pair, n_anyons)
    space, _ = _fock_setup(n_anyons)
    vec = _fock_vector(make_state(pairing, "even", {(0,) * len(pairing): 1.0}),
                       space)
    expect = np.real(np.vdot(vec, space.parity_op(*pair) @ vec))
    if abs(abs(expect) - 1.0) > 1e-9:
        raise ValueError(f"pair {pair} has no definite parity in {pairing}")
    return 1 if expect > 0 else -1


# -- records and corrections ---------------------------------------------------


@dataclass
class MBBRecord:
    n12_initial: int
    n13: int
    n14: int
    n12_final: int
    backend: str
    attempts: tuple[int, int, int] | None = None  # forced variant only
    probabilities: tuple[float, float, float] = (0.5, 0.5, 0.5)


CORRECTIONS = {
    (0, 0): ("I", None),
    (1, 0): ("Z", (3, 4)),
    (0, 1): ("Y", (1, 4)),
    (1, 1): ("X", (1, 3)),
}


def correction_for(record: MBBRecord) -> tuple[str, tuple[int, int] | None]:
    """Outcome-dependent logical Pauli completing the braid."""
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
    op = _fock_setup(n_anyons)[0].parity_op(*pair)
    op.flags.writeable = False
    return op, parity_sign_for(pair, n_anyons) == 1


class _VectorBackend:
    """State vectors measured pair by pair: one vector, or with a
    ``ShotStreams`` source one row per shot of an (S, dim) array, all measured
    by one product with the pair's involution. ``_involution(n, pair)`` gives
    that Hermitian involution O and whether its +1 eigenspace is label 0;
    ``apply_parity`` applies O, which is i*g_a*g_b up to a global sign."""

    def __init__(self, n_anyons: int, rng: np.random.Generator | ShotStreams,
                 state: np.ndarray):
        self.n = n_anyons
        self.rng = rng
        if isinstance(rng, ShotStreams):
            state = np.repeat(state[None, :], len(rng), axis=0)
        self.state = state

    def measure(self, pair: tuple[int, int], force: int | None = None):
        """``(label, probability)`` of ``pair``, per shot on a batch. A
        measurement takes one ``rng.random()`` (per shot), unless forced."""
        op, plus_is_label_0 = self._involution(self.n, tuple(pair))
        took_plus, prob, self.state = dense.measure_involution(
            self.state, self.state @ op.T, self.rng.random,
            None if force is None else int((force == 0) == plus_is_label_0))
        return took_plus ^ plus_is_label_0, prob

    def apply_parity(self, pair: tuple[int, int],
                     shots: np.ndarray | None = None) -> None:
        """Apply ``pair``'s involution to every shot, or to the shots marked 1
        in ``shots``."""
        op = self._involution(self.n, tuple(pair))[0]
        if shots is None:
            self.state = self.state @ op.T
        else:
            rows = np.flatnonzero(shots)
            self.state[rows] = self.state[rows] @ op.T

    def vector(self) -> np.ndarray:
        return self.state.copy()


class AnyonBackend(_VectorBackend):
    """Fusion amplitudes in the start pairing: for 4 anyons the even block
    then the odd block (both parity sectors), for 6 the even sector."""

    name = "anyon"
    _involution = staticmethod(_anyon_involution)

    def __init__(self, n_anyons: int, rng: np.random.Generator | ShotStreams,
                 alpha: complex = 1.0, beta: complex = 0.0):
        if n_anyons == 4:
            # chain charge 0 carries labels (0, 0) when even, (0, 1) when odd
            state = np.array([alpha, 0, beta, 0], dtype=np.complex128)
            state /= np.hypot(abs(alpha), abs(beta))
        else:
            state = np.eye(4, dtype=np.complex128)[0]  # labels (0, 0, 0)
        super().__init__(n_anyons, rng, state)


class FockBackend(_VectorBackend):
    """Dense 4- or 6-mode Majorana oracle with full state access."""

    name = "fock"
    _involution = staticmethod(_fock_involution)

    def __init__(self, n_anyons: int, rng: np.random.Generator | ShotStreams,
                 alpha: complex = 1.0, beta: complex = 0.0):
        self.space, starts = _fock_setup(n_anyons)
        start = starts[0]
        if n_anyons == 4:  # starts are the (0,0) and (0,1) states
            start = (alpha * start + beta * starts[1]) / np.hypot(abs(alpha), abs(beta))
        super().__init__(n_anyons, rng, start)


class LatticeBackend:
    """Twist modes on the planar code.

    Each backend copies the lattice's pinned ground tableau. Pair parities are
    read out as projective measurements of the pairs' parity strings, which
    is what both code-level readout schemes implement
    (``tableau.measure_parity_direct`` and ``tableau.measure_parity_hole``).

    Which rows a measurement touches, and whether it is random, depend only
    on the measured strings; outcomes and corrections change signs only. So
    with a ``ShotStreams`` source of S shots one tableau carries the x/z
    trajectory every shot shares, and ``tab.r`` holds one sign column per
    shot (Stim's frame idea, arXiv:2103.02202, applied to the CHP sign
    column). A random measurement takes one ``integers(2)`` from the
    generator, or one ``bit()`` per shot from the streams, the same draw.
    """

    name = "lattice"

    def __init__(self, lat: TwistLattice, rng: np.random.Generator | ShotStreams):
        n = 2 * lat.n_pairs
        if n not in (4, 6):
            raise ValueError("lattice must host 4 or 6 twists")
        # each start pair is pinned, 0-based, at its fusion-vacuum parity sign
        pins = tuple((a - 1, b - 1, parity_sign_for((a, b), n))
                     for a, b in START_PAIRINGS[n])
        self.n = n
        self.ctx = tableau.code_context(lat)
        self.tab = self.ctx.ground(pins).copy()
        if isinstance(rng, ShotStreams):
            self.tab.r = np.repeat(self.tab.r[:, None], len(rng), axis=1)
            self._bit = rng.bit
        else:
            self._bit = lambda: int(rng.integers(2))

    def _string(self, pair: tuple[int, int]):
        return self.ctx.parity_string(pair[0] - 1, pair[1] - 1)

    def measure(self, pair: tuple[int, int], force: int | None = None):
        """``(label, probability)`` of ``pair``, the label per shot on a
        batch. A forced label must be possible; otherwise this raises
        ``InconsistentOutcomeError`` and leaves the state as it was."""
        pair = tuple(pair)
        # outcome bit 0 is parity +1, label 0 when the vacuum sign is +1
        flip = parity_sign_for(pair, self.n) == -1
        draw = self._bit if force is None else lambda: force ^ flip
        labels = self.tab.measure_signs(self._string(pair), draw) ^ flip
        if force is not None and np.any(labels != force):
            raise dense.InconsistentOutcomeError(
                f"label {force} requested for a measurement fixed at {labels}")
        return labels, (0.5 if self.tab.last_random else 1.0)

    def apply_parity(self, pair: tuple[int, int],
                     shots: np.ndarray | None = None) -> None:
        """Apply ``pair``'s parity to every shot, or to the shots marked 1 in
        ``shots``."""
        self.tab.apply_pauli(self._string(pair), shots)


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
        if n12 != 0:
            raise ValueError("ancilla pair is not in the vacuum channel")
    forces = force if force is not None else (None, None, None)
    (n13, p13), (n14, p14), (n12, p12) = (
        backend.measure(pair, f) for pair, f in zip(CYCLE_PAIRS, forces))
    return MBBRecord(0, n13, n14, n12, backend.name,
                     probabilities=(p13, p14, p12))


def apply_correction(backend, record: MBBRecord) -> str:
    name, pair = correction_for(record)
    if pair is not None:
        backend.apply_parity(pair)
    return name


def braid_once(backend, force=None) -> tuple[MBBRecord, str]:
    record = run_cycle(backend, force)
    return record, apply_correction(backend, record)


def run_forced(backend, max_attempts: int = 64) -> MBBRecord:
    """Forced-measurement braid: re-measure the previous pair and retry until
    each of the three target labels comes out 0."""
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
    return MBBRecord(0, 0, 0, 0, backend.name, attempts=tuple(attempts))


def run_shots(backend_factory, n_braids: int, streams: ShotStreams,
              records: list | None = None) -> int:
    """Run the shots of ``streams`` in one batch: ``n_braids`` braids of 3,4,
    then a (3,5) label readout. Returns how many shots read label 1; appends
    each shot's trace to ``records`` when given.

    ``backend_factory`` takes the ``ShotStreams`` and returns a backend on
    that source, such as ``lambda streams: AnyonBackend(6, streams)``: its
    ``measure(pair)`` gives one label per shot and ``apply_parity(pair,
    shots)`` acts on the marked shots.
    """
    backend = backend_factory(streams)
    cycles = []
    for _ in range(n_braids):
        n13, n14, n12 = (backend.measure(pair)[0] for pair in CYCLE_PAIRS)
        for (n13_n14, n12_final), (_, pair) in CORRECTIONS.items():
            if pair is None:
                continue
            shots = ((n13 ^ n14) == n13_n14) & (n12 == n12_final)
            if shots.any():
                backend.apply_parity(pair, shots)
        if records is not None:
            cycles.append((n13.tolist(), n14.tolist(), n12.tolist()))
    n35, _ = backend.measure((3, 5))
    if records is not None:
        for k, label in enumerate(n35.tolist()):
            trace = [(a[k], b[k], c[k], CORRECTIONS[(a[k] ^ b[k], c[k])][0])
                     for a, b, c in cycles]
            records.append({"cycles": trace, "n35": label})
    return int(n35.sum())


# Shots per ``run_shots`` batch. A batch holds arrays only: each shot's
# 128-bit stream state and increment, and its state vector or sign column.
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
