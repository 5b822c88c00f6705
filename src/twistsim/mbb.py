"""Measurement-based braiding: the fixed three-measurement cycle, outcome
corrections, the forced-measurement variant, and the parity-flip statistics.

The engine runs against three interchangeable backends:

* ``AnyonBackend``   - fusion-label bookkeeping (4 or 6 sigma anyons),
* ``FockBackend``    - explicit Majorana matrices (the exactness oracle),
* ``LatticeBackend`` - twist pairs on the planar code with stabilizer-
                       formalism parity measurements.

A measured pair's fusion label relates to the Majorana parity i*g_a*g_b by a
pairing-dependent sign (the vacuum sign): it is derived once per pairing from
the fusion-basis states expressed in the Fock representation, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import anyon, dense, tableau
from .anyon import TopoState, make_state, transform_state
from .dense import FockSpace
from .lattice import TwistLattice

REFERENCE_PAIRINGS = {4: ((1, 2), (3, 4)), 6: ((1, 2), (3, 4), (5, 6))}


def _fock_vector(state: TopoState, space: FockSpace) -> np.ndarray:
    """Even-sector fusion state as a Fock vector via the reference pairing."""
    ref = REFERENCE_PAIRINGS[state.n_anyons]
    stb = transform_state(state, ref)
    basis = space.pairing_basis(list(ref))
    vec = np.zeros(space.dim, dtype=np.complex128)
    for amp, label in zip(stb.amps, stb.labels()):
        vec += amp * basis[label]
    return vec


@lru_cache(maxsize=None)
def _fock_setup(n_anyons: int) -> tuple[FockSpace, np.ndarray | None]:
    """The ``n_anyons``-mode Fock space, built once per n, and the read-only
    start vector for six anyons (four start in a state set by alpha, beta)."""
    space = FockSpace(n_anyons)
    if n_anyons != 6:
        return space, None
    vac = make_state(((1, 2), (3, 5), (4, 6)), "even", {(0, 0, 0): 1.0})
    start = _fock_vector(vac, space)
    start.flags.writeable = False
    return space, start


@lru_cache(maxsize=None)
def vacuum_parity_sign(pairing: tuple, pair: tuple) -> int:
    """Sign s with: fusion label 0 of ``pair`` (in ``pairing``) <-> i g g = s.

    Derived by expressing the all-vacuum fusion state of the pairing in the
    Majorana Fock space and reading the pair's parity expectation.
    """
    pairing = tuple(tuple(p) for p in pairing)
    space, _ = _fock_setup(2 * len(pairing))
    vac = make_state(pairing, "even", {(0,) * len(pairing): 1.0})
    vec = _fock_vector(vac, space)
    expect = np.real(vec.conj() @ space.parity_op(*pair) @ vec)
    if abs(abs(expect) - 1.0) > 1e-9:
        raise ValueError(f"pair {pair} has no definite parity in {pairing}")
    return 1 if expect > 0 else -1


def parity_sign_for(pair: tuple[int, int], n_anyons: int) -> int:
    """Vacuum sign of a pair within the deterministic pairing used to
    measure it (the pair first, remaining anyons paired in index order)."""
    pairing = anyon._pairing_with(None, tuple(pair), n_anyons)
    return vacuum_parity_sign(pairing, tuple(pair))


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


class AnyonBackend:
    """Fusion-label register; 4 anyons carry both parity sectors."""

    name = "anyon"

    def __init__(self, n_anyons: int, rng: np.random.Generator,
                 alpha: complex = 1.0, beta: complex = 0.0):
        self.n = n_anyons
        self.rng = rng
        if n_anyons == 4:
            norm = np.hypot(abs(alpha), abs(beta))
            self.components: list[tuple[complex, TopoState]] = []
            if abs(alpha) > 1e-14:
                self.components.append(
                    (alpha / norm, make_state(((1, 2), (3, 4)), "even", {(0, 0): 1.0}))
                )
            if abs(beta) > 1e-14:
                self.components.append(
                    (beta / norm, make_state(((1, 2), (3, 4)), "odd", {(0, 1): 1.0}))
                )
        else:
            pairing = ((1, 2), (3, 5), (4, 6))
            self.components = [
                (1.0, make_state(pairing, "even", {(0, 0, 0): 1.0}))
            ]

    def measure(self, pair: tuple[int, int], force: int | None = None
                ) -> tuple[int, float]:
        target = anyon._pairing_with(None, tuple(pair), self.n)
        n, prob, self.components = anyon.measure_label(
            [(w, transform_state(s, target)) for w, s in self.components],
            0, self.rng, force)
        return n, prob

    def apply_parity(self, pair: tuple[int, int]) -> None:
        self.components = [
            (w, anyon.apply_pair_parity(s, tuple(pair))) for w, s in self.components
        ]


class FockBackend:
    """Dense 4- or 6-mode Majorana oracle with full state access."""

    name = "fock"

    def __init__(self, n_anyons: int, rng: np.random.Generator,
                 alpha: complex = 1.0, beta: complex = 0.0):
        self.n = n_anyons
        self.rng = rng
        self.space, start = _fock_setup(n_anyons)
        if n_anyons == 4:
            basis = self.space.pairing_basis(list(REFERENCE_PAIRINGS[4]))
            norm = np.hypot(abs(alpha), abs(beta))
            self.state = (alpha * basis[(0, 0)] + beta * basis[(0, 1)]) / norm
        else:
            self.state = start.copy()

    def measure(self, pair: tuple[int, int], force: int | None = None
                ) -> tuple[int, float]:
        """Projective measurement of i*g_a*g_b, whose +1 eigenspace is label
        0 when the pair's vacuum sign is +1 and label 1 when it is -1."""
        pair = tuple(pair)
        plus_is_label_0 = parity_sign_for(pair, self.n) == 1
        plus = 0.5 * (self.state + self.space.parity_op(*pair) @ self.state)
        p_plus = float(np.real(np.vdot(plus, plus)))
        took_plus, prob = dense.born_branch(
            p_plus, self.rng,
            None if force is None else int((force == 0) == plus_is_label_0))
        post = plus if took_plus else self.state - plus
        self.state = post / np.linalg.norm(post)
        return int(took_plus != plus_is_label_0), prob

    def apply_parity(self, pair: tuple[int, int]) -> None:
        self.state = self.space.parity_op(*pair) @ self.state

    def vector(self) -> np.ndarray:
        return self.state.copy()


class LatticeBackend:
    """Twist modes on the planar code.

    Every mode pair's parity string is registered on the lattice's pinned
    ground tableau, which each backend copies. Pair parities are read out as
    projective measurements of those strings, which is what both code-level
    readout schemes implement (``tableau.measure_parity_direct`` and
    ``tableau.measure_parity_hole``).
    """

    name = "lattice"

    def __init__(self, lat: TwistLattice, rng: np.random.Generator):
        if 2 * lat.n_pairs not in (4, 6):
            raise ValueError("lattice must host 4 or 6 twists")
        self.n = 2 * lat.n_pairs
        self.lat = lat
        self.rng = rng
        if self.n == 6:
            pinned = [(0, 1), (2, 4), (3, 5)]  # modes (1,2),(3,5),(4,6), 0-based
        else:
            pinned = [(0, 1), (2, 3)]
        # each pinned pair starts at its fusion-vacuum parity sign
        pins = tuple((a, b, parity_sign_for((a + 1, b + 1), self.n))
                     for a, b in pinned)
        self.tab = tableau.code_context(lat).ground(pins).copy()
        self.tab.rng = rng
        self.strings = {
            (a + 1, b + 1): self.tab.logicals[f"parity_{a}_{b}"]
            for a, b in combinations(range(self.n), 2)
        }

    def measure(self, pair: tuple[int, int], force: int | None = None
                ) -> tuple[int, float]:
        pair = tuple(pair)
        sigma = parity_sign_for(pair, self.n)
        string = self.strings[pair]
        target = None if force is None else (1 if force == 0 else -1) * sigma
        outcome = self.tab.measure(string, force=target)
        n = 0 if outcome == sigma else 1
        return n, (0.5 if self.tab.last_random else 1.0)

    def apply_parity(self, pair: tuple[int, int]) -> None:
        self.tab.apply_pauli(self.strings[tuple(pair)])


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


def run_shots(backend_factory, n_braids: int, shot_seeds,
              records: list | None = None) -> int:
    """Run one shot per seed: a fresh backend, ``n_braids`` braids of 3,4,
    then a (3,5) label readout. Returns how many shots read label 1; appends
    each shot's trace to ``records`` when given."""
    flips = 0
    for shot_seed in shot_seeds:
        backend = backend_factory(np.random.default_rng(shot_seed))
        shot_trace = []
        for _ in range(n_braids):
            record, correction = braid_once(backend)
            shot_trace.append(
                (record.n13, record.n14, record.n12_final, correction))
        n35, _ = backend.measure((3, 5))
        flips += n35
        if records is not None:
            records.append({"cycles": shot_trace, "n35": n35})
    return flips


def run_statistics(
    backend_factory, n_braids: int, shots: int, seed: int,
    keep_records: bool = False,
) -> dict:
    """Fraction of shots whose (3,5) fusion label flips after n braids of 3,4,
    with its 3-sigma confidence band.

    Shot k runs on the k-th child of ``SeedSequence(seed)``, so any split of
    the shots over ``run_shots`` calls gives the same flips.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    records = [] if keep_records else None
    flips = run_shots(backend_factory, n_braids,
                      np.random.SeedSequence(seed).spawn(shots), records)
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
