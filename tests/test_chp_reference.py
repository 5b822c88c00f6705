"""The tableau against a textbook CHP simulator.

``ReferenceCHP`` is the algorithm of Aaronson and Gottesman (quant-ph/0406196)
on unpacked (2n + 1, n) bool matrices, one row sum at a time, with row 2n as
the scratch row: no bit packing, no column index and no ``_kernels``. Replaying
the measurements and Pauli frames of ``init_ground`` and of the readouts must
give the same tableau text, destabilizer signs included. The golden file pins
the ground tableaux of three lattices only; this covers six. Copies of a
tableau share its x/z rows and replay stored moves; they are checked against
the reference call by call.
"""

import collections
import copy

import numpy as np
import pytest

from twistsim import mbb, tableau
from twistsim.dense import InconsistentOutcomeError
from twistsim.lattice import build_lattice, twist_logicals
from twistsim.pauli import PauliString
from twistsim.tableau import (Tableau, diamond_loop, init_ground,
                              measure_parity_direct, measure_parity_hole)


def _g(x1, z1, x2, z2):
    """Power of i at each site of the product (x1|z1)*(x2|z2)."""
    x2, z2 = x2.astype(int), z2.astype(int)
    return np.where(x1 & z1, z2 - x2,
                    np.where(x1, z2 * (2 * x2 - 1),
                             np.where(z1, x2 * (1 - 2 * z2), 0)))


class ReferenceCHP:
    def __init__(self, n: int):
        self.n = n
        self.x = np.zeros((2 * n + 1, n), dtype=bool)
        self.z = np.zeros((2 * n + 1, n), dtype=bool)
        self.r = np.zeros(2 * n + 1, dtype=bool)
        self.x[range(n), range(n)] = True
        self.z[range(n, 2 * n), range(n)] = True

    def _rowsum(self, h: int, i: int) -> None:
        # row h <- row h * row i
        e = 2 * int(self.r[h]) + 2 * int(self.r[i]) + int(
            _g(self.x[h], self.z[h], self.x[i], self.z[i]).sum())
        self.r[h] = e % 4 // 2
        self.x[h] ^= self.x[i]
        self.z[h] ^= self.z[i]

    def _anticommuting(self, p):
        px, pz = np.zeros(self.n, dtype=bool), np.zeros(self.n, dtype=bool)
        for site, letter in p.support:
            px[site], pz[site] = letter in "XY", letter in "ZY"
        clashes = (self.x[:-1] & pz).sum(axis=1) + (self.z[:-1] & px).sum(axis=1)
        return px, pz, np.flatnonzero(clashes % 2)

    def measure(self, p, draw: int) -> int:
        """±1; a random outcome is ``draw``."""
        n, neg = self.n, p.phase == 2
        px, pz, anti = self._anticommuting(p)
        stabs = anti[anti >= n]
        self.last_random = bool(stabs.size)
        if stabs.size:
            pivot = stabs[0]
            for i in anti:
                if i != pivot:
                    self._rowsum(i, pivot)
            for a in (self.x, self.z, self.r):
                a[pivot - n] = a[pivot]
            self.x[pivot], self.z[pivot] = px, pz
            self.r[pivot] = (draw == -1) ^ neg
            return draw
        scratch = 2 * n
        self.x[scratch], self.z[scratch], self.r[scratch] = False, False, False
        for i in anti:
            self._rowsum(scratch, i + n)
        assert (self.x[scratch] == px).all() and (self.z[scratch] == pz).all()
        return -1 if self.r[scratch] ^ neg else 1

    def apply_pauli(self, p) -> None:
        self.r[self._anticommuting(p)[2]] ^= True

    def to_text(self) -> str:
        # one line per row: kind, sign, letters, newline, as bytes
        n = self.n
        lines = np.empty((2 * n, n + 3), dtype=np.uint8)
        lines[:, 0] = np.frombuffer(b"DS", np.uint8)[np.arange(2 * n) // n]
        lines[:, 1] = np.frombuffer(b"+-", np.uint8)[self.r[:-1].astype(np.intp)]
        lines[:, 2:-1] = np.frombuffer(b"IXZY", np.uint8)[self.x[:-1] + 2 * self.z[:-1]]
        lines[:, -1] = ord("\n")
        return f"twistsim-tableau v1 n={n}\n" + lines.tobytes().decode()


@pytest.fixture
def recorder(monkeypatch):
    """The state-changing tableau calls made while it is active, in order:
    ("measure", p, force, outcome or None if refused) and ("pauli", p)."""
    log = []
    measure, apply_pauli = Tableau.measure, Tableau.apply_pauli

    def logged_measure(self, p, force=None):
        try:
            out = measure(self, p, force)
        except InconsistentOutcomeError:
            log.append(("measure", p, force, None))
            raise
        log.append(("measure", p, force, out))
        return out

    def logged_pauli(self, p):
        log.append(("pauli", p))
        apply_pauli(self, p)

    monkeypatch.setattr(Tableau, "measure", logged_measure)
    monkeypatch.setattr(Tableau, "apply_pauli", logged_pauli)
    return log


@pytest.fixture
def lockstep(monkeypatch):
    """``(pairs, calls)``: each ``measure`` and ``apply_pauli`` call on a
    tableau paired with a reference in ``pairs`` runs on the reference at
    once, and the outcome, ``last_random`` and the text must agree after it.
    ``calls`` counts the checked calls: "random", "fixed", "refused" and
    "pauli"."""
    pairs, calls = {}, collections.Counter()
    measure, apply_pauli = Tableau.measure, Tableau.apply_pauli

    def checked_measure(self, p, force=None):
        ref = pairs.get(self)
        try:
            out = measure(self, p, force)
        except InconsistentOutcomeError:
            if ref is not None:
                calls["refused"] += 1
                assert ref.measure(p, draw=force) == -force
                assert not ref.last_random and self.to_text() == ref.to_text()
            raise
        if ref is not None:
            assert ref.measure(p, draw=out) == out
            calls["random" if ref.last_random else "fixed"] += 1
            assert self.last_random == ref.last_random
            assert self.to_text() == ref.to_text()
        return out

    def checked_pauli(self, p):
        apply_pauli(self, p)
        ref = pairs.get(self)
        if ref is not None:
            calls["pauli"] += 1
            ref.apply_pauli(p)
            assert self.to_text() == ref.to_text()

    monkeypatch.setattr(Tableau, "measure", checked_measure)
    monkeypatch.setattr(Tableau, "apply_pauli", checked_pauli)
    return pairs, calls


def replay(ref: ReferenceCHP, log: list) -> None:
    for kind, p, *call in log:
        if kind == "pauli":
            ref.apply_pauli(p)
            continue
        force, out = call
        if out is None:  # the tableau refused a force against a fixed outcome
            assert ref.measure(p, draw=force) == -force
        else:
            assert ref.measure(p, draw=out) == out
    log.clear()


LATTICES = {
    "6x4": (6, 4, [(1, 1, 3)]),
    "8x6": (8, 6, [(1, 2, 5)]),
    "10x12": (10, 12, [(2, 2, 5), (6, 2, 6)]),
    "8x12": (8, 12, [(2, 2, 4), (5, 2, 4), (8, 2, 4)]),
    "14x12_558": (14, 12, [(5, 5, 8)]),
    "14x12_557": (14, 12, [(5, 5, 7)]),
}


def _ground(name: str, log: list) -> tuple[Tableau, ReferenceCHP]:
    lat = build_lattice(*LATTICES[name])
    pins = None
    if name == "8x12":  # the pins of the mbb lattice backend
        pins = [(a - 1, b - 1, mbb.parity_sign_for((a, b), 6))
                for a, b in mbb.START_PAIRINGS[6]]
    t = init_ground(lat, seed=0, pinned_pairs=pins)
    ref = ReferenceCHP(lat.n_sites)
    assert log
    replay(ref, log)
    return t, ref


@pytest.mark.parametrize("name", list(LATTICES))
def test_init_ground_matches_textbook_chp(recorder, name):
    t, ref = _ground(name, recorder)
    assert t.to_text() == ref.to_text()


def _rows_and_signs(t: Tableau) -> list[list[int]]:
    return [list(v) for v in (t.x, t.z, t.cx, t.cz, t.r)]


@pytest.mark.parametrize("name", ["14x12_558", "14x12_557"])
def test_readouts_match_textbook_chp(recorder, lockstep, name):
    # copies of one ground share its x/z rows: the first copy to reach a
    # state computes a move and stores it, the later ones replay it; each
    # call is checked as it happens, flipped and unflipped, over both
    # readouts, their fixed outcomes and the direct readout's frame repairs
    pairs, calls = lockstep
    ground, ground_ref = _ground(name, recorder)
    lat = ground.lattice
    loop = diamond_loop(lat, 0, 3)
    string = ground.logicals["parity_0_1"]
    _, x_logical = twist_logicals(lat, 0)
    parity = ground.expectation_sign(string)
    face = lat.plaquette_ops[loop[0]]
    flips = 0
    for seed in range(4):
        for flip in (False, True):
            for readout in ("hole", "direct"):
                t = ground.copy()
                pairs[t] = copy.deepcopy(ground_ref)
                t.rng = np.random.default_rng(seed)
                if flip:
                    t.apply_pauli(x_logical)
                    flips += 1
                if readout == "hole":
                    out, _ = measure_parity_hole(t, 0, loop)
                else:
                    out = measure_parity_direct(t, string).outcome
                assert out == (-parity if flip else parity)
                # a refused force changes no row and no sign
                before = _rows_and_signs(t)
                with pytest.raises(InconsistentOutcomeError):
                    t.measure(face, force=-t.expectation_sign(face))
                assert _rows_and_signs(t) == before
    assert calls["random"] and calls["fixed"] and calls["refused"] == 16
    assert calls["pauli"] > flips  # the direct readouts' frame repairs
    # 16 readouts measured from one family, which stored each move once
    stored = ground._shared.family.stored
    assert stored < calls["random"] + calls["fixed"] and stored < tableau.SHARED_MOVES


def _stored_states(shared) -> int:
    """The x/z states stored from ``shared`` on, itself included."""
    return 1 + sum(_stored_states(move.after) for move in shared.moves.values()
                   if type(move) is tableau._Random)


def test_copies_past_the_move_bound_own_their_rows(lockstep):
    # more random measurements than one family stores: the first copy stores
    # moves up to the bound and then owns its rows; a sibling replays the
    # stored moves and computes the rest on rows of its own
    pairs, calls = lockstep
    n, rng = 5, np.random.default_rng(3)
    strings = [PauliString.from_dict(
        {int(s): "XYZ"[rng.integers(3)] for s in rng.choice(n, 2, replace=False)},
        2 * int(rng.integers(2))) for _ in range(tableau.SHARED_MOVES + 80)]
    base = Tableau.zero_state(n, 0)
    first, sibling = base.copy(), base.copy()
    text = base.to_text()
    for seed, t in enumerate((first, sibling)):
        assert t.to_text() == text  # the other copy's calls left it alone
        pairs[t] = ReferenceCHP(n)
        t.rng = np.random.default_rng(seed)
        for p in strings:
            t.measure(p)
        assert t._shared is None
    assert calls["random"] > 2 * tableau.SHARED_MOVES
    assert base.to_text() == text
    assert base._shared.family.stored == tableau.SHARED_MOVES
    assert _stored_states(base._shared) <= tableau.SHARED_MOVES


# -- the braid sampler ---------------------------------------------------------


def _per_shot(bits: int, t: Tableau) -> list[int]:
    """Shot k's bit, for each shot k of ``t``, of a per-shot outcome or shot
    mask."""
    return [(bits >> k) & 1 for k in range(t.all_shots.bit_length())]


def _shot_text(t: Tableau, k: int) -> str:
    """The text of shot ``k`` of a batch, as a lone tableau."""
    lone = t.copy()
    lone.r, lone.all_shots = [(v >> k) & 1 for v in t.r], 1
    return lone.to_text()


@pytest.fixture
def sign_log(monkeypatch):
    """Every ``measure_signs`` and ``apply_pauli`` call, in order, with its
    per-shot bits: ("measure", p, outcome bits) and ("pauli", p, marks)."""
    log = []
    measure_signs, apply_pauli = Tableau.measure_signs, Tableau.apply_pauli

    def logged_measure(self, p, draw, force=None):
        out = measure_signs(self, p, draw, force)
        log.append(("measure", p, _per_shot(out, self)))
        return out

    def logged_pauli(self, p, shots=None):
        apply_pauli(self, p, shots)
        marks = self.all_shots if shots is None else shots
        log.append(("pauli", p, _per_shot(marks, self)))

    monkeypatch.setattr(Tableau, "measure_signs", logged_measure)
    monkeypatch.setattr(Tableau, "apply_pauli", logged_pauli)
    return log


def replay_shot(ref: ReferenceCHP, log: list, k: int) -> None:
    """Replay shot ``k`` of ``log``, its outcomes as the draws."""
    for kind, p, bits in log:
        if kind == "pauli":
            if bits[k]:
                ref.apply_pauli(p)
        else:
            sign = 1 - 2 * bits[k]
            assert ref.measure(p, draw=sign) == sign


# the pair each sampler run reads after its braids: (3,5) is what ``stats``
# reads on three pairs; two pairs have no anyon 5
READOUT = {6: (3, 5), 4: (2, 3)}


@pytest.mark.parametrize("forced", [False, True], ids=["random", "forced"])
@pytest.mark.parametrize("name", ["8x12", "10x12"])
def test_braid_sampler_matches_textbook_chp(sign_log, name, forced):
    # the stats sampler's tableau calls, replayed shot by shot on the textbook
    # simulator: lone shots (batch width 1) and every column of a batch of 13,
    # which is not a whole number of bytes
    lat = build_lattice(*LATTICES[name])
    ground = mbb.LatticeBackend(lat, np.random.default_rng(0)).tab
    ground_ref = ReferenceCHP(lat.n_sites)
    replay_shot(ground_ref, sign_log, 0)
    assert ground.to_text() == ground_ref.to_text()
    rng = np.random.default_rng(len(name) + forced)
    seen = set()
    for n_braids in range(6):
        for width, starts in ((1, range(3)), (13, [0])):
            for start in starts:
                sign_log.clear()
                bk = mbb.LatticeBackend(lat, mbb.ShotStreams(n_braids, start, width))
                for _ in range(n_braids):
                    # a forced label may arrive as a numpy integer
                    force = tuple([None, np.int64(0), np.int64(1)][rng.integers(3)]
                                  for _ in range(3)) if forced else None
                    mbb.braid_once(bk, force)
                labels, _ = bk.measure(READOUT[bk.n])
                if forced:  # the repeat is fixed: shot 0 rules this label out
                    with pytest.raises(InconsistentOutcomeError):
                        bk.measure(READOUT[bk.n], force=np.int64(1 - labels[0]))
                for k in range(width):
                    ref = copy.deepcopy(ground_ref)
                    replay_shot(ref, sign_log, k)
                    assert _shot_text(bk.tab, k) == ref.to_text()
                seen.update(bits[k] for kind, _, bits in sign_log
                            for k in range(width) if kind == "measure")
    assert seen == {0, 1}
