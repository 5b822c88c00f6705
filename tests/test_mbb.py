import collections
import copy
import gc
import weakref
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twistsim import _kernels, anyon, dense, jw, mbb, tableau
from twistsim.lattice import build_lattice
from twistsim.dense import InconsistentOutcomeError
from twistsim.mbb import (CORRECTIONS, CYCLE_PAIRS, START_PAIRINGS,
                          AnyonBackend, FockBackend, LatticeBackend, MBBRecord,
                          ShotStreams, _fock_vector,
                          apply_correction,
                          braid_once, correction_for, parity_sign_for,
                          run_cycle, run_forced, run_shots, run_statistics,
                          verify_braid_equivalence)

from test_lattice import accepted_layouts

LAT6 = build_lattice(8, 12, [(2, 2, 4), (5, 2, 4), (8, 2, 4)])
LAT6_WIDE = build_lattice(10, 12, [(2, 2, 5), (5, 3, 6), (8, 2, 5)])


def anyon6(streams):
    """Batch factory of six-anyon shots."""
    return AnyonBackend(6, streams)


def pair_string(lat, pair):
    """Parity string of a 1-based twist pair."""
    return tableau.code_context(lat).parity_string(pair[0] - 1, pair[1] - 1)


def test_correction_table():
    assert correction_for(MBBRecord(0, 0, 0)) == ("I", None)
    assert correction_for(MBBRecord(1, 0, 0)) == ("Z", (3, 4))
    assert correction_for(MBBRecord(1, 0, 1)) == ("X", (1, 3))
    assert correction_for(MBBRecord(1, 1, 1)) == ("Y", (1, 4))
    assert correction_for(MBBRecord(0, 1, 1)) == ("X", (1, 3))


def test_parity_sign_dictionary():
    # vacuum channel of the straight pairs sits at parity -1, of the crossed
    # pairs at +1; derived from the Fock oracle and frozen here, every pair
    # of four and of six anyons
    four = {(1, 2): -1, (1, 3): 1, (1, 4): 1, (2, 3): 1, (2, 4): 1, (3, 4): -1}
    six = {(1, 2): -1, (1, 3): 1, (1, 4): 1, (1, 5): -1, (1, 6): -1,
           (2, 3): 1, (2, 4): 1, (2, 5): -1, (2, 6): -1, (3, 4): -1,
           (3, 5): 1, (3, 6): 1, (4, 5): 1, (4, 6): 1, (5, 6): -1}
    for n, signs in ((4, four), (6, six)):
        assert set(signs) == set(combinations(range(1, n + 1), 2))
        for pair, sign in signs.items():
            assert parity_sign_for(pair, n) == sign, (n, pair)


def test_cycle_is_exactly_three_measurements():
    rng = np.random.default_rng(0)
    backend = AnyonBackend(4, rng, 0.8, 0.6)
    record = run_cycle(backend)
    assert len(record.probabilities) == 3
    assert all(abs(p - 0.5) < 1e-9 for p in record.probabilities)


def test_first_measurement_is_unbiased():
    counts = 0
    shots = 2000
    for s in range(shots):
        backend = AnyonBackend(4, np.random.default_rng(s), 0.8, 0.6)
        counts += run_cycle(backend).shot(0).n13
    sigma = np.sqrt(0.25 / shots)
    assert abs(counts / shots - 0.5) <= 3 * sigma


def test_all_eight_outcome_triples_occur():
    seen = collections.Counter()
    for s in range(400):
        backend = AnyonBackend(4, np.random.default_rng(s), 0.6, 0.8j)
        r = run_cycle(backend).shot(0)
        seen[(r.n13, r.n14, r.n12_final)] += 1
    assert len(seen) == 8
    assert min(seen.values()) > 0


def _branch_amplitudes(backend, pair):
    """Joint label amplitudes of a 4-anyon register in the pairing that
    measures ``pair``, keyed by sector and labels."""
    target = anyon._pairing_with(pair, 4)
    out = {}
    for k, (sector, total) in enumerate((("even", 0), ("odd", 1))):
        u = anyon.basis_change(4, START_PAIRINGS[4], target, total)
        amps = np.conj(u) @ backend.vector()[0, 2 * k:2 * k + 2]
        for amp, lab in zip(amps, anyon._labels(4, total)):
            if abs(amp) > 1e-12:
                out[(sector, lab)] = amp
    return out


def test_intermediate_states_match_published_branches():
    rng0 = np.random.default_rng(17)
    for trial in range(10):
        a, b = rng0.normal(size=2) + 1j * rng0.normal(size=2)
        norm = np.hypot(abs(a), abs(b))
        a, b = a / norm, b / norm
        for n13 in (0, 1):
            bk = AnyonBackend(4, np.random.default_rng(trial), a, b)
            bk.measure((1, 3), force=n13)
            amp = _branch_amplitudes(bk, (1, 3))
            ph = np.exp(-1j * np.pi / 8)
            if n13 == 0:
                expected = {("even", (0, 0)): ph * a, ("odd", (0, 1)): ph * b}
            else:
                expected = {("even", (1, 1)): 1j * ph * a,
                            ("odd", (1, 0)): 1j * ph * b}
            for key, val in expected.items():
                assert abs(amp.get(key, 0) - val) < 1e-12, (n13, key)

        # second measurement: the four branch forms at the two-step stage
        for n13, n14, even_lab, odd_lab, es, os_ in [
            (0, 0, (0, 0), (0, 1), 1, 1),
            (0, 1, (1, 1), (1, 0), -1, 1),
            (1, 0, (0, 0), (0, 1), 1, -1),
            (1, 1, (1, 1), (1, 0), 1, 1),
        ]:
            bk = AnyonBackend(4, np.random.default_rng(trial), a, b)
            bk.measure((1, 3), force=n13)
            bk.measure((1, 4), force=n14)
            amp = _branch_amplitudes(bk, (1, 4))
            ph = np.exp(-1j * np.pi / 4)
            scale = 1j if n13 == 1 else 1.0
            assert abs(amp.get(("even", even_lab), 0) - scale * ph * es * a) < 1e-12
            assert abs(amp.get(("odd", odd_lab), 0) - scale * ph * os_ * b) < 1e-12


def test_final_states_match_published_grouping_up_to_phase():
    rng0 = np.random.default_rng(23)
    forms = {
        (0, 0): lambda a, b: {("even", (0, 0)): a, ("odd", (0, 1)): 1j * b},
        (1, 0): lambda a, b: {("even", (0, 0)): a, ("odd", (0, 1)): -1j * b},
        (0, 1): lambda a, b: {("even", (1, 1)): 1j * a, ("odd", (1, 0)): b},
        (1, 1): lambda a, b: {("even", (1, 1)): 1j * a, ("odd", (1, 0)): -b},
    }
    for trial in range(6):
        a, b = rng0.normal(size=2) + 1j * rng0.normal(size=2)
        norm = np.hypot(abs(a), abs(b))
        a, b = a / norm, b / norm
        for branch in range(8):
            f = (branch >> 2 & 1, branch >> 1 & 1, branch & 1)
            bk = AnyonBackend(4, np.random.default_rng(trial), a, b)
            try:
                rec = run_cycle(bk, force=f).shot(0)
            except ValueError:
                continue
            amp = _branch_amplitudes(bk, (1, 2))
            expected = forms[(rec.n13 ^ rec.n14, rec.n12_final)](a, b)
            # compare up to one global phase
            ratio = None
            for key, val in expected.items():
                got = amp.get(key, 0)
                if abs(val) < 1e-12:
                    assert abs(got) < 1e-12
                    continue
                r = got / val
                if ratio is None:
                    ratio = r
                assert abs(r - ratio) < 1e-10, (f, key)
            assert ratio is None or abs(abs(ratio) - 1.0) < 1e-10


def test_braid_equivalence_all_branches_fock():
    rng0 = np.random.default_rng(5)
    for trial in range(8):
        a, b = rng0.normal(size=2) + 1j * rng0.normal(size=2)
        for branch in range(8):
            f = (branch >> 2 & 1, branch >> 1 & 1, branch & 1)
            bk = FockBackend(4, np.random.default_rng(branch), a, b)
            initial = bk.vector()[0]
            try:
                rec = run_cycle(bk, force=f).shot(0)
            except ValueError:
                continue
            fid = verify_braid_equivalence(initial, bk.vector()[0], rec, bk.space)
            assert abs(fid - 1.0) < 1e-10


def test_forced_measurement_matches_braid():
    rng0 = np.random.default_rng(31)
    for trial in range(40):
        a, b = rng0.normal(size=2) + 1j * rng0.normal(size=2)
        bk = FockBackend(4, np.random.default_rng(trial), a, b)
        initial = bk.vector()[0]
        record = run_forced(bk)
        assert record.n13 == record.n14 == record.n12_final == 0
        rotated = bk.space.braid_op(3, 4) @ initial
        assert abs(dense.fidelity_up_to_phase(rotated, bk.vector()[0]) - 1) < 1e-10


def test_forced_with_immediate_successes_equals_plain_cycle():
    a, b = 0.6, 0.8
    for seed in range(200):
        bkF = FockBackend(4, np.random.default_rng(seed), a, b)
        rec = run_forced(bkF)
        if rec.attempts == (1, 1, 1):
            bkC = FockBackend(4, np.random.default_rng(seed), a, b)
            rec2 = run_cycle(bkC, force=(0, 0, 0))
            assert correction_for(rec2.shot(0))[0] == "I"
            fid = dense.fidelity_up_to_phase(bkF.vector(), bkC.vector())
            assert abs(fid - 1.0) < 1e-10
            return
    raise AssertionError("no all-first-try run found")


def test_forced_attempt_counts_are_geometric():
    attempts = []
    for s in range(1500):
        bk = FockBackend(4, np.random.default_rng(s), 1.0, 0.0)
        attempts.extend(run_forced(bk).attempts)
    mean = np.mean(attempts)
    sigma = np.sqrt(2.0 / len(attempts))  # Var[geometric(1/2)] = 2
    assert abs(mean - 2.0) <= 3 * sigma


def test_forced_max_attempts():
    class Always1:
        shots = 1
        def measure(self, pair, force=None):
            return 1, 0.5
    with pytest.raises(RuntimeError):
        run_forced(Always1(), max_attempts=3)


def test_statistics_signature_anyon():
    for n, expected, exact in [(0, 0.0, True), (2, 1.0, True), (1, 0.5, False)]:
        res = run_statistics(anyon6, n, 600, seed=5)
        if exact:
            assert res["flip_frequency"] == expected
        else:
            sigma = np.sqrt(0.25 / 600)
            assert abs(res["flip_frequency"] - expected) <= 3 * sigma


@pytest.mark.parametrize("factory, n_braids, shots", [
    (anyon6, 3, 60),
    (lambda streams: FockBackend(6, streams), 3, 60),
    (lambda streams: LatticeBackend(LAT6, streams), 1, 16),
], ids=["anyon", "fock", "lattice"])
def test_any_split_of_the_shot_range_gives_the_same_flips(monkeypatch, factory,
                                                          n_braids, shots):
    seed = 4
    whole = run_statistics(factory, n_braids, shots, seed, keep_records=True)
    assert 0 < whole["flip_frequency"] < 1
    for cuts in ([shots // 2], [1, 7, shots - 3], list(range(1, shots))):
        records = []
        bounds = [0] + cuts + [shots]
        flips = sum(run_shots(factory, n_braids,
                              ShotStreams(seed, lo, hi - lo), records)
                    for lo, hi in zip(bounds, bounds[1:]))
        assert flips == round(whole["flip_frequency"] * shots)
        assert records == whole["records"]
    # run_statistics itself splits the shots into blocks of SHOT_BLOCK
    monkeypatch.setattr(mbb, "SHOT_BLOCK", 7)
    blocked = run_statistics(factory, n_braids, shots, seed, keep_records=True)
    assert blocked == whole


class BranchEnumeration:
    """Every branch of the stats protocol as one batch: shot ``s`` takes bit
    ``k`` of ``s`` at its ``k``-th draw. ``bit()`` gives that bit, and
    ``random()`` 0.25 for bit 1 and 0.75 for bit 0, which stay clear of a
    branch probability of 1/2 up to rounding. Each random outcome of the
    protocol has probability 1/2 and every other one 0 or 1, so with at
    least as many bits as the protocol draws, every shot weighs the same."""

    def __init__(self, draws: int):
        self.shots = np.arange(2**draws)
        self.draws = 0

    def __len__(self):
        return len(self.shots)

    def bit(self):
        out = ((self.shots >> self.draws) & 1).astype(np.uint8)
        self.draws += 1
        return out

    def random(self):
        return 0.75 - 0.5 * self.bit()


ENUMERATED_BACKENDS = {
    "anyon": anyon6,
    "fock": lambda source: FockBackend(6, source),
    "lattice-8x12": lambda source: LatticeBackend(LAT6, source),
    "lattice-10x12": lambda source: LatticeBackend(LAT6_WIDE, source),
}


def enumerate_branches(factory, n_braids: int, records=None) -> Fraction:
    """Exact flip frequency of ``n_braids`` braids: ``run_shots`` on every
    branch of its at most 3 * n_braids + 1 draws."""
    source = BranchEnumeration(3 * n_braids + 1)
    flips = run_shots(factory, n_braids, source, records)
    assert source.draws <= 3 * n_braids + 1
    return Fraction(flips, len(source))


@pytest.mark.parametrize("factory", ENUMERATED_BACKENDS.values(),
                         ids=ENUMERATED_BACKENDS.keys())
def test_branch_enumeration_gives_the_exact_braid_signature(factory):
    signature = [enumerate_branches(factory, n) for n in range(6)]
    half = Fraction(1, 2)
    assert signature == [0, half, 1, half, 0, half]


@settings(max_examples=20, deadline=None)
@given(accepted_layouts(counts=st.just(3)))
def test_branch_enumeration_on_generated_three_pair_layouts(lat):
    signature = [enumerate_branches(lambda source: LatticeBackend(lat, source), n)
                 for n in range(4)]
    half = Fraction(1, 2)
    assert signature == [0, half, 1, half]


def test_branch_enumeration_gives_every_backend_one_trace_distribution():
    # compared as distributions, not leaf by leaf: each backend maps a draw
    # to a label in its own way, and the lattice draws nothing on a fixed
    # outcome (6 draws at 2 braids, where the vector backends take 7)
    for n_braids in range(5):
        distributions = []
        for factory in ENUMERATED_BACKENDS.values():
            records = []
            enumerate_branches(factory, n_braids, records)
            counts = collections.Counter(
                (tuple(r["cycles"]), r["n35"]) for r in records)
            distributions.append({trace: Fraction(k, len(records))
                                  for trace, k in counts.items()})
        assert all(d == distributions[0] for d in distributions[1:]), n_braids


# 2**128 + 7 has five uint32 words of entropy, more than SeedSequence's pool
STREAM_SEEDS = [0, 29, 2**32, 2**64 - 1, 2**128 + 7]


def _children(seed, start, count):
    """numpy's own generators of shots start..start+count-1: children of
    ``SeedSequence(seed)``, as ``run_statistics`` once spawned them."""
    kids = np.random.SeedSequence(seed).spawn(start + count)[start:]
    return [np.random.default_rng(kid) for kid in kids]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_spawn_gives_child_k_the_spawn_key_k(seed):
    seq = np.random.SeedSequence(seed)
    keys = [kid.spawn_key for kid in seq.spawn(3) + seq.spawn(2)]
    assert keys == [(k,) for k in range(5)]


@pytest.mark.parametrize("start", [0, mbb.SHOT_BLOCK - 3])
@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_shot_streams_match_numpy_draw_by_draw(seed, start):
    for draws in range(1, 8):
        streams, rngs = ShotStreams(seed, start, 6), _children(seed, start, 6)
        for _ in range(draws):
            got = streams.random()
            assert got.dtype == np.float64
            assert np.array_equal(got, [rng.random() for rng in rngs])
        # odd and even counts: bit 31, then bit 63 of one 64-bit output
        streams, rngs = ShotStreams(seed, start, 6), _children(seed, start, 6)
        for _ in range(draws):
            got = streams.bit()
            assert got.dtype == np.uint8
            assert np.array_equal(got, [rng.integers(2) for rng in rngs])


def test_shot_streams_keep_a_half_used_output_across_random():
    streams, rngs = ShotStreams(5, 0, 8), _children(5, 0, 8)
    for draw in ("bit", "random", "bit", "bit", "random", "random", "bit"):
        want = [rng.integers(2) if draw == "bit" else rng.random()
                for rng in rngs]
        assert np.array_equal(getattr(streams, draw)(), want)


@pytest.mark.parametrize("start", [2**32 - 3, 2**32])
@pytest.mark.parametrize("seed", [0, 29, 2**128 + 7])
def test_shot_streams_on_either_side_of_the_spawn_key_word_boundary(seed, start):
    rngs = [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
            for k in range(start, start + 3)]
    streams = ShotStreams(seed, start, 3)
    for _ in range(3):
        assert np.array_equal(streams.random(), [rng.random() for rng in rngs])


@pytest.mark.parametrize("args", [
    (0, 2**32 - 2, 3), (-1, 0, 4), (0, -1, 4), (0, 0, 0), (0, 2**64 - 1, 2),
], ids=["across_2^32", "negative_seed", "negative_start", "no_shots",
        "past_2^64"])
def test_shot_streams_reject_bad_ranges(args):
    with pytest.raises(ValueError):
        ShotStreams(*args)


def test_statistics_blocks_end_at_the_spawn_key_word_boundary(monkeypatch):
    monkeypatch.setattr(mbb, "SHOT_BLOCK", 3 * 2**30)
    assert list(mbb._blocks(2**32 + 3)) == [
        (0, 3 * 2**30), (3 * 2**30, 2**30), (2**32, 3)]
    monkeypatch.setattr(mbb, "SHOT_BLOCK", 7)
    assert list(mbb._blocks(16)) == [(0, 7), (7, 7), (14, 2)]


def _reference_records(lat, n_braids, shots, seed):
    """Stats records from one 1-D-sign tableau and one generator per shot."""
    ctx = tableau.code_context(lat)
    pins = tuple((a - 1, b - 1, parity_sign_for((a, b), 6))
                 for a, b in START_PAIRINGS[6])

    def string(pair):
        return ctx.parity_string(pair[0] - 1, pair[1] - 1)

    def label(tab, pair):
        return int(tab.measure(string(pair)) != parity_sign_for(pair, 6))

    records = []
    for child in np.random.SeedSequence(seed).spawn(shots):
        tab = ctx.ground(pins).copy()
        tab.rng = np.random.default_rng(child)
        cycles = []
        for _ in range(n_braids):
            n13, n14, n12 = (label(tab, p) for p in ((1, 3), (1, 4), (1, 2)))
            name, pair = CORRECTIONS[(n13 ^ n14, n12)]
            if pair is not None:
                tab.apply_pauli(string(pair))
            cycles.append((n13, n14, n12, name))
        records.append({"cycles": cycles, "n35": label(tab, (3, 5))})
    return records


@pytest.mark.parametrize("lat", [LAT6, LAT6_WIDE], ids=["8x12", "10x12"])
def test_batched_lattice_records_match_per_shot_tableaux(lat):
    for n_braids in range(6):
        res = run_statistics(lambda streams: LatticeBackend(lat, streams),
                             n_braids, 24, seed=n_braids + 3, keep_records=True)
        assert res["records"] == _reference_records(lat, n_braids, 24,
                                                    n_braids + 3)
        for record in res["records"]:
            assert type(record["n35"]) is int
            for *labels, name in record["cycles"]:
                assert all(type(n) is int for n in labels)
                assert type(name) is str


def test_lattice_backend_runs_no_stabilizer_reduction(monkeypatch):
    # the backend pins, measures and applies the raw strings, each checked
    # against the plaquettes; the reduced ones stay what init_ground
    # registers and the readouts measure
    calls, checked = [], []
    reduce, check = jw.reduce_by_stabilizers, jw.check_commutant

    def counting(p, lat, *args):
        calls.append(p)
        return reduce(p, lat, *args)

    monkeypatch.setattr(jw, "reduce_by_stabilizers", counting)
    monkeypatch.setattr(jw, "check_commutant",
                        lambda p, lat: check(checked.append(p) or p, lat))
    lat = build_lattice(8, 12, [(2, 2, 4), (5, 2, 4), (8, 2, 4)])
    backend = LatticeBackend(lat, np.random.default_rng(0))
    for _ in range(3):
        braid_once(backend)
    backend.measure((3, 5))
    assert calls == []
    ctx = tableau.code_context(lat)
    used = (list(ctx._memo_raw_parity_string.values())
            + list(ctx._memo_raw_bracket_string.values()))
    assert len(used) >= 8 and all(any(u is c for c in checked) for u in used)
    assert tableau.init_ground(lat).logicals["parity_0_1"] == ctx.parity_string(0, 1)
    assert ctx.parity_string(0, 1) == reduce(ctx.raw_parity_string(0, 1), lat)
    assert calls


def _reference_vector_shots(involution, start, n_braids, shots, seed):
    """Stats records and final vectors from the projectors (1 +- O)/2 of each
    pair's involution O and one generator per shot."""
    records, finals, eye = [], [], np.eye(len(start))
    for child in np.random.SeedSequence(seed).spawn(shots):
        rng, vec, cycles = np.random.default_rng(child), start.copy(), []

        def label(pair):
            nonlocal vec
            op, plus_is_label_0 = involution(6, pair)
            plus, minus = (eye + op) / 2, (eye - op) / 2
            took_plus = rng.random() < np.linalg.norm(plus @ vec) ** 2
            vec = (plus if took_plus else minus) @ vec
            vec = vec / np.linalg.norm(vec)
            return int(took_plus != plus_is_label_0)

        for _ in range(n_braids):
            n13, n14, n12 = (label(p) for p in ((1, 3), (1, 4), (1, 2)))
            name, pair = CORRECTIONS[(n13 ^ n14, n12)]
            if pair is not None:
                vec = involution(6, pair)[0] @ vec
            cycles.append((n13, n14, n12, name))
        records.append({"cycles": cycles, "n35": label((3, 5))})
        finals.append(vec)
    return records, np.array(finals)


@pytest.mark.parametrize("block", [mbb.SHOT_BLOCK, 7],
                         ids=["default-block", "block-7"])
@pytest.mark.parametrize("per_shot, involution", [
    (AnyonBackend, mbb._anyon_involution),
    (FockBackend, mbb._fock_involution),
], ids=["anyon", "fock"])
def test_vector_batch_matches_per_shot_projectors(monkeypatch, per_shot,
                                                  involution, block):
    monkeypatch.setattr(mbb, "SHOT_BLOCK", block)
    start = per_shot(6, np.random.default_rng(0)).vector()[0]
    for n_braids in range(6):
        batches = []

        def factory(streams):
            batches.append(per_shot(6, streams))
            return batches[-1]

        res = run_statistics(factory, n_braids, 24, seed=n_braids + 11,
                             keep_records=True)
        records, finals = _reference_vector_shots(involution, start, n_braids,
                                                  24, n_braids + 11)
        assert res["records"] == records
        assert len(batches) == -(-24 // block)
        rows = np.concatenate([batch.vector() for batch in batches])
        assert np.abs(rows - finals).max() < 1e-12


@pytest.mark.parametrize("make, dim", [
    (lambda rng: AnyonBackend(4, rng, 0.6, 0.8j), 4),
    (lambda rng: FockBackend(6, rng), 8),
    (lambda rng: LatticeBackend(LAT6, rng), None),
], ids=["anyon", "fock", "lattice"])
def test_a_generator_source_is_a_batch_of_one(make, dim):
    bk = make(np.random.default_rng(2))
    for pair in CYCLE_PAIRS + ((3, 4),):
        labels, probs = bk.measure(pair)
        assert labels.shape == probs.shape == (1,)
        assert labels.dtype == np.uint8
    if dim is None:
        assert len(bk.tab.r) == 2 * LAT6.n_sites and bk.tab.all_shots == 1
    else:
        assert bk.vector().shape == (1, dim)


@pytest.mark.parametrize("per_shot", [AnyonBackend, FockBackend],
                         ids=["anyon", "fock"])
def test_a_lone_generator_shot_equals_its_stream_bit_for_bit(per_shot):
    # one shot on its own generator and the same shot as a batch of one
    # stream draw the same numbers and run the same arithmetic
    for k in range(6):
        child = np.random.SeedSequence(12).spawn(k + 1)[k]
        lone = per_shot(6, np.random.default_rng(child))
        batch = per_shot(6, ShotStreams(12, k, 1))
        for _ in range(3):
            assert braid_once(lone).shot(0) == braid_once(batch).shot(0)
        assert np.array_equal(lone.measure((3, 5)), batch.measure((3, 5)))
        assert np.array_equal(lone.vector(), batch.vector())


def test_run_shots_corrects_through_apply_correction(monkeypatch):
    calls = []
    apply = mbb.apply_correction
    monkeypatch.setattr(mbb, "apply_correction", lambda backend, record: (
        calls.append(len(record.n13)) or apply(backend, record)))
    for n_braids in range(4):
        calls.clear()
        whole = run_shots(anyon6, n_braids, ShotStreams(3, 0, 16))
        assert calls == [16] * n_braids
        assert whole == sum(run_shots(anyon6, n_braids, ShotStreams(3, k, 1))
                            for k in range(16))


def test_statistics_rejects_bad_shots():
    with pytest.raises(ValueError):
        run_statistics(anyon6, 1, 0, seed=0)


def test_lattice_backend_matches_fock_under_injection():
    rngs = np.random.default_rng(9)
    for trial in range(6):
        branches = [tuple(rngs.integers(2, size=3)) for _ in range(2)]
        bkF = FockBackend(6, np.random.default_rng(trial))
        bkL = LatticeBackend(LAT6, np.random.default_rng(trial))
        for f in branches:
            recF = run_cycle(bkF, force=f)
            recL = run_cycle(bkL, force=f)
            oneF, oneL = recF.shot(0), recL.shot(0)
            assert oneF.probabilities == pytest.approx(oneL.probabilities)
            assert (oneF.n13, oneF.n14, oneF.n12_final) == \
                (oneL.n13, oneL.n14, oneL.n12_final)
            apply_correction(bkF, recF)
            apply_correction(bkL, recL)
        (nF,), (pF,) = bkF.measure((3, 5))
        (nL,), (pL,) = bkL.measure((3, 5))
        assert pF == pytest.approx(pL)
        if pF == pytest.approx(1.0):
            assert nF == nL


def test_anyon_backend_matches_fock_under_injection():
    for trial in range(4):
        f = (trial & 1, (trial >> 1) & 1, 0)
        bkF = FockBackend(6, np.random.default_rng(0))
        bkA = AnyonBackend(6, np.random.default_rng(0))
        recF = run_cycle(bkF, force=f).shot(0)
        recA = run_cycle(bkA, force=f).shot(0)
        assert recF.probabilities == pytest.approx(recA.probabilities)


def _forced(backend, pair, label):
    """``backend.measure(pair, force=label)``, or None for a zero branch."""
    try:
        return backend.measure(pair, force=label)
    except InconsistentOutcomeError:
        return None


@pytest.mark.parametrize("n_anyons", [4, 6])
def test_anyon_backend_matches_fock_on_forced_sequences(n_anyons):
    # forced labels on every pair, with parity flips on random pairs in
    # between: the fusion-label vector and the Majorana Fock vector give the
    # same probability to every branch and reject the same zero branches
    rng = np.random.default_rng(40 + n_anyons)
    pairs = list(combinations(range(1, n_anyons + 1), 2))
    rejected = 0
    for trial in range(8):
        alpha, beta = 1.0, 0.0
        if n_anyons == 4:
            alpha, beta = rng.normal(size=2) + 1j * rng.normal(size=2)
        bkA = AnyonBackend(n_anyons, np.random.default_rng(trial), alpha, beta)
        bkF = FockBackend(n_anyons, np.random.default_rng(trial), alpha, beta)
        for step in rng.permutation(3 * len(pairs)):
            pair = pairs[step % len(pairs)]
            if rng.random() < 0.3:
                flip = pairs[rng.integers(len(pairs))]
                bkA.apply_parity(flip)
                bkF.apply_parity(flip)
            label = int(rng.integers(2))
            outA, outF = _forced(bkA, pair, label), _forced(bkF, pair, label)
            assert (outA is None) == (outF is None), (pair, label)
            if outA is None:
                rejected += 1
                label ^= 1
                outA, outF = bkA.measure(pair, label), bkF.measure(pair, label)
            assert outA[0] == outF[0] == label
            assert abs(outA[1] - outF[1]) < 1e-12, (pair, label)
        if n_anyons == 6:
            state = anyon.TopoState(6, START_PAIRINGS[6], "even",
                                    tuple(bkA.vector()[0]))
            fock = _fock_vector(state)
            assert abs(dense.fidelity_up_to_phase(fock, bkF.vector()[0]) - 1) < 1e-12
    assert rejected > 0


def _phase_free(vector):
    """``vector`` with its first nonzero amplitude made real positive,
    rounded, as a key of its state up to phase."""
    lead = vector[np.flatnonzero(np.abs(vector) > 1e-9)[0]]
    return tuple(np.round(vector * abs(lead) / lead, 9).tolist())


def _twin(backend):
    """A copy of a vector backend that moves on its own."""
    twin = copy.copy(backend)
    twin.index = backend.index.copy()
    return twin


def test_anyon_and_fock_agree_edge_for_edge():
    # the whole graph the six-anyon start reaches: from every state, each of
    # the 15 pairs measured at forced label 0 and 1, and each pair flipped.
    # On every edge both backends give the same probability and reject the
    # same branches, and their states correspond through ``_fock_vector``.
    pairs = list(combinations(range(1, 7), 2))
    start = (AnyonBackend(6, np.random.default_rng(0)),
             FockBackend(6, np.random.default_rng(0)))
    seen, todo = set(), [start]
    tries = rejected = 0
    while todo:
        bkA, bkF = todo.pop()
        key = (_phase_free(bkA.vector()[0]), _phase_free(bkF.vector()[0]))
        if key in seen:
            continue
        seen.add(key)
        state = anyon.TopoState(6, START_PAIRINGS[6], "even",
                                tuple(bkA.vector()[0]))
        fock = _fock_vector(state)
        assert abs(dense.fidelity_up_to_phase(fock, bkF.vector()[0]) - 1) < 1e-12
        for pair in pairs:
            for label in (0, 1):
                nextA, nextF = _twin(bkA), _twin(bkF)
                outA, outF = _forced(nextA, pair, label), _forced(nextF, pair, label)
                tries += 1
                assert (outA is None) == (outF is None), (pair, label)
                if outA is None:
                    rejected += 1
                    continue
                assert outA[0] == outF[0] == label
                assert abs(outA[1] - outF[1]) < 1e-12, (pair, label)
                todo.append((nextA, nextF))
            nextA, nextF = _twin(bkA), _twin(bkF)
            nextA.apply_parity(pair)
            nextF.apply_parity(pair)
            todo.append((nextA, nextF))
    assert len(seen) == 60
    assert len({a for a, _ in seen}) == len({f for _, f in seen}) == 60
    assert tries == 60 * 30 and rejected == 180


def test_a_drawn_branch_below_the_threshold_raises_and_keeps_the_state():
    # beta^2 ~ 1e-14: the odd sector's (3,4) label 1 is below 1e-12, so the
    # table holds no successor for it, and a draw of 0 lands on it
    bk = AnyonBackend(4, np.random.default_rng(0), 1.0, 1e-7)
    bk._random = lambda: 0.0
    before = bk.vector()
    with pytest.raises(RuntimeError, match="below"):
        bk.measure((3, 4))
    assert np.array_equal(bk.vector(), before)


def test_a_table_raises_past_its_cap(monkeypatch):
    monkeypatch.setattr(mbb, "TABLE_CAP", 4)
    bk = FockBackend(4, ShotStreams(0, 0, 64), 0.31, 0.77j)
    with pytest.raises(RuntimeError, match="more than 4 states"):
        for _ in range(3):
            braid_once(bk)


def test_lattice_backend_two_braids_flip_deterministically():
    for seed in range(10):
        bk = LatticeBackend(LAT6, np.random.default_rng(seed))
        for _ in range(2):
            braid_once(bk)
        n35, prob = bk.measure((3, 5))
        assert (n35, prob) == (1, 1.0)


def test_lattice_backend_rejects_wrong_twist_count():
    lat = build_lattice(8, 6, [(1, 2, 4)])
    with pytest.raises(ValueError):
        LatticeBackend(lat, np.random.default_rng(0))


def test_four_braids_act_as_identity_up_to_phase():
    # two braids flip the crossed parity deterministically; four restore it
    res = run_statistics(anyon6, 4, 300, seed=2)
    assert res["flip_frequency"] == 0.0
    bk = FockBackend(4, np.random.default_rng(0), 0.6, 0.8j)
    initial = bk.vector()[0]
    for _ in range(4):
        braid_once(bk)
    assert abs(dense.fidelity_up_to_phase(initial, bk.vector()[0]) - 1.0) < 1e-10


def test_statistics_keep_records():
    res = run_statistics(anyon6, 2, 5, seed=1,
                         keep_records=True)
    assert len(res["records"]) == 5
    for rec in res["records"]:
        assert rec["n35"] == 1
        assert len(rec["cycles"]) == 2


def test_cycle_vacuum_precondition():
    bk = AnyonBackend(4, np.random.default_rng(0), 1.0, 0.0)
    bk.measure((1, 3))            # scrambles the ancilla pair
    bk.measure((1, 2), force=1)   # pin it to the occupied channel
    with pytest.raises(ValueError):
        run_cycle(bk, check_vacuum=True)
    ok = AnyonBackend(4, np.random.default_rng(0), 1.0, 0.0)
    run_cycle(ok, check_vacuum=True)  # the vacuum start passes


def test_lattice_backend_releases_its_lattice():
    lat = build_lattice(8, 7, [(1, 2, 4), (4, 2, 4)])
    LatticeBackend(lat, np.random.default_rng(0))
    ref = weakref.ref(lat)
    del lat
    gc.collect()
    assert ref() is None


def test_four_anyon_fock_backends_share_their_start_vectors(monkeypatch):
    calls = []
    pairing_basis = dense.FockSpace.pairing_basis
    monkeypatch.setattr(dense.FockSpace, "pairing_basis",
                        lambda self, pairs: calls.append(pairs)
                        or pairing_basis(self, pairs))
    for seed in range(50):
        FockBackend(4, np.random.default_rng(seed), 0.6, 0.8j)
    assert len(calls) <= 1


def test_lattice_backend_builds_no_fock_start_vector():
    # the vacuum signs read the cached Fock space and its reference basis;
    # the start vectors are the Fock backend's alone
    for cached in vars(mbb).values():
        if hasattr(cached, "cache_clear") and cached.__module__ == mbb.__name__:
            cached.cache_clear()
    LatticeBackend(LAT6, np.random.default_rng(0))
    assert mbb.parity_sign_for.cache_info().currsize == 3
    assert mbb._fock_setup.cache_info().currsize == 0
    FockBackend(6, np.random.default_rng(0))
    assert mbb._fock_setup.cache_info().currsize == 1


def test_lattice_backend_setup_derives_twist_modes_once(monkeypatch):
    calls = []
    twist_modes = jw.twist_modes

    def counting(lat, path):
        calls.append(lat)
        return twist_modes(lat, path)

    monkeypatch.setattr(jw, "twist_modes", counting)
    lat = build_lattice(8, 7, [(1, 2, 4), (4, 2, 4)])
    LatticeBackend(lat, np.random.default_rng(0))
    LatticeBackend(lat, np.random.default_rng(1))
    assert len(calls) == 1


def test_lattice_backend_probabilities_need_one_commutation_pass(monkeypatch):
    passes = []
    anticommuting_rows = _kernels.anticommuting_rows
    monkeypatch.setattr(_kernels, "anticommuting_rows",
                        lambda *args: passes.append(1) or anticommuting_rows(*args))
    seen = set()
    for seed in range(4):
        bk = LatticeBackend(LAT6, np.random.default_rng(seed))
        twin = LatticeBackend(LAT6, np.random.default_rng(seed))
        for _ in range(seed):
            labels, probabilities = [], []
            for pair in ((1, 3), (1, 4), (1, 2)):
                undetermined = bk.tab.expectation_sign(
                    pair_string(LAT6, pair)) is None
                before = len(passes)
                (n,), (prob,) = bk.measure(pair)
                assert len(passes) - before == 1
                assert prob == (0.5 if undetermined else 1.0)
                labels.append(n)
                probabilities.append(prob)
            record = MBBRecord(*(np.array([n]) for n in labels))
            apply_correction(bk, record)
            twin_record = braid_once(twin).shot(0)
            assert twin_record.probabilities == tuple(probabilities)
            assert (twin_record.n13, twin_record.n14, twin_record.n12_final) == \
                tuple(labels)
            seen.update(probabilities)
        undetermined = bk.tab.expectation_sign(
            pair_string(LAT6, (3, 5))) is None
        (n35,), (prob,) = bk.measure((3, 5))
        assert prob == (0.5 if undetermined else 1.0)
        assert [out.tolist() for out in twin.measure((3, 5))] == [[n35], [prob]]
        seen.add(prob)
    assert seen == {0.5, 1.0}


def test_lattice_backend_reads_its_pinned_parities_as_signs():
    bk = LatticeBackend(LAT6, np.random.default_rng(0))
    for pair in START_PAIRINGS[6]:
        sign = bk.tab.expectation_sign(pair_string(LAT6, pair))
        assert type(sign) is int and sign == parity_sign_for(pair, 6)


def test_forced_braid_rejects_a_batch():
    with pytest.raises(ValueError, match="one shot"):
        run_forced(FockBackend(4, ShotStreams(0, 0, 2)))
    with pytest.raises(ValueError, match="one shot"):
        run_forced(LatticeBackend(LAT6, ShotStreams(0, 0, 3)))


@pytest.mark.parametrize("make, snapshot", [
    (lambda rng: AnyonBackend(6, rng), lambda bk: bk.vector().tobytes()),
    (lambda rng: FockBackend(6, rng), lambda bk: bk.vector().tobytes()),
    (lambda rng: LatticeBackend(LAT6, rng), lambda bk: bk.tab.to_text()),
], ids=["anyon", "fock", "lattice"])
def test_forcing_an_impossible_label_raises_and_keeps_the_state(make, snapshot):
    bk = make(np.random.default_rng(3))
    before = snapshot(bk)
    with pytest.raises(InconsistentOutcomeError):
        bk.measure((1, 2), force=1)  # the start pairs sit at label 0
    assert snapshot(bk) == before
    # a label is 0 or 1: any other force is refused before the state
    # changes, on a fixed pair and on a random one
    for pair in ((1, 2), (1, 3)):
        for force in (2, -1):
            with pytest.raises(ValueError, match="not 0 or 1"):
                bk.measure(pair, force=force)
            assert snapshot(bk) == before
    # a generator's shot is a batch of one: a label and a probability per
    # shot, for a fixed label, then a random one
    for pair, prob in (((1, 2), 1.0), ((1, 3), 0.5)):
        label, p = bk.measure(pair)
        assert label.shape == p.shape == (1,)
        assert label.dtype == np.uint8 and p.dtype == np.float64
        assert p[0] == pytest.approx(prob)


@pytest.mark.parametrize("force", [0.7, 2, "1"])
@pytest.mark.parametrize("make, state", [
    (lambda rng: AnyonBackend(6, rng), lambda bk: bk.index.tolist()),
    (lambda rng: FockBackend(6, rng), lambda bk: bk.index.tolist()),
    (lambda rng: LatticeBackend(LAT6, ShotStreams(0, 0, 3)),
     lambda bk: (list(bk.tab.r), list(bk.tab.x))),
], ids=["anyon", "fock", "lattice"])
def test_a_forced_label_is_checked_before_the_vacuum_flip(make, state, force):
    # a label is None, 0 or 1 as the caller gave it, checked before the
    # vacuum flip: any other is refused under its own name on every pair
    bk = make(np.random.default_rng(5))
    bk.measure((1, 3))
    before = state(bk)
    for pair in ((1, 2), (1, 4), (4, 6)):
        with pytest.raises(ValueError, match=f"forced label {force!r} is not"):
            bk.measure(pair, force=force)
        assert state(bk) == before


@pytest.mark.parametrize("alpha, beta", [(1e-320, 0), (0, 0), (1.7e308, 1.7e308)],
                         ids=["subnormal", "zero", "overflowing"])
def test_four_anyon_start_needs_a_normal_norm(alpha, beta):
    # each would divide by a subnormal, zero or overflowing norm: a NaN or
    # all-zero start
    for backend in (AnyonBackend, FockBackend):
        with pytest.raises(ValueError, match="normal float"):
            backend(4, np.random.default_rng(0), alpha, beta)
