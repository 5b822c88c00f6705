import gc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from twistsim import _kernels, dense, jw, tableau
from twistsim.lattice import GeometryError, build_lattice, \
    all_plaquette_operators, twist_logicals
from twistsim.pauli import PauliString
from twistsim.tableau import (InconsistentOutcomeError, Tableau, code_context,
                              cut_operator, diamond_loop, init_ground,
                              measure_parity_direct, measure_parity_hole,
                              syndrome)


def random_string(rng, n_sites, hermitian=True):
    letters = {int(s): "IXYZ"[rng.integers(4)] for s in range(n_sites)}
    letters = {s: l for s, l in letters.items() if l != "I"}
    phase = 2 * int(rng.integers(2)) if hermitian else 1
    return PauliString.from_dict(letters, phase)


def check_symplectic_invariants(t: Tableau):
    """Destabilizer i anticommutes with stabilizer i and nothing else."""
    n = t.n
    rows = [t.row_operator(i) for i in range(2 * n)]
    for i in range(n):
        for j in range(n):
            want = i != j
            assert rows[i].commutes_with(rows[n + j]) == want, (i, j)
    for i in range(n):
        for j in range(i + 1, n):
            assert rows[n + i].commutes_with(rows[n + j])
            assert rows[i].commutes_with(rows[j])


def test_zero_state_measurements():
    t = Tableau.zero_state(3, seed=1)
    assert t.measure(PauliString.single(0, "Z")) == 1
    out = t.measure(PauliString.single(1, "X"))
    assert out in (-1, 1)
    assert t.measure(PauliString.single(1, "X")) == out  # repeatable
    check_symplectic_invariants(t)


def test_tableau_matches_dense_on_forced_replay():
    lat = build_lattice(4, 4, [])
    sites = list(lat.sites)
    rng = np.random.default_rng(12)
    for trial in range(8):
        t = Tableau.zero_state(16, np.random.default_rng(trial))
        v = dense.zero_state(16)
        for _ in range(10):
            p = random_string(rng, 16)
            if not p.support:
                continue
            out = t.measure(p)
            out_v, v = dense.measure_projective(v, p, sites, rng, force=out)
            assert out_v == out
            assert t.measure(p) == out
        check_symplectic_invariants(t)


def test_random_outcome_frequency_matches_born_rule():
    lat = build_lattice(4, 4, [])
    sites = list(lat.sites)
    base = init_ground(lat, seed=0)
    path = jw.default_path(lat)
    cls = jw.classify_modes(lat, path)
    bnd = sorted(cls.boundary)
    probe = jw.mode_parity_operator(lat, path, bnd[0], bnd[2])
    v = dense.prepare_ground(lat)
    p_plus = float(np.linalg.norm(
        dense.project_eigenvalue(v, probe, sites, +1)) ** 2)
    shots = 4000
    ups = 0
    for s in range(shots):
        t = base.copy()
        t.rng = np.random.default_rng(s)
        ups += t.measure(probe) == 1
    sigma = np.sqrt(max(p_plus * (1 - p_plus), 1e-6) / shots)
    assert abs(ups / shots - p_plus) <= 3 * sigma + 1e-9


def test_ground_init_pins_everything():
    lat = build_lattice(8, 6, [(1, 2, 5)])
    t = init_ground(lat, seed=5)
    for op in all_plaquette_operators(lat):
        assert t.measure(op) == 1
    assert t.measure(t.logicals["parity_0_1"]) == -1
    assert t.measure(t.logicals["bracket_0"]) == 1
    # deterministic regardless of the seed
    assert init_ground(lat, seed=5).to_text() == init_ground(lat, seed=77).to_text()


def test_unpinned_logical_is_uniformly_random():
    lat = build_lattice(8, 6, [(1, 2, 5)])
    base = init_ground(lat, seed=0, pinned_pairs=[])
    path = jw.default_path(lat)
    modes = jw.twist_modes(lat, path)
    parity = jw.reduce_by_stabilizers(
        jw.mode_parity_operator(lat, path, modes[0], modes[1]), lat)
    shots = 3000
    ups = 0
    for s in range(shots):
        t = base.copy()
        t.rng = np.random.default_rng(s)
        ups += t.measure(parity) == 1
    sigma = np.sqrt(0.25 / shots)
    assert abs(ups / shots - 0.5) <= 3 * sigma


def test_apply_pauli_flips_logical():
    lat = build_lattice(9, 6, [(1, 2, 6)])
    t = init_ground(lat, seed=1)
    z, x = twist_logicals(lat, 0)
    before = t.measure(t.logicals["parity_0_1"])
    t.apply_pauli(x)
    assert t.measure(t.logicals["parity_0_1"]) == -before


def test_forced_measurement_consistency():
    t = Tableau.zero_state(2, seed=0)
    z0 = PauliString.single(0, "Z")
    assert t.measure(z0, force=1) == 1
    with pytest.raises(InconsistentOutcomeError):
        t.measure(z0, force=-1)


def test_non_hermitian_rejected():
    t = Tableau.zero_state(2, seed=0)
    with pytest.raises(ValueError):
        t.measure(PauliString.single(0, "X", 1))


@pytest.mark.parametrize("method, site", [
    ("measure", 12), ("expectation_sign", 12), ("apply_pauli", 12),
    ("measure", 70), ("measure", -1),
])
def test_strings_off_the_register_are_rejected(method, site):
    t = Tableau.zero_state(10, seed=0)
    signs = t.r.copy()
    with pytest.raises(ValueError, match=f"site {site} "):
        getattr(t, method)(PauliString.from_dict({3: "Z", site: "X"}))
    assert np.array_equal(t.r, signs)


def test_direct_parity_equals_string_measurement():
    lat = build_lattice(8, 6, [(1, 2, 5)])
    string = jw.reduce_by_stabilizers(
        jw.parity_operator(lat, jw.default_path(lat), 0), lat)
    for seed in range(25):
        t = init_ground(lat, seed=seed, pinned_pairs=[])
        t.logicals["parity_0_1"] = string
        t.rng = np.random.default_rng(seed)
        # fix the parity first so both copies read a determined value
        pinned = t.measure(string)
        t2 = t.copy()
        res = measure_parity_direct(t, string)
        assert res.outcome == pinned == t2.measure(string)
        # QND: repeating returns the same parity
        assert measure_parity_direct(t, string).outcome == res.outcome
        assert t.measure(string) == res.outcome


def test_direct_parity_outcome_decomposition():
    lat = build_lattice(8, 6, [(1, 2, 5)])
    t = init_ground(lat, seed=9)
    string = t.logicals["parity_0_1"]
    res = measure_parity_direct(t, string)
    phase_sign = 1 if string.phase.exponent == 0 else -1
    prod = phase_sign
    for lam in res.site_outcomes.values():
        prod *= lam
    assert prod == res.outcome


def test_direct_parity_without_a_lattice():
    # a bare tableau has no plaquettes to switch off; the letters still read
    t = Tableau.zero_state(5, 0)
    t.apply_pauli(PauliString.single(1, "X"))
    res = measure_parity_direct(t, PauliString.from_dict({0: "Z", 1: "Z", 3: "Z"}, 2))
    assert res.site_outcomes == {0: 1, 1: -1, 3: 1}
    assert res.outcome == 1 and res.repaired_signs == {}


def test_direct_parity_restores_the_frame():
    lat = build_lattice(8, 6, [(1, 2, 5)])
    t = init_ground(lat, seed=3)
    measure_parity_direct(t, t.logicals["parity_0_1"])
    assert all(v == 1 for v in syndrome(t).values())


def test_syndrome_flags_injected_error():
    lat = build_lattice(8, 6, [(1, 2, 5)])
    t = init_ground(lat, seed=4)
    t.apply_pauli(PauliString.single(lat.site_id(4, 5), "Z"))
    res = measure_parity_direct(t, t.logicals["parity_0_1"],
                                check_syndrome=True)
    assert len(res.syndrome_flags) == 2
    clean = init_ground(lat, seed=4)
    res2 = measure_parity_direct(clean, clean.logicals["parity_0_1"],
                                 check_syndrome=True)
    assert res2.syndrome_flags == set()


def test_cut_operator_excites_the_face_pair():
    from twistsim.lattice import excitations_of
    lat = build_lattice(10, 10, [])
    loop = diamond_loop.__wrapped__(lat, 0, 2) if hasattr(diamond_loop, "__wrapped__") \
        else None
    # build a small diamond by hand and check each hop
    t = init_ground(lat, seed=0)
    f1 = next(p.id for p in lat.plaquettes)
    # find a diagonal neighbour
    for p in lat.plaquettes:
        if p.id == f1:
            continue
        try:
            op = cut_operator(lat, f1, p.id)
        except GeometryError:
            continue
        assert excitations_of(lat, op) == {f1, p.id}
        break


def test_hole_readout_matches_direct():
    lat = build_lattice(14, 12, [(5, 5, 8)])
    loop = diamond_loop(lat, 0, 3)
    _, x_logical = twist_logicals(lat, 0)
    for seed in range(20):
        t = init_ground(lat, seed=seed)
        if seed % 2:
            t.apply_pauli(x_logical)
        t2 = t.copy()
        out_hole, hole = measure_parity_hole(t, 0, loop)
        out_direct = measure_parity_direct(t2, t2.logicals["parity_0_1"]).outcome
        assert out_hole == out_direct
        assert not hole.z_logical.commutes_with(hole.x_logical)
        # repeatable
        out2, _ = measure_parity_hole(t, 0, loop)
        assert out2 == out_hole


def test_trivial_loop_always_plus_one():
    lat = build_lattice(14, 12, [(5, 5, 8)])
    keys = {}
    for p in lat.plaquettes:
        coords = [lat.site_coords(s) for s in p.ordered_sites]
        keys[(min(r for r, _ in coords), min(c for _, c in coords))] = p.id
    trivial = [keys[k] for k in [(3, 10), (2, 11), (1, 10), (2, 9)]]
    for seed in range(10):
        t = init_ground(lat, seed=100 + seed)
        out, _ = measure_parity_hole(t, 0, trivial)
        assert out == 1


def test_loop_validation_errors():
    lat = build_lattice(14, 12, [(5, 5, 8), (8, 4, 6)])
    t = init_ground(lat, seed=0)
    keys = {}
    for p in lat.plaquettes:
        coords = [lat.site_coords(s) for s in p.ordered_sites]
        keys[(min(r for r, _ in coords), min(c for _, c in coords))] = p.id
    with pytest.raises(GeometryError):
        measure_parity_hole(t, 0, [keys[(1, 1)], keys[(2, 2)], keys[(3, 3)]])
    # loop around the wrong pair
    loop2 = diamond_loop(lat, 1, 2)
    with pytest.raises(GeometryError):
        measure_parity_hole(t, 0, loop2)


def test_serialization_round_trip():
    lat = build_lattice(6, 4, [])
    t = init_ground(lat, seed=0)
    text = t.to_text()
    again = Tableau.from_text(text)
    assert again.to_text() == text
    assert text.startswith("twistsim-tableau v1")


def test_hole_readout_on_a_second_lattice():
    # the same loop face ids on two lattices must not share a decomposition
    for segment in [(5, 5, 8), (5, 5, 7)]:
        lat = build_lattice(14, 12, [segment])
        loop = diamond_loop(lat, 0, 3)
        _, x_logical = twist_logicals(lat, 0)
        for seed in range(4):
            t = init_ground(lat, seed=seed)
            if seed % 2:
                t.apply_pauli(x_logical)
            t2 = t.copy()
            out_hole, _ = measure_parity_hole(t, 0, loop)
            out_direct = measure_parity_direct(t2, t2.logicals["parity_0_1"]).outcome
            assert out_hole == out_direct, (segment, seed)


def test_readout_geometry_is_computed_once_per_lattice(monkeypatch):
    # the hop cuts, the loop check and the anchor search run once per lattice
    # and loop; the two 14x12 lattices share the loop's face ids, so a cache
    # keyed on the loop alone would skip the second lattice's first readout
    calls = {"cut_operator": 0, "_loop_encloses": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(tableau, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(tableau, name, counted)

    preps = []
    for segment in [(5, 5, 8), (5, 5, 7)]:
        lat = build_lattice(14, 12, [segment])
        base = init_ground(lat, seed=0)
        ground_sign = base.expectation_sign(base.logicals["parity_0_1"])
        preps.append((diamond_loop(lat, 0, 3), twist_logicals(lat, 0)[1], base,
                      ground_sign))
    assert preps[0][0] == preps[1][0]

    def readouts(shot):
        loop, x_logical, base, ground_sign = preps[shot % 2]
        flip = (shot // 2) % 2 == 1
        t = base.copy()
        t.rng = np.random.default_rng(shot)
        if flip:
            t.apply_pauli(x_logical)
        prepared = t.expectation_sign(t.logicals["parity_0_1"])
        assert prepared == (-ground_sign if flip else ground_sign)
        t2 = t.copy()
        assert measure_parity_hole(t, 0, loop)[0] == prepared, shot
        assert measure_parity_direct(t2, t2.logicals["parity_0_1"]).outcome \
            == prepared, shot
        counts = dict(calls)
        calls.update(dict.fromkeys(calls, 0))
        return counts

    first, second = readouts(0), readouts(2)
    assert first["cut_operator"] and first["_loop_encloses"]
    assert second == {"cut_operator": 0, "_loop_encloses": 0}
    other_lattice = readouts(1)
    assert other_lattice["cut_operator"] and other_lattice["_loop_encloses"]
    for shot in range(3, 12):
        assert readouts(shot) == {"cut_operator": 0, "_loop_encloses": 0}, shot


def test_failing_loops_raise_on_every_call(monkeypatch):
    lat = build_lattice(14, 12, [(5, 5, 8), (8, 4, 6)])
    t = init_ground(lat, seed=0)
    wrong_pair = diamond_loop(lat, 1, 2)
    calls = []
    original = tableau._loop_encloses
    monkeypatch.setattr(tableau, "_loop_encloses",
                        lambda *args: calls.append(1) or original(*args))
    for _ in range(2):
        calls.clear()
        with pytest.raises(GeometryError, match="encloses twists"):
            measure_parity_hole(t, 0, wrong_pair)
        assert calls  # checked again: nothing was stored for the bad loop
    # the loop is checked before the tableau's parity string
    del t.logicals["parity_0_1"]
    with pytest.raises(GeometryError, match="encloses twists"):
        measure_parity_hole(t, 0, wrong_pair)
    keys = {}
    for p in lat.plaquettes:
        coords = [lat.site_coords(s) for s in p.ordered_sites]
        keys[(min(r for r, _ in coords), min(c for _, c in coords))] = p.id
    trivial = [keys[k] for k in [(3, 10), (2, 11), (1, 10), (2, 9)]]
    with pytest.raises(ValueError, match="no registered parity string"):
        measure_parity_hole(t, 0, trivial)


def test_face_flips_follow_replaced_logicals():
    lat = build_lattice(8, 6, [(1, 2, 5)])
    base = init_ground(lat, seed=0)
    ctx = code_context(lat)
    for p in lat.plaquettes:
        ctx.face_flip(p.id, base.logicals)
    t = base.copy()
    t.logicals["bracket_0"] = twist_logicals(lat, 0)[1]
    ops = all_plaquette_operators(lat)
    for p in lat.plaquettes:
        flip = ctx.face_flip(p.id, t.logicals)
        for name, logical in t.logicals.items():
            assert flip.commutes_with(logical), (p.id, name)
        assert [k for k, op in enumerate(ops) if not flip.commutes_with(op)] == [p.id]


def test_filled_code_context_releases_its_lattice():
    # every memo holds objects that point back at the lattice (the ground
    # tableau does); the context must still die with the lattice
    lat = build_lattice(14, 12, [(5, 5, 8)])
    ctx = code_context(lat)
    t = ctx.ground(((0, 1, -1),)).copy()
    t.apply_pauli(twist_logicals(lat, 0)[1])
    measure_parity_hole(t, 0, diamond_loop(lat, 0, 3))
    measure_parity_direct(t, t.logicals["parity_0_1"])
    ctx.face_flip(0, t.logicals)
    memos = {name for name in vars(ctx) if name.startswith("_memo_")}
    assert memos == {f"_memo_{name}" for name in (
        "parity_string", "bracket_string", "x_logical", "ground", "_face_flip",
        "_independent_logicals", "cut", "hole_plan", "string_faces",
        "loop_decomposition")}
    ref = weakref.ref(lat)
    del lat, ctx, t
    gc.collect()
    assert ref() is None


def test_memo_keys_a_list_argument_as_its_tuple():
    lat = build_lattice(14, 12, [(5, 5, 8)])
    ctx = code_context(lat)
    loop = tuple(diamond_loop(lat, 0, 3))
    plan = ctx.hole_plan(list(loop), 0)
    assert ctx.hole_plan(loop, 0) is plan
    assert list(ctx._memo_hole_plan) == [(loop, 0)]


def test_deterministic_expectation_sign_reads_without_copying(monkeypatch):
    lat = build_lattice(8, 12, [(2, 2, 4), (5, 2, 4), (8, 2, 4)])
    t = init_ground(lat, seed=5)
    queries = list(t.plaquette_ops[:6])
    queries += [t.logicals[name] for name in sorted(t.logicals)]
    queries.append(queries[-1].negate())
    expected = [t.copy().measure(q) for q in queries]
    before = (t.x.copy(), t.z.copy(), t.cx.copy(), t.cz.copy(), t.r.copy(),
              set(t.active), dict(t.logicals), dict(t.reference_signs),
              t.rng.bit_generator.state)

    copies = []
    original = Tableau.copy
    monkeypatch.setattr(Tableau, "copy",
                        lambda self: copies.append(self) or original(self))
    signs = [t.expectation_sign(q) for q in queries]
    bulk = PauliString.single(lat.site_id(6, 4), "Z")  # anticommutes: random
    assert t.expectation_sign(bulk) is None

    assert copies == []
    assert signs == expected and None not in signs
    after = (t.x, t.z, t.cx, t.cz, t.r, t.active, t.logicals, t.reference_signs,
             t.rng.bit_generator.state)
    for old, new in zip(before, after):
        if isinstance(old, np.ndarray):
            assert np.array_equal(old, new)
        else:
            assert old == new


def _pauli_of(word: str) -> PauliString:
    return PauliString.from_dict({i: c for i, c in enumerate(word) if c != "I"})


def _int_rows(words):
    """(x, z) integer rows of Pauli words, bit j for letter j."""
    x = [sum(1 << j for j, c in enumerate(w) if c in "XY") for w in words]
    z = [sum(1 << j for j, c in enumerate(w) if c in "ZY") for w in words]
    return x, z


def _columns(rows, n):
    """The transposed bitsets: bit i of column j is bit j of row i."""
    return [sum(1 << i for i, v in enumerate(rows) if v >> j & 1)
            for j in range(n)]


class _ReadLog(list):
    """A column list that records which columns are read."""

    def __init__(self, cols):
        super().__init__(cols)
        self.read = set()

    def __getitem__(self, j):
        self.read.add(j)
        return super().__getitem__(j)


# Sizes around multiples of 64 sites: rows of 1, 2 and 3 machine words.
WORD_EDGES = st.sampled_from([1, 2, 63, 64, 65, 127, 128, 129, 130])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernels_match_pauli_algebra(data):
    n = data.draw(st.one_of(WORD_EDGES, st.integers(1, 130)))
    word = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    rows = data.draw(st.lists(word, min_size=1, max_size=8))
    probe = data.draw(word)
    x, z = _int_rows(rows)
    assert [_pauli_of(w).bits() for w in rows] == list(zip(x, z))
    assert all(_kernels.set_bits(v) == [j for j in range(n) if v >> j & 1]
               for v in x + z)
    (px,), (pz,) = _int_rows([probe])
    p = _pauli_of(probe)
    mask = _kernels.anticommuting_rows(_columns(x, n), _columns(z, n), px, pz)
    assert _kernels.set_bits(mask) == \
        [k for k, w in enumerate(rows) if not _pauli_of(w).commutes_with(p)]
    want = [(_pauli_of(w) * p).phase.exponent for w in rows]
    assert [_kernels.int_product_phase(x[k], z[k], px, pz) % 4
            for k in range(len(rows))] == want
    # the ordered product of all rows, phase included
    acc_x, acc_z, exponent = _kernels.row_product(x, z, range(len(rows)))
    prod = PauliString.identity()
    for w in rows:
        prod = prod * _pauli_of(w)
    assert PauliString.from_bits(acc_x, acc_z, exponent % 4) == prod


def _check_mask(rows, probe):
    n = len(probe)
    x, z = _int_rows(rows)
    cx, cz = _ReadLog(_columns(x, n)), _ReadLog(_columns(z, n))
    (px,), (pz,) = _int_rows([probe])
    bits = _kernels.anticommuting_rows(cx, cz, px, pz)
    mask = np.array([bits >> k & 1 for k in range(len(rows))], dtype=np.uint8)
    assert bits >> len(rows) == 0
    p = _pauli_of(probe)
    assert mask.tolist() == [0 if _pauli_of(w).commutes_with(p) else 1 for w in rows]
    # only the columns at the probe's sites are read
    assert cx.read | cz.read == set(p.sites)
    return mask


@pytest.mark.parametrize("n", [1, 64, 65, 129])
def test_anticommute_mask_of_the_identity_touches_no_word(n):
    rng = np.random.default_rng(n)
    rows = ["".join(rng.choice(list("IXYZ"), n)) for _ in range(6)]
    assert not _check_mask(rows, "I" * n).any()


@pytest.mark.parametrize("n", [65, 129])
def test_anticommute_mask_of_a_probe_in_the_last_partial_word(n):
    # the probe sits only on site n - 1, at or beyond bit 64 of every row
    rng = np.random.default_rng(n)
    rows = ["".join(rng.choice(list("IXYZ"), n)) for _ in range(40)]
    rows += ["I" * (n - 1) + letter for letter in "XYZ"]
    for letter in "XYZ":
        mask = _check_mask(rows, "I" * (n - 1) + letter)
        assert 0 < mask.sum() < len(rows)


@pytest.mark.parametrize("n", [5, 64, 129])
def test_anticommute_mask_of_a_single_row(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        row, probe = ("".join(rng.choice(list("IXYZ"), n)) for _ in range(2))
        _check_mask([row], probe)
    assert _check_mask(["X" + "I" * (n - 1)], "Z" + "I" * (n - 1)).tolist() == [1]


# Power of i of single-site products, Y = iXZ: XY = iZ, YX = -iZ, ...
_SITE_PHASE = {("X", "Y"): 1, ("Y", "Z"): 1, ("Z", "X"): 1,
               ("Y", "X"): 3, ("Z", "Y"): 3, ("X", "Z"): 3}


def _reference_update(x, z, r, px, pz, pr, pivot, anti_rows, outcome_bit):
    """The unpacked CHP update, one row at a time, on (2n, n) 0/1 arrays."""
    n = x.shape[1]
    letters = np.array(["I", "X", "Z", "Y"])
    for i in anti_rows:
        if i == pivot:
            continue
        phase = sum(_SITE_PHASE.get((a, b), 0) for a, b in zip(
            letters[x[i] + 2 * z[i]], letters[x[pivot] + 2 * z[pivot]]))
        r[i] = (r[i] + r[pivot] + (phase % 4) // 2) % 2
        x[i] ^= x[pivot]
        z[i] ^= z[pivot]
    x[pivot - n], z[pivot - n], r[pivot - n] = x[pivot], z[pivot], r[pivot]
    x[pivot], z[pivot], r[pivot] = px, pz, (pr + outcome_bit) % 2


def _bit_matrix(ints, width):
    """0/1 uint8 matrix with one row per integer, bit j in column j."""
    n_bytes = max(1, -(-width // 8))
    raw = b"".join(v.to_bytes(n_bytes, "little") for v in ints)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(ints), n_bytes)
    return np.unpackbits(packed, axis=1, bitorder="little")[:, :width]


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([63, 64, 65, 129]), seed=st.integers(0, 2**32 - 1),
       density=st.sampled_from([0.05, 0.5]), pr=st.integers(0, 1),
       shots=st.sampled_from([0, 3]))
def test_measurement_update_matches_a_row_by_row_loop(n, seed, density, pr,
                                                      shots):
    rng = np.random.default_rng(seed)
    x = (rng.random((2 * n, n)) < density).astype(np.uint8)
    z = (rng.random((2 * n, n)) < density).astype(np.uint8)
    # shots == 0 is the 1-D sign column, else (2n, shots) columns
    r = rng.integers(2, size=(2 * n, max(shots, 1))).astype(np.uint8)
    outcome_bit = rng.integers(2, size=max(shots, 1)).astype(np.uint8)
    px = (rng.random(n) < density).astype(np.uint8)
    pz = (rng.random(n) < density).astype(np.uint8)
    anti = ((x & pz).sum(axis=1) + (z & px).sum(axis=1)) % 2
    anti_rows = np.flatnonzero(anti)
    stab_anti = anti_rows[anti_rows >= n]
    assume(stab_anti.size)
    pivot = int(stab_anti[0])

    def ints(m):
        return [int("0" + "".join(map(str, row[::-1])), 2) for row in m]

    xs, zs, (ipx,), (ipz,) = ints(x), ints(z), ints([px]), ints([pz])
    cx, cz = _columns(xs, n), _columns(zs, n)
    mask = _kernels.anticommuting_rows(cx, cz, ipx, ipz)
    assert _kernels.set_bits(mask) == anti_rows.tolist()
    signs = r.copy() if shots else r[:, 0].copy()
    _kernels.random_update(xs, zs, cx, cz, signs, mask, pivot, ipx, ipz, pr,
                           outcome_bit if shots else int(outcome_bit[0]))
    for k, bit in enumerate(outcome_bit):
        xk, zk, rk = x.copy(), z.copy(), r[:, k].copy()
        _reference_update(xk, zk, rk, px, pz, pr, pivot, anti_rows, bit)
        assert np.array_equal(signs[:, k] if shots else signs, rk)
    assert np.array_equal(_bit_matrix(xs, n), xk)
    assert np.array_equal(_bit_matrix(zs, n), zk)
    assert np.array_equal(_bit_matrix(cx, 2 * n), xk.T)
    assert np.array_equal(_bit_matrix(cz, 2 * n), zk.T)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_measurement_sequences_match_the_state_vector(data):
    n = data.draw(st.integers(1, 10))
    word = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    words = data.draw(st.lists(word.filter(lambda w: w.strip("I")),
                               min_size=1, max_size=12))
    signs = data.draw(st.lists(st.sampled_from([0, 2]), min_size=len(words),
                               max_size=len(words)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    sites = list(range(n))
    t = Tableau.zero_state(n, seed)
    v = dense.zero_state(n)
    for w, sign in zip(words, signs):
        p = PauliString.from_dict(
            {i: c for i, c in enumerate(w) if c != "I"}, sign)
        p_plus = float(np.linalg.norm(dense.project_eigenvalue(v, p, sites, +1)) ** 2)
        out = t.measure(p)
        # a random tableau outcome is a fair coin; a fixed one is certain
        assert (p_plus if out == 1 else 1 - p_plus) == \
            pytest.approx(0.5 if t.last_random else 1.0)
        out_v, v = dense.measure_projective(v, p, sites, None, force=out)
        assert out_v == out
        assert t.expectation_sign(p) == out
    for k in range(n):
        g = t.row_operator(n + k)
        assert dense.expectation(v, g, sites) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [7, 65])
def test_sign_columns_evolve_like_separate_tableaux(n):
    # shots that share the x/z rows keep one sign column each; every column
    # must read and evolve exactly as its own 1-D tableau, in both branches
    rng = np.random.default_rng(n)
    shots = [Tableau.zero_state(n, 0) for _ in range(4)]
    for t in shots[1:]:
        t.apply_pauli(random_string(rng, n))
    shared = Tableau.zero_state(n, 0)
    shared.r = np.stack([t.r for t in shots], axis=1)
    seen = set()
    for _ in range(30):
        p = random_string(rng, n)
        bits = rng.integers(2, size=len(shots)).astype(np.uint8)
        for _repeat in range(2):  # the repeat is fixed
            got = shared.measure_signs(p, lambda: bits)
            seen.add(shared.last_random)
            for k, t in enumerate(shots):
                want = t.measure_signs(p, lambda: int(bits[k]))
                assert t.last_random == shared.last_random
                assert int(got[k]) == int(want)
            # a Pauli frame change on some shots only
            flip = random_string(rng, n)
            marked = rng.integers(2, size=len(shots)).astype(np.uint8)
            shared.apply_pauli(flip, marked)
            for k in np.flatnonzero(marked):
                shots[k].apply_pauli(flip)
            assert np.array_equal(shared.r, np.stack([t.r for t in shots], axis=1))
    for t in shots:
        assert t.x == shared.x and t.z == shared.z
    assert seen == {True, False}


def _sparse_string(rng, n):
    """A Hermitian Pauli on 1-6 sites (the plaquettes and single sites the
    code measures), or now and then on every site."""
    weight = n if rng.random() < 0.1 else int(rng.integers(1, min(n, 6) + 1))
    sites = rng.choice(n, size=weight, replace=False)
    return PauliString.from_dict(
        {int(s): "XYZ"[rng.integers(3)] for s in sites}, 2 * int(rng.integers(2)))


def _assert_columns_are_the_transpose(t: Tableau):
    assert len(t.cx) == len(t.cz) == t.n and len(t.x) == len(t.z) == 2 * t.n
    assert np.array_equal(_bit_matrix(t.cx, 2 * t.n), _bit_matrix(t.x, t.n).T)
    assert np.array_equal(_bit_matrix(t.cz, 2 * t.n), _bit_matrix(t.z, t.n).T)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([1, 63, 64, 65, 130]), shots=st.sampled_from([0, 3]),
       seed=st.integers(0, 2**32 - 1),
       steps=st.lists(st.sampled_from(["measure", "force", "pauli", "copy"]),
                      min_size=1, max_size=20))
def test_column_bitsets_stay_the_transpose_of_the_rows(n, shots, seed, steps):
    # shots == 0 runs the tableau's own 1-D signs, else (2n, shots) columns
    rng = np.random.default_rng(seed)
    t = Tableau.zero_state(n, seed)
    if shots:
        t.r = np.repeat(t.r[:, None], shots, axis=1)

    def step(t, kind):
        p = _sparse_string(rng, n)
        if kind == "pauli":
            if shots:
                t.apply_pauli(p, rng.integers(2, size=shots).astype(np.uint8))
            else:
                t.apply_pauli(p)
        elif shots:
            bits = rng.integers(2, size=shots).astype(np.uint8)
            if kind == "force":
                bits[:] = bits[0]
            t.measure_signs(p, lambda: bits)
        elif kind == "force":
            before = t.to_text()
            try:
                t.measure(p, force=int(rng.choice([-1, 1])))
            except InconsistentOutcomeError:
                assert t.to_text() == before
        else:
            t.measure(p)

    for kind in steps:
        if kind == "copy":
            twin = t.copy()
            rows, r = (list(t.x), list(t.z)), t.r.copy()
            for other in ("measure", "pauli", "force", "measure"):
                step(twin, other)
                _assert_columns_are_the_transpose(twin)
            # the text format holds 1-D signs only, so compare rows and signs
            assert (t.x, t.z) == rows
            assert np.array_equal(t.r, r)
            if rng.random() < 0.5:
                t = twin
        else:
            step(t, kind)
        _assert_columns_are_the_transpose(t)
