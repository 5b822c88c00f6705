import gc
import weakref
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from twistsim import _kernels, dense, jw, mbb, tableau
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
    before = t.to_text()
    with pytest.raises(InconsistentOutcomeError):
        t.measure(z0, force=-1)
    assert t.to_text() == before
    # a force is ±1 (an outcome bit 0 or 1 in ``measure_signs``): any other is
    # refused before a row changes, on a random (X0) and a fixed (Z0) outcome
    for p in (PauliString.single(0, "X"), z0):
        for force in (0, 3):
            with pytest.raises(ValueError, match="not ±1"):
                t.measure(p, force=force)
            assert t.to_text() == before
        with pytest.raises(ValueError, match="not 0 or 1"):
            t.measure_signs(p, lambda: 0, force=2)
        assert t.to_text() == before


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
    signs = list(t.r)
    with pytest.raises(ValueError, match=f"site {site} "):
        getattr(t, method)(PauliString.from_dict({3: "Z", site: "X"}))
    assert t.r == signs


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
    phase_sign = 1 if string.phase == 0 else -1
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


@pytest.mark.parametrize("registered", ["reduced", "raw"])
def test_direct_parity_leaves_every_pair_string_at_its_outcome(registered):
    # the ground registers three of the fifteen reduced pair strings
    # (init_ground) or none of them (the raw strings, CodeContext.ground); the
    # frame repair must commute with the string read, registered or not
    lat = build_lattice(8, 12, [(r, 2, 4) for r in (2, 5, 8)])
    ctx = code_context(lat)
    pins = tuple((a - 1, b - 1, mbb.parity_sign_for((a, b), 6))
                 for a, b in mbb.START_PAIRINGS[6])
    ground = init_ground(lat, 0, list(pins)) if registered == "reduced" \
        else ctx.ground(pins)
    for a, b in combinations(range(6), 2):
        string = ctx.parity_string(a, b)
        for seed in range(20):
            t = ground.copy()
            t.rng = np.random.default_rng(seed)
            res = measure_parity_direct(t, string)
            assert t.expectation_sign(string) == res.outcome, (a, b, seed)
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


@pytest.mark.parametrize("shape", [(10, 10, []), (14, 12, [(5, 5, 8)])],
                         ids=["10x10", "14x12_558"])
def test_cut_operator_excites_the_face_pair(shape):
    from twistsim.lattice import excitations_of
    lat = build_lattice(*shape)
    squares = [p.id for p in lat.plaquettes if p.kind == "square"]
    hops = 0
    for f, g in permutations(squares, 2):
        try:
            op = cut_operator(lat, f, g)
        except GeometryError:
            continue
        assert excitations_of(lat, op) == {f, g}, (f, g)
        hops += 1
    assert hops >= len(squares)


def test_cut_operator_refuses_a_shared_y_corner():
    # faces 0 and 6 of a 6x6 grid are diagonal neighbours sharing site 7;
    # give both a Y there, which no cut letter can split
    lat = build_lattice(6, 6, [])
    ops = list(lat.plaquette_ops)
    for k in (0, 6):
        ops[k] = PauliString.from_dict({**ops[k].letters(), 7: "Y"})
    lat.__dict__["plaquette_ops"] = tuple(ops)
    with pytest.raises(GeometryError, match="cannot cut through letter Y"):
        cut_operator(lat, 0, 6)


def test_hole_readout_matches_direct():
    lat = build_lattice(14, 12, [(5, 5, 8)])
    loop = diamond_loop(lat, 0, 3)
    _, x_logical = twist_logicals(lat, 0)
    for seed in range(20):
        t = init_ground(lat, seed=seed)
        if seed % 2:
            t.apply_pauli(x_logical)
        t2 = t.copy()
        out_hole, plan = measure_parity_hole(t, 0, loop)
        out_direct = measure_parity_direct(t2, t2.logicals["parity_0_1"]).outcome
        assert out_hole == out_direct
        assert not plan.z_logical.commutes_with(lat.plaquette_ops[plan.anchor])
        # repeatable
        out2, _ = measure_parity_hole(t, 0, loop)
        assert out2 == out_hole


@st.composite
def diamond_readouts(draw):
    """A lattice 10-16 wide and 8-14 tall with one or two segments, one of
    its pairs, and a diamond loop of radius 2-4 around it that encloses that
    pair alone and has an anchor face."""
    width, height = draw(st.integers(10, 16)), draw(st.integers(8, 14))
    n_segments = draw(st.integers(1, 2))
    pair = draw(st.integers(0, n_segments - 1))
    segments = []
    for k in range(n_segments):
        # a loop of radius 2 around the pair's segment stays on the lattice
        rows = (2, height - 4) if k == pair else (1, height - 3)
        start = draw(st.integers(1, width - 5))
        segments.append((draw(st.integers(*rows)), start,
                         start + draw(st.integers(2, min(3, width - 3 - start)))))
    row, start, end = segments[pair]
    centre = (start + end) // 2
    fit = min(4, row, height - 2 - row, centre, width - 2 - centre)
    try:
        lat = build_lattice(width, height, segments)
        loop = diamond_loop(lat, pair, draw(st.integers(2, fit)))
        plan = code_context(lat).hole_plan(tuple(loop), pair)
    except GeometryError:  # overlapping segments, or a loop that does not fit
        assume(False)
    assume(plan.encloses_pair and plan.anchor is not None)
    return lat, pair, loop


# about half the drawn layouts overlap their segments or fit no loop
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(diamond_readouts())
def test_hole_readout_matches_direct_wherever_a_diamond_fits(readout):
    lat, pair, loop = readout
    name = f"parity_{2 * pair}_{2 * pair + 1}"
    ground = init_ground(lat, seed=0)
    for flip in (False, True):
        t = ground.copy()
        if flip:
            t.apply_pauli(twist_logicals(lat, pair)[1])
        prepared = t.expectation_sign(t.logicals[name])
        t2 = t.copy()
        assert measure_parity_hole(t, pair, loop)[0] == prepared, flip
        assert measure_parity_direct(t2, t2.logicals[name]).outcome == prepared, flip
    assert prepared == -ground.expectation_sign(ground.logicals[name])


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


_TEXT = "twistsim-tableau v1 n=2\nD+XI\nD-IX\nS+ZI\nS+IZ\n"


@pytest.mark.parametrize("text", [
    pytest.param(_TEXT.replace("S+IZ\n", ""), id="missing_row"),
    pytest.param(_TEXT + "S+ZZ\n", id="extra_row"),
    pytest.param(_TEXT.replace("D-IX", "D-X"), id="short_row"),
    pytest.param(_TEXT.replace("D-IX", "D-IXZ"), id="long_row"),
    pytest.param(_TEXT.replace("D-IX", "D*IX"), id="bad_sign"),
    pytest.param(_TEXT.replace("S+ZI", "S+ZQ"), id="bad_letter"),
    pytest.param(_TEXT.replace("D+XI", "S+XI"), id="S_row_first"),
    pytest.param(_TEXT.replace("S+IZ", "D+IZ"), id="D_row_last"),
    pytest.param(_TEXT.replace("n=2", "2"), id="bad_header"),
    pytest.param("", id="empty"),
])
def test_malformed_text_is_refused(text):
    assert Tableau.from_text(_TEXT).to_text() == _TEXT
    with pytest.raises(ValueError):
        Tableau.from_text(text)


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
    # tableau does); the context must still die with the lattice. The ground
    # pins the raw strings, the direct readout reads the reduced one.
    lat = build_lattice(14, 12, [(5, 5, 8)])
    ctx = code_context(lat)
    t = ctx.ground(((0, 1, -1),)).copy()
    t.apply_pauli(twist_logicals(lat, 0)[1])
    measure_parity_hole(t, 0, diamond_loop(lat, 0, 3))
    measure_parity_direct(t, ctx.parity_string(0, 1))
    ctx.bracket_string(0)
    ctx.face_flip(0, t.logicals)
    memos = {name for name in vars(ctx) if name.startswith("_memo_")}
    assert memos == {f"_memo_{name}" for name in (
        "raw_parity_string", "raw_bracket_string", "parity_string",
        "bracket_string", "x_logical", "ground", "_face_flip",
        "_independent_logicals", "hole_plan", "direct_plan",
        "loop_decomposition")}
    ref = weakref.ref(lat)
    del lat, ctx, t
    gc.collect()
    assert ref() is None


def test_plan_memos_are_per_lattice_and_die_with_it():
    # the (5,5,8) and (5,5,7) lattices give the diamond loop the same face
    # ids and the same hole route, but the loop's factor and the faces the
    # parity string touches differ: a plan keyed on the loop or the string
    # alone would read one lattice's values on the other
    lats = [build_lattice(14, 12, [segment]) for segment in ((5, 5, 8), (5, 5, 7))]
    loop = tuple(diamond_loop(lats[0], 0, 3))
    assert tuple(diamond_loop(lats[1], 0, 3)) == loop
    ctxs = [code_context(lat) for lat in lats]
    strings = [(ctx.parity_string(0, 1), ctx.bracket_string(0)) for ctx in ctxs]
    routes = [ctx.hole_plan(loop, 0) for ctx in ctxs]
    factors = [ctx.loop_decomposition(loop, 0, *pair)[1]
               for ctx, pair in zip(ctxs, strings)]
    directs = [ctx.direct_plan(pair[0]) for ctx, pair in zip(ctxs, strings)]
    assert routes[0] == routes[1] and routes[0] is not routes[1]
    assert factors[0] != factors[1]
    assert directs[0].faces != directs[1].faces
    for segment, route, factor, direct in zip(((5, 5, 8), (5, 5, 7)), routes,
                                               factors, directs):
        fresh = code_context(build_lattice(14, 12, [segment]))
        pair = fresh.parity_string(0, 1), fresh.bracket_string(0)
        assert fresh.hole_plan(loop, 0) == route
        assert fresh.loop_decomposition(loop, 0, *pair)[1] == factor
        assert fresh.direct_plan(pair[0]) == direct
    # one lattice's plans die with it; the other's stay
    ref = weakref.ref(lats[0])
    del lats[0], ctxs[0]
    gc.collect()
    assert ref() is None
    assert ctxs[0].hole_plan(loop, 0) is routes[1]
    assert ctxs[0].direct_plan(strings[1][0]) is directs[1]


def test_memo_keys_on_the_positional_arguments():
    lat = build_lattice(14, 12, [(5, 5, 8)])
    ctx = code_context(lat)
    loop = tuple(diamond_loop(lat, 0, 3))
    plan = ctx.hole_plan(loop, 0)
    assert ctx.hole_plan(tuple(loop), 0) is plan
    assert list(ctx._memo_hole_plan) == [(loop, 0)]
    with pytest.raises(TypeError, match="unhashable"):  # a list is no key
        ctx.hole_plan(list(loop), 0)


def test_hole_readout_returns_its_memoized_plan():
    lat = build_lattice(14, 12, [(5, 5, 8)])
    loop = diamond_loop(lat, 0, 3)
    out, plan = measure_parity_hole(init_ground(lat, seed=0), 0, loop)
    assert out in (-1, 1)
    assert plan is code_context(lat).hole_plan(tuple(loop), 0)


def test_a_refused_hole_readout_leaves_the_tableau_untouched():
    # with the X logical as the pair's bracket the loop operator is in no
    # class the decomposition knows; the readout refuses it before it
    # measures anything
    lat = build_lattice(14, 12, [(5, 5, 8)])
    loop = diamond_loop(lat, 0, 3)
    t = init_ground(lat, seed=0)
    t.logicals["bracket_0"] = twist_logicals(lat, 0)[1]
    before = (t.to_text(), dict(t.reference_signs), t.rng.bit_generator.state)
    with pytest.raises(GeometryError, match="expected logical class"):
        measure_parity_hole(t, 0, loop)
    assert (t.to_text(), t.reference_signs, t.rng.bit_generator.state) == before


def test_deterministic_expectation_sign_reads_without_copying(monkeypatch):
    lat = build_lattice(8, 12, [(2, 2, 4), (5, 2, 4), (8, 2, 4)])
    t = init_ground(lat, seed=5)
    queries = list(t.lattice.plaquette_ops[:6])
    queries += [t.logicals[name] for name in sorted(t.logicals)]
    queries.append(queries[-1].negate())
    expected = [t.copy().measure(q) for q in queries]
    before = (list(t.x), list(t.z), list(t.cx), list(t.cz), list(t.r),
              dict(t.logicals), dict(t.reference_signs), t.rng.bit_generator.state)

    copies = []
    original = Tableau.copy
    monkeypatch.setattr(Tableau, "copy",
                        lambda self: copies.append(self) or original(self))
    signs = [t.expectation_sign(q) for q in queries]
    bulk = PauliString.single(lat.site_id(6, 4), "Z")  # anticommutes: random
    assert t.expectation_sign(bulk) is None

    assert copies == []
    assert signs == expected and None not in signs
    after = (t.x, t.z, t.cx, t.cz, t.r, t.logicals, t.reference_signs,
             t.rng.bit_generator.state)
    assert after == before


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
    assert [(_pauli_of(w).x, _pauli_of(w).z) for w in rows] == list(zip(x, z))
    assert all(_kernels.set_bits(v) == [j for j in range(n) if v >> j & 1]
               for v in x + z)
    (px,), (pz,) = _int_rows([probe])
    p = _pauli_of(probe)
    mask = _kernels.anticommuting_rows(_columns(x, n), _columns(z, n), px, pz)
    assert _kernels.set_bits(mask) == \
        [k for k, w in enumerate(rows) if not _pauli_of(w).commutes_with(p)]
    want = [(_pauli_of(w) * p).phase for w in rows]
    assert [_kernels.int_product_phase(x[k], z[k], px, pz) % 4
            for k in range(len(rows))] == want
    # the ordered product of all rows, phase included
    acc_x, acc_z, exponent = _kernels.row_product(x, z, range(len(rows)))
    prod = PauliString.identity()
    for w in rows:
        prod = prod * _pauli_of(w)
    assert PauliString(acc_x, acc_z, exponent) == prod


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
       shots=st.sampled_from([1, 3]))
def test_measurement_update_matches_a_row_by_row_loop(n, seed, density, pr,
                                                      shots):
    rng = np.random.default_rng(seed)
    x = (rng.random((2 * n, n)) < density).astype(np.uint8)
    z = (rng.random((2 * n, n)) < density).astype(np.uint8)
    # column k of r is shot k's signs; shots == 1 is a lone tableau
    r = rng.integers(2, size=(2 * n, shots)).astype(np.uint8)
    outcome_bit = rng.integers(2, size=shots).astype(np.uint8)
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
    # bit k of each sign integer is shot k's sign
    signs, (outcome,) = ints(r), ints([outcome_bit])
    ones = (1 << shots) - 1
    _kernels.random_update(xs, zs, cx, cz, signs, ones, mask, pivot, ipx, ipz,
                           pr, outcome)
    for k, bit in enumerate(outcome_bit):
        xk, zk, rk = x.copy(), z.copy(), r[:, k].copy()
        _reference_update(xk, zk, rk, px, pz, pr, pivot, anti_rows, bit)
        assert [v >> k & 1 for v in signs] == rk.tolist()
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


def _packed(bits) -> int:
    """One integer with bit k set where ``bits[k]`` is."""
    return sum(int(b) << k for k, b in enumerate(bits))


@pytest.mark.parametrize("n", [7, 65])
def test_sign_columns_evolve_like_separate_tableaux(n):
    # shots that share the x/z rows keep one sign bit each per row; every
    # shot must read and evolve exactly as its own lone tableau, in both
    # branches
    rng = np.random.default_rng(n)
    shots = [Tableau.zero_state(n, 0) for _ in range(4)]
    for t in shots[1:]:
        t.apply_pauli(random_string(rng, n))
    shared = Tableau.zero_state(n, 0)
    shared.spread(len(shots))
    shared.r = [_packed(row) for row in zip(*(t.r for t in shots))]
    seen = set()
    for _ in range(30):
        p = random_string(rng, n)
        bits = rng.integers(2, size=len(shots))
        for _repeat in range(2):  # the repeat is fixed
            got = shared.measure_signs(p, lambda: _packed(bits))
            seen.add(shared.last_random)
            for k, t in enumerate(shots):
                want = t.measure_signs(p, lambda: int(bits[k]))
                assert t.last_random == shared.last_random
                assert got >> k & 1 == want
            # a Pauli frame change on some shots only
            flip = random_string(rng, n)
            marked = rng.integers(2, size=len(shots))
            shared.apply_pauli(flip, _packed(marked))
            for k in np.flatnonzero(marked):
                shots[k].apply_pauli(flip)
            assert shared.r == [_packed(row) for row in zip(*(t.r for t in shots))]
    for t in shots:
        assert t.x == shared.x and t.z == shared.z
    assert seen == {True, False}


def test_sign_columns_read_signed_outcomes_per_column():
    # bit s of measure_signs is shot s's outcome; the lone reads give a signed
    # int ±1 (a -1 once read as uint8 255) and refuse a batch, whose forced
    # labels a LatticeBackend checks shot by shot
    def fixed():
        raise AssertionError("a fixed outcome took a draw")

    t = Tableau.zero_state(2, seed=0)
    z0, x0 = PauliString.single(0, "Z"), PauliString.single(0, "X")
    t.apply_pauli(x0)
    for read in (t.expectation_sign, t.measure):
        assert type(read(z0)) is int and read(z0) == -1
    t.spread(3)
    t.apply_pauli(x0, 0b010)
    assert t.measure_signs(z0, fixed) == 0b101
    for read in (t.expectation_sign, t.measure):
        with pytest.raises(ValueError, match="measure_signs"):
            read(z0)
    t.apply_pauli(x0, 0b010)
    assert t.measure_signs(z0, fixed) == 0b111
    assert t.measure_signs(x0, lambda: 0b000) == 0b000  # a random outcome
    assert t.last_random
    assert t.measure_signs(x0, fixed) == 0b000

    lat = build_lattice(8, 12, [(2, 2, 4), (5, 2, 4), (8, 2, 4)])
    bk = mbb.LatticeBackend(lat, mbb.ShotStreams(1, 0, 13))
    labels, _ = bk.measure((1, 3))
    assert labels.dtype == np.uint8 and set(labels.tolist()) == {0, 1}
    state = (list(bk.tab.x), list(bk.tab.z), list(bk.tab.r))
    for force in (0, 1):
        with pytest.raises(InconsistentOutcomeError):
            bk.measure((1, 3), force=force)
        assert (bk.tab.x, bk.tab.z, bk.tab.r) == state
    assert bk.measure((1, 3))[0].tolist() == labels.tolist()


def test_spread_refuses_a_batch_and_a_shot_count_below_one():
    t = Tableau.zero_state(2, seed=0)
    t.apply_pauli(PauliString.single(0, "X"))  # stabilizer Z_0's sign is 1
    for shots in (0, -1):
        with pytest.raises(ValueError, match="at least one shot"):
            t.spread(shots)
    assert (t.all_shots, t.r) == (1, [0, 0, 1, 0])
    t.spread(4)
    with pytest.raises(ValueError, match="measure_signs"):
        t.spread(8)
    assert (t.all_shots, t.r) == (0b1111, [0, 0, 0b1111, 0])


def _row_lists(t: Tableau) -> list[list[int]]:
    return [t.x, t.z, t.cx, t.cz]


def test_copies_share_rows_but_not_signs():
    # a copy reads the original's x/z rows until a measurement moves it to
    # another state; no measurement or Pauli on one copy shows on another
    lat = build_lattice(8, 6, [(1, 2, 5)])
    base = init_ground(lat, seed=0)
    first, sibling = base.copy(), base.copy()
    assert all(a is b for a, b in zip(_row_lists(first), _row_lists(base)))
    texts = base.to_text(), sibling.to_text()
    _, x_logical = twist_logicals(lat, 0)
    bulk = [PauliString.single(lat.site_id(2, c), "X") for c in range(1, 5)]
    first.apply_pauli(x_logical)
    for p in bulk:
        first.measure(p)
        assert first.last_random
    assert (base.to_text(), sibling.to_text()) == texts
    after = first.to_text()
    sibling.apply_pauli(x_logical)
    for p in bulk:  # replays the stored moves
        sibling.measure(p)
    assert (base.to_text(), first.to_text()) == (texts[0], after)
    assert all(a is b for a, b in zip(_row_lists(first), _row_lists(sibling)))


def test_copy_shares_the_generator_until_one_is_set():
    t = Tableau.zero_state(3, seed=11)
    c = t.copy()
    assert c.rng is t.rng
    # a random measurement on either draws from the one stream
    state = t.rng.bit_generator.state
    c.measure(PauliString.single(0, "X"))
    assert c.last_random and t.rng.bit_generator.state != state
    state = c.rng.bit_generator.state
    t.measure(PauliString.single(1, "X"))
    assert t.last_random and c.rng.bit_generator.state != state
    # a generator set on the copy separates them
    c.rng = np.random.default_rng(12)
    state = t.rng.bit_generator.state
    c.measure(PauliString.single(2, "X"))
    assert c.last_random and t.rng.bit_generator.state == state
    t.measure(PauliString.single(2, "X"))
    assert t.last_random and c.rng.bit_generator.state != state


def _per_row_text(t: Tableau) -> str:
    """``to_text`` row by row, each letter read from ``row_operator``."""
    lines = [f"twistsim-tableau v1 n={t.n}"]
    for i in range(2 * t.n):
        row = t.row_operator(i)
        lines.append(("D" if i < t.n else "S") + ("-" if row.phase else "+")
                     + "".join(row.letter_at(j) or "I" for j in range(t.n)))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [1, 5, 8, 13, 64, 67])
def test_to_text_matches_the_per_row_rendering(n):
    rng = np.random.default_rng(n)
    t = Tableau.zero_state(n, seed=n)
    assert t.to_text() == _per_row_text(t)
    for step in range(12):
        p = _sparse_string(rng, n)
        if step % 3 == 2:
            t.apply_pauli(p)
        else:
            t.measure(p)
        if step == 5:
            t = t.copy()  # rows shared from here on
        assert t.to_text() == _per_row_text(t), step
    assert Tableau.from_text(t.to_text()).to_text() == t.to_text()


def test_lattice_backend_owns_its_rows():
    lat = build_lattice(8, 12, [(2, 2, 4), (5, 2, 4), (8, 2, 4)])
    bk = mbb.LatticeBackend(lat, mbb.ShotStreams(0, 0, 5))
    [ground] = code_context(lat)._memo_ground.values()
    text = ground.to_text()
    assert not {id(v) for v in _row_lists(bk.tab)} & {id(v) for v in _row_lists(ground)}
    mbb.braid_once(bk)
    assert ground.to_text() == text


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
@given(n=st.sampled_from([1, 63, 64, 65, 130]), shots=st.sampled_from([1, 3]),
       seed=st.integers(0, 2**32 - 1),
       steps=st.lists(st.sampled_from(["measure", "force", "pauli", "copy"]),
                      min_size=1, max_size=20))
def test_column_bitsets_stay_the_transpose_of_the_rows(n, shots, seed, steps):
    # shots == 1 is a lone tableau, which measure and force read, else a
    # batch of shots
    rng = np.random.default_rng(seed)
    t = Tableau.zero_state(n, seed)
    t.spread(shots)

    def step(t, kind):
        p = _sparse_string(rng, n)
        if kind == "pauli":
            if shots > 1:
                t.apply_pauli(p, int(rng.integers(1 << shots)))
            else:
                t.apply_pauli(p)
        elif shots > 1:
            bits = int(rng.integers(1 << shots))
            if kind == "force":
                bits = t.all_shots * (bits & 1)
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
            rows, r = (list(t.x), list(t.z)), list(t.r)
            for other in ("measure", "pauli", "force", "measure"):
                step(twin, other)
                _assert_columns_are_the_transpose(twin)
            # the text format holds a lone tableau only, so compare rows and
            # signs
            assert (t.x, t.z) == rows
            assert t.r == r
            if rng.random() < 0.5:
                t = twin
        else:
            step(t, kind)
        _assert_columns_are_the_transpose(t)


LAT6 = build_lattice(8, 12, [(2, 2, 4), (5, 2, 4), (8, 2, 4)])
GROUND_ENTRY_POINTS = [
    pytest.param(lambda lat, pins: init_ground(lat, 0, pins), id="init_ground"),
    pytest.param(lambda lat, pins: code_context(lat).ground(tuple(pins)),
                 id="CodeContext.ground"),
]


@pytest.mark.parametrize("ground", GROUND_ENTRY_POINTS)
def test_pins_sharing_one_mode_are_refused(ground):
    # parity_0_2 anticommutes with parity_0_1: pinning it would randomize
    # the first pin, which stays registered
    with pytest.raises(ValueError, match="shares one mode"):
        ground(LAT6, [(0, 1, -1), (0, 2, -1)])


@pytest.mark.parametrize("ground", GROUND_ENTRY_POINTS)
@pytest.mark.parametrize("pin", [(-1, 1, -1), (0, 6, -1), (6, 7, 1)],
                         ids=["negative", "one-past-last", "both-past-last"])
def test_pins_outside_the_modes_are_refused(ground, pin):
    # a negative mode would wrap round to the last mode by list indexing
    with pytest.raises(ValueError, match="outside 0..5"):
        ground(LAT6, [pin])


@pytest.mark.parametrize("ground", GROUND_ENTRY_POINTS)
def test_a_mode_pinned_with_itself_is_refused_before_any_measurement(
        ground, monkeypatch):
    # the string of (0, 0) is i·1, which no measurement can pin
    calls = []
    measure = Tableau.measure
    monkeypatch.setattr(Tableau, "measure",
                        lambda self, *args, **kw: calls.append(args)
                        or measure(self, *args, **kw))
    with pytest.raises(ValueError, match=r"pin \(0, 0\) pairs a mode with itself"):
        ground(LAT6, [(0, 0, -1)])
    assert calls == []


@pytest.mark.parametrize("ground", GROUND_ENTRY_POINTS)
def test_a_pair_pinned_twice_at_opposite_signs_conflicts(ground):
    with pytest.raises(GeometryError, match="generators conflict"):
        ground(LAT6, [(0, 1, -1), (0, 1, 1)])
