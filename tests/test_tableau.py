import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twistsim import _kernels, dense, jw
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


def test_deterministic_expectation_sign_reads_without_copying(monkeypatch):
    lat = build_lattice(8, 12, [(2, 2, 4), (5, 2, 4), (8, 2, 4)])
    t = init_ground(lat, seed=5)
    queries = list(t.plaquette_ops[:6])
    queries += [t.logicals[name] for name in sorted(t.logicals)]
    queries.append(queries[-1].negate())
    expected = [t.copy().measure(q) for q in queries]
    before = (t.x.copy(), t.z.copy(), t.r.copy(), set(t.active), dict(t.logicals),
              dict(t.reference_signs), t.rng.bit_generator.state)

    copies = []
    original = Tableau.copy
    monkeypatch.setattr(Tableau, "copy",
                        lambda self: copies.append(self) or original(self))
    signs = [t.expectation_sign(q) for q in queries]
    bulk = PauliString.single(lat.site_id(6, 4), "Z")  # anticommutes: random
    assert t.expectation_sign(bulk) is None

    assert copies == []
    assert signs == expected and None not in signs
    after = (t.x, t.z, t.r, t.active, t.logicals, t.reference_signs,
             t.rng.bit_generator.state)
    for old, new in zip(before, after):
        if isinstance(old, np.ndarray):
            assert np.array_equal(old, new)
        else:
            assert old == new


def _pauli_bits(word: str):
    x = np.array([c in "XY" for c in word], dtype=np.uint8)
    z = np.array([c in "ZY" for c in word], dtype=np.uint8)
    return x, z


def _pauli_of(word: str) -> PauliString:
    return PauliString.from_dict({i: c for i, c in enumerate(word) if c != "I"})


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernels_match_pauli_algebra(data):
    n = data.draw(st.integers(1, 12))
    word = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    rows = data.draw(st.lists(word, min_size=1, max_size=8))
    probe = data.draw(word)
    x = np.array([_pauli_bits(w)[0] for w in rows])
    z = np.array([_pauli_bits(w)[1] for w in rows])
    px, pz = _pauli_bits(probe)
    mask = _kernels.anticommute_mask(x, z, px, pz)
    p = _pauli_of(probe)
    assert [int(m) for m in mask] == \
        [0 if _pauli_of(w).commutes_with(p) else 1 for w in rows]
    for w in rows:
        wx, wz = _pauli_bits(w)
        assert _kernels.rowsum_phase(wx, wz, px, pz) == \
            (_pauli_of(w) * p).phase.exponent
