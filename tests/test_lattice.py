import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import twistsim
from twistsim import _gf2, jw
from twistsim.lattice import (GeometryError, Segment, SizeError, build_lattice,
                              all_plaquette_operators, excitations_of,
                              lattice_spec_dumps, lattice_spec_loads,
                              plaquette_operator, twist_logicals)
from twistsim.pauli import PauliString
from twistsim.tableau import code_context, diamond_loop, init_ground, syndrome

rng = np.random.default_rng(7)


def assert_commuting_independent(lat):
    ops = all_plaquette_operators(lat)
    for a, b in itertools.combinations(ops, 2):
        assert a.commutes_with(b)
    mat = lat.stabilizer_matrix()
    assert mat == [_gf2.symplectic_vector(op, lat.n_sites) for op in ops]
    assert _gf2.rank(mat) == len(ops)


def test_twist_free_lattice():
    lat = build_lattice(6, 4, [])
    assert len(lat.plaquettes) == 5 * 3
    assert_commuting_independent(lat)


def test_one_twist_pair_counts():
    lat = build_lattice(8, 6, [(1, 2, 5)])
    pentagons = [p for p in lat.plaquettes if p.kind == "pentagon"]
    assert len(pentagons) == 2
    assert len(lat.plaquettes) == 7 * 5 - 1
    assert len(lat.twists) == 2
    assert_commuting_independent(lat)


def test_two_twist_pairs():
    lat = build_lattice(10, 8, [(1, 2, 4), (4, 3, 6)])
    assert len(lat.twists) == 4
    assert len(lat.plaquettes) == 9 * 7 - 2
    assert_commuting_independent(lat)


@pytest.mark.parametrize("bad", [
    (8, 6, [(0, 2, 5)]),     # top boundary row
    (8, 6, [(4, 2, 5)]),     # bottom boundary row
    (8, 6, [(1, 0, 3)]),     # left boundary column
    (8, 6, [(1, 3, 6)]),     # right boundary column
    (8, 6, [(1, 2, 3)]),     # too short
    (10, 8, [(2, 2, 4), (2, 3, 6)]),  # overlapping
])
def test_bad_segments_raise(bad):
    with pytest.raises(GeometryError):
        build_lattice(*bad)


def test_too_small_lattice():
    with pytest.raises(SizeError):
        build_lattice(3, 8, [])


def test_plaquette_operator_patterns():
    lat = build_lattice(8, 6, [(1, 2, 5)])
    for p in lat.plaquettes:
        op = plaquette_operator(lat, p.id)
        letters = [op.letter_at(s) for s in p.ordered_sites]
        if p.kind == "square":
            assert letters == ["X", "Z", "X", "Z"]
        else:
            assert letters == ["X", "Z", "X", "Z", "Y"]
        assert op.phase == 0
    # Y sits on the twist site, the fifth entry of one pentagon each
    y_sites = [p.ordered_sites[4] for p in lat.plaquettes if p.kind == "pentagon"]
    assert sorted(y_sites) == sorted(t.twist_site for t in lat.twists)


def test_lattice_owns_one_operator_and_box_per_face():
    lat = build_lattice(8, 12, [(2, 2, 4), (5, 2, 4), (8, 2, 4)])
    assert len(lat.plaquette_ops) == len(lat.plaquettes)
    for p, op in zip(lat.plaquettes, lat.plaquette_ops):
        assert op.weight == len(p.ordered_sites)
        assert set(op.sites) == set(p.ordered_sites)
        assert plaquette_operator(lat, p.id) is op
    for bad in (-1, len(lat.plaquettes)):
        with pytest.raises(KeyError):
            plaquette_operator(lat, bad)


def test_lattice_and_jw_readers_never_import_the_tableau():
    script = """
import sys
from twistsim import jw
from twistsim.lattice import build_lattice, excitations_of
lat = build_lattice(8, 6, [(1, 2, 5)])
path = jw.default_path(lat, 0)
jw.classify_modes(lat, path)
parity = jw.reduce_by_stabilizers(jw.parity_operator(lat, path, 0), lat)
lat.stabilizer_matrix()
assert excitations_of(lat, parity) == set()
assert "twistsim.tableau" not in sys.modules
"""
    src = str(Path(twistsim.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_unknown_plaquette_id():
    lat = build_lattice(6, 4, [])
    with pytest.raises(KeyError):
        lat.plaquette(999)


def test_single_bulk_error_excites_two_plaquettes():
    lat = build_lattice(6, 6, [])
    err = PauliString.single(lat.site_id(2, 2), "Z")
    assert len(excitations_of(lat, err)) == 2


def test_stabilizer_element_excites_nothing():
    lat = build_lattice(6, 4, [])
    ops = all_plaquette_operators(lat)
    prod = ops[0] * ops[3] * ops[7]
    assert excitations_of(lat, prod) == set()


def test_error_string_excites_endpoints_only():
    lat = build_lattice(8, 6, [])
    # X letters hop an excitation along the main diagonal; a chain of them
    # leaves excitations only at the two endpoints of the path
    chain = PauliString.identity()
    for k in range(3):
        chain = chain * PauliString.single(lat.site_id(2 + k, 2 + k), "X")
    exc = excitations_of(lat, chain)
    assert len(exc) == 2


def test_excitations_of_product_is_symmetric_difference():
    lat = build_lattice(6, 6, [])
    for _ in range(30):
        def rand_err():
            letters = {
                int(s): "XYZ"[rng.integers(3)]
                for s in rng.choice(lat.n_sites, size=4, replace=False)
            }
            return PauliString.from_dict(letters)
        p, q = rand_err(), rand_err()
        assert excitations_of(lat, p * q) == \
            excitations_of(lat, p) ^ excitations_of(lat, q)


@pytest.mark.parametrize("shape", [(8, 12, [(2, 2, 4), (5, 2, 4), (8, 2, 4)]),
                                   (14, 12, [(5, 5, 8)])])
def test_excitations_match_a_loop_over_every_face(shape):
    lat = build_lattice(*shape)
    sample = np.random.default_rng(11)
    for _ in range(40):
        sites = sample.choice(lat.n_sites, size=int(sample.integers(1, 12)),
                              replace=False)
        err = PauliString.from_dict({int(s): "XYZ"[sample.integers(3)]
                                     for s in sites})
        assert excitations_of(lat, err) == {
            k for k, op in enumerate(lat.plaquette_ops)
            if not op.commutes_with(err)}


def test_off_lattice_error_rejected():
    lat = build_lattice(4, 4, [])
    with pytest.raises(GeometryError):
        excitations_of(lat, PauliString.single(99, "X"))


def test_coloring_is_proper_and_skips_segments():
    lat = build_lattice(8, 6, [(1, 2, 5)])
    colored = lat.coloring
    assert all(lat.plaquette(pid).kind == "square" for pid in colored)
    # edge-adjacent colored faces (sharing two sites) must differ
    for a, b in itertools.combinations(colored, 2):
        shared = set(lat.plaquette(a).sites) & set(lat.plaquette(b).sites)
        if len(shared) == 2:
            assert colored[a] != colored[b]


def test_logical_count_grows_by_one_per_pair():
    base = build_lattice(10, 8, []).logical_qubit_count()
    one = build_lattice(10, 8, [(2, 2, 4)]).logical_qubit_count()
    two = build_lattice(10, 8, [(2, 2, 4), (5, 3, 5)]).logical_qubit_count()
    assert one == base + 1
    assert two == base + 2


def assert_runs_the_pipeline(lat):
    """One mode per twist, one logical qubit per pair on top of the twist-free
    lattice's, and a ground state with every plaquette at +1."""
    assert len(lat.plaquettes) == (lat.width - 1) * (lat.height - 1) - lat.n_pairs
    assert len(code_context(lat).modes) == 2 * lat.n_pairs
    base = build_lattice(lat.width, lat.height, []).logical_qubit_count()
    assert lat.logical_qubit_count() == base + lat.n_pairs
    assert set(syndrome(init_ground(lat, seed=0)).values()) == {1}


def test_two_segments_on_one_row():
    # each segment re-stitches its own face columns of the shared row
    assert_runs_the_pipeline(build_lattice(12, 8, [(2, 1, 3), (2, 6, 8)]))


@st.composite
def accepted_layouts(draw, counts=st.integers(1, 3)):
    """``counts`` segments, 1-3 by default, on a lattice just large enough to
    hold them. A segment beside the previous one, on its face row or the
    next, starts two columns past its end, where their sites are disjoint;
    one two or more rows below it may start anywhere."""
    segments = []
    for k in range(draw(counts)):
        if k and draw(st.booleans()):  # beside the previous segment
            row = segments[-1][0] + draw(st.integers(0, 1))
            start = segments[-1][2] + 2 + draw(st.integers(0, 1))
        else:
            row = segments[-1][0] + draw(st.integers(2, 3)) if k else \
                draw(st.integers(1, 2))
            start = draw(st.integers(1, 2))
        segments.append((row, start, start + draw(st.integers(2, 3))))
    width = max(end for _, _, end in segments) + 3 + draw(st.integers(0, 2))
    height = segments[-1][0] + 3 + draw(st.integers(0, 1))
    return build_lattice(width, height, segments)


@settings(max_examples=100, deadline=None)
@given(accepted_layouts())
def test_every_accepted_layout_runs_the_pipeline(lat):
    assert_runs_the_pipeline(lat)


@settings(max_examples=100, deadline=None)
@given(accepted_layouts())
@example(build_lattice(12, 8, [(2, 1, 3), (2, 6, 8)]))
def test_set_up_data_matches_plain_references(lat):
    # the operators from a letter map, the faces at each site from a scan;
    # an operator derives its support only when a reader asks for it
    letter_maps = [dict(zip(p.ordered_sites, "XZXZY")) for p in lat.plaquettes]
    plain = [PauliString.from_dict(letters) for letters in letter_maps]
    assert not any("support" in vars(op) for op in all_plaquette_operators(lat))
    assert len(lat.plaquette_ops) == len(plain)
    for op, ref, letters in zip(lat.plaquette_ops, plain, letter_maps):
        assert op == ref and op.support == tuple(sorted(letters.items()))
    assert lat.face_columns == tuple(
        [sum(1 << k for k, op in enumerate(plain) if op.letter_at(s) in letters)
         for s in lat.sites] for letters in (("X", "Y"), ("Z", "Y")))
    # the twist modes and the mode classes from the letter maps' images
    for path in [jw.default_path(lat)] + [jw.default_path(lat, pair)
                                         for pair in range(lat.n_pairs)]:
        used = frozenset(m for ref in plain for m in jw.jw_map(ref, path).factors)
        free = {jw.MajoranaMode(s, kind) for s in lat.sites for kind in "ab"} - used
        boundary = frozenset(m for m in free if lat.on_boundary(m.site))
        assert jw.classify_modes(lat, path) == jw.ModeClassification(
            used, frozenset(free) - boundary, boundary)
        assert jw.twist_modes(lat, path) == [
            m for t in lat.twists for m in sorted(free - boundary)
            if m.site == t.twist_site]
    # the commutant check reads the faces' columns at a string's sites: it,
    # and the reduction that calls it, refuse exactly the strings that a scan
    # over every plaquette does
    draw = np.random.default_rng(lat.n_sites)
    strings = [PauliString.single(s, letter) for s in lat.sites for letter in "XYZ"]
    for _ in range(60):
        a = int(draw.integers(lat.n_sites))
        b = (a + int(draw.choice([1, lat.width])) if draw.random() < 0.5
             else int(draw.integers(lat.n_sites))) % lat.n_sites
        if a != b:
            strings.append(PauliString.from_dict(
                {a: "XYZ"[draw.integers(3)], b: "XYZ"[draw.integers(3)]}))
    refused = 0
    for q in strings:
        outside = not all(op.commutes_with(q) for op in plain)
        for check in (jw.check_commutant, jw.reduce_by_stabilizers):
            try:
                check(q, lat)
            except ValueError:
                assert outside, check.__name__
            else:
                assert not outside, check.__name__
        refused += outside
    assert 0 < refused < len(strings)


def test_twist_logicals_relations():
    lat = build_lattice(9, 6, [(1, 2, 6)])
    z, x = twist_logicals(lat, 0)
    ops = all_plaquette_operators(lat)
    for op in ops:
        assert z.commutes_with(op)
        assert x.commutes_with(op)
    assert not z.commutes_with(x)
    mat = lat.stabilizer_matrix()
    assert not _gf2.in_span(mat, _gf2.symplectic_vector(z, lat.n_sites))
    # Z support stays within the bounding box spanned by the two twists
    t1, t2 = (lat.site_coords(t.twist_site) for t in lat.twists)
    rmin, rmax = sorted((t1[0], t2[0]))
    cmin, cmax = sorted((t1[1], t2[1]))
    for s in z.sites:
        r, c = lat.site_coords(s)
        assert rmin <= r <= rmax and cmin - 1 <= c <= cmax + 1


def test_twist_logicals_derive_each_pair_once(monkeypatch):
    calls = []
    twist_modes = jw.twist_modes

    def counting(lat, path):
        calls.append(path)
        return twist_modes(lat, path)

    monkeypatch.setattr(jw, "twist_modes", counting)
    lat = build_lattice(8, 12, [(2, 2, 4), (5, 2, 4), (8, 2, 4)])
    first = [twist_logicals(lat, pair) for pair in range(lat.n_pairs)]
    again = [twist_logicals(lat, pair) for pair in range(lat.n_pairs)]
    assert len(calls) == 3  # one twist-mode derivation per pair path
    assert first == again


def test_unknown_pair_rejected():
    lat = build_lattice(8, 6, [(1, 2, 5)])
    with pytest.raises(KeyError):
        lat.twist_pair(3)


PAIR_READERS = [
    pytest.param(twist_logicals, id="twist_logicals"),
    pytest.param(lambda lat, pair: code_context(lat).x_logical(pair), id="x_logical"),
    pytest.param(lambda lat, pair: diamond_loop(lat, pair, 3), id="diamond_loop"),
    pytest.param(jw.default_path, id="default_path"),
    pytest.param(lambda lat, pair: jw.bracket_parity(lat, jw.default_path(lat), pair),
                 id="bracket_parity"),
]


@pytest.mark.parametrize("reader", PAIR_READERS)
@pytest.mark.parametrize("pair", [-1, 1])
def test_every_pair_reader_refuses_an_unknown_pair(reader, pair):
    # the 14x12 (5,5,8) lattice has one pair; -1 used to wrap to it, and
    # twist_logicals read the identity as its X logical
    lat = build_lattice(14, 12, [(5, 5, 8)])
    with pytest.raises(KeyError, match=f"unknown twist pair {pair}"):
        reader(lat, pair)
    assert not code_context(lat).store.get("x_logical")


def test_lattice_spec_round_trip():
    lat = build_lattice(9, 6, [(1, 2, 6)])
    text = lattice_spec_dumps(lat)
    again = lattice_spec_loads(text)
    assert again.width == lat.width and again.height == lat.height
    assert again.segments == lat.segments
    assert lattice_spec_dumps(again) == text


def test_segment_dataclass_accepted():
    lat = build_lattice(8, 6, [Segment(1, 2, 5)])
    assert lat.segments[0] == Segment(1, 2, 5)
