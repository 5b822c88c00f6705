import itertools

import numpy as np
import pytest

from twistsim import _gf2, _kernels, jw
from twistsim.dense import FockSpace
from twistsim.jw import JWPath, MajoranaMode, canonicalize
from twistsim.lattice import GeometryError, build_lattice, twist_logicals, \
    all_plaquette_operators, plaquette_operator
from twistsim.pauli import PauliString, Phase
from twistsim.tableau import code_context

rng = np.random.default_rng(31)


def random_string(n_sites, phase=True):
    letters = {int(s): "IXYZ"[rng.integers(4)] for s in range(n_sites)}
    letters = {s: l for s, l in letters.items() if l != "I"}
    return PauliString.from_dict(letters, int(rng.integers(4)) if phase else 0)


def test_single_letter_images():
    path = JWPath((0, 1, 2), {})
    y = jw.jw_map(PauliString.single(1, "Y"), path)
    # i b a in canonical (a-first) order is -i a b
    assert y.factors == (MajoranaMode(1, "a"), MajoranaMode(1, "b"))
    assert y.phase.exponent == 3
    x0 = jw.jw_map(PauliString.single(0, "X"), path)
    assert x0.factors == (MajoranaMode(0, "b"),)
    assert x0.phase.exponent == 0


def lattices_and_paths():
    """An untwisted lattice on its default path, and a one-pair lattice on
    its default path with and without the pair's turn-site substitutions."""
    plain = build_lattice(5, 4, [])
    twisted = build_lattice(8, 6, [(1, 2, 5)])
    return [(plain, jw.default_path(plain)), (twisted, jw.default_path(twisted)),
            (twisted, jw.default_path(twisted, 0))]


def test_map_is_exact_group_homomorphism():
    cases = lattices_and_paths()
    assert cases[2][1].substitutions  # the pair path carries turn-site swaps
    for lat, path in cases:
        for _ in range(60):
            p, q = random_string(lat.n_sites), random_string(lat.n_sites)
            mp, mq = jw.jw_map(p, path), jw.jw_map(q, path)
            lhs = mp * mq
            assert lhs == jw.jw_map(p * q, path)
            # the concatenated mode lists, canonicalized afresh
            joined = canonicalize(mp.factors + mq.factors,
                                  mp.phase.exponent + mq.phase.exponent, path)
            assert joined == lhs


def test_spin_form_inverts_the_map():
    lat = build_lattice(5, 4, [])
    cases = [(lat, JWPath(jw.snake_order(5, 4), {3: "x", 4: "z"}))]
    cases += lattices_and_paths()
    for lat, path in cases:
        for _ in range(40):
            p = random_string(lat.n_sites)
            assert jw.spin_form(jw.jw_map(p, path), path) == p
        for p in all_plaquette_operators(lat):
            assert jw.spin_form(jw.jw_map(p, path), path) == p


def test_canonicalization_against_matrices():
    path = JWPath((0, 1, 2), {})
    fock = FockSpace(6)

    def matrix(mode):
        label = 2 * path.positions[mode.site] + (1 if mode.kind == "a" else 2)
        return fock.gamma(label)

    for _ in range(150):
        k = int(rng.integers(0, 7))
        factors = [
            MajoranaMode(int(rng.integers(3)), "ab"[rng.integers(2)])
            for _ in range(k)
        ]
        exponent = int(rng.integers(4))
        mono = canonicalize(factors, exponent, path)
        lhs = (1j) ** exponent * np.eye(8)
        for m in factors:
            lhs = lhs @ matrix(m)
        rhs = mono.phase.value * np.eye(8)
        for m in mono.factors:
            rhs = rhs @ matrix(m)
        assert np.allclose(lhs, rhs)


def test_every_plaquette_maps_to_two_same_kind_pairs():
    lat = build_lattice(8, 6, [(1, 2, 5)])
    path = jw.default_path(lat)
    for p in lat.plaquettes:
        image = jw.jw_map(plaquette_operator(lat, p.id), path)
        assert image.weight == 4
        assert len({m.kind for m in image.factors}) == 1
        assert image.phase.is_real
        corners = set(p.ordered_sites[:4])
        assert {m.site for m in image.factors} == corners


def test_plaquette_kind_alternates_by_face_row():
    lat = build_lattice(6, 6, [])
    path = jw.default_path(lat)
    for p in lat.plaquettes:
        image = jw.jw_map(plaquette_operator(lat, p.id), path)
        row = min(lat.site_coords(s)[0] for s in p.ordered_sites)
        kind = {m.kind for m in image.factors}.pop()
        assert kind == ("b" if row % 2 == 0 else "a")


def test_classification_counts():
    lat0 = build_lattice(6, 4, [])
    cls0 = jw.classify_modes(lat0, jw.default_path(lat0))
    assert cls0.unpaired == frozenset()
    assert len(cls0.boundary) == 2 * lat0.width  # top and bottom edge modes

    lat1 = build_lattice(8, 6, [(1, 2, 5)])
    cls1 = jw.classify_modes(lat1, jw.default_path(lat1))
    assert len(cls1.unpaired) == 2
    assert {m.site for m in cls1.unpaired} == {t.twist_site for t in lat1.twists}

    lat2 = build_lattice(10, 8, [(1, 2, 4), (4, 3, 6)])
    cls2 = jw.classify_modes(lat2, jw.default_path(lat2))
    assert len(cls2.unpaired) == 4


def test_mode_sets_are_disjoint_and_cover():
    lat = build_lattice(8, 6, [(1, 2, 5)])
    cls = jw.classify_modes(lat, jw.default_path(lat))
    everything = cls.paired | cls.unpaired | cls.boundary
    assert len(everything) == 2 * lat.n_sites
    assert not (cls.paired & cls.unpaired)
    assert not (cls.paired & cls.boundary)


def test_unpaired_count_is_path_independent():
    lat = build_lattice(8, 6, [(1, 2, 5)])
    # reversed snake: a different valid ordering of the same sites
    path = JWPath(tuple(reversed(jw.snake_order(8, 6))), {})
    cls = jw.classify_modes(lat, path)
    assert len(cls.unpaired) == 2


def test_adjacent_mode_parity_is_weight_two():
    lat = build_lattice(6, 4, [])
    path = jw.default_path(lat)
    order = path.order
    m1 = MajoranaMode(order[5], "a")
    m2 = MajoranaMode(order[6], "a")
    op = jw.mode_parity_operator(lat, path, m1, m2)
    assert op.weight == 2
    assert sorted(op.letters().values()) == ["X", "Z"]
    assert op.is_hermitian


def test_parity_operator_shape_and_round_trip():
    lat = build_lattice(8, 6, [(1, 2, 5)])
    path = jw.default_path(lat, 0)
    parity = jw.parity_operator(lat, path, 0)
    letters = parity.letters()
    t_top, t_bot = (t.twist_site for t in lat.twists)
    # endpoints carry the two non-string letters, interior carries the string
    # letters (Y except at the two substituted turn sites)
    assert {letters[t_top], letters[t_bot]} == {"X", "Z"}
    interior = [s for s in parity.sites if s not in (t_top, t_bot)]
    substituted = set(path.substitutions)
    for s in interior:
        if s in substituted:
            assert letters[s] in ("X", "Z")
        else:
            assert letters[s] == "Y"
    assert parity.is_hermitian
    # phase-exact round trip back to the bare two-mode parity
    modes = jw.twist_modes(lat, path)
    expected = jw.pair_monomial(modes[0], modes[1], path)
    assert jw.jw_map(parity, path) == expected


def test_parity_commutes_and_is_logical():
    lat = build_lattice(8, 6, [(1, 2, 5)])
    path = jw.default_path(lat, 0)
    parity = jw.parity_operator(lat, path, 0)
    ops = all_plaquette_operators(lat)
    assert all(parity.commutes_with(op) for op in ops)
    assert not _gf2.in_span(lat.stabilizer_matrix(),
                            _gf2.symplectic_vector(parity, lat.n_sites))


def test_reduction_of_a_plaquette_is_identity():
    lat = build_lattice(6, 4, [])
    op = plaquette_operator(lat, 3)
    assert jw.reduce_by_stabilizers(op, lat) == PauliString.identity()


def test_reduced_parity_letter_pattern():
    # four-face segment: the reduced string has the six-letter pattern
    lat = build_lattice(9, 6, [(1, 2, 6)])
    path = jw.default_path(lat, 0)
    parity = jw.parity_operator(lat, path, 0)
    reduced = jw.reduce_by_stabilizers(parity, lat)
    assert reduced.weight == 6
    t_top = lat.twists[0].twist_site
    rt, ct = lat.site_coords(t_top)
    letters = reduced.letters()
    top_run = [letters[lat.site_id(rt, c)]
               for c in range(ct, -1, -1) if lat.site_id(rt, c) in letters]
    bottom_run = [letters[lat.site_id(rt + 1, c)]
                  for c in range(lat.width) if lat.site_id(rt + 1, c) in letters]
    assert top_run + bottom_run == ["X", "Y", "Y", "Z", "X", "Z"]
    assert reduced.phase.is_real  # a parity is Hermitian; its sign is exact
    # reduction preserved the operator class
    assert _gf2.in_span(lat.stabilizer_matrix(),
                        _gf2.symplectic_vector(parity * reduced, lat.n_sites))
    sel = _gf2.solve(lat.stabilizer_matrix(),
                     _gf2.symplectic_vector(parity * reduced, lat.n_sites))
    prod = PauliString.identity()
    for k in _kernels.set_bits(sel):
        prod = prod * plaquette_operator(lat, k)
    assert prod == parity * reduced  # phases included


def test_reduction_never_increases_weight():
    lat = build_lattice(8, 6, [(1, 2, 5)])
    path = jw.default_path(lat, 0)
    parity = jw.parity_operator(lat, path, 0)
    reduced = jw.reduce_by_stabilizers(parity, lat)
    assert reduced.weight <= parity.weight


def test_reduction_requires_commutant():
    lat = build_lattice(6, 4, [])
    with pytest.raises(ValueError):
        jw.reduce_by_stabilizers(PauliString.single(lat.site_id(1, 1), "Z"), lat)
    with pytest.raises(GeometryError):
        jw.reduce_by_stabilizers(PauliString.single(lat.n_sites, "Z"), lat)


def test_off_path_operator_rejected():
    lat = build_lattice(4, 4, [])
    path = jw.default_path(lat)
    with pytest.raises(Exception):
        jw.jw_map(PauliString.single(400, "X"), path)


def test_bracket_parity_is_logical_and_commutes():
    lat = build_lattice(8, 6, [(1, 2, 5)])
    path = jw.default_path(lat)
    bracket = jw.bracket_parity(lat, path, 0)
    for op in all_plaquette_operators(lat):
        assert bracket.commutes_with(op)
    parity = jw.parity_operator(lat, path, 0)
    assert bracket.commutes_with(parity)


# -- stabilizer reduction against a plain loop over every subset --------------


def box_candidates(p, lat):
    """Plaquettes whose sites lie in the bounding box of ``p``'s support."""
    coords = [lat.site_coords(s) for s in p.sites]
    rows = [r for r, _ in coords]
    cols = [c for _, c in coords]
    return [
        op for op in all_plaquette_operators(lat)
        if all(min(rows) <= r <= max(rows) and min(cols) <= c <= max(cols)
               for r, c in (lat.site_coords(s) for s in op.sites))
    ]


def key(q):
    return (q.weight, str(q))


def exhaustive_reference(p, candidates):
    """The least ``key`` among the products of ``p`` with every subset of the
    candidates.

    Subsets are visited in Gray-code order: subset k differs from subset
    k - 1 in the candidate whose index is the number of trailing zeros of k,
    so each step is one exact product. The running product is p times the
    subset's product because the candidates are Hermitian (each squares to
    the identity) and commute pairwise. The visiting order cannot change the
    result because ``key`` is injective (``test_reduction_key_is_injective``):
    equal keys mean equal operators, so the strict minimum is one operator
    in any order."""
    for i, c in enumerate(candidates):
        assert c * c == PauliString.identity()
        assert all(c.commutes_with(d) for d in candidates[i + 1:])
    best = q = p
    for k in range(1, 1 << len(candidates)):
        q = q * candidates[(k & -k).bit_length() - 1]
        # key(q) < key(best), rendering only the strings of equal weight
        if q.weight < best.weight or q.weight == best.weight and str(q) < str(best):
            best = q
    return best


def test_reduction_key_is_injective():
    # str renders the phase and every (site, letter) pair, and from_str
    # inverts it, so two strings with one key are one string
    sample = np.random.default_rng(3)
    sites = [0, 1, 2, 9, 10, 12, 19, 100, 120, 121]
    strings = [PauliString(phase=Phase(k)) for k in range(4)]
    for _ in range(400):
        chosen = sample.choice(sites, size=int(sample.integers(1, 6)), replace=False)
        strings.append(PauliString.from_dict(
            {int(s): "XYZ"[sample.integers(3)] for s in chosen},
            int(sample.integers(4))))
    for q in strings:
        assert PauliString.from_str(str(q)) == q
    assert len({key(q) for q in strings}) == len(set(strings))


def greedy_reference(p, candidates, trail=None):
    """The plain descent: the least key among one-candidate steps while it
    falls. Each step taken is appended to ``trail`` when given."""
    best = p
    while True:
        step = min((best * c for c in candidates), key=key, default=best)
        if key(step) >= key(best):
            return best
        best = step
        if trail is not None:
            trail.append(step)


def commutant_draws(lat, seed, window=(3, 4)):
    """Endless random elements of the plaquette commutant: a free-mode pair
    parity (or the identity) times plaquettes of a random window of
    ``window`` (rows, columns) sites, with a random phase; the identity is
    skipped."""
    rng = np.random.default_rng(seed)
    path = jw.default_path(lat)
    cls = jw.classify_modes(lat, path)
    free = sorted(cls.unpaired | cls.boundary)
    seeds = [PauliString.identity()]
    for i, m1 in enumerate(free):
        for m2 in free[i + 1:]:
            op = jw.mode_parity_operator(lat, path, m1, m2)
            if op.weight <= 6:
                seeds.append(op)
    ops = all_plaquette_operators(lat)
    rows, cols = window
    while True:
        r0 = int(rng.integers(lat.height - rows + 1))
        c0 = int(rng.integers(lat.width - cols + 1))
        inside = [op for op in ops if all(
            r0 <= r < r0 + rows and c0 <= c < c0 + cols
            for r, c in (lat.site_coords(s) for s in op.sites))]
        p = seeds[int(rng.integers(len(seeds)))]
        for op in inside:
            if rng.random() < 0.5:
                p = p * op
        p = PauliString(p.x, p.z, p.phase * Phase(int(rng.integers(4))))
        if p.support:
            yield p


def commutant_samples(lat, count, max_candidates, seed):
    """``count`` commutant draws with at most ``max_candidates`` box
    candidates."""
    draws = (p for p in commutant_draws(lat, seed)
             if len(box_candidates(p, lat)) <= max_candidates)
    return list(itertools.islice(draws, count))


def sized_samples(lat, sizes, seed, window):
    """One commutant draw per entry of ``sizes``, with exactly that many box
    candidates."""
    wanted, out = list(sizes), []
    for p in commutant_draws(lat, seed, window):
        n = len(box_candidates(p, lat))
        if n in wanted:
            wanted.remove(n)
            out.append(p)
            if not wanted:
                return out


@pytest.mark.parametrize("shape", [(8, 6, [(1, 2, 5)]), (6, 5, [])])
def test_reduction_matches_a_loop_over_every_subset(shape):
    lat = build_lattice(*shape)
    samples = commutant_samples(lat, 40, 10, seed=7)
    samples += sized_samples(lat, [8, 8, 9], seed=8, window=(4, 5))
    if shape[2]:
        # every small box, down to the empty one, takes the numpy tables too
        counts = {len(box_candidates(p, lat)) for p in samples}
        assert {0, *range(2, 10)} <= counts
        # the largest exhaustive search, which the 6x5 box cannot hold
        samples += sized_samples(lat, [18], seed=12, window=(4, 7))
    nontrivial = 0
    for p in samples:
        candidates = box_candidates(p, lat)
        expected = exhaustive_reference(p, candidates)
        got = jw.reduce_by_stabilizers(p, lat)
        assert got == expected and str(got) == str(expected)
        nontrivial += expected != p
    assert nontrivial >= 10  # the samples exercise real reductions


@pytest.mark.parametrize("max_exhaustive", [0, 2, 4, 18])
def test_greedy_reduction_matches_a_plain_descent(max_exhaustive, monkeypatch):
    monkeypatch.setattr(jw, "_MAX_EXHAUSTIVE", max_exhaustive)
    lat = build_lattice(8, 6, [(1, 2, 5)])
    samples = commutant_samples(lat, 30, 10, seed=11)
    samples.append(jw.parity_operator(lat, jw.default_path(lat, 0), 0))
    samples.append(jw.bracket_parity(lat, jw.default_path(lat), 0))
    samples += sized_samples(lat, [19], seed=12, window=(4, 7))  # past the default
    cases = [(lat, p) for p in samples]
    if not max_exhaustive:
        # long descents: the mode-pair and bracket strings of a three-pair
        # lattice, as derive and init_ground reduce them
        stats = build_lattice(*STATS_LATTICES["8x12"])
        path = jw.default_path(stats)
        modes = jw.twist_modes(stats, path)
        cases += [(stats, jw.mode_parity_operator(stats, path, modes[a], modes[b]))
                  for a in range(len(modes)) for b in range(a + 1, len(modes))]
        cases += [(stats, jw.bracket_parity(stats, path, k, modes))
                  for k in range(stats.n_pairs)]
    greedy, stats_steps = 0, []
    for on, p in cases:
        candidates = box_candidates(p, on)
        if len(candidates) <= max_exhaustive:
            expected = exhaustive_reference(p, candidates)
        else:
            expected = greedy_reference(p, candidates,
                                        None if on is lat else stats_steps)
            greedy += 1
        got = jw.reduce_by_stabilizers(p, on)
        assert got == expected and str(got) == str(expected)
    assert greedy >= (10 if max_exhaustive < 18 else 1)
    if not max_exhaustive:
        assert len(stats_steps) >= 10


def test_exhaustive_reduction_spans_several_blocks():
    # twist modes 1 and 2 of the default lattice: 14 candidates, so four
    # blocks of 4096 subsets
    lat = build_lattice(8, 12, [(2, 2, 4), (5, 2, 4), (8, 2, 4)])
    path = jw.default_path(lat)
    modes = jw.twist_modes(lat, path)
    p = jw.mode_parity_operator(lat, path, modes[1], modes[2])
    candidates = box_candidates(p, lat)
    assert 12 < len(candidates) <= 18
    assert jw.reduce_by_stabilizers(p, lat) == exhaustive_reference(p, candidates)


STATS_LATTICES = {
    "8x12": (8, 12, [(2, 2, 4), (5, 2, 4), (8, 2, 4)]),
    "10x12": (10, 12, [(2, 2, 5), (5, 3, 6), (8, 2, 5)]),
}


@pytest.mark.parametrize("name", sorted(STATS_LATTICES))
def test_reduction_of_stats_strings_matches_the_references(name, monkeypatch):
    # every mode-pair and bracket string of a stats lattice, as derive and
    # init_ground reduce them, at every phase; an exhaustive bound of 12
    # sends the longer strings down the greedy branch
    monkeypatch.setattr(jw, "_MAX_EXHAUSTIVE", 12)
    lat = build_lattice(*STATS_LATTICES[name])
    path = jw.default_path(lat)
    modes = jw.twist_modes(lat, path)
    strings = [jw.mode_parity_operator(lat, path, modes[a], modes[b])
               for a in range(len(modes)) for b in range(a + 1, len(modes))]
    strings += [jw.bracket_parity(lat, path, k, modes) for k in range(lat.n_pairs)]
    branches = set()
    for raw in strings:
        candidates = box_candidates(raw, lat)
        exhaustive = len(candidates) <= 12
        branches.add(exhaustive)
        for k in range(4):
            p = PauliString(raw.x, raw.z, raw.phase * Phase(k))
            expected = (exhaustive_reference if exhaustive
                        else greedy_reference)(p, candidates)
            got = jw.reduce_by_stabilizers(p, lat)
            assert got == expected and str(got) == str(expected)
    assert branches == {True, False}


MODE_LATTICES = {
    "6x4": (6, 4, [(1, 1, 3)]),
    **STATS_LATTICES,
    "14x12_558": (14, 12, [(5, 5, 8)]),
    "14x12_557": (14, 12, [(5, 5, 7)]),
}


@pytest.mark.parametrize("name", sorted(MODE_LATTICES))
def test_twist_modes_match_the_exact_image_union(name):
    lat = build_lattice(*MODE_LATTICES[name])
    paths = [jw.default_path(lat)]
    paths += [jw.default_path(lat, pair) for pair in range(lat.n_pairs)]
    for path in paths:
        used = frozenset(m for image in jw.plaquette_images(lat, path).values()
                         for m in image.factors)
        modes = {MajoranaMode(s, kind) for s in lat.sites for kind in "ab"}
        free = modes - used
        boundary = frozenset(m for m in free if lat.on_boundary(m.site))
        expected = jw.ModeClassification(used, free - boundary, boundary)
        assert jw.classify_modes(lat, path) == expected
        by_site = {t.twist_site: [m for m in expected.unpaired
                                  if m.site == t.twist_site] for t in lat.twists}
        assert all(len(found) == 1 for found in by_site.values())
        assert jw.twist_modes(lat, path) == [by_site[t.twist_site][0]
                                            for t in lat.twists]


def coset_pairs(name):
    """(raw, reduced) string pairs of a lattice: on the three-pair stats
    lattice every mode-pair and bracket string, reduced here; on a one-pair
    readout lattice the parity and bracket strings that ``init_ground``
    pins and the twist logicals, as the code context reduces them."""
    lat = build_lattice(*MODE_LATTICES[name])
    if lat.n_pairs > 1:
        path = jw.default_path(lat)
        modes = jw.twist_modes(lat, path)
        raws = [jw.mode_parity_operator(lat, path, modes[a], modes[b])
                for a in range(len(modes)) for b in range(a + 1, len(modes))]
        raws += [jw.bracket_parity(lat, path, k, modes) for k in range(lat.n_pairs)]
        return lat, [(raw, jw.reduce_by_stabilizers(raw, lat)) for raw in raws]
    ctx = code_context(lat)
    z, x = twist_logicals(lat, 0)
    n = lat.n_sites
    constraints = [(v, 0) for v in lat.stabilizer_matrix()]
    constraints.append((_gf2.symplectic_vector(z, n), 1))
    raw_x = _gf2.pauli_from_vector(_gf2.solve_symplectic(constraints, n), n)
    return lat, [
        (ctx.raw_parity_string(0, 1), ctx.parity_string(0, 1)),
        (ctx.raw_bracket_string(0), ctx.bracket_string(0)),
        (jw.parity_operator(lat, jw.default_path(lat, 0), 0), z),
        (raw_x, x),
    ]


@pytest.mark.parametrize("name", ["8x12", "14x12_558", "14x12_557"])
def test_reduced_strings_are_the_raw_strings_times_plaquettes(name):
    # independent of the search: the plaquettes that turn each raw string
    # into its reduced form come from a GF(2) solve over the stabilizer
    # rows, and their product is replayed with its exact phase
    lat, pairs = coset_pairs(name)
    rows, ops = lat.stabilizer_matrix(), lat.plaquette_ops
    for raw, reduced in pairs:
        diff = _gf2.symplectic_vector(raw, lat.n_sites) \
            ^ _gf2.symplectic_vector(reduced, lat.n_sites)
        selection = _gf2.solve(rows, diff)
        assert selection is not None
        replayed = raw
        for k in _kernels.set_bits(selection):
            replayed = replayed * ops[k]
        assert replayed == reduced and str(replayed) == str(reduced)
        assert reduced.weight <= raw.weight
    assert any(reduced != raw for raw, reduced in pairs)
