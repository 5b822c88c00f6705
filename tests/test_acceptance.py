"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the live report.
"""

import collections
import time

import numpy as np
import pytest
import scipy.stats

from twistsim import _gf2, _kernels, anyon, dense, jw
from twistsim.anyon import pair_transform
from twistsim.jw import JWPath, MajoranaMode
from twistsim.lattice import (build_lattice, all_plaquette_operators,
                              plaquette_operator, twist_logicals)
from twistsim.mbb import (START_PAIRINGS, AnyonBackend, FockBackend,
                          LatticeBackend, run_cycle,
                          run_forced, run_statistics, verify_braid_equivalence)
from twistsim.pauli import PauliString
from twistsim.projection import (MajoranaCluster, build_majorana_plaquette,
                                 spin_plaquette_matrix, string_dressed_parity)
from twistsim.tableau import (Tableau, diamond_loop, init_ground,
                              measure_parity_direct, measure_parity_hole)


def report(number: int, passed: bool, detail: str, started: float):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number:2d}: {status} ({time.time() - started:.1f}s) {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_jw_structure():
    t0 = time.time()
    lat = build_lattice(8, 6, [(1, 2, 5)])
    path = jw.default_path(lat)
    cls = jw.classify_modes(lat, path)
    twist_sites = {t.twist_site for t in lat.twists}
    ok = len(cls.unpaired) == 2 and {m.site for m in cls.unpaired} == twist_sites
    for p in lat.plaquettes:
        image = jw.jw_map(plaquette_operator(lat, p.id), path)
        ok &= image.weight == 4
        ok &= len({m.kind for m in image.factors}) == 1
        ok &= image.phase.is_real
        ok &= {m.site for m in image.factors} == set(p.ordered_sites[:4])
    report(1, ok, "2 unpaired twist modes; all images are two same-kind pairs", t0)


def test_criterion_2_parity_operator():
    t0 = time.time()
    lat = build_lattice(9, 6, [(1, 2, 6)])
    path = jw.default_path(lat, 0)
    parity = jw.parity_operator(lat, path, 0)
    ops = all_plaquette_operators(lat)
    ok = all(parity.commutes_with(op) for op in ops)
    mat = lat.stabilizer_matrix()
    ok &= not _gf2.in_span(mat, _gf2.symplectic_vector(parity, lat.n_sites))
    reduced = jw.reduce_by_stabilizers(parity, lat)
    letters = reduced.letters()
    rt, ct = lat.site_coords(lat.twists[0].twist_site)
    top = [letters[lat.site_id(rt, c)] for c in range(ct, -1, -1)
           if lat.site_id(rt, c) in letters]
    bottom = [letters[lat.site_id(rt + 1, c)] for c in range(lat.width)
              if lat.site_id(rt + 1, c) in letters]
    ok &= (top + bottom) == ["X", "Y", "Y", "Z", "X", "Z"]
    ok &= reduced.is_hermitian  # the exact sign of a parity is real
    modes = jw.twist_modes(lat, path)
    ok &= jw.jw_map(parity, path) == jw.pair_monomial(modes[0], modes[1], path)
    # the reduction stayed in the operator's stabilizer class, phase included
    sel = _gf2.solve(mat, _gf2.symplectic_vector(parity * reduced, lat.n_sites))
    ok &= sel is not None
    if sel is not None:
        prod = PauliString.identity()
        for k in _kernels.set_bits(sel):
            prod = prod * plaquette_operator(lat, k)
        ok &= prod == parity * reduced
    report(2, ok, "commutant, non-stabilizer, reduced letters X,Y,Y,Z,X,Z", t0)


def test_criterion_3_degeneracy():
    t0 = time.time()
    base = build_lattice(10, 8, []).logical_qubit_count()
    one = build_lattice(10, 8, [(2, 2, 4)]).logical_qubit_count()
    two = build_lattice(10, 8, [(2, 2, 4), (5, 3, 5)]).logical_qubit_count()
    ok = one == base + 1 and two == base + 2
    report(3, ok, f"logical count {base} -> {one} -> {two}", t0)


def test_criterion_4_projection_equivalence():
    t0 = time.time()
    c4 = MajoranaCluster(4)
    square = build_majorana_plaquette(c4, "square", [0, 1, 2, 3])
    ok = np.linalg.norm(
        c4.project_to_spins(square) - spin_plaquette_matrix("square", [0, 1, 2, 3], 4)
    ) < 1e-12
    c5 = MajoranaCluster(5)
    pentagon = build_majorana_plaquette(c5, "pentagon", [0, 1, 2, 3, 4])
    ok &= np.linalg.norm(
        c5.project_to_spins(pentagon)
        - spin_plaquette_matrix("pentagon", [0, 1, 2, 3, 4], 5)
    ) < 1e-12
    # un-strung pair parity is unphysical
    c3 = MajoranaCluster(3)
    bare = 1j * c3.gamma(0, "b") @ c3.gamma(2, "d")
    ok &= not c3.commutes_with_parities(bare)
    # string-dressed form is physical and matches the snake-path parity
    chain = [("ac", 0, 1), ("ac", 1, 2)]
    dressed = string_dressed_parity(c3, (0, 2), chain)
    ok &= c3.commutes_with_parities(dressed)
    path = JWPath((0, 1, 2), {})
    mono = jw.canonicalize([MajoranaMode(2, "b"), MajoranaMode(0, "a")], 1, path)
    expected = dense.pauli_matrix(jw.spin_form(mono, path), [0, 1, 2])
    ok &= np.linalg.norm(c3.project_to_spins(dressed) - expected) < 1e-10
    report(4, ok, "plaquettes project exactly; bare parity rejected, "
                  "dressed parity matches the derived string", t0)


def test_criterion_5_frb_suite():
    t0 = time.time()
    base = ((1, 2), (3, 4))
    published = {
        ("even", ((1, 3), (2, 4))):
            np.exp(1j * np.pi / 8) / np.sqrt(2) * np.array([[1, -1j], [-1j, 1]]),
        ("odd", ((1, 3), (2, 4))):
            np.exp(1j * np.pi / 8) / np.sqrt(2) * np.array([[1, -1j], [-1j, 1]]),
        ("even", ((1, 4), (2, 3))): np.array([[1, 1], [-1j, 1j]]) / np.sqrt(2),
        ("odd", ((1, 4), (2, 3))): np.array([[1j, -1j], [1, 1]]) / np.sqrt(2),
    }
    ok = True
    for (sector, pairing), expected in published.items():
        u = pair_transform(sector, base, pairing)
        ok &= bool(np.allclose(u, expected, atol=1e-12))
        ok &= bool(np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12))
    extra = {
        "even": np.exp(-1j * np.pi / 8) / np.sqrt(2) * np.array([[1, -1], [1, 1]]),
        "odd": np.exp(-1j * np.pi / 8) / np.sqrt(2) * np.array([[1, 1], [-1, 1]]),
    }
    for sector, expected in extra.items():
        u = pair_transform(sector, ((1, 4), (2, 3)), ((1, 3), (2, 4)))
        ok &= bool(np.allclose(u, expected, atol=1e-12))
        direct = pair_transform(sector, base, ((1, 3), (2, 4)))
        composed = u @ pair_transform(sector, base, ((1, 4), (2, 3)))
        ok &= bool(np.allclose(direct, composed, atol=1e-14))
    report(5, ok, "derived transforms equal the published matrices, "
                  "composition exact, all unitary", t0)


def test_criterion_6_mbb_exactness():
    t0 = time.time()
    rng0 = np.random.default_rng(2024)
    ok = True
    checked = 0
    for trial in range(20):
        a, b = rng0.normal(size=2) + 1j * rng0.normal(size=2)
        norm = np.hypot(abs(a), abs(b))
        a, b = a / norm, b / norm
        for branch in range(8):
            f = (branch >> 2 & 1, branch >> 1 & 1, branch & 1)
            bk = FockBackend(4, np.random.default_rng(branch), a, b)
            initial = bk.vector()[0]
            try:
                rec = run_cycle(bk, force=f).shot(0)
            except ValueError:
                continue
            fid = verify_braid_equivalence(initial, bk.vector()[0], rec, bk.space)
            ok &= abs(fid - 1.0) < 1e-10
            checked += 1
        # intermediate amplitudes against the published branch forms
        for n13 in (0, 1):
            reg = AnyonBackend(4, np.random.default_rng(trial), a, b)
            reg.measure((1, 3), force=n13)
            amps = {}
            for k, (sector, total) in enumerate((("even", 0), ("odd", 1))):
                u = anyon.basis_change(4, START_PAIRINGS[4], ((1, 3), (2, 4)),
                                       total)
                for amp, lab in zip(np.conj(u) @ reg.vector()[0, 2 * k:2 * k + 2],
                                    anyon._labels(4, total)):
                    amps[(sector, lab)] = amp
            ph = np.exp(-1j * np.pi / 8)
            if n13 == 0:
                ok &= abs(amps.get(("even", (0, 0)), 0) - ph * a) < 1e-12
                ok &= abs(amps.get(("odd", (0, 1)), 0) - ph * b) < 1e-12
            else:
                ok &= abs(amps.get(("even", (1, 1)), 0) - 1j * ph * a) < 1e-12
                ok &= abs(amps.get(("odd", (1, 0)), 0) - 1j * ph * b) < 1e-12
    report(6, ok and checked >= 8 * 18,
           f"{checked} branch runs at fidelity 1 within 1e-10; "
           "intermediate amplitudes exact", t0)


SHOTS = 10_000


def test_criterion_7_statistics_anyon():
    t0 = time.time()
    ok = True
    details = []
    for n, expected in [(0, 0.0), (1, 0.5), (2, 1.0), (3, 0.5)]:
        res = run_statistics(
            lambda streams: AnyonBackend(6, streams), n,
            SHOTS, seed=42 + n)
        freq = res["flip_frequency"]
        if expected in (0.0, 1.0):
            ok &= freq == expected
        else:
            ok &= abs(freq - expected) <= 3 * np.sqrt(0.25 / SHOTS)
        details.append(f"n={n}:{freq:.4f}")
    report(7, ok, "flip frequencies " + " ".join(details), t0)


def test_criterion_8_statistics_lattice_and_oracle():
    t0 = time.time()
    lat = build_lattice(8, 12, [(2, 2, 4), (5, 2, 4), (8, 2, 4)])
    LatticeBackend(lat, np.random.default_rng(0))  # warm the cached tableau
    ok = True
    details = []
    for n, expected in [(0, 0.0), (1, 0.5), (2, 1.0), (3, 0.5)]:
        res = run_statistics(lambda streams: LatticeBackend(lat, streams), n,
                             SHOTS, seed=77 + n)
        freq = res["flip_frequency"]
        if expected in (0.0, 1.0):
            ok &= freq == expected
        else:
            ok &= abs(freq - expected) <= 3 * np.sqrt(0.25 / SHOTS)
        details.append(f"n={n}:{freq:.4f}")

    # tableau vs dense oracle on a 16-site instance
    small = build_lattice(4, 4, [])
    sites = list(small.sites)
    rng = np.random.default_rng(5)
    for trial in range(25):
        t = Tableau.zero_state(16, np.random.default_rng(trial))
        v = dense.zero_state(16)
        for _ in range(8):
            letters = {int(s): "IXYZ"[rng.integers(4)] for s in sites}
            d = {s: l for s, l in letters.items() if l != "I"}
            if not d:
                continue
            p = PauliString.from_dict(d)
            out = t.measure(p)
            out_v, v = dense.measure_projective(v, p, sites, rng, force=out)
            ok &= out == out_v
            ok &= t.measure(p) == out
    # random-outcome frequency against the exact Born weight
    path = jw.default_path(small)
    cls = jw.classify_modes(small, path)
    bnd = sorted(cls.boundary)
    probe = jw.mode_parity_operator(small, path, bnd[0], bnd[1])
    ground = dense.prepare_ground(small)
    p_plus = float(np.linalg.norm(
        dense.project_eigenvalue(ground, probe, sites, +1)) ** 2)
    base = init_ground(small, seed=0, pinned_pairs=[])
    ups = 0
    for s in range(SHOTS):
        t = base.copy()
        t.rng = np.random.default_rng(s)
        ups += t.measure(probe) == 1
    sigma = np.sqrt(max(p_plus * (1 - p_plus), 1e-6) / SHOTS)
    ok &= abs(ups / SHOTS - p_plus) <= 3 * sigma
    report(8, ok, "lattice flips " + " ".join(details)
           + f"; dense cross-check freq {ups / SHOTS:.4f} vs {p_plus:.4f}", t0)


def test_criterion_9_hole_readout():
    t0 = time.time()
    lat = build_lattice(14, 12, [(5, 5, 8)])
    loop = diamond_loop(lat, 0, 3)
    _, x_logical = twist_logicals(lat, 0)
    base = init_ground(lat, seed=0)
    agree = 0
    shots = 1000
    for seed in range(shots):
        t = base.copy()
        t.rng = np.random.default_rng(seed)
        if seed % 2:
            t.apply_pauli(x_logical)
        t2 = t.copy()
        out_hole, _ = measure_parity_hole(t, 0, loop)
        out_direct = measure_parity_direct(t2, t2.logicals["parity_0_1"]).outcome
        agree += out_hole == out_direct
    ok = agree == shots
    # a loop enclosing no twists always reads +1
    keys = {}
    for p in lat.plaquettes:
        coords = [lat.site_coords(s) for s in p.ordered_sites]
        keys[(min(r for r, _ in coords), min(c for _, c in coords))] = p.id
    trivial = [keys[k] for k in [(3, 10), (2, 11), (1, 10), (2, 9)]]
    for seed in range(100):
        t = base.copy()
        t.rng = np.random.default_rng(10_000 + seed)
        out, _ = measure_parity_hole(t, 0, trivial)
        ok &= out == 1
    report(9, ok, f"hole == direct on {agree}/{shots} shots; trivial loop +1", t0)


def test_criterion_10_forced_vs_fixed_cycle():
    t0 = time.time()
    rng0 = np.random.default_rng(8)
    ok = True
    for trial in range(50):
        a, b = rng0.normal(size=2) + 1j * rng0.normal(size=2)
        bk = FockBackend(4, np.random.default_rng(trial), a, b)
        initial = bk.vector()[0]
        run_forced(bk)
        rotated = bk.space.braid_op(3, 4) @ initial
        ok &= abs(dense.fidelity_up_to_phase(rotated, bk.vector()[0]) - 1) < 1e-10
    # attempt counts fit geometric(1/2)
    attempts = []
    shots = SHOTS
    for s in range(shots // 3):
        bk = FockBackend(4, np.random.default_rng(s), 1.0, 0.0)
        attempts.extend(run_forced(bk).attempts)
    counter = collections.Counter(attempts)
    k_max = 7
    observed = [counter.get(k, 0) for k in range(1, k_max)] + [
        sum(v for k, v in counter.items() if k >= k_max)
    ]
    total = sum(observed)
    expected = [total * 0.5**k for k in range(1, k_max)] + [total * 0.5**(k_max - 1)]
    chi = scipy.stats.chisquare(observed, expected)
    ok &= chi.pvalue > 0.01
    report(10, ok, f"forced = braid at fidelity 1; geometric fit p={chi.pvalue:.3f}",
           t0)
