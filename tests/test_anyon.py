from itertools import combinations

import numpy as np
import pytest

from twistsim.anyon import (FRB, TopoState, _labels, _pairing_with,
                            basis_change, fuse, label_operator,
                            make_state, pair_transform, transform_state)
from twistsim.dense import FockSpace
from twistsim.mbb import AnyonBackend, ShotStreams, _fock_vector, parity_sign_for

BASE = ((1, 2), (3, 4))

PUBLISHED = {
    ("even", ((1, 3), (2, 4))):
        np.exp(1j * np.pi / 8) / np.sqrt(2) * np.array([[1, -1j], [-1j, 1]]),
    ("odd", ((1, 3), (2, 4))):
        np.exp(1j * np.pi / 8) / np.sqrt(2) * np.array([[1, -1j], [-1j, 1]]),
    ("even", ((1, 4), (2, 3))):
        np.array([[1, 1], [-1j, 1j]]) / np.sqrt(2),
    ("odd", ((1, 4), (2, 3))):
        np.array([[1j, -1j], [1, 1]]) / np.sqrt(2),
}

PUBLISHED_14_TO_13 = {
    "even": np.exp(-1j * np.pi / 8) / np.sqrt(2) * np.array([[1, -1], [1, 1]]),
    "odd": np.exp(-1j * np.pi / 8) / np.sqrt(2) * np.array([[1, 1], [-1, 1]]),
}


def test_fusion_rules():
    assert fuse("sigma", "sigma") == {"I", "psi"}
    assert fuse("I", "psi") == {"psi"}
    assert fuse("psi", "psi") == {"I"}
    assert fuse("sigma", "psi") == {"sigma"}
    with pytest.raises(ValueError):
        fuse("sigma", "tau")


def test_frb_data():
    f, r, b = FRB.f_sigma, FRB.r_sigma, FRB.b_sigma
    for m in (f, r, b):
        assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-12)
    assert np.allclose(b, np.linalg.inv(f) @ r @ f, atol=1e-12)
    assert np.allclose(
        b, np.exp(1j * np.pi / 8) / np.sqrt(2) * np.array([[1, -1j], [-1j, 1]]),
        atol=1e-12,
    )
    assert FRB.f_scalar("psi", "sigma", "psi", "sigma") == -1
    assert FRB.f_scalar("sigma", "psi", "sigma", "psi") == -1
    assert FRB.f_scalar("I", "psi", "sigma", "sigma") == 1


def test_pair_transforms_match_published_matrices():
    for (sector, pairing), expected in PUBLISHED.items():
        u = pair_transform(sector, BASE, pairing)
        assert np.allclose(u, expected, atol=1e-12), (sector, pairing)
    for sector, expected in PUBLISHED_14_TO_13.items():
        u = pair_transform(sector, ((1, 4), (2, 3)), ((1, 3), (2, 4)))
        assert np.allclose(u, expected, atol=1e-12)


def test_identity_transform():
    for sector in ("even", "odd"):
        assert np.allclose(pair_transform(sector, BASE, BASE), np.eye(2))


def test_composition_consistency():
    for sector in ("even", "odd"):
        direct = pair_transform(sector, BASE, ((1, 3), (2, 4)))
        via_14 = pair_transform(sector, ((1, 4), (2, 3)), ((1, 3), (2, 4))) \
            @ pair_transform(sector, BASE, ((1, 4), (2, 3)))
        assert np.allclose(direct, via_14, atol=1e-12)


def test_all_transforms_unitary():
    pairings = [BASE, ((1, 3), (2, 4)), ((1, 4), (2, 3))]
    for sector in ("even", "odd"):
        for a in pairings:
            for b in pairings:
                u = pair_transform(sector, a, b)
                assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_transform_round_trip_preserves_state():
    rng = np.random.default_rng(3)
    for sector in ("even", "odd"):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps /= np.linalg.norm(amps)
        st = TopoState(4, BASE, sector, tuple(amps))
        there = transform_state(st, ((1, 3), (2, 4)))
        back = transform_state(there, BASE)
        assert np.allclose(back.amps, st.amps, atol=1e-12)
        assert abs(np.linalg.norm(there.amps) - 1) < 1e-12


def _label(state, pair):
    """``pair``'s label operator L on the state's amplitudes: +1 on label 1,
    -1 on label 0."""
    return label_operator(state.n_anyons, state.pairing, tuple(pair), state.total)


def _projected(state, pair, label):
    """The state's amplitudes projected on ``pair``'s ``label`` by
    (1 -+ L)/2, not normalized: their squared norm is the label's
    probability."""
    amps = np.asarray(state.amps, dtype=np.complex128)
    return (amps + (2 * label - 1) * (_label(state, pair) @ amps)) / 2


def _post_state(state, pair, label):
    """``(probability, post-measurement state)`` of ``label``, the state kept
    in its pairing."""
    amps = _projected(state, pair, label)
    prob = np.vdot(amps, amps).real
    return prob, TopoState(state.n_anyons, state.pairing, state.sector,
                           tuple(amps / np.sqrt(prob)))


def _flipped(state, pair):
    """The state after i*g_a*g_b: sign (2n-1) on the pair's fusion label."""
    amps = _label(state, pair) @ np.asarray(state.amps, dtype=np.complex128)
    return TopoState(state.n_anyons, state.pairing, state.sector, tuple(amps))


def test_measure_pair_definite_label():
    st = make_state(BASE, "even", {(0, 0): 1.0})
    prob, post = _post_state(st, (1, 2), 0)
    assert prob == pytest.approx(1.0)
    assert post.amplitude((0, 0)) == pytest.approx(1.0)


def test_measure_pair_equal_split_after_transform():
    # the vacuum state in one pairing splits evenly in a crossed pairing
    st = make_state(BASE, "even", {(0, 0): 1.0})
    assert _post_state(st, (1, 3), 1)[0] == pytest.approx(0.5)
    # the four-anyon backend starts (alpha=1, beta=0) in the same vacuum
    shots = 2000
    labels, probs = AnyonBackend(4, ShotStreams(0, 0, shots)).measure((1, 3))
    assert probs == pytest.approx(np.full(shots, 0.5))
    counts = int(labels.sum())
    sigma = np.sqrt(0.25 / shots)
    assert abs(counts / shots - 0.5) <= 3 * sigma


def test_measured_branch_state_matches_published_form():
    # vacuum ancilla pair: the label-0 branch of the crossed measurement
    # keeps the spectator amplitudes with the published global phase
    st = make_state(BASE, "even", {(0, 0): 1.0})
    moved = transform_state(st, ((1, 3), (2, 4)))
    expected = np.exp(-1j * np.pi / 8) / np.sqrt(2) * np.array([1, 1j])
    assert np.allclose(moved.amps, expected, atol=1e-12)
    prob, post = _post_state(moved, (1, 3), 0)
    assert prob == pytest.approx(0.5)
    assert np.allclose(
        post.amps, [np.exp(-1j * np.pi / 8) / abs(np.exp(-1j * np.pi / 8)), 0],
        atol=1e-12,
    )


def test_zero_probability_forced_label():
    st = make_state(BASE, "even", {(0, 0): 1.0})
    assert np.linalg.norm(_projected(st, (1, 2), 1)) == pytest.approx(0, abs=1e-12)
    # the backend's four-anyon start is that vacuum: forcing label 1 is refused
    with pytest.raises(ValueError):
        AnyonBackend(4, np.random.default_rng(0)).measure((1, 2), force=1)


def _forced_probability(state, pair, label):
    """Probability of ``label``, |<state|post>|^2; the post-measurement state
    has that label for certain."""
    _, post = _post_state(state, pair, label)
    assert _post_state(post, pair, label)[0] == pytest.approx(1.0, abs=1e-12)
    return abs(np.vdot(state.amps, post.amps)) ** 2


def _vacuum_sign(pair, n, sector, space):
    """Sign of i*g_a*g_b on label 0 of ``pair`` in the pairing that holds it
    first, derived like ``parity_sign_for`` but in either sector."""
    total = 0 if sector == "even" else 1
    label = next(lab for lab in _labels(n, total) if lab[0] == 0)
    vec = _fock_vector(make_state(_pairing_with(pair, n), sector, {label: 1.0}))
    return round(np.vdot(vec, space.parity_op(*pair) @ vec).real)


@pytest.mark.parametrize("pairings", [
    [BASE, ((1, 3), (2, 4)), ((1, 4), (2, 3))],
    [((1, 2), (3, 5), (4, 6)), ((1, 2), (3, 4), (5, 6)), ((1, 3), (2, 4), (5, 6))],
])
def test_pair_labels_do_not_depend_on_the_pairing(pairings):
    # a pair's label is a property of the state: every pairing the state is
    # written in gives the Fock probability of i*g_a*g_b at the pair's vacuum
    # sign, and flipping the label commutes with changing the pairing
    n = 2 * len(pairings[0])
    space = FockSpace(n)
    rng = np.random.default_rng(43)
    flipped_in_odd = set()
    for pair in combinations(range(1, n + 1), 2):
        assert _vacuum_sign(pair, n, "even", space) == parity_sign_for(pair, n)
        if _vacuum_sign(pair, n, "odd", space) != parity_sign_for(pair, n):
            flipped_in_odd.add(pair)
    # in the odd sector a pair with one end on anyon 3 or 4 has its label 0
    # at the opposite parity, so ``parity_sign_for`` holds for even states only
    assert flipped_in_odd == {(a, b) for a, b in combinations(range(1, n + 1), 2)
                              if (a in (3, 4)) != (b in (3, 4))}
    for start in pairings:
        for sector in ("even", "odd"):
            for _ in range(3):
                amps = rng.normal(size=n - 2) + 1j * rng.normal(size=n - 2)
                st = TopoState(n, start, sector, tuple(amps / np.linalg.norm(amps)))
                vec = _fock_vector(st)
                for pair in combinations(range(1, n + 1), 2):
                    parity = np.vdot(vec, space.parity_op(*pair) @ vec).real
                    s = _vacuum_sign(pair, n, sector, space)
                    flipped = _flipped(st, pair)
                    for target in pairings:
                        moved = transform_state(st, target)
                        for label in (0, 1):
                            fock = (1 + (1 - 2 * label) * s * parity) / 2
                            assert _forced_probability(moved, pair, label) == \
                                pytest.approx(fock, abs=1e-10), \
                                (start, sector, pair, target)
                        assert np.allclose(
                            transform_state(flipped, target).amps,
                            _flipped(moved, pair).amps, atol=1e-10)


def test_apply_pair_parity_signs():
    st = make_state(BASE, "even", {(0, 0): 0.6, (1, 1): 0.8})
    out = _flipped(st, (3, 4))
    assert out.amplitude((0, 0)) == pytest.approx(-0.6)
    assert out.amplitude((1, 1)) == pytest.approx(0.8)


def test_transforms_match_fock_oracle_up_to_sector_phase():
    rng = np.random.default_rng(11)
    pairings = [BASE, ((1, 3), (2, 4)), ((1, 4), (2, 3))]
    for sector in ("even", "odd"):
        for target in pairings[1:]:
            amps = rng.normal(size=2) + 1j * rng.normal(size=2)
            amps /= np.linalg.norm(amps)
            st = TopoState(4, BASE, sector, tuple(amps))
            moved = transform_state(st, target)
            v1 = _fock_vector(st)
            v2 = _fock_vector(moved)
            fid = abs(np.vdot(v1, v2))
            assert abs(fid - 1.0) < 1e-10  # same physical state, any pairing


def test_six_anyon_subset_transform_matches_four_anyon():
    # transforms acting on anyons 1..4 of six must reduce to the 4-anyon
    # matrices tensored with identity on the spectator labels
    u6 = basis_change(6, ((1, 2), (3, 4), (5, 6)), ((1, 3), (2, 4), (5, 6)), 0)
    u4 = {}
    for sector, total in (("even", 0), ("odd", 1)):
        u4[sector] = basis_change(4, BASE, ((1, 3), (2, 4)), total)
    # chain basis of 6: (c2, c4); spectator pair (5,6) label = c4 ^ total
    basis = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for i, (c2i, c4i) in enumerate(basis):
        for j, (c2j, c4j) in enumerate(basis):
            expected = 0.0
            if c4i == c4j:
                sector = "even" if c4i == 0 else "odd"
                expected = u4[sector][c2i, c2j]
            assert abs(u6[i, j] - expected) < 1e-10, (i, j)


def test_six_anyon_transform_against_fock():
    rng = np.random.default_rng(2)
    start = ((1, 2), (3, 5), (4, 6))
    target = ((1, 3), (2, 4), (5, 6))
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    st = TopoState(6, start, "even", tuple(amps))
    moved = transform_state(st, target)
    v1 = _fock_vector(st)
    v2 = _fock_vector(moved)
    assert abs(abs(np.vdot(v1, v2)) - 1.0) < 1e-10


def test_state_validation():
    with pytest.raises(ValueError):
        TopoState(4, BASE, "even", (1.0, 1.0))  # not normalized
    with pytest.raises(ValueError):
        TopoState(5, BASE, "even", (1.0, 0.0))
    with pytest.raises(ValueError):
        TopoState(4, BASE, "mixed", (1.0, 0.0))


def _pairings(anyons):
    if not anyons:
        yield ()
        return
    first, rest = anyons[0], anyons[1:]
    for partner in rest:
        others = [x for x in rest if x != partner]
        for tail in _pairings(others):
            yield ((first, partner),) + tail


@pytest.mark.parametrize("n_anyons", [4, 6])
def test_every_fusion_basis_state_is_a_fock_parity_eigenstate(n_anyons):
    # each basis state of each pairing, in both sectors, must map to a joint
    # eigenstate of the pairing's Majorana parities i*g_a*g_b
    space = FockSpace(n_anyons)
    for pairing in _pairings(list(range(1, n_anyons + 1))):
        for sector in ("even", "odd"):
            total = 0 if sector == "even" else 1
            for label in _labels(n_anyons, total):
                vec = _fock_vector(make_state(pairing, sector, {label: 1.0}))
                for pair in pairing:
                    parity = np.vdot(vec, space.parity_op(*pair) @ vec).real
                    assert abs(abs(parity) - 1.0) < 1e-9, (pairing, label, pair)
