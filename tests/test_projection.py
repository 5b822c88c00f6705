import itertools

import numpy as np
import pytest

from twistsim import jw
from twistsim.dense import FockSpace, pauli_matrix
from twistsim.jw import JWPath, MajoranaMode
from twistsim.pauli import PauliString
from twistsim.projection import (MajoranaCluster, ProjectionError,
                                 build_majorana_plaquette,
                                 single_site_flip_constant,
                                 spin_plaquette_matrix, string_dressed_parity,
                                 verify_string_parity)

TOL = 1e-12


def test_square_plaquette_is_hermitian_involution():
    c = MajoranaCluster(4)
    a = build_majorana_plaquette(c, "square", [0, 1, 2, 3]).dense()
    assert np.linalg.norm(a - a.conj().T) < TOL
    assert np.linalg.norm(a @ a - np.eye(c.dim)) < TOL


def test_square_projects_to_spin_plaquette():
    c = MajoranaCluster(4)
    a = build_majorana_plaquette(c, "square", [0, 1, 2, 3])
    s = c.project_to_spins(a)
    assert np.linalg.norm(s - spin_plaquette_matrix("square", [0, 1, 2, 3], 4)) < TOL


def test_pentagon_projects_and_omits_twist_mode():
    c = MajoranaCluster(5)
    a = build_majorana_plaquette(c, "pentagon", [0, 1, 2, 3, 4])
    s = c.project_to_spins(a)
    assert np.linalg.norm(s - spin_plaquette_matrix("pentagon", list(range(5)), 5)) < TOL
    gb = c.gamma(4, "b")  # the twist site's b mode never enters
    assert a @ gb == gb @ a


@pytest.mark.parametrize("n_sites", [1, 2, 3])
def test_gammas_and_site_parities_match_the_dense_fock_space(n_sites):
    # the cluster's gamma(site, kind) is FockSpace mode 4*site + "adcb".index(kind)
    c, space = MajoranaCluster(n_sites), FockSpace(4 * n_sites)
    for site in range(n_sites):
        dense = {k: space.gammas[4 * site + "adcb".index(k)] for k in "abcd"}
        for kind, mat in dense.items():
            assert np.array_equal(c.gamma(site, kind).dense(), mat)
        assert np.array_equal(c.site_parity(site).dense(),
                              dense["a"] @ dense["b"] @ dense["c"] @ dense["d"])


def test_wrong_arity_rejected():
    c = MajoranaCluster(4)
    with pytest.raises(ValueError):
        build_majorana_plaquette(c, "square", [0, 1, 2])
    with pytest.raises(ValueError):
        build_majorana_plaquette(c, "pentagon", [0, 1, 2, 3])


def test_site_parity_projects_to_identity():
    c = MajoranaCluster(2)
    s = c.project_to_spins(c.site_parity(0))
    assert np.linalg.norm(s - np.eye(4)) < TOL


def test_bare_two_mode_parity_is_unphysical():
    c = MajoranaCluster(3)
    bare = 1j * c.gamma(0, "b") @ c.gamma(2, "d")
    assert not c.commutes_with_parities(bare)
    with pytest.raises(ProjectionError):
        c.project_to_spins(bare)


def test_link_operators_commute_with_plaquette():
    c = MajoranaCluster(4)
    a = build_majorana_plaquette(c, "square", [0, 1, 2, 3])
    # the plaquette's own bonds share two Majorana modes with it
    for kind, m, n in [("bd", 0, 1), ("ac", 1, 2), ("bd", 3, 2), ("ac", 0, 3)]:
        u = c.link(kind, m, n)
        assert a @ u == u @ a


def test_projection_is_an_algebra_homomorphism():
    c = MajoranaCluster(3)
    candidates = [
        c.link("ac", 0, 1), c.link("ac", 1, 2), c.link("bd", 0, 2),
        c.site_parity(1),
        1j * c.gamma(0, "a") @ c.gamma(0, "b"),
    ]
    rng = np.random.default_rng(4)
    for _ in range(20):
        i, j = rng.integers(len(candidates), size=2)
        a, b = candidates[i], candidates[j]
        if not c.commutes_with_parities(a) or not c.commutes_with_parities(b):
            continue
        lhs = c.project_to_spins(a @ b)
        rhs = c.project_to_spins(a) @ c.project_to_spins(b)
        assert np.linalg.norm(lhs - rhs) < 1e-10


def test_single_site_flip_constant_is_unimodular():
    c = MajoranaCluster(1)
    const = single_site_flip_constant(c, 0)
    # with unit-normalized Majorana operators the constant has modulus one,
    # not 1/4; the exact value is recorded here as the convention
    assert abs(abs(const) - 1.0) < TOL
    assert abs(const - (-1.0)) < TOL


def test_two_site_chain_is_physical():
    c = MajoranaCluster(2)
    op = string_dressed_parity(c, (0, 1), [("ac", 0, 1)])
    assert c.commutes_with_parities(op)


def test_straight_chain_matches_jw_parity():
    # dressed parity along a row equals the corresponding snake-path pair
    # parity (its a/b modes at the chain ends), including the overall sign
    for n in (2, 3, 4, 5):
        c = MajoranaCluster(n)
        chain = [("ac", k, k + 1) for k in range(n - 1)]
        op = string_dressed_parity(c, (0, n - 1), chain)
        assert c.commutes_with_parities(op)
        projected = c.project_to_spins(op)
        path = JWPath(tuple(range(n)), {})
        mono = jw.canonicalize(
            [MajoranaMode(n - 1, "b"), MajoranaMode(0, "a")], 1, path
        )
        expected = jw.spin_form(mono, path)
        sign = (-1) ** (n - 1)  # one reordering sign per chain link
        target = sign * pauli_matrix(expected, list(range(n)))
        assert np.linalg.norm(projected - target) < 1e-10


def test_turn_chain_frozen_value():
    # chain with one vertical link: turn sites pick up the face letters
    c = MajoranaCluster(4)
    op = string_dressed_parity(c, (0, 2), [("ac", 0, 1), ("bd", 1, 3), ("ac", 3, 2)])
    projected = c.project_to_spins(op)
    expected = pauli_matrix(
        PauliString.from_dict({0: "X", 1: "Z", 2: "X", 3: "Z"}, 2), [0, 1, 2, 3]
    )
    assert np.linalg.norm(projected - expected) < 1e-10


def test_verify_string_parity_api():
    c = MajoranaCluster(3)
    chain = [("ac", 0, 1), ("ac", 1, 2)]
    path = JWPath((0, 1, 2), {})
    mono = jw.canonicalize([MajoranaMode(2, "b"), MajoranaMode(0, "a")], 1, path)
    expected = pauli_matrix(jw.spin_form(mono, path), [0, 1, 2])
    assert verify_string_parity(c, (0, 2), chain, expected)
    # separated endpoints without a string are unphysical
    assert not verify_string_parity(c, (0, 2), [], expected)
    # malformed chain
    with pytest.raises(ValueError):
        verify_string_parity(c, (0, 2), [("ac", 0, 1), ("ac", 0, 2)], expected)


def test_cluster_size_cap():
    with pytest.raises(ValueError):
        MajoranaCluster(6)
