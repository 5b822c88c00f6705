import numpy as np
import pytest

from twistsim import dense, jw
from twistsim.dense import (DegenerateStateError, FockSpace, apply_pauli,
                            fidelity_up_to_phase, measure_projective,
                            pauli_matrix, prepare_ground, zero_state)
from twistsim.lattice import build_lattice, all_plaquette_operators
from twistsim.pauli import PauliString

rng = np.random.default_rng(99)


def test_apply_pauli_matches_matrix():
    sites = [0, 1, 2, 3]
    for _ in range(60):
        letters = {s: "IXYZ"[rng.integers(4)] for s in sites}
        p = PauliString.from_dict(
            {s: l for s, l in letters.items() if l != "I"}, int(rng.integers(4))
        )
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        assert np.allclose(apply_pauli(v, p, sites), pauli_matrix(p, sites) @ v)


def test_prepare_ground_plaquette_expectations():
    lat = build_lattice(4, 4, [])
    v = prepare_ground(lat)
    sites = list(lat.sites)
    for op in all_plaquette_operators(lat):
        assert abs(dense.expectation(v, op, sites) - 1.0) < 1e-12
    # deterministic construction
    assert np.allclose(v, prepare_ground(lat))


def test_prepare_ground_size_cap():
    lat = build_lattice(5, 5, [])  # 25 sites
    with pytest.raises(ValueError):
        prepare_ground(lat)


def test_the_smallest_twist_lattice_is_past_the_size_cap():
    # 6x4 with one segment (1, 1, 3) is the smallest lattice that hosts a
    # twist pair, so the dense ground only ever sees twist-free lattices
    lat = build_lattice(6, 4, [(1, 1, 3)])
    assert (lat.n_sites, lat.n_pairs) == (24, 1)
    with pytest.raises(ValueError, match="capped at 20 sites, got 24"):
        prepare_ground(lat)


def test_measurement_of_stabilizer_is_deterministic():
    lat = build_lattice(4, 4, [])
    sites = list(lat.sites)
    v = prepare_ground(lat)
    op = all_plaquette_operators(lat)[0]
    out, v2 = measure_projective(v, op, sites, rng)
    assert out == 1
    out2, _ = measure_projective(v2, op, sites, rng)
    assert out2 == 1


def test_measurement_distribution_matches_amplitudes():
    sites = [0, 1]
    v = np.array([np.sqrt(0.7), 0, 0, np.sqrt(0.3)], dtype=complex)
    p = PauliString.single(0, "Z")
    shots = 4000
    local = np.random.default_rng(5)
    ups = sum(measure_projective(v, p, sites, local)[0] == 1 for _ in range(shots))
    sigma = np.sqrt(0.7 * 0.3 / shots)
    assert abs(ups / shots - 0.7) < 3 * sigma + 1e-9


def test_forced_measurement_and_zero_probability():
    sites = [0]
    v = np.array([1.0, 0.0], dtype=complex)
    z = PauliString.single(0, "Z")
    out, _ = measure_projective(v, z, sites, rng, force=1)
    assert out == 1
    with pytest.raises(ValueError):
        measure_projective(v, z, sites, rng, force=-1)
    # a force is ±1, a forced branch 0 or 1: nothing else is read as one
    with pytest.raises(ValueError, match="not ±1"):
        measure_projective(v, z, sites, rng, force=3)
    with pytest.raises(ValueError, match="not 0 or 1"):
        dense.born_branch(np.array([0.5]), lambda: 0.0, force=2)
    assert v.tolist() == [1, 0]


def test_measure_involution_measures_each_row_of_a_batch():
    # each row reads its own uniform and is projected with (1 +- O)/2
    gen = np.random.default_rng(3)
    op = FockSpace(6).parity_op(1, 4)
    plus, minus = (np.eye(8) + op) / 2, (np.eye(8) - op) / 2
    states = gen.normal(size=(6, 8)) + 1j * gen.normal(size=(6, 8))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    u = gen.random(6)
    branch, prob, post = dense.measure_involution(states, states @ op.T,
                                                  lambda: u)
    assert branch.dtype == np.uint8
    for k, row in enumerate(states):
        p_plus = np.linalg.norm(plus @ row) ** 2
        took = int(u[k] < p_plus)
        proj = plus @ row if took else minus @ row
        assert branch[k] == took
        assert prob[k] == pytest.approx(p_plus if took else 1 - p_plus)
        assert np.allclose(post[k], proj / np.linalg.norm(proj))
    # a forced branch applies to every row; one row without it rejects all
    forced, _, _ = dense.measure_involution(states, states @ op.T, None, 1)
    assert forced.tolist() == [1] * 6
    states[2] = minus @ states[2] / np.linalg.norm(minus @ states[2])
    with pytest.raises(dense.InconsistentOutcomeError):
        dense.measure_involution(states, states @ op.T, None, 1)


def _lone_born_rule(v, ov, u, force):
    """Branch, probability and post state of one vector through ``np.vdot``
    and ``np.linalg.norm``, as a lone-vector measurement computes them."""
    plus = v + ov
    plus *= 0.5
    p_plus = float(np.real(np.vdot(plus, plus)))
    branch = int(u < p_plus) if force is None else force
    prob, post = (p_plus, plus) if branch else (1.0 - p_plus, v - plus)
    return branch, prob, post / np.linalg.norm(post)


@pytest.mark.parametrize("n_anyons", [4, 6])
@pytest.mark.parametrize("involution", ["anyon", "fock"])
def test_a_batch_of_one_measures_a_lone_vector_bit_for_bit(involution, n_anyons):
    from itertools import combinations

    from twistsim import mbb
    make = {"anyon": mbb._anyon_involution, "fock": mbb._fock_involution}
    gen = np.random.default_rng(7 * n_anyons)
    branches = set()
    for pair in combinations(range(1, n_anyons + 1), 2):
        op = make[involution](n_anyons, pair)[0]
        for _ in range(25):
            v = gen.normal(size=len(op)) + 1j * gen.normal(size=len(op))
            v /= np.linalg.norm(v)
            ov = v @ op.T
            # the batch layout computes the lone product, bit for bit
            assert np.array_equal((v[None] @ op.T)[0], ov)
            u = gen.random()
            for force in (None, 0, 1):
                want = _lone_born_rule(v, ov, u, force)
                branch, prob, post = dense.measure_involution(
                    v[None], ov[None], lambda: u, force)
                assert branch.shape == prob.shape == (1,)
                assert np.array_equal(branch[0], want[0])
                assert np.array_equal(prob[0], want[1])
                assert np.array_equal(post[0], want[2])
                branches.add(want[0])
    assert branches == {0, 1}


def test_non_hermitian_rejected():
    with pytest.raises(ValueError):
        measure_projective(zero_state(1), PauliString.single(0, "X", 1), [0], rng)


def test_fidelity_examples():
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v = v / np.linalg.norm(v)
    assert abs(fidelity_up_to_phase(v, np.exp(0.73j) * v) - 1.0) < 1e-12
    e0, e1 = np.eye(8)[0].astype(complex), np.eye(8)[1].astype(complex)
    assert fidelity_up_to_phase(e0, e1) == 0.0
    with pytest.raises(ValueError):
        fidelity_up_to_phase(e0, np.zeros(4, dtype=complex))


def test_fock_space_algebra():
    f = FockSpace(6)
    eye = np.eye(f.dim)
    for i in range(1, 7):
        assert np.allclose(f.gamma(i) @ f.gamma(i), eye)
        for j in range(i + 1, 7):
            anti = f.gamma(i) @ f.gamma(j) + f.gamma(j) @ f.gamma(i)
            assert np.linalg.norm(anti) < 1e-12


def kronecker_gammas(n_modes):
    """The chain construction as a Kronecker product: mode 2k (2k+1) is
    Z on the fermions before k, X (Y) on fermion k, I after it."""
    x = np.array([[0, 1], [1, 0]])
    y = np.array([[0, -1j], [1j, 0]])
    z = np.diag([1, -1])
    m = n_modes // 2
    gammas = []
    for k in range(m):
        for own in (x, y):
            mat = np.ones((1, 1))
            for op in [z] * k + [own] + [np.eye(2)] * (m - k - 1):
                mat = np.kron(mat, op)
            gammas.append(mat)
    return gammas


@pytest.mark.parametrize("n_modes", range(2, 13, 2))
def test_fock_gammas_equal_the_kronecker_chain(n_modes):
    gammas = FockSpace(n_modes).gammas
    assert len(gammas) == n_modes
    for k, (mat, want) in enumerate(zip(gammas, kronecker_gammas(n_modes))):
        assert mat.dtype == np.complex128
        assert np.array_equal(mat, want), k


def test_fock_pairing_basis_eigenstates():
    f = FockSpace(4)
    basis = f.pairing_basis([(1, 3), (2, 4)])
    for labels, vec in basis.items():
        assert abs(np.linalg.norm(vec) - 1) < 1e-12
        for k, pair in enumerate([(1, 3), (2, 4)]):
            n = np.real(vec.conj() @ f.number_op(*pair) @ vec)
            assert abs(n - labels[k]) < 1e-12


def test_braid_operator_is_unitary_and_swaps_modes():
    f = FockSpace(4)
    r = f.braid_op(3, 4)
    assert np.allclose(r @ r.conj().T, np.eye(f.dim))
    # conjugation: g3 -> g4, g4 -> -g3
    assert np.allclose(r @ f.gamma(3) @ r.conj().T, f.gamma(4))
    assert np.allclose(r @ f.gamma(4) @ r.conj().T, -f.gamma(3))


def test_ground_state_parity_convention_is_pinned():
    # the twist-pair parity string expectation is pinned to -1 by preparation;
    # the dense cap keeps twisted lattices out of reach, so check the
    # equivalent pinning of an edge-mode pair parity on a twist-free lattice
    lat = build_lattice(4, 4, [])
    sites = list(lat.sites)
    v = prepare_ground(lat)
    path = jw.default_path(lat)
    cls = jw.classify_modes(lat, path)
    bnd = sorted(cls.boundary)[:2]
    parity = jw.mode_parity_operator(lat, path, bnd[0], bnd[1])
    value = dense.expectation(v, parity, sites)
    assert abs(abs(value.real) - 1.0) < 1e-9 or abs(value) < 1e-9
