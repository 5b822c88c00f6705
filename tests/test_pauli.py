import itertools

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from twistsim.dense import pauli_matrix
from twistsim.pauli import PauliString, Phase

rng = np.random.default_rng(20240811)


def random_string(sites, allow_phase=True):
    letters = {s: "IXYZ"[rng.integers(4)] for s in sites}
    letters = {s: l for s, l in letters.items() if l != "I"}
    phase = int(rng.integers(4)) if allow_phase else 0
    return PauliString.from_dict(letters, phase)


def test_single_site_product_convention():
    x1 = PauliString.single(1, "X")
    z1 = PauliString.single(1, "Z")
    assert x1 * z1 == PauliString.from_dict({1: "Y"}, 3)  # X.Z = -i Y
    assert x1 * x1 == PauliString.identity()


def test_two_site_product_against_matrices():
    p = PauliString.from_dict({1: "X", 2: "Z"})
    q = PauliString.from_dict({1: "Z", 2: "X"})
    assert p * q == PauliString.from_dict({1: "Y", 2: "Y"})
    sites = [1, 2]
    assert np.allclose(
        pauli_matrix(p * q, sites), pauli_matrix(p, sites) @ pauli_matrix(q, sites)
    )


def test_commutation_examples():
    assert not PauliString.single(1, "X").commutes_with(PauliString.single(1, "Z"))
    assert PauliString.single(1, "X").commutes_with(PauliString.single(2, "Z"))
    # two face operators sharing two spins with clashing letters commute
    a = PauliString.from_dict({1: "X", 2: "Z", 3: "X", 4: "Z"})
    b = PauliString.from_dict({3: "Z", 4: "X", 5: "X", 6: "Z"})
    assert a.commutes_with(b)


def test_associativity_and_commutation_dichotomy():
    sites = range(5)
    for _ in range(300):
        p, q, r = (random_string(sites) for _ in range(3))
        assert (p * q) * r == p * (q * r)
        pq, qp = p * q, q * p
        if p.commutes_with(q):
            assert pq == qp
        else:
            assert pq == qp.negate()


def test_square_of_any_string_has_empty_support():
    for _ in range(100):
        p = random_string(range(6))
        assert (p * p).support == ()


def test_commutes_matches_dense_commutator_exhaustively():
    sites = [0, 1, 2]
    strings = [
        PauliString.from_dict(
            {s: l for s, l in zip(sites, letters) if l != "I"}
        )
        for letters in itertools.product("IXYZ", repeat=3)
    ]
    mats = {p: pauli_matrix(p, sites) for p in strings}
    for p, q in itertools.combinations(strings, 2):
        dense_commutes = np.allclose(mats[p] @ mats[q], mats[q] @ mats[p])
        assert p.commutes_with(q) == dense_commutes, (p, q)


def test_product_matches_dense_exhaustively_two_sites():
    sites = [0, 1]
    strings = [
        PauliString.from_dict(
            {s: l for s, l in zip(sites, letters) if l != "I"}, phase
        )
        for letters in itertools.product("IXYZ", repeat=2)
        for phase in range(4)
    ]
    for p in strings:
        for q in strings:
            assert np.allclose(
                pauli_matrix(p * q, sites),
                pauli_matrix(p, sites) @ pauli_matrix(q, sites),
            )


def test_phase_group():
    assert Phase(1) * Phase(1) == Phase(2)
    assert (Phase(3) * Phase(3)).value == -1
    assert Phase(2).is_real and not Phase(1).is_real


def test_rendering_and_parsing_round_trip():
    p = PauliString.from_dict({12: "X", 11: "Y", 10: "Y", 9: "Z", 20: "X", 19: "Z"}, 1)
    text = str(p)
    assert text.startswith("i·")
    assert PauliString.from_str(text) == p
    assert str(PauliString.identity()) == "1"
    assert PauliString.from_str("-i·X3") == PauliString.single(3, "X", 3)


@given(x=st.integers(0, 2**140 - 1), z=st.integers(0, 2**140 - 1),
       exponent=st.integers(0, 3))
@example(x=0, z=0, exponent=0)
@example(x=0, z=0, exponent=1)
@example(x=0, z=0, exponent=2)
@example(x=0, z=0, exponent=3)
def test_rendering_reads_the_rows_as_support_does(x, z, exponent):
    p = PauliString.from_bits(x, z, exponent)
    text = str(p)
    assert "support" not in p.__dict__  # rendered from the rows
    body = " ".join(f"{letter}{site}" for site, letter in p.support) or "1"
    assert text == {0: "", 1: "i·", 2: "-", 3: "-i·"}[exponent] + body
    assert PauliString.from_str(text) == p


def test_hermiticity_and_dagger():
    p = PauliString.from_dict({0: "X", 1: "Y"}, 1)
    assert not p.is_hermitian
    assert p.dagger().phase == Phase(3)
    assert PauliString.from_dict({0: "X"}, 2).is_hermitian


def test_bad_letter_rejected():
    with pytest.raises(ValueError):
        PauliString.from_dict({0: "Q"})


def test_negative_site_rejected():
    with pytest.raises(ValueError, match="site -1 is"):
        PauliString.from_dict({2: "X", -1: "Z"})


def test_numpy_integer_sites_make_the_int_keyed_string():
    p = PauliString.from_dict({np.int64(70): "X", np.int32(3): "Y"})
    q = PauliString.from_dict({70: "X", 3: "Y"})
    assert p == q and hash(p) == hash(q)
    assert type(p.x) is int and type(p.z) is int
    assert p.x == 1 << 70 | 1 << 3 and p.z == 1 << 3
    assert str(p) == "Y3 X70"


def test_reading_support_keeps_equality_and_hash():
    p = random_string(range(9))
    q = PauliString.from_bits(p.x, p.z, p.phase.exponent)  # support not yet derived
    assert "support" not in q.__dict__
    before = hash(q)
    assert q.support == p.support
    assert q == p and hash(q) == before == hash(p)


def test_letter_dict_order_does_not_matter():
    letters = {7: "X", 2: "Z", 40: "Y", 0: "X"}
    p = PauliString.from_dict(letters, 1)
    q = PauliString.from_dict(dict(reversed(letters.items())), 1)
    assert p == q and hash(p) == hash(q) and str(p) == str(q)
    assert p.support == ((0, "X"), (2, "Z"), (7, "X"), (40, "Y"))


LETTER_MATRICES = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.array([[1, 0], [0, -1]]),
}


def kron_matrix(p, sites):
    """Dense matrix of ``p`` from the letter matrices above, site order
    ``sites``."""
    mat = np.array([[1j ** p.phase.exponent]])
    for s in sites:
        mat = np.kron(mat, LETTER_MATRICES[p.letter_at(s) or "I"])
    return mat


@pytest.mark.parametrize("n", [3, 4])
def test_random_products_and_commutation_match_kron_matrices(n):
    sites = [0, 5, 64, 130][:n]  # rows of one, two and three 64-bit words
    for _ in range(150):
        p, q = random_string(sites), random_string(sites)
        mp, mq = kron_matrix(p, sites), kron_matrix(q, sites)
        assert np.allclose(kron_matrix(p * q, sites), mp @ mq), (p, q)
        assert p.commutes_with(q) == np.allclose(mp @ mq, mq @ mp), (p, q)
        assert p.weight == sum(p.letter_at(s) is not None for s in sites)
