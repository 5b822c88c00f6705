"""GF(2) eliminator against brute-force enumeration of every row combination.

``rank``, ``solve`` and ``solve_symplectic`` share one row reduction. Each is
checked on random matrices of at most 8 columns against the span enumerated
from all 2^k combinations of the k rows. ``solve_symplectic`` is also pinned
to the one solution that is zero on every free column: the logical operators,
frame flips and pinned ground tableaux are built from that solution.
"""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twistsim import _gf2
from twistsim.pauli import PauliString


@st.composite
def matrices(draw, max_rows=8, col_counts=range(1, 9)):
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.sampled_from(list(col_counts)))
    bits = draw(st.lists(st.integers(0, 1), min_size=rows * cols,
                         max_size=rows * cols))
    return np.array(bits, dtype=np.uint8).reshape(rows, cols)


def span(mat: np.ndarray) -> dict[tuple, tuple]:
    """Every vector in the row span, each with one row selection making it."""
    out = {}
    for sel in product((0, 1), repeat=mat.shape[0]):
        vec = np.array(sel, dtype=np.int64) @ mat % 2
        out.setdefault(tuple(int(b) for b in vec), sel)
    return out


def brute_rank(mat: np.ndarray) -> int:
    return len(span(mat)).bit_length() - 1


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_is_log2_of_span_size(mat):
    assert _gf2.rank(mat) == brute_rank(mat)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_solve_selects_rows_exactly_when_target_in_span(mat, data):
    cols = mat.shape[1]
    vectors = span(mat)
    target = np.array(data.draw(st.lists(st.integers(0, 1), min_size=cols,
                                         max_size=cols)), dtype=np.uint8)
    for t in (target, np.array(data.draw(st.sampled_from(sorted(vectors))),
                               dtype=np.uint8)):
        x = _gf2.solve(mat, t)
        assert (x is not None) == (tuple(int(b) for b in t) in vectors)
        assert _gf2.in_span(mat, t) == (x is not None)
        if x is not None:
            assert x.shape == (mat.shape[0],)
            assert np.array_equal(x.astype(np.int64) @ mat % 2, t)


def pairing(u: np.ndarray, v: np.ndarray) -> int:
    n = len(u) // 2
    return int((u[:n] @ v[n:] + u[n:] @ v[:n]) % 2)


@settings(max_examples=150, deadline=None)
@given(matrices(col_counts=(2, 4, 6, 8)), st.data())
def test_solve_symplectic_meets_pairings_and_is_zero_on_free_columns(mat, data):
    n = mat.shape[1] // 2
    parities = data.draw(st.lists(st.integers(0, 1), min_size=len(mat),
                                  max_size=len(mat)))
    constraints = list(zip(mat, parities))
    solutions = [
        np.array(r, dtype=np.uint8) for r in product((0, 1), repeat=2 * n)
        if all(pairing(np.array(r), v) == p for v, p in constraints)
    ]
    # the unknowns pair with J(v): a column of that system is free when it
    # adds nothing to the rank of the columns before it
    swapped = np.roll(mat, n, axis=1)
    free = [c for c in range(2 * n)
            if brute_rank(swapped[:, :c + 1]) == brute_rank(swapped[:, :c])]
    x = _gf2.solve_symplectic(constraints, n)
    assert (x is not None) == bool(solutions)
    if x is None:
        return
    assert x.shape == (2 * n,)
    assert all(pairing(x, v) == p for v, p in constraints)
    assert not x[free].any()
    # fixing the free columns at zero leaves exactly one solution
    assert sum(not s[free].any() for s in solutions) == 1


def test_symplectic_vector_round_trips_and_rejects_off_register_sites():
    p = PauliString.from_dict({0: "X", 2: "Y", 4: "Z"})
    v = _gf2.symplectic_vector(p, 5)
    assert v.tolist() == [1, 0, 1, 0, 0, 0, 0, 1, 0, 1]
    assert _gf2.pauli_from_vector(v) == p
    for site in (5, -1):
        with pytest.raises(ValueError):
            _gf2.symplectic_vector(PauliString.single(site, "X"), 5)
