"""GF(2) eliminator against brute-force enumeration of every row combination.

``rank``, ``solve``, ``outside_span`` and ``solve_symplectic`` share one row
reduction. Each is checked on random integer rows of at most 8 columns against
the span enumerated from all 2^k combinations of the k rows.
``solve_symplectic`` is also pinned to the one solution that is zero on every
free column: the logical operators, frame flips and pinned ground tableaux are
built from that solution.
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from twistsim import _gf2
from twistsim.pauli import PauliString


@st.composite
def matrices(draw, max_rows=8, col_counts=range(1, 9)):
    """(rows, cols): up to ``max_rows`` integer rows of ``cols`` bits."""
    n_rows = draw(st.integers(0, max_rows))
    cols = draw(st.sampled_from(list(col_counts)))
    rows = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=n_rows,
                         max_size=n_rows))
    return rows, cols


def span(rows: list[int]) -> dict[int, tuple]:
    """Every vector in the row span, each with one row selection making it."""
    out = {}
    for sel in product((0, 1), repeat=len(rows)):
        vec = 0
        for bit, row in zip(sel, rows):
            if bit:
                vec ^= row
        out.setdefault(vec, sel)
    return out


def brute_rank(rows: list[int]) -> int:
    return len(span(rows)).bit_length() - 1


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_is_log2_of_span_size(mat):
    rows, _ = mat
    assert _gf2.rank(rows) == brute_rank(rows)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_solve_selects_rows_exactly_when_target_in_span(mat, data):
    rows, cols = mat
    vectors = span(rows)
    target = data.draw(st.integers(0, (1 << cols) - 1))
    for t in (target, data.draw(st.sampled_from(sorted(vectors)))):
        x = _gf2.solve(rows, t)
        assert (x is not None) == (t in vectors)
        assert _gf2.in_span(rows, t) == (x is not None)
        if x is not None:
            assert 0 <= x < 1 << len(rows)
            combo = 0
            for i, row in enumerate(rows):
                if x >> i & 1:
                    combo ^= row
            assert combo == t


@settings(max_examples=150, deadline=None)
@given(matrices(max_rows=5), st.data())
def test_outside_span_keeps_each_candidate_that_grows_the_span(mat, data):
    rows, cols = mat
    candidates = data.draw(st.lists(st.integers(0, (1 << cols) - 1), max_size=4))
    expected = []
    for v in candidates:
        if v not in span(rows + expected):
            expected.append(v)
    assert _gf2.outside_span(rows, candidates) == expected


def pairing(u: int, v: int, n: int) -> int:
    low = (1 << n) - 1
    return ((u & low & v >> n).bit_count() + (u >> n & v & low).bit_count()) % 2


@settings(max_examples=150, deadline=None)
@given(matrices(col_counts=(2, 4, 6, 8)), st.data())
def test_solve_symplectic_meets_pairings_and_is_zero_on_free_columns(mat, data):
    rows, cols = mat
    n = cols // 2
    parities = data.draw(st.lists(st.integers(0, 1), min_size=len(rows),
                                  max_size=len(rows)))
    constraints = list(zip(rows, parities))
    solutions = [r for r in range(1 << cols)
                 if all(pairing(r, v, n) == p for v, p in constraints)]
    # the unknowns pair with J(v): a column of that system is free when it
    # adds nothing to the rank of the columns before it
    swapped = [v >> n | (v & ((1 << n) - 1)) << n for v in rows]

    def prefix_rank(c):
        return brute_rank([v & ((1 << c) - 1) for v in swapped])

    free = sum(1 << c for c in range(cols) if prefix_rank(c + 1) == prefix_rank(c))
    x = _gf2.solve_symplectic(constraints, n)
    assert (x is not None) == bool(solutions)
    if x is None:
        return
    assert 0 <= x < 1 << cols
    assert all(pairing(x, v, n) == p for v, p in constraints)
    assert not x & free
    # fixing the free columns at zero leaves exactly one solution
    assert sum(not s & free for s in solutions) == 1


def test_symplectic_vector_round_trips_and_rejects_off_register_sites():
    p = PauliString.from_dict({0: "X", 2: "Y", 4: "Z"})
    v = _gf2.symplectic_vector(p, 5)
    # x half: sites 0 and 2; z half (bits 5..9): sites 2 and 4
    assert v == 0b1010000101
    assert _gf2.pauli_from_vector(v, 5) == p
    for site in (5, -1):
        with pytest.raises(ValueError):
            _gf2.symplectic_vector(PauliString.single(site, "X"), 5)
