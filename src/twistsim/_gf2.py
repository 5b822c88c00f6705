"""GF(2) linear algebra on Python-integer rows.

A vector is one ``int``, bit ``c`` for column ``c``; a Pauli string on sites
0..n-1 is the symplectic row ``x | z << n`` of its ``PauliString.x`` and
``.z`` rows, the row layout of the tableau (Aaronson–Gottesman,
quant-ph/0406196).

Used for plaquette independence (rank), stabilizer-group membership
(``outside_span``, ``in_span``, ``solve``) and the symplectic solves that
construct logical operators. Sizes here are tiny (hundreds of bits), so plain
Gaussian elimination is plenty.
"""

from __future__ import annotations

from ._kernels import set_bits
from .pauli import PauliString


def symplectic_vector(p: PauliString, n: int) -> int:
    """(x|z) row ``x | z << n`` of a Pauli string on sites 0..n-1."""
    if (p.x | p.z) >> n:
        raise ValueError(f"{p} acts outside sites 0..{n - 1}")
    return p.x | p.z << n


def pauli_from_vector(v: int, n: int) -> PauliString:
    """Pauli string of an (x|z) row on sites 0..n-1."""
    return PauliString(v & ((1 << n) - 1), v >> n)


def _rref(rows: list[int], n_cols: int) -> tuple[list[int], list[int]]:
    """Reduced row-echelon form of a copy of ``rows`` over columns
    0..``n_cols``-1, with its pivot columns; row ``i`` has its leading 1 in
    column ``pivots[i]``. Column ``c`` pivots on the first row at or below the
    current one with a 1 there, and row operations span every column.

    Each column keeps the bitset of the rows with a 1 in it, so a pivot's
    row and the rows it clears are read off that bitset, not found by a scan
    of every row."""
    a = list(rows)
    mask = (1 << n_cols) - 1
    col_rows = [0] * n_cols  # bit i of col_rows[c]: row i has a 1 in column c
    for i, row in enumerate(a):
        for c in set_bits(row & mask):
            col_rows[c] |= 1 << i
    pivots: list[int] = []
    for c in range(n_cols):
        r = len(pivots)
        if r == len(a):
            break
        below = col_rows[c] >> r
        if not below:
            continue
        hit = r + (below & -below).bit_length() - 1
        # the rows to clear: row r, moved to ``hit``, has a 0 in column c
        others = col_rows[c] ^ 1 << hit
        later = c + 1  # the columns still to pivot, the only ones read again
        if hit != r:
            swap = 1 << r | 1 << hit
            for k in set_bits(((a[r] ^ a[hit]) & mask) >> later):
                col_rows[later + k] ^= swap
            a[r], a[hit] = a[hit], a[r]
        pivot = a[r]
        for i in set_bits(others):
            a[i] ^= pivot
        for k in set_bits((pivot & mask) >> later):
            col_rows[later + k] ^= others
        pivots.append(c)
    return a, pivots


def _width(rows: list[int]) -> int:
    return max((row.bit_length() for row in rows), default=0)


def rank(rows: list[int]) -> int:
    """Rank of a list of binary rows over GF(2)."""
    return len(_rref(rows, _width(rows))[1])


def solve(rows: list[int], target: int) -> int | None:
    """Selection ``s`` with XOR of the rows ``i`` at the set bits of ``s``
    equal to ``target``; None if ``target`` is outside the span."""
    cols = _width(rows)
    # reducing [rows | I] records above bit ``cols`` which rows make each row
    red, pivots = _rref([row | 1 << (cols + i) for i, row in enumerate(rows)], cols)
    combo = 0
    for row, c in zip(red, pivots):
        if target >> c & 1:
            combo ^= row
    if combo & ((1 << cols) - 1) != target:
        return None
    return combo >> cols


def outside_span(rows: list[int], candidates: list[int]) -> list[int]:
    """The candidates outside the span of ``rows`` and of the candidates kept
    before them, in order: one reduction of ``rows``, then each candidate
    reduced against the growing pivot set."""
    basis = list(zip(*_rref(rows, _width(rows))))  # (row, its pivot column)
    kept = []
    for v in candidates:
        w = v
        for row, c in basis:  # each row is zero at the pivots before its own
            if w >> c & 1:
                w ^= row
        if w:
            kept.append(v)
            basis.append((w, w.bit_length() - 1))
    return kept


def in_span(rows: list[int], target: int) -> bool:
    return not outside_span(rows, [target])


def solve_symplectic(constraints: list[tuple[int, int]], n_sites: int) -> int | None:
    """Find an (x|z) row with prescribed commutation pairings.

    Each constraint is (row, parity): the result must anticommute with
    ``row`` exactly when ``parity`` is 1. Returns None if the system is
    inconsistent, otherwise the solution that is zero on every free
    (non-pivot) column.
    """
    # the pairing of u with v is u · J(v), J swapping the x and z halves, so
    # this is an ordinary linear solve on [J(v) | parity]
    low = (1 << n_sites) - 1
    width = 2 * n_sites
    red, pivots = _rref(
        [(v >> n_sites | (v & low) << n_sites) | parity << width
         for v, parity in constraints], width)
    if any(row >> width for row in red[len(pivots):]):
        return None
    return sum(1 << c for row, c in zip(red, pivots) if row >> width)
