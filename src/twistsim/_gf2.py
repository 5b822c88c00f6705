"""GF(2) linear algebra on dense uint8 bit matrices.

Used for plaquette independence (rank), stabilizer-group membership and the
symplectic solves that construct logical operators. Sizes here are tiny
(hundreds of bits), so plain Gaussian elimination is plenty.
"""

from __future__ import annotations

import numpy as np

from .pauli import PauliString


def symplectic_vector(p: PauliString, n: int) -> np.ndarray:
    """(x|z) bit vector of a Pauli string on sites 0..n-1."""
    if p.support and not 0 <= p.support[0][0] <= p.support[-1][0] < n:
        raise ValueError(f"{p} acts outside sites 0..{n - 1}")
    v = np.zeros(2 * n, dtype=np.uint8)
    for site, letter in p.support:
        v[site], v[n + site] = letter != "Z", letter != "X"
    return v


def pauli_from_vector(v: np.ndarray) -> PauliString:
    """Pauli string of an (x|z) bit vector on sites 0..len(v)/2-1."""
    n = len(v) // 2
    codes = v[:n] + 2 * v[n:]
    return PauliString.from_dict(
        {int(s): "IXZY"[codes[s]] for s in np.flatnonzero(codes)})


def _rref(mat: np.ndarray, n_cols: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form of a copy of ``mat`` over its first ``n_cols``
    columns, with its pivot columns; row ``i`` has its leading 1 in column
    ``pivots[i]``. Column ``c`` pivots on the first row at or below the
    current one with a 1 there, and row operations span every column."""
    a = np.array(mat, dtype=np.uint8) % 2
    pivots: list[int] = []
    for c in range(n_cols):
        r = len(pivots)
        if r == a.shape[0]:
            break
        hits = np.flatnonzero(a[r:, c])
        if not hits.size:
            continue
        a[[r, r + hits[0]]] = a[[r + hits[0], r]]
        mask = a[:, c] == 1
        mask[r] = False
        a[mask] ^= a[r]
        pivots.append(c)
    return a, pivots


def rank(mat: np.ndarray) -> int:
    """Rank of a binary matrix over GF(2). ``mat`` is copied, rows x cols."""
    return len(_rref(mat, mat.shape[1])[1])


def solve(mat: np.ndarray, target: np.ndarray) -> np.ndarray | None:
    """Solve x·mat = target over GF(2) (x selects rows). None if insoluble."""
    rows, cols = mat.shape
    # reducing [mat | I] records in the right half which rows make each row
    red, pivots = _rref(np.hstack([mat, np.eye(rows, dtype=np.uint8)]), cols)
    t = np.array(target, dtype=np.uint8) % 2
    combo = np.bitwise_xor.reduce(red[:len(pivots)][t[pivots] == 1], axis=0)
    if (combo[:cols] != t).any():
        return None
    return combo[cols:]


def in_span(mat: np.ndarray, target: np.ndarray) -> bool:
    return solve(mat, target) is not None


def solve_symplectic(
    constraints: list[tuple[np.ndarray, int]], n_sites: int
) -> np.ndarray | None:
    """Find a (x|z) vector with prescribed commutation pairings.

    Each constraint is (vector, parity): the result must anticommute with
    ``vector`` exactly when ``parity`` is 1. Returns None if the system is
    inconsistent, otherwise the solution that is zero on every free
    (non-pivot) column.
    """
    # the pairing of r with v is r · J(v), J swapping the x and z halves, so
    # this is an ordinary linear solve on [J(v) | parity]
    vecs = np.array([v for v, _ in constraints], dtype=np.uint8)
    parities = np.array([p for _, p in constraints], dtype=np.uint8)
    aug = np.hstack([np.roll(vecs.reshape(-1, 2 * n_sites), n_sites, axis=1),
                     parities.reshape(-1, 1)])
    red, pivots = _rref(aug, 2 * n_sites)
    if red[len(pivots):, -1].any():
        return None
    x = np.zeros(2 * n_sites, dtype=np.uint8)
    x[pivots] = red[:len(pivots), -1]
    return x
