"""Hot inner loops of the tableau simulator, in numpy.

Tableau layout (Aaronson–Gottesman style):
    x, z : uint8 arrays of shape (2n, n); row i < n are destabilizers,
           rows n..2n-1 are stabilizers.
    r    : uint8 array of length 2n; sign bit (0 -> +1, 1 -> -1).
"""

from __future__ import annotations

import numpy as np

# There is one kernel path; the flag stays for tools that record which path
# ran.
NUMBA_ENABLED = False

# Phase exponent (mod 4) picked up when multiplying single-site Paulis,
# indexed by (x1, z1, x2, z2) packed as x1*8 + z1*4 + x2*2 + z2.
_G_TABLE = np.zeros(16, dtype=np.int8)
_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_PHASE_OF_PRODUCT = {
    ("I", "I"): 0, ("I", "X"): 0, ("I", "Y"): 0, ("I", "Z"): 0,
    ("X", "I"): 0, ("Y", "I"): 0, ("Z", "I"): 0,
    ("X", "X"): 0, ("Y", "Y"): 0, ("Z", "Z"): 0,
    ("X", "Y"): 1, ("Y", "X"): 3, ("Y", "Z"): 1,
    ("Z", "Y"): 3, ("Z", "X"): 1, ("X", "Z"): 3,
}
for (_l1, (_x1, _z1)) in _LETTER_BITS.items():
    for (_l2, (_x2, _z2)) in _LETTER_BITS.items():
        _G_TABLE[_x1 * 8 + _z1 * 4 + _x2 * 2 + _z2] = _PHASE_OF_PRODUCT[(_l1, _l2)]


def _row_phase(x1, z1, x2, z2):
    idx = x1 * 8 + z1 * 4 + x2 * 2 + z2
    return int(_G_TABLE[idx.astype(np.intp)].sum() % 4)


def rowsum_phase(x1, z1, x2, z2):
    """Power of i (mod 4) in the product of two unsigned Pauli rows."""
    # measurement_update calls _row_phase itself, so a profiler hooked on
    # this name sees only the deterministic-branch row sums.
    return _row_phase(x1, z1, x2, z2)


def anticommute_mask(x, z, px, pz):
    """1 for each row that anticommutes with the Pauli (px|pz), else 0."""
    return ((x & pz).sum(axis=1) + (z & px).sum(axis=1)) % 2


def measurement_update(x, z, r, px, pz, pr, pivot, anti_rows, outcome_bit):
    """CHP update for a random outcome: multiply the pivot stabilizer into
    every other anticommuting row, move it to its destabilizer slot, and put
    the measured operator with the outcome's sign in its place."""
    for i in anti_rows:
        if i == pivot:
            continue
        phase = _row_phase(x[i], z[i], x[pivot], z[pivot])
        # rows are Hermitian Paulis; the accumulated phase is always 0 or 2
        r[i] = (r[i] + r[pivot] + phase // 2) % 2
        x[i] ^= x[pivot]
        z[i] ^= z[pivot]
    n = x.shape[1]
    x[pivot - n] = x[pivot]
    z[pivot - n] = z[pivot]
    r[pivot - n] = r[pivot]
    x[pivot] = px
    z[pivot] = pz
    r[pivot] = (pr + outcome_bit) % 2
