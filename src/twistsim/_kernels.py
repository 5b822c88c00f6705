"""Hot inner loops of the tableau simulator, on bit-packed Pauli rows.

Pauli rows are packed into little-endian 64-bit words: bit ``j % 64`` of word
``j // 64`` belongs to qubit ``j``. A row's ``x`` word marks the sites whose
letter is X or Y, its ``z`` word the sites whose letter is Z or Y.

Tableau layout (Aaronson–Gottesman style):
    x, z : uint64 arrays of shape (2n, ceil(n / 64)); rows i < n are
           destabilizers, rows n..2n-1 are stabilizers.
    r    : uint8 array of length 2n; sign bit (0 -> +1, 1 -> -1). The
           measurement update also takes (2n, S) sign columns, one per shot,
           that all share one x/z trajectory (Stim's frame idea).

Product phases are popcounts over the words, so every kernel handles all rows
of a measurement in a few array operations (the layout and the phase formula
follow Stim, arXiv:2103.02202). Commutation reads only the words the Pauli
touches: it XORs each touched word's clashing bits into one accumulator word
per row and takes the parity of that word's popcount, so a single-site Pauli
costs one column of the tableau, not all of it. The stabilizer reduction in
``jw`` holds plaquette rows as Python integers with the same bit order and
multiplies them with the same phase formula (``int_product_phase``).
"""

from __future__ import annotations

import numpy as np

# There is one kernel path; the flag stays for tools that record which path
# ran.
NUMBA_ENABLED = False


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack the 0/1 columns of each row into little-endian 64-bit words."""
    bits = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
    n_words = -(-bits.shape[1] // 64)
    padded = np.zeros((bits.shape[0], 64 * n_words), dtype=np.uint8)
    padded[:, : bits.shape[1]] = bits
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    """0/1 uint8 columns of the first ``n`` bits of each row of words."""
    words = np.ascontiguousarray(np.atleast_2d(words), dtype="<u8")
    return np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")[:, :n]


def _phase_sites(x1, z1, x2, z2):
    """Bits of the sites where the product (x1|z1)*(x2|z2) picks up +i and
    those where it picks up -i; on words or on Python integers alike. With
    Y = iXZ, the sites multiplying as XY, YZ or ZX give +i and those
    multiplying as XZ, YX or ZY give -i."""
    a = x1 & z2
    anti = a ^ (z1 & x2)                       # letters that anticommute
    # of those, XZ, YX and ZY are the sites where x1^x2^z1^z2^(x1&z2) is set
    minus = anti & (x1 ^ x2 ^ z1 ^ z2 ^ a)
    return anti ^ minus, minus


def _product_phase(x1, z1, x2, z2):
    """Power of i (mod 4) of each product (x1|z1)*(x2|z2), words on the last
    axis."""
    plus, minus = _phase_sites(x1, z1, x2, z2)
    return (np.bitwise_count(plus).sum(axis=-1, dtype=np.int64)
            - np.bitwise_count(minus).sum(axis=-1, dtype=np.int64)) % 4


def int_product_phase(x1: int, z1: int, x2: int, z2: int) -> int:
    """``_product_phase`` of one product of rows held as Python integers
    (bit ``j`` is qubit ``j``), not reduced mod 4."""
    plus, minus = _phase_sites(x1, z1, x2, z2)
    return plus.bit_count() - minus.bit_count()


def rowsum_phase(x1, z1, x2, z2):
    """Power of i (mod 4) in the product of two unsigned Pauli rows; on
    stacks of rows, one power per row."""
    # measurement_update calls _product_phase itself, so a profiler hooked on
    # this name sees only the deterministic-branch row sums.
    return _product_phase(x1, z1, x2, z2)


def anticommute_mask(x, z, px, pz):
    """1 for each row that anticommutes with the Pauli (px|pz), else 0; a
    uint8 array of shape ``x.shape[:-1]``.

    A row anticommutes when its clashing sites, ``(x & pz) ^ (z & px)`` over
    all words, are odd in number. The parity of a popcount is that of the XOR
    of the words, so only the words where ``px`` or ``pz`` is nonzero are read,
    each half only when its probe word is nonzero, and the touched words are
    XORed into one word per row before a single popcount."""
    acc = np.zeros(x.shape[:-1], dtype=np.uint64)
    for w, (xw, zw) in enumerate(zip(px.tolist(), pz.tolist())):
        if zw:
            acc ^= x[..., w] & pz[w]
        if xw:
            acc ^= z[..., w] & px[w]
    return np.bitwise_count(acc) & 1


def measurement_update(x, z, r, px, pz, pr, pivot, anti_rows, outcome_bit):
    """CHP update for a random outcome: multiply the pivot stabilizer into
    every other anticommuting row, move it to its destabilizer slot, and put
    the measured operator with the outcome's sign in its place.

    ``r`` may carry a trailing shot axis, (2n, S) sign columns that share
    these x/z rows, with ``outcome_bit`` then one bit per shot."""
    rows = anti_rows[anti_rows != pivot]
    if rows.size:
        xr, zr = x[rows], z[rows]
        phase = _product_phase(xr, zr, x[pivot], z[pivot])
        # rows are Hermitian Paulis; the accumulated phase is always 0 or 2
        flip = (phase >> 1).astype(np.uint8)
        r[rows] ^= r[pivot] ^ flip.reshape(flip.shape + (1,) * (r.ndim - 1))
        x[rows] = xr ^ x[pivot]
        z[rows] = zr ^ z[pivot]
    n = x.shape[0] // 2
    x[pivot - n] = x[pivot]
    z[pivot - n] = z[pivot]
    r[pivot - n] = r[pivot]
    x[pivot] = px
    z[pivot] = pz
    r[pivot] = (pr + outcome_bit) % 2
