"""Hot inner loops of the tableau simulator, on Python-integer Pauli rows.

A Pauli row is two Python integers: bit ``j`` of ``x`` marks site ``j`` as X
or Y, bit ``j`` of ``z`` marks it as Z or Y, the layout of
``PauliString.x``/``.z`` and of the stabilizer reduction's rows in ``jw``.

Tableau layout (Aaronson–Gottesman style):
    x, z   : lists of 2n row integers; rows i < n are destabilizers, rows
             n..2n-1 are stabilizers.
    cx, cz : lists of n column integers, the transpose of x and z: bit ``i``
             of ``cx[j]`` is bit ``j`` of ``x[i]``.
    r      : list of 2n sign integers: bit ``s`` of ``r[i]`` is shot ``s``'s
             sign on row ``i`` (0 -> +1, 1 -> -1). The S shots of a batch
             share the x/z rows (Stim's frame idea); a lone tableau is a
             batch of one, each sign 0 or 1.

The tableaux of the twisted code are sparse: a plaquette or a single-site
Pauli touches a handful of columns, and a measurement rewrites a few dozen of
the 2n rows. So commutation is the XOR of the columns at the Pauli's sites (bit
``i`` of the result is row ``i``), and a random measurement rewrites only the
anticommuting rows and the columns at the sites of the rows it changes. Product
phases are popcounts of Python integers (the phase formula follows Stim,
arXiv:2103.02202). On dense tableaux, such as random states of hundreds of
qubits, this is slower per measurement than word arrays would be.
"""

from __future__ import annotations

# There is one kernel path; the flag stays for tools that record which path
# ran.
NUMBA_ENABLED = False


def set_bits(v: int) -> list[int]:
    """Indices of the set bits of ``v``, ascending."""
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out


def _phase_sites(x1, z1, x2, z2):
    """Bits of the sites where the product (x1|z1)*(x2|z2) picks up +i and
    those where it picks up -i. With Y = iXZ, the sites multiplying as XY, YZ
    or ZX give +i and those multiplying as XZ, YX or ZY give -i."""
    a = x1 & z2
    anti = a ^ (z1 & x2)                       # letters that anticommute
    # of those, XZ, YX and ZY are the sites where x1^x2^z1^z2^(x1&z2) is set
    minus = anti & (x1 ^ x2 ^ z1 ^ z2 ^ a)
    return anti ^ minus, minus


def int_product_phase(x1: int, z1: int, x2: int, z2: int) -> int:
    """Power of i of the product of two unsigned rows (x1|z1)*(x2|z2), not
    reduced mod 4."""
    plus, minus = _phase_sites(x1, z1, x2, z2)
    return plus.bit_count() - minus.bit_count()


def anticommuting_rows(cx: list[int], cz: list[int], px: int, pz: int) -> int:
    """Bit ``i`` set for each row ``i`` that anticommutes with the Pauli
    (px|pz): a row anticommutes when its clashing sites are odd in number, so
    this is the XOR of the x columns at p's Z sites and the z columns at p's X
    sites."""
    acc = 0
    for j in set_bits(pz):
        acc ^= cx[j]
    for j in set_bits(px):
        acc ^= cz[j]
    return acc


def set_row(rows: list[int], cols: list[int], i: int, v: int) -> None:
    """Overwrite row ``i`` with ``v`` and flip bit ``i`` of the columns where
    it changes."""
    bit = 1 << i
    for j in set_bits(rows[i] ^ v):
        cols[j] ^= bit
    rows[i] = v


def row_product(x: list[int], z: list[int], rows: list[int]) -> tuple[int, int, int]:
    """(x, z, power of i) of the ordered product of the selected rows."""
    ax = az = exponent = 0
    for i in rows:
        exponent += int_product_phase(ax, az, x[i], z[i])
        ax ^= x[i]
        az ^= z[i]
    return ax, az, exponent


def random_update(x, z, cx, cz, r, ones, anti, pivot, px, pz, pr, outcome):
    """CHP update for a random outcome: multiply the pivot stabilizer into
    every other anticommuting row (``anti``, one bit per row), move it to its
    destabilizer slot, and put the measured operator (sign bit ``pr``) in its
    place with the outcome bits ``outcome``. ``ones`` has one bit per shot."""
    xp, zp, rp = x[pivot], z[pivot], r[pivot]
    others = anti & ~(1 << pivot)
    if others:
        for i in set_bits(others):
            xi, zi = x[i], z[i]
            # the product's sign flips when its power of i is 2 or 3 mod 4
            r[i] ^= rp ^ ones if int_product_phase(xi, zi, xp, zp) & 2 else rp
            x[i] = xi ^ xp
            z[i] = zi ^ zp
        for j in set_bits(xp):
            cx[j] ^= others
        for j in set_bits(zp):
            cz[j] ^= others
    n = len(cx)
    set_row(x, cx, pivot - n, xp)
    set_row(z, cz, pivot - n, zp)
    r[pivot - n] = rp
    set_row(x, cx, pivot, px)
    set_row(z, cz, pivot, pz)
    r[pivot] = outcome ^ ones if pr else outcome
