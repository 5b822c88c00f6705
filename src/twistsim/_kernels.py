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


def int_product_phase(x1: int, z1: int, x2: int, z2: int) -> int:
    """Power of i of the product of two unsigned rows (x1|z1)*(x2|z2), not
    reduced mod 4. With Y = iXZ, the anticommuting sites that multiply as XY,
    YZ or ZX give +i and those that multiply as XZ, YX or ZY give -i: the
    sites where x1^x2^z1^z2^(x1&z2) is set. So it is the anticommuting sites
    less twice the -i ones."""
    a = x1 & z2
    anti = a ^ (z1 & x2)
    return anti.bit_count() - 2 * (anti & (x1 ^ x2 ^ z1 ^ z2 ^ a)).bit_count()


def anticommuting_rows(cx: list[int], cz: list[int], px: int, pz: int) -> int:
    """Bit ``i`` set for each row ``i`` that anticommutes with the Pauli
    (px|pz): a row anticommutes when its clashing sites are odd in number, so
    this is the XOR of the x columns at p's Z sites and the z columns at p's X
    sites."""
    acc = 0
    while pz:
        low = pz & -pz
        pz ^= low
        acc ^= cx[low.bit_length() - 1]
    while px:
        low = px & -px
        px ^= low
        acc ^= cz[low.bit_length() - 1]
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
    place with the outcome bits ``outcome``. ``ones`` has one bit per shot.
    ``set_bits``, ``int_product_phase`` and ``set_row`` are written out."""
    xp, zp, rp = x[pivot], z[pivot], r[pivot]
    others = anti & ~(1 << pivot)
    if others:
        v = others
        while v:
            low = v & -v
            v ^= low
            i = low.bit_length() - 1
            xi, zi = x[i], z[i]
            # the sign flips when int_product_phase(xi, zi, xp, zp) is 2 or 3 mod 4
            a = xi & zp
            clash = a ^ (zi & xp)
            minus = clash & (xi ^ xp ^ zi ^ zp ^ a)
            r[i] ^= rp ^ ones if (clash.bit_count() - 2 * minus.bit_count()) & 2 else rp
            x[i], z[i] = xi ^ xp, zi ^ zp
        for sites, cols in ((xp, cx), (zp, cz)):
            while sites:
                low = sites & -sites
                sites ^= low
                cols[low.bit_length() - 1] ^= others
    # the destabilizer slot takes the pivot's row, the pivot the measured one
    destab = pivot - len(cx)
    for i, new_x, new_z in ((destab, xp, zp), (pivot, px, pz)):
        for rows, cols, new in ((x, cx, new_x), (z, cz, new_z)):
            change, rows[i] = rows[i] ^ new, new
            while change:
                low = change & -change
                change ^= low
                cols[low.bit_length() - 1] ^= 1 << i
    r[destab] = rp
    r[pivot] = outcome ^ ones if pr else outcome
