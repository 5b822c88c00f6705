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
    """Indices of the set bits of ``v``, ascending; walked from the highest."""
    out = []
    while v:
        j = v.bit_length() - 1
        out.append(j)
        v ^= 1 << j
    out.reverse()
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
    sites. Like ``random_update`` it walks the set bits from the highest
    down, one ``bit_length`` per bit."""
    acc = 0
    while pz:
        j = pz.bit_length() - 1
        pz ^= 1 << j
        acc ^= cx[j]
    while px:
        j = px.bit_length() - 1
        px ^= 1 << j
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
    place with the outcome bits ``outcome``. ``ones`` has one bit per shot.
    ``set_bits`` and ``int_product_phase`` are written out, and the set bits
    are walked from the highest down: each row and column is XORed once, so
    the order does not matter."""
    xp, zp, rp = x[pivot], z[pivot], r[pivot]
    destab = pivot - len(cx)
    xd, zd = x[destab], z[destab]
    dbit, pbit = 1 << destab, 1 << pivot
    others = anti & ~pbit
    v = others
    if v:
        negated, xzp = rp ^ ones, xp ^ zp
        while v:
            i = v.bit_length() - 1
            v ^= 1 << i
            xi, zi = x[i], z[i]
            # the sign flips when int_product_phase(xi, zi, xp, zp) is 2 or 3
            # mod 4: bit 1 of clash - 2 * minus is bit 1 of clash xor bit 0
            # of minus
            a = xi & zp
            clash = a ^ (zi & xp)
            if (clash.bit_count() >> 1 ^ (clash & (xi ^ zi ^ xzp ^ a)).bit_count()) & 1:
                r[i] ^= negated
            else:
                r[i] ^= rp
            x[i] = xi ^ xp
            z[i] = zi ^ zp
    # One pass over the columns for the whole update: at a site of the pivot
    # row, the other rows take its bit, and the destabilizer slot and the
    # pivot lose their old bit (the pivot's own) and take their new one; at
    # the sites of the slot's old row and of the measured operator, the slot
    # and the pivot flip. The slot's row is read before the loop above, which
    # may have multiplied it by the pivot: then ``others`` holds it and the
    # pivot's sites flip it once, not twice.
    flip = others | dbit | pbit
    for sites, cols, bit in ((xp, cx, flip), (zp, cz, flip), (xd, cx, dbit),
                             (zd, cz, dbit), (px, cx, pbit), (pz, cz, pbit)):
        while sites:
            j = sites.bit_length() - 1
            sites ^= 1 << j
            cols[j] ^= bit
    # the destabilizer slot takes the pivot's row, the pivot the measured one
    x[destab], z[destab], x[pivot], z[pivot] = xp, zp, px, pz
    r[destab] = rp
    r[pivot] = outcome ^ ones if pr else outcome
