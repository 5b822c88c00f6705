"""Small-cluster oracle: the four-Majorana-per-site model and its spin projection.

Each site n carries modes a,b,c,d combined into two fermions,

    psi_alpha = (gamma_a + i gamma_d)/2,    psi_beta = (gamma_c + i gamma_b)/2,

and the physical (spin) sector is the joint +1 eigenspace of the on-site
parities D_n = gamma_a gamma_b gamma_c gamma_d. Projecting link-operator
products to that sector reproduces the spin plaquette operators, which makes
this module an independent consistency check on the lattice conventions and
on the string-dressed pair parity. Every operator here is a product of
Majoranas, held exactly as a signed permutation of the Fock basis
(``SignedPermutation``), not as a dense 4^n x 4^n matrix. Capped at 5 sites
(dimension 4^5).
"""

from __future__ import annotations

import numpy as np

from .dense import pauli_matrix
from .pauli import PauliString

MAX_SITES = 5

_KINDS = ("a", "b", "c", "d")
_POWERS_OF_I = np.array([1, 1j, -1, -1j])
_EXPONENT = {1: 0, 1j: 1, -1: 2, -1j: 3}


class ProjectionError(ValueError):
    """Operator does not act within the even-parity (spin) sector."""


class SignedPermutation:
    """Fock operator with one nonzero entry per column: i**phase[j] in row
    rows[j] of column j. ``==`` is exact; ``z * op`` takes z in {±1, ±1j}."""

    def __init__(self, rows: np.ndarray, phase: np.ndarray):
        self.rows = rows
        self.phase = phase % 4

    def __matmul__(self, other: SignedPermutation) -> SignedPermutation:
        return SignedPermutation(self.rows[other.rows],
                                 self.phase[other.rows] + other.phase)

    def __rmul__(self, scalar) -> SignedPermutation:
        return SignedPermutation(self.rows, self.phase + _EXPONENT[scalar])

    def __eq__(self, other) -> bool:
        return (np.array_equal(self.rows, other.rows)
                and np.array_equal(self.phase, other.phase))

    def dense(self) -> np.ndarray:
        """The matrix itself, for checks on small clusters."""
        return np.eye(len(self.rows))[:, self.rows] * _POWERS_OF_I[self.phase]


class MajoranaCluster:
    """Fock representation of n_sites, four Majorana modes each.

    Fermion mode order is site-major, (alpha_0, beta_0, alpha_1, beta_1, ...),
    with fermion 0 in the top bit of a Fock index, as in ``dense.FockSpace``."""

    def __init__(self, n_sites: int):
        if not (1 <= n_sites <= MAX_SITES):
            raise ValueError(f"cluster supports 1..{MAX_SITES} sites, got {n_sites}")
        self.n_sites = n_sites
        self.dim = 4**n_sites
        # even-parity (spin) sector: per-site basis {|00>, |11>} of the
        # alpha/beta occupations, giving one effective spin per site.
        self._sector = np.array(
            [int("".join(2 * bit for bit in f"{spin:0{n_sites}b}"), 2)
             for spin in range(2**n_sites)])

    def gamma(self, site: int, kind: str) -> SignedPermutation:
        """Z on every fermion before the mode's own, then X (a, c) or Y (d, b)
        on its own: fermion 2*site is (a, d) and 2*site + 1 is (c, b)."""
        if kind not in _KINDS:
            raise ValueError(f"unknown Majorana kind {kind!r}")
        if not 0 <= site < self.n_sites:
            raise ValueError(f"site {site} is outside the {self.n_sites}-site cluster")
        shift = 2 * (self.n_sites - site) - 1 - (kind in "cb")  # the fermion's bit
        index = np.arange(self.dim)
        phase = 2 * np.bitwise_count(index >> (shift + 1))
        if kind in "db":
            phase = phase + 1 + 2 * ((index >> shift) & 1)  # Y|0> = i|1>, Y|1> = -i|0>
        return SignedPermutation(index ^ (1 << shift), phase)

    def site_parity(self, site: int) -> SignedPermutation:
        """D = gamma_a gamma_b gamma_c gamma_d of one site."""
        a, b, c, d = (self.gamma(site, k) for k in _KINDS)
        return a @ b @ c @ d

    def link(self, kind: str, m: int, n: int) -> SignedPermutation:
        """Link operator between neighboring sites: i gamma^x_m gamma^y_n.

        ``kind`` is "ac" (horizontal bonds) or "bd" (vertical bonds).
        """
        if kind not in ("ac", "bd"):
            raise ValueError(f"unknown link kind {kind!r}")
        return 1j * self.gamma(m, kind[0]) @ self.gamma(n, kind[1])

    def commutes_with_parities(self, op: SignedPermutation) -> bool:
        return all(op @ self.site_parity(s) == self.site_parity(s) @ op
                   for s in range(self.n_sites))

    def project_to_spins(self, op: SignedPermutation) -> np.ndarray:
        """Compression of ``op`` to the even-parity sector, in the spin basis."""
        if not self.commutes_with_parities(op):
            raise ProjectionError("operator does not commute with every site parity")
        image = op.rows[self._sector]
        if not np.isin(image, self._sector).all():  # no leak out of the sector
            raise ProjectionError("operator maps out of the even-parity sector")
        return SignedPermutation(np.searchsorted(self._sector, image),
                                 op.phase[self._sector]).dense()


def build_majorana_plaquette(
    cluster: MajoranaCluster, kind: str, sites: list[int]
) -> SignedPermutation:
    """Plaquette operator as a product of link terms around the face.

    Square (sites [s1, s2, s3, s4], cyclic): a vertical bd link s1-s2, a
    horizontal ac link s2-s3, the d-b factor s3-s4, and one c-a factor per
    corner from s4 back to s1. The pentagon's extra corner s5 splits that
    last horizontal edge in two, and the twist site's b/d modes drop out.
    """
    corners = {"square": 4, "pentagon": 5}.get(kind)
    if corners is None:
        raise ValueError(f"unknown plaquette kind {kind!r}")
    if len(sites) != corners:
        raise ValueError(f"{kind} plaquette needs {corners} sites, got {len(sites)}")
    s1, s2, s3, s4 = sites[:4]
    op = (cluster.link("bd", s1, s2) @ cluster.link("ac", s2, s3)
          @ (1j * cluster.gamma(s3, "d") @ cluster.gamma(s4, "b")))
    for m, n in zip(sites[3:], [*sites[4:], s1]):
        op = op @ (1j * cluster.gamma(m, "c") @ cluster.gamma(n, "a"))
    return op


def spin_plaquette_matrix(kind: str, sites: list[int], n_sites: int) -> np.ndarray:
    """The target spin operator: X,Z,X,Z on the cycle corners (plus Y)."""
    letters = ("X", "Z", "X", "Z") if kind == "square" else ("X", "Z", "X", "Z", "Y")
    p = PauliString.from_dict(dict(zip(sites, letters)))
    return pauli_matrix(p, list(range(n_sites)))


def string_dressed_parity(
    cluster: MajoranaCluster,
    endpoints: tuple[int, int],
    chain: list[tuple[str, int, int]],
) -> SignedPermutation:
    """i gamma^b_p gamma^d_q dressed with a product of link operators."""
    p, q = endpoints
    op = 1j * cluster.gamma(p, "b") @ cluster.gamma(q, "d")
    for kind, m, n in chain:
        op = op @ cluster.link(kind, m, n)
    return op


def verify_string_parity(
    cluster: MajoranaCluster,
    endpoints: tuple[int, int],
    chain: list[tuple[str, int, int]],
    expected_spin: np.ndarray,
) -> bool:
    """True iff the dressed parity is physical and projects to ``expected_spin``.

    A non-empty chain must walk link by link from the first endpoint to the
    second; an empty chain is allowed (and yields False for separated
    endpoints because the bare parity is unphysical).
    """
    p, q = endpoints
    current = p
    for _, m, n in chain:
        if m != current:
            raise ValueError("chain links do not form a path from the first endpoint")
        current = n
    if chain and current != q:
        raise ValueError("chain does not terminate at the second endpoint")
    op = string_dressed_parity(cluster, endpoints, chain)
    if not cluster.commutes_with_parities(op):
        return False
    projected = cluster.project_to_spins(op)
    return bool(np.linalg.norm(projected - expected_spin) < 1e-10)


def single_site_flip_constant(cluster: MajoranaCluster, site: int) -> complex:
    """Proportionality constant of project(i gamma_a gamma_b) vs the spin flip.

    Returns c with project(i g_a g_b) = c * X_site. With unit-normalized
    Majoranas |c| = 1; recorded rather than assumed.
    """
    op = 1j * cluster.gamma(site, "a") @ cluster.gamma(site, "b")
    projected = cluster.project_to_spins(op)
    target = pauli_matrix(
        PauliString.single(site, "X"), list(range(cluster.n_sites))
    )
    num = np.trace(target.conj().T @ projected)
    den = np.trace(target.conj().T @ target)
    c = num / den
    if np.linalg.norm(projected - c * target) > 1e-10:
        raise ProjectionError("projection is not proportional to the spin flip")
    return complex(c)
