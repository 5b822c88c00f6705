"""Small-cluster oracle: the four-Majorana-per-site model and its spin projection.

Each site n carries modes a,b,c,d combined into two fermions,

    psi_alpha = (gamma_a + i gamma_d)/2,    psi_beta = (gamma_c + i gamma_b)/2,

and the physical (spin) sector is the joint +1 eigenspace of the on-site
parities D_n = gamma_a gamma_b gamma_c gamma_d. Projecting link-operator
products to that sector reproduces the spin plaquette operators, which makes
this module an independent consistency check on the lattice conventions and
on the string-dressed pair parity. Capped at 5 sites (dimension 4^5).
"""

from __future__ import annotations

import numpy as np

from .dense import FockSpace, pauli_matrix
from .pauli import PauliString

MAX_SITES = 5
_TOL = 1e-12

_KINDS = ("a", "b", "c", "d")


class ProjectionError(ValueError):
    """Operator does not act within the even-parity (spin) sector."""


class MajoranaCluster:
    """Dense Fock representation of n_sites, four Majorana modes each.

    Fermion mode order is site-major: (alpha_0, beta_0, alpha_1, beta_1, ...).
    """

    def __init__(self, n_sites: int):
        if not (1 <= n_sites <= MAX_SITES):
            raise ValueError(f"cluster supports 1..{MAX_SITES} sites, got {n_sites}")
        self.n_sites = n_sites
        # fermion 2s is (a, d) and fermion 2s+1 is (c, b): modes 4s..4s+3
        self.space = FockSpace(4 * n_sites)
        self.dim = self.space.dim
        self._parities: dict[int, np.ndarray] = {}

        # even-parity (spin) isometry: per-site basis {|00>, |11>} of the
        # alpha/beta occupations, giving one effective spin per site.
        spins = range(2**n_sites)
        fock = [int("".join(2 * bit for bit in f"{spin:0{n_sites}b}"), 2)
                for spin in spins]
        self._isometry = np.zeros((self.dim, len(spins)), dtype=np.complex128)
        self._isometry[fock, spins] = 1.0

    def gamma(self, site: int, kind: str) -> np.ndarray:
        if kind not in _KINDS:
            raise ValueError(f"unknown Majorana kind {kind!r}")
        if not 0 <= site < self.n_sites:
            raise ValueError(f"site {site} is outside the {self.n_sites}-site cluster")
        return self.space.gammas[4 * site + "adcb".index(kind)]

    def site_parity(self, site: int) -> np.ndarray:
        """D = gamma_a gamma_b gamma_c gamma_d of one site, built once."""
        if site not in self._parities:
            a, b, c, d = (self.gamma(site, k) for k in _KINDS)
            self._parities[site] = a @ b @ c @ d
        return self._parities[site]

    def link(self, kind: str, m: int, n: int) -> np.ndarray:
        """Link operator between neighboring sites: i gamma^x_m gamma^y_n.

        ``kind`` is "ac" (horizontal bonds) or "bd" (vertical bonds).
        """
        if kind not in ("ac", "bd"):
            raise ValueError(f"unknown link kind {kind!r}")
        return 1j * self.gamma(m, kind[0]) @ self.gamma(n, kind[1])

    def commutes_with_parities(self, op: np.ndarray) -> bool:
        return all(
            np.linalg.norm(op @ self.site_parity(s) - self.site_parity(s) @ op) < _TOL
            for s in range(self.n_sites)
        )

    def project_to_spins(self, op: np.ndarray) -> np.ndarray:
        """Compression of ``op`` to the even-parity sector, in the spin basis."""
        if not self.commutes_with_parities(op):
            raise ProjectionError("operator does not commute with every site parity")
        v = self._isometry
        inside = v.conj().T @ op @ v
        # the operator must not leak out of the sector
        leak = op @ v - v @ inside
        if np.linalg.norm(leak) > 1e-9:
            raise ProjectionError("operator maps out of the even-parity sector")
        return inside


def build_majorana_plaquette(
    cluster: MajoranaCluster, kind: str, sites: list[int]
) -> np.ndarray:
    """Plaquette operator as a product of link terms around the face.

    Square (sites [s1, s2, s3, s4], cyclic): two vertical bd links and two
    horizontal ac links. Pentagon (5 sites): the extra corner splits one
    horizontal edge in two and the twist site's b/d modes drop out entirely.
    """
    c = cluster
    if kind == "square":
        if len(sites) != 4:
            raise ValueError(f"square plaquette needs 4 sites, got {len(sites)}")
        s1, s2, s3, s4 = sites
        return (
            c.link("bd", s1, s2)
            @ c.link("ac", s2, s3)
            @ (1j * c.gamma(s3, "d") @ c.gamma(s4, "b"))
            @ (1j * c.gamma(s4, "c") @ c.gamma(s1, "a"))
        )
    if kind == "pentagon":
        if len(sites) != 5:
            raise ValueError(f"pentagon plaquette needs 5 sites, got {len(sites)}")
        s1, s2, s3, s4, s5 = sites
        return (
            c.link("bd", s1, s2)
            @ c.link("ac", s2, s3)
            @ (1j * c.gamma(s3, "d") @ c.gamma(s4, "b"))
            @ (1j * c.gamma(s4, "c") @ c.gamma(s5, "a"))
            @ (1j * c.gamma(s5, "c") @ c.gamma(s1, "a"))
        )
    raise ValueError(f"unknown plaquette kind {kind!r}")


def spin_plaquette_matrix(kind: str, sites: list[int], n_sites: int) -> np.ndarray:
    """The target spin operator: X,Z,X,Z on the cycle corners (plus Y)."""
    letters = ("X", "Z", "X", "Z") if kind == "square" else ("X", "Z", "X", "Z", "Y")
    p = PauliString.from_dict(dict(zip(sites, letters)))
    return pauli_matrix(p, list(range(n_sites)))


def string_dressed_parity(
    cluster: MajoranaCluster,
    endpoints: tuple[int, int],
    chain: list[tuple[str, int, int]],
) -> np.ndarray:
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
