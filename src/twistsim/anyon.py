"""Ising anyon algebra: fusion rules, F/R/B data, and pair-basis transforms.

States of 4 or 6 sigma anyons live in the chain basis of intermediate fusion
charges; a pairing basis ((a,b)(c,d)...) is reached from the identity pairing
((1,2)(3,4)...) by a canonical word of adjacent braids, each realized by the
local B-matrix (computed as F^-1 R F at import, never hard-coded). The
published two-by-two transforms are reproduced exactly, global phases
included, and are used as test vectors only.

Label convention: fusion channel I is fermion number 0, psi is 1; amplitude
vectors transform with the conjugate of the basis-vector matrix. A pair's
measured label is read in the pairing that holds it first
(``label_operator``), whatever pairing the state is written in.

The module holds the algebra only and draws no random numbers: fusion labels
are sampled by ``mbb.AnyonBackend``, which measures each pair through its
``label_operator``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iproduct

import numpy as np

_FUSION = {
    ("I", "I"): {"I"}, ("I", "sigma"): {"sigma"}, ("I", "psi"): {"psi"},
    ("sigma", "I"): {"sigma"}, ("psi", "I"): {"psi"},
    ("sigma", "sigma"): {"I", "psi"},
    ("sigma", "psi"): {"sigma"}, ("psi", "sigma"): {"sigma"},
    ("psi", "psi"): {"I"},
}


def fuse(a: str, b: str) -> set[str]:
    """Fusion-rule outcomes of two charges."""
    try:
        return set(_FUSION[(a, b)])
    except KeyError:
        raise ValueError(f"unknown charges {a!r} x {b!r}") from None


class FRBSet:
    """F, R and B matrices of the Ising model in the {I, psi} channel basis."""

    def __init__(self):
        self.f_sigma = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
        self.r_sigma = np.exp(-1j * np.pi / 8) * np.diag([1, 1j]).astype(np.complex128)
        # braids follow from the defining F and R data
        self.b_sigma = np.linalg.inv(self.f_sigma) @ self.r_sigma @ self.f_sigma
        # the only non-unit scalar F entries
        self.f_special = {("psi", "sigma", "psi", "sigma"): -1.0,
                          ("sigma", "psi", "sigma", "psi"): -1.0}

    def f_scalar(self, d: str, a: str, b: str, c: str) -> float:
        """1x1 F entry [F^d_{abc}] for trees with a unique intermediate."""
        if (d, a, b, c) in self.f_special:
            return self.f_special[(d, a, b, c)]
        return 1.0

    def r_phase(self, channel: int) -> complex:
        """Exchange phase of two sigmas fusing into channel 0 (I) or 1 (psi)."""
        return self.r_sigma[channel, channel]


FRB = FRBSet()


@lru_cache(maxsize=None)
def _chain_basis(n_anyons: int) -> list[tuple[int, ...]]:
    """Free intermediate charges (c2, c4, ..., c_{N-2}) as 0/1 tuples."""
    free = n_anyons // 2 - 1
    return [tuple(bits) for bits in iproduct((0, 1), repeat=free)]


@lru_cache(maxsize=None)
def _labels(n_anyons: int, total: int) -> tuple[tuple[int, ...], ...]:
    """Fusion label tuple of each chain-basis entry, pair by pair."""
    out = []
    for b in _chain_basis(n_anyons):
        charges = (0,) + b + (total,)
        out.append(tuple(charges[i] ^ charges[i + 1]
                         for i in range(len(charges) - 1)))
    return tuple(out)


@lru_cache(maxsize=None)
def _braid_matrix(n_anyons: int, j: int, total: int) -> np.ndarray:
    """Basis-vector matrix of braiding adjacent leaves (j, j+1), 1-based."""
    basis = _chain_basis(n_anyons)
    dim = len(basis)
    index = {b: i for i, b in enumerate(basis)}
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for b in basis:
        charges = list(b) + [total]  # c2, c4, ..., cN
        if j == 1:
            mat[index[b], index[b]] = FRB.r_phase(charges[0])
        elif j % 2 == 0:
            # mixes the even charge c_j; neighbours are sigma
            slot = j // 2 - 1
            for new in (0, 1):
                nb = list(b)
                nb[slot] = new
                mat[index[tuple(nb)], index[b]] = FRB.b_sigma[new, b[slot]]
        else:
            # diagonal: R phase of the pair channel between two even charges
            left = charges[(j - 1) // 2 - 1]
            right = charges[(j + 1) // 2 - 1]
            mat[index[b], index[b]] = FRB.r_phase(left ^ right)
    return mat


def _word_for(order: tuple[int, ...]) -> list[int]:
    """Adjacent transpositions (1-based positions) building ``order`` from id."""
    current = list(range(1, len(order) + 1))
    steps = []
    for k, target in enumerate(order):
        pos = current.index(target)
        while pos > k:
            steps.append(pos)  # swap positions (pos, pos+1) 1-based
            current[pos - 1], current[pos] = current[pos], current[pos - 1]
            pos -= 1
    return steps


def _pairing_order(pairing: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    return tuple(x for pair in pairing for x in pair)


@lru_cache(maxsize=None)
def _basis_matrix(
    n_anyons: int, pairing: tuple[tuple[int, int], ...], total: int
) -> np.ndarray:
    """Matrix expressing the pairing basis in the identity-pairing chain basis."""
    order = _pairing_order(pairing)
    if sorted(order) != list(range(1, n_anyons + 1)):
        raise ValueError(f"pairing {pairing} must partition anyons 1..{n_anyons}")
    mat = np.eye(len(_chain_basis(n_anyons)), dtype=np.complex128)
    for j in _word_for(order):
        mat = _braid_matrix(n_anyons, j, total) @ mat  # earliest braid rightmost
    return mat


@lru_cache(maxsize=None)
def basis_change(
    n_anyons: int,
    from_pairing: tuple[tuple[int, int], ...],
    to_pairing: tuple[tuple[int, int], ...],
    total: int,
) -> np.ndarray:
    """Basis-vector transform U with |to_i> = sum_k U[i,k] |from_k>."""
    m_to = _basis_matrix(n_anyons, to_pairing, total)
    m_from = _basis_matrix(n_anyons, from_pairing, total)
    return m_to @ np.linalg.inv(m_from)


def pair_transform(parity: str, from_pairing, to_pairing) -> np.ndarray:
    """Two-by-two pair-basis transform for 4 anyons, exact global phase.

    ``parity`` is "even" or "odd"; rows and columns are ordered by the first
    pair's channel (I then psi).
    """
    total = {"even": 0, "odd": 1}[parity]
    return basis_change(4, _norm_pairing(from_pairing), _norm_pairing(to_pairing),
                        total)


def _norm_pairing(pairing) -> tuple[tuple[int, int], ...]:
    out = tuple(tuple(p) for p in pairing)
    for p in out:
        if len(p) != 2:
            raise ValueError(f"bad pair {p}")
    return out


@dataclass(frozen=True)
class TopoState:
    """Amplitudes of 4 or 6 sigma anyons in a declared pairing and sector.

    Basis entries are indexed by the chain charges (c2[, c4]) of the pairing
    word; label tuples are these chain-basis coordinates, entry j being the
    charge product c_{2j-2} * c_{2j}. A pair's measured label is read in the
    pairing that holds it first, and for a braided slot the two differ: label
    (0, 0) of ((1,3),(2,4)) measures (2,4) as 1. Every operation keeps norm.
    """

    n_anyons: int
    pairing: tuple[tuple[int, int], ...]
    sector: str  # "even" | "odd"
    amps: tuple[complex, ...]

    def __post_init__(self):
        if self.n_anyons not in (4, 6):
            raise ValueError("only 4 or 6 anyons are supported")
        if self.sector not in ("even", "odd"):
            raise ValueError(f"unknown sector {self.sector!r}")
        if len(self.amps) != len(_chain_basis(self.n_anyons)):
            raise ValueError("amplitude vector has the wrong dimension")
        norm = float(np.linalg.norm(self.amps))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm {norm} is not 1")

    @property
    def total(self) -> int:
        return 0 if self.sector == "even" else 1

    def labels(self) -> tuple[tuple[int, ...], ...]:
        """Fusion label tuple of each basis entry, pair by pair."""
        return _labels(self.n_anyons, self.total)

    def amplitude(self, labels: tuple[int, ...]) -> complex:
        return dict(zip(self.labels(), self.amps))[labels]


def make_state(pairing, sector: str, amplitudes_by_label: dict) -> TopoState:
    """Build a state from {chain-basis label tuple (see ``TopoState``):
    amplitude}; normalizes exactly."""
    pairing = _norm_pairing(pairing)
    n = 2 * len(pairing)
    label_list = _labels(n, 0 if sector == "even" else 1)
    vec = np.zeros(len(label_list), dtype=np.complex128)
    for label, amp in amplitudes_by_label.items():
        vec[label_list.index(tuple(label))] = amp
    vec = vec / np.linalg.norm(vec)
    return TopoState(n, pairing, sector, tuple(vec))


def transform_state(state: TopoState, to_pairing) -> TopoState:
    """Re-express the state in another pairing (amplitudes get conj(U))."""
    to_pairing = _norm_pairing(to_pairing)
    u = basis_change(state.n_anyons, state.pairing, to_pairing, state.total)
    new = np.conj(u) @ np.asarray(state.amps, dtype=np.complex128)
    return TopoState(state.n_anyons, to_pairing, state.sector,
                     tuple(new / np.linalg.norm(new)))


def _pairing_with(pair, n_anyons) -> tuple[tuple[int, int], ...]:
    """A deterministic pairing whose first pair is ``pair``."""
    rest = sorted(set(range(1, n_anyons + 1)) - set(pair))
    return (tuple(pair),) + tuple(
        (rest[i], rest[i + 1]) for i in range(0, len(rest), 2)
    )


@lru_cache(maxsize=None)
def label_operator(n_anyons: int, pairing: tuple[tuple[int, int], ...],
                   pair: tuple[int, int], total: int) -> np.ndarray:
    """``pair``'s fusion label on amplitudes in ``pairing`` (read-only): +1 on
    label 1, -1 on label 0. It is read in the pairing that holds the pair
    first, where ``mbb.parity_sign_for`` derives the vacuum signs."""
    home = _pairing_with(pair, n_anyons)
    signs = np.array([1.0 if lab[0] else -1.0 for lab in _labels(n_anyons, total)])
    if pairing == home:
        op = np.diag(signs).astype(np.complex128)
    else:
        # amplitudes in ``home`` are conj(u) @ amplitudes in ``pairing``
        u = basis_change(n_anyons, pairing, home, total)
        op = u.T @ (signs[:, None] * u.conj())
    op.flags.writeable = False
    return op

