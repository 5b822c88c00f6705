"""Exact dense references: lattice state vectors and small Majorana Fock spaces.

The state-vector side handles lattices up to 20 sites (qubit order = site id
order) and is the cross-validation target for the tableau simulator. The Fock
side writes explicit Majorana matrices, each a signed permutation, for up to
6 modes and backs the braiding equivalence checks.
"""

from __future__ import annotations

import numpy as np

from .pauli import _PHASE_COMPLEX, PauliString

MAX_DENSE_SITES = 20

_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_LETTER_MATRIX = {"X": _X, "Y": _Y, "Z": _Z}


class DegenerateStateError(ValueError):
    """A projection annihilated the state (norm below tolerance)."""


class InconsistentOutcomeError(ValueError):
    """A forced measurement outcome has zero probability."""


# A forced branch below this probability is impossible.
MIN_BRANCH_PROB = 1e-12


def plus_branch(state: np.ndarray, o_state: np.ndarray):
    """O's +1-eigenspace part of each row of ``state`` and its probability,
    given ``O @ state`` (see ``measure_involution``)."""
    plus = state + o_state
    plus *= 0.5  # in place: one temporary of the rows' size fewer
    return plus, np.vecdot(plus, plus).real


def born_branch(p_plus: np.ndarray, draw, force: int | None = None):
    """Per shot, whether branch 1 is taken, and that branch's probability.

    ``p_plus`` is each shot's probability of branch 1. Unforced, it takes one
    uniform number per shot from ``draw()`` (a float, or one per shot) and
    takes branch 1 below ``p_plus``. A forced branch, 0 or 1, draws nothing;
    one of probability below ``MIN_BRANCH_PROB`` raises ``InconsistentOutcomeError``.
    """
    if force not in (None, 0, 1):
        raise ValueError(f"forced branch {force!r} is not 0 or 1")
    took = draw() < p_plus if force is None else np.full(len(p_plus), force == 1)
    prob = np.where(took, p_plus, 1.0 - p_plus)
    if force is not None and np.any(prob < MIN_BRANCH_PROB):
        raise InconsistentOutcomeError(f"forced branch {force} has zero probability")
    return took, prob


def measure_involution(state: np.ndarray, o_state: np.ndarray, draw,
                       force: int | None = None):
    """Born-rule measurement of a Hermitian involution O on S shots, given
    ``O @ state``: ``state`` is an (S, dim) array, one shot per row, and a
    lone vector ``v`` is the batch of one ``v[None]``.

    Branch 1 is O's +1 eigenspace, branch 0 its -1 eigenspace, chosen by
    ``born_branch``. Returns per shot the branch (uint8), its probability and
    the normalized post-measurement row. Each row's squared norms are the dot
    products of ``np.vdot`` and ``np.linalg.norm`` (real and imaginary parts
    apart), so a batch of one gives what those give on the lone vector, bit
    for bit.
    """
    plus, p_plus = plus_branch(state, o_state)
    took, prob = born_branch(p_plus, draw, force)
    post = state - plus
    np.copyto(post, plus, where=took[:, None])
    post /= np.sqrt(np.vecdot(post.real, post.real)
                    + np.vecdot(post.imag, post.imag))[:, None]
    return took.astype(np.uint8), prob, post


def pauli_matrix(p: PauliString, sites: list[int]) -> np.ndarray:
    """Dense matrix of ``p`` over the given qubit ordering (site ids)."""
    n = len(sites)
    mat = np.array([[_PHASE_COMPLEX[p.phase]]], dtype=np.complex128)
    letters = p.letters()
    for site in sites:
        mat = np.kron(mat, _LETTER_MATRIX.get(letters.get(site, "I"), np.eye(2)))
    return mat


def apply_pauli(amps: np.ndarray, p: PauliString, sites: list[int]) -> np.ndarray:
    """Apply a Pauli string to a 2^n amplitude vector (qubit k = sites[k])."""
    n = len(sites)
    index = {s: k for k, s in enumerate(sites)}
    out = amps.reshape((2,) * n)
    for site, letter in p.support:
        axis = index[site]
        if letter in ("X", "Y"):
            out = np.flip(out, axis=axis)
        if letter in ("Z", "Y"):
            sign = np.ones((1,) * axis + (2,) + (1,) * (n - axis - 1))
            sign[(0,) * axis + (1,) + (0,) * (n - axis - 1)] = -1.0
            out = out * sign
        if letter == "Y":
            # flip-then-sign realizes Z·X = i·Y, so a uniform -i completes Y
            out = out * (-1j)
    return (_PHASE_COMPLEX[p.phase] * out).reshape(-1)


def _check_size(n: int):
    if n > MAX_DENSE_SITES:
        raise ValueError(f"dense oracle capped at {MAX_DENSE_SITES} sites, got {n}")


def zero_state(n: int) -> np.ndarray:
    _check_size(n)
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[0] = 1.0
    return amps


def project_eigenvalue(
    amps: np.ndarray, p: PauliString, sites: list[int], sign: int
) -> np.ndarray:
    """Project onto the ``sign`` (+1/-1) eigenspace of ``p``; not normalized."""
    return 0.5 * (amps + sign * apply_pauli(amps, p, sites))


def prepare_ground(lat) -> np.ndarray:
    """Common +1 eigenstate of all plaquettes via sequential projection, the
    ground of a twist-free lattice: no lattice within the size cap hosts a
    twist pair (the smallest, 6x4 with segment (1, 1, 3), has 24 sites)."""
    _check_size(lat.n_sites)
    sites = list(lat.sites)
    amps = zero_state(lat.n_sites)
    for op in lat.plaquette_ops:
        amps = project_eigenvalue(amps, op, sites, +1)
        norm = np.linalg.norm(amps)
        if norm < 1e-12:
            raise DegenerateStateError(
                "plaquette projection annihilated the state; "
                "stabilizer set is inconsistent"
            )
        amps /= norm
    return amps


def expectation(amps: np.ndarray, p: PauliString, sites: list[int]) -> complex:
    return complex(np.vdot(amps, apply_pauli(amps, p, sites)))


def measure_projective(
    amps: np.ndarray,
    p: PauliString,
    sites: list[int],
    rng: np.random.Generator,
    force: int | None = None,
) -> tuple[int, np.ndarray]:
    """Born-rule measurement of a Hermitian Pauli string; returns (±1, state)."""
    if not p.is_hermitian:
        raise ValueError(f"cannot measure non-Hermitian operator {p}")
    if force not in (None, 1, -1):
        raise ValueError(f"forced outcome {force!r} is not ±1")
    took_plus, _, post = measure_involution(
        amps[None], apply_pauli(amps, p, sites)[None], lambda: rng.random(),
        None if force is None else int(force == 1))
    return (1 if took_plus[0] else -1), post[0]


def fidelity_up_to_phase(u: np.ndarray, v: np.ndarray) -> float:
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return float(abs(np.vdot(u, v)))


class FockSpace:
    """Explicit matrices for ``n_modes`` Majorana operators (n_modes even).

    Mode 2k/2k+1 are Z⊗…⊗Z⊗X⊗I⊗…⊗I and Z⊗…⊗Z⊗Y⊗I⊗…⊗I with X or Y on
    fermion k, the usual chain construction (fermion 0 is the top bit of a
    Fock index), so the matrices square to one and pairwise anticommute.
    Numbering is 1-based to match the anyon labels used elsewhere.

    Each is a signed permutation, written into the dense array without a
    Kronecker product: column j goes to row j ^ bit(k), with the sign
    (-1)^(filled fermions before k), times 1 for X and, for Y, +i on an empty
    fermion k and -i on a filled one.
    """

    def __init__(self, n_modes: int):
        if n_modes % 2 or n_modes < 2:
            raise ValueError("number of Majorana modes must be even and positive")
        self.n_modes = n_modes
        self.n_fermions = n_modes // 2
        self.dim = 2**self.n_fermions
        self.gammas: list[np.ndarray] = []
        cols = np.arange(self.dim)
        string = np.ones(self.dim)  # the Z string over the fermions before k
        for k in range(self.n_fermions):
            bit = 1 << (self.n_fermions - 1 - k)
            rows = cols ^ bit
            y_phase = np.where(cols & bit, -1j, 1j)
            for value in (string, string * y_phase):
                mat = np.zeros((self.dim, self.dim), dtype=np.complex128)
                mat[rows, cols] = value
                self.gammas.append(mat)
            string = np.where(cols & bit, -string, string)

    def gamma(self, label: int) -> np.ndarray:
        """Majorana matrix for 1-based mode label."""
        return self.gammas[label - 1]

    def parity_op(self, a: int, b: int) -> np.ndarray:
        """i * gamma_a * gamma_b; fermion number of the pair is (1 + P)/2."""
        return 1j * self.gamma(a) @ self.gamma(b)

    def number_op(self, a: int, b: int) -> np.ndarray:
        return 0.5 * (np.eye(self.dim) + self.parity_op(a, b))

    def braid_op(self, a: int, b: int) -> np.ndarray:
        """Exchange of modes a and b: (1 + gamma_b gamma_a) / sqrt(2)."""
        return (np.eye(self.dim) + self.gamma(b) @ self.gamma(a)) / np.sqrt(2)

    def pairing_basis(self, pairs: list[tuple[int, int]]) -> dict[tuple[int, ...], np.ndarray]:
        """Joint number eigenbasis of disjoint pairs, with a fixed gauge.

        The all-zero state's phase is fixed by making its first nonzero
        amplitude real positive; occupied states are generated from it with
        the creation operators (gamma_a - i gamma_b)/2 in pair order.
        """
        flat = [m for pair in pairs for m in pair]
        if sorted(flat) != list(range(1, self.n_modes + 1)):
            raise ValueError(f"pairs {pairs} must partition the modes")
        vac = np.ones(self.dim, dtype=np.complex128)
        for a, b in pairs:
            vac = (np.eye(self.dim) - self.number_op(a, b)) @ vac
        norm = np.linalg.norm(vac)
        if norm < 1e-12:
            raise DegenerateStateError("pairing vacuum projection vanished")
        vac /= norm
        lead = np.flatnonzero(np.abs(vac) > 1e-9)[0]
        vac = vac * (abs(vac[lead]) / vac[lead])
        basis = {}
        for labels in np.ndindex(*(2,) * len(pairs)):
            vec = vac
            for (a, b), n in zip(pairs, labels):
                if n:
                    vec = 0.5 * (self.gamma(a) - 1j * self.gamma(b)) @ vec
            basis[tuple(int(x) for x in labels)] = vec
        return basis
