"""XX chain Hamiltonian, spin operators and Gibbs initial states.

Basis convention, fixed repo-wide: the single-qubit basis is ordered
(|e>, |g>) so that sigma_z|e> = +|e> and sigma_minus|e> = |g>; the
transverse-field term +h*sum(sigma_z) therefore penalizes excitations.
Multi-qubit basis states are Kronecker products with site 1 leftmost,
i.e. index 0 is |ee...e> and index 2^N - 1 is |gg...g>.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import MAX_QUBITS
from .linalg import dagger, hermitian_eig_batch, hermitian_eigvals_batch, kron

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "minus": np.array([[0, 0], [1, 0]], dtype=complex),
    "plus": np.array([[0, 1], [0, 0]], dtype=complex),
}

# Density-matrix admissibility bounds.
DENSITY_HERM_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-10
DENSITY_PSD_TOL = 1e-9
STATE_CHUNK = 256  # states whose Gibbs products or check temporaries are held at once


@dataclass(frozen=True)
class ModelSpec:
    """Chain size and transverse field of the XX battery, in units of the coupling J = 1."""

    n_qubits: int
    field_h: float = 0.1

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}, got {self.n_qubits}")
        if not 0 <= self.field_h < np.inf:  # NaN fails it too
            raise ValueError(f"field_h must be finite and >= 0, got {self.field_h}")

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits


def site_operator(spec: ModelSpec, site: int, kind: str) -> np.ndarray:
    """Single-site operator I x ... x sigma^kind x ... x I at 1-based `site`."""
    if kind not in PAULI:
        raise ValueError(f"unknown operator kind {kind!r}")
    if not 1 <= site <= spec.n_qubits:
        raise ValueError(f"site {site} out of range 1..{spec.n_qubits}")
    return kron(kron(np.eye(2 ** (site - 1)), PAULI[kind]),
                np.eye(2 ** (spec.n_qubits - site)))


def collective_operator(spec: ModelSpec, kind: str) -> np.ndarray:
    """Sum of the same single-site operator over all sites (S^- or S_z), from the cached ones."""
    if kind not in ("minus", "z"):
        raise ValueError(f"collective operator kind must be 'minus' or 'z', got {kind!r}")
    total = np.zeros((spec.dim, spec.dim), dtype=complex)
    for op in _site_operators(spec.n_qubits, kind):
        total += op
    return total


@lru_cache(maxsize=None)
def _site_operators(n: int, kind: str) -> tuple:
    """sigma^kind at each site 1..n of an n-qubit chain, built once per (n, kind), read-only."""
    ops = tuple(site_operator(ModelSpec(n_qubits=n), site, kind) for site in range(1, n + 1))
    for op in ops:
        op.setflags(write=False)
    return ops


def build_hamiltonian(spec: ModelSpec) -> np.ndarray:
    """Open-boundary XX Hamiltonian sum(xx + yy) + h*sum(z), in units of J.

    The site operators come from a cache keyed on the chain size alone,
    so fields of one size share them.
    """
    h = np.zeros((spec.dim, spec.dim), dtype=complex)
    for site in range(spec.n_qubits - 1):
        for kind in ("x", "y"):
            ops = _site_operators(spec.n_qubits, kind)
            h += ops[site] @ ops[site + 1]
    for z in _site_operators(spec.n_qubits, "z"):
        h += spec.field_h * z
    return h


def gibbs_state(h_matrix, beta, with_eig: bool = False):
    """Thermal states exp(-beta H) / Z, built in the eigenbasis of H.

    h_matrix is one (D, D) Hamiltonian or a (P, D, D) stack, decomposed by
    one `hermitian_eig_batch` call; beta is a scalar or a 1-D array of B
    inverse temperatures.  One H gives a (D, D) state or the (B, D, D)
    stack of its betas' states, and a stack of H the (P, D, D) or (P, B, D,
    D) stack of each H's; each member has the bytes of its own call with
    one H and one beta.  The Boltzmann weights are exponentials of spectrum
    shifted by the ground energy, so an arbitrarily large finite beta tends
    to the uniform mixture over the (possibly degenerate) ground space
    without ever overflowing; a NaN or infinite beta, an empty beta array
    and an empty stack of H are refused.  With with_eig it returns
    (states, (levels, vectors)), the ascending levels and eigenvectors of H
    the states were built from ((D,) and (D, D), with a leading P for a
    stack), for readers of H's levels (`trajectory_records`,
    `energy_basis_populations`).
    """
    betas = np.asarray(beta, dtype=float)
    if betas.ndim > 1 or betas.size == 0:
        raise ValueError(f"beta must be a scalar or a non-empty 1-D array, got shape {betas.shape}")
    if not np.all(np.isfinite(betas)):
        raise ValueError(f"beta must be finite, got {beta}")
    if np.any(betas < 0):
        raise ValueError(f"beta must be >= 0, got {beta}")
    h = np.asarray(h_matrix, dtype=complex)
    if h.size == 0:
        raise ValueError(f"h_matrix must hold at least one H, got shape {h.shape}")
    vals, vecs = hermitian_eig_batch(h if h.ndim == 3 else h[None])
    weights = np.exp(-betas.reshape(-1, 1) * (vals - vals[:, :1])[:, None])
    weights /= weights.sum(axis=-1, keepdims=True)
    stack = np.empty(weights.shape + weights.shape[-1:], dtype=complex)  # (P, B, D, D)
    step = max(1, STATE_CHUNK // weights.shape[1])  # members whose products are held at once
    for part in (slice(a, a + step) for a in range(0, len(stack), step)):
        np.matmul(vecs[part, None] * weights[part, ..., None, :], dagger(vecs[part])[:, None],
                  out=stack[part])
    states = stack if betas.ndim else stack[:, 0]
    if h.ndim == 2:
        states, vals, vecs = states[0], vals[0], vecs[0]
    return (states, (vals, vecs)) if with_eig else states


def check_density_matrix(rho, context: str = "state") -> None:
    """Raise ValueError unless rho is Hermitian, unit-trace and PSD within tolerance.

    rho is one (D, D) state or a stack of them, (B, D, D) or with more
    leading axes; positivity is read from a batched, values-only
    decomposition of its Hermitian part.  The checks read STATE_CHUNK
    states at a time, and each check's verdict is taken over the whole
    stack before the next check's: for a stack the message ends with the
    index of the first member that fails it (a tuple for more than one
    leading axis).  A NaN deviation fails too.
    """
    rho = np.asarray(rho)
    stack = rho.reshape((-1,) + rho.shape[-2:])

    def require(bad, values, template):
        if bad.any():
            k = int(np.argmax(bad))
            index = tuple(map(int, np.unravel_index(k, rho.shape[:-2])))
            at = f" at index {index[0] if len(index) == 1 else index}" if index else ""
            raise ValueError(f"{context}: {template.format(values[k])}{at}")

    chunks = [slice(a, a + STATE_CHUNK) for a in range(0, len(stack), STATE_CHUNK)]
    herm, trace_dev, lowest = np.empty(len(stack)), np.empty(len(stack)), np.empty(len(stack))
    for chunk in chunks:
        part = stack[chunk]
        herm[chunk] = np.abs(part - dagger(part)).max(axis=(1, 2))
        trace_dev[chunk] = np.abs(np.trace(part, axis1=1, axis2=2) - 1.0)
    require(~(herm <= DENSITY_HERM_TOL), herm,
            f"Hermiticity defect {{:.3e}} > {DENSITY_HERM_TOL:.0e}")
    require(~(trace_dev <= DENSITY_TRACE_TOL), trace_dev, "trace deviates from 1 by {:.3e}")
    for chunk in chunks:
        part = stack[chunk]
        lowest[chunk] = hermitian_eigvals_batch(0.5 * (part + dagger(part)))[:, 0]
    require(~(lowest >= -DENSITY_PSD_TOL), lowest, "negative eigenvalue {:.3e}")
