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
from .linalg import dagger, hermitian_eig, hermitian_eigvals_batch, kron

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


def gibbs_state(h_matrix, beta) -> np.ndarray:
    """Thermal state exp(-beta H) / Z, built in the eigenbasis of H.

    beta is a scalar, giving one (D, D) state, or a 1-D array of inverse
    temperatures, giving the (B, D, D) stack of their states from a single
    decomposition of H; each member has the bytes of its scalar call.
    The Boltzmann weights are exponentials of spectrum shifted by the
    ground energy, so an arbitrarily large finite beta tends to the
    uniform mixture over the (possibly degenerate) ground space without
    ever overflowing; a NaN or infinite beta is refused.
    """
    betas = np.asarray(beta, dtype=float)
    if betas.ndim > 1:
        raise ValueError(f"beta must be a scalar or a 1-D array, got shape {betas.shape}")
    if not np.all(np.isfinite(betas)):
        raise ValueError(f"beta must be finite, got {beta}")
    if np.any(betas < 0):
        raise ValueError(f"beta must be >= 0, got {beta}")
    vals, vecs = hermitian_eig(h_matrix)
    weights = np.exp(-betas.reshape(-1, 1) * (vals - vals[0]))
    weights /= weights.sum(axis=-1, keepdims=True)
    stack = (vecs * weights[..., None, :]) @ dagger(vecs)
    return stack if betas.ndim else stack[0]


def check_density_matrix(rho, context: str = "state") -> None:
    """Raise ValueError unless rho is Hermitian, unit-trace and PSD within tolerance.

    rho is one (D, D) state or a (B, D, D) stack; positivity is read from
    one batched, values-only decomposition of its Hermitian part.  For a
    stack the message ends with the index of the first member that fails;
    a NaN deviation fails too.
    """
    rho = np.asarray(rho)
    stack = rho.reshape((-1,) + rho.shape[-2:])

    def require(bad, values, template):
        if bad.any():
            k = int(np.argmax(bad))
            at = "" if rho.ndim == 2 else f" at index {k}"
            raise ValueError(f"{context}: {template.format(values[k])}{at}")

    adj = dagger(stack)
    herm = np.abs(stack - adj).max(axis=(1, 2))
    require(~(herm <= DENSITY_HERM_TOL), herm,
            f"Hermiticity defect {{:.3e}} > {DENSITY_HERM_TOL:.0e}")
    trace_dev = np.abs(np.trace(stack, axis1=1, axis2=2) - 1.0)
    require(~(trace_dev <= DENSITY_TRACE_TOL), trace_dev, "trace deviates from 1 by {:.3e}")
    lowest = hermitian_eigvals_batch(0.5 * (stack + adj))[:, 0]
    require(~(lowest >= -DENSITY_PSD_TOL), lowest, "negative eigenvalue {:.3e}")
