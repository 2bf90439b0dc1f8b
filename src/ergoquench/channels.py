"""Dissipative and dephasing channels and their vectorized Liouvillians.

Vectorization uses column stacking throughout the repo: vec(rho)[i + j*D]
= rho[i, j], so vec(A rho B) = (B^T (x) A) vec(rho).  Both channels are
defined by the N x N rate-matrix double sum

    D[rho] = sum_ij Gamma_ij (A_i rho A_j^dag - {A_j^dag A_i, rho} / 2)

with A = sigma^- (dissipation) or sigma^z (dephasing) and the rate matrix
Gamma = gamma [(1 - a) I + a 11^T].  That Gamma is diagonal in the basis
of the N site jumps plus their sum, so the generator is assembled in
diagonal form, gamma (1 - a) sum_i D[A_i] + gamma a D[sum_i A_i]: N + 1
jumps instead of N^2 terms, exact for every a, each vectorized once by
`lindblad_matrix`.  The jumps depend on N and the channel kind alone, so
each set is built once and shared, read-only, by every generator; the
site operators are those `build_hamiltonian` sums, from one cache.  The
tests hold the assembly to the double sum itself, applied to states by
the reference in tests/reference.py.

Assembly writes each term only where it can be nonzero.  I (x) X and
Y (x) I fill d^3 entries each, reached through diagonal views of the
(d, d, d, d) reshape of the output; a jump term rate conj(A) (x) A fills
the outer product of A's nonzero pattern.  No D^2 x D^2 Kronecker product
is formed, and every entry is summed in the order of the dense formula,
so the result is bit for bit the dense one.

Every `Liouvillian` carries the partition of its D^2 indices into blocks
that the generator never couples (the connected components of its nonzero
pattern, found in one vectorized pass).  The propagators exponentiate and
step each block on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .config import MAX_QUBITS
from .linalg import dagger, kron
from .model import ModelSpec, _site_operators, collective_operator


@dataclass(frozen=True)
class ChannelSpec:
    """Rate and interpolation parameters of the quench dissipator.

    gamma        overall rate, units of the chain coupling
    alpha        dissipation <-> dephasing mix (0 = pure dissipation)
    alpha_minus  local <-> collective interpolation of the dissipative channel
    alpha_z      local <-> collective interpolation of the dephasing channel
    """

    gamma: float
    alpha: float = 0.0
    alpha_minus: float = 0.0
    alpha_z: float = 0.0

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        for name in ("alpha", "alpha_minus", "alpha_z"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of [0,1]: {value}")


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """Dense D^2 x D^2 generator acting on column-stacked states.

    `dim_state` is D, read off the shape of `matrix`.  `blocks` partitions
    the D^2 indices into the index arrays of the invariant blocks of
    `matrix`: no entry of `matrix` couples two blocks.  A fully coupled
    generator is a single block.  `==` compares identity: an array field
    has no single truth value.
    """

    matrix: np.ndarray
    dim_state: int = field(init=False)
    blocks: tuple = field(init=False, repr=False)

    def __post_init__(self):
        shape = np.shape(self.matrix)
        dim = math.isqrt(shape[0]) if len(shape) == 2 else 0
        if dim == 0 or shape != (dim * dim, dim * dim):
            raise ValueError(f"a Liouvillian matrix is D^2 x D^2 with D >= 1, got shape {shape}")
        object.__setattr__(self, "dim_state", dim)
        object.__setattr__(self, "blocks", _invariant_blocks(self.matrix))


def _invariant_blocks(matrix) -> tuple:
    """Connected components of the nonzero pattern of |M| + |M|^T, as index arrays.

    Each block is ascending and the blocks are ordered by their first index.
    Every index is labelled with the smallest index of its block: labels
    are lowered along the nonzero entries and then pointer-jumped
    (label <- label[label]) until neither changes them.
    """
    matrix = np.asarray(matrix)
    rows, cols = np.divmod(np.flatnonzero(matrix != 0), len(matrix))
    tails, heads = np.concatenate((rows, cols)), np.concatenate((cols, rows))  # M and M^T
    label = np.arange(len(matrix))
    while True:
        lowered = label.copy()
        np.minimum.at(lowered, tails, label[heads])
        lowered = lowered[lowered]
        if np.array_equal(lowered, label):
            break
        label = lowered
    order = np.argsort(label, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(label[order])) + 1), len(order)]
    return tuple(order[a:b] for a, b in zip(cuts[:-1], cuts[1:]))


def vec(rho) -> np.ndarray:
    """Column-stack one (D, D) matrix, or each of a (B, D, D) stack into a (B, D*D) row.

    Column-stacking is the row-major order of the transpose.
    """
    rho = np.asarray(rho, dtype=complex)
    return np.swapaxes(rho, -1, -2).reshape(*rho.shape[:-2], -1)


def lindblad_matrix(h_matrix, jumps, rates) -> np.ndarray:
    """Generic GKSL generator -i[H, .] + sum_k rate_k D[A_k] as a superoperator.

    Jumps with rate 0 are skipped; the anticommutator terms of the others
    are summed into one decay operator.  Each term is written only where it
    can be nonzero: rate conj(A) (x) A at the outer product of A's nonzero
    pattern, the identity products on their diagonal views.  Every entry is
    the sum the dense formula forms, in its order: commutator + ((sum of
    jumps - I (x) decay) - decay^T (x) I).
    """
    h = np.asarray(h_matrix, dtype=complex)
    d = h.shape[0]
    if h.shape != (d, d):
        raise ValueError(f"Hamiltonian must be square, got shape {h.shape}")
    for k, jump in enumerate(jumps):
        if np.shape(jump) != (d, d):
            raise ValueError(
                f"jump {k} has shape {np.shape(jump)}, not the Hamiltonian's {(d, d)}")
    out = np.zeros((d * d, d * d), dtype=complex)
    # out4[i, k, j, l] is out[i*d + k, j*d + l].  I (x) X fills out4[i, k, i, l],
    # the view `left` indexed [i, k, l]; Y (x) I fills out4[i, k, j, k], `right` [i, j, k].
    out4 = out.reshape(d, d, d, d)
    left, right = np.einsum("ikil->ikl", out4), np.einsum("ikjk->ijk", out4)
    decay = np.zeros((d, d), dtype=complex)  # sum_k rate_k A_k^dag A_k / 2
    for rate, jump in zip(np.asarray(rates, dtype=float), jumps, strict=True):
        if rate != 0.0:
            jump = np.asarray(jump)
            r, c = np.nonzero(jump)
            values = jump[r, c]
            out4[r[:, None], r, c[:, None], c] += kron(
                (rate * np.conj(values))[:, None], values[None, :])
            decay += 0.5 * rate * (dagger(jump) @ jump)
    left -= decay
    right -= decay.T[:, :, None]
    # commutator + dissipator (addition commutes), each entry kron(I, x) + kron(y, I)
    x, y = -1j * h, 1j * h.T
    diag = np.arange(d)
    slab = np.repeat(x[None], d, axis=0)
    slab[:, diag, diag] += np.diagonal(y)[:, None]  # both terms meet at i = j, k = l
    left += slab
    y[diag, diag] = 0.0
    right += y[:, :, None]
    return out


@lru_cache(maxsize=None)
def _site_jumps(n: int, kind: str) -> tuple:
    """The n site operators sigma^kind (shared with H) and their sum, per (n, kind), read-only."""
    total = collective_operator(ModelSpec(n_qubits=n), kind)
    total.setflags(write=False)
    return (*_site_operators(n, kind), total)


def build_liouvillian(h_matrix, spec: ChannelSpec) -> Liouvillian:
    """Full quench generator: commutator plus the alpha-mixed channels, in diagonal form.

    h_matrix is the 2^N x 2^N Hamiltonian of an N-qubit chain; N is read
    off its shape and must be at most `config.MAX_QUBITS`.
    """
    h = np.asarray(h_matrix, dtype=complex)
    n_qubits = len(h).bit_length() - 1 if h.ndim == 2 else 0
    if not 1 <= n_qubits <= MAX_QUBITS or h.shape != (2 ** n_qubits,) * 2:
        raise ValueError(f"the Hamiltonian must be 2^N x 2^N with 1 <= N <= "
                         f"{MAX_QUBITS} (dense Liouvillians), got shape {h.shape}")
    jumps, rates = [], []
    for weight, kind, interp in ((1.0 - spec.alpha, "minus", spec.alpha_minus),
                                 (spec.alpha, "z", spec.alpha_z)):
        if weight > 0.0 and spec.gamma > 0.0:
            # gamma [(1 - interp) I + interp 11^T] in diagonal form: the site jumps plus their sum
            jumps += _site_jumps(n_qubits, kind)
            rates += ([weight * spec.gamma * (1.0 - interp)] * n_qubits
                      + [weight * spec.gamma * interp])
    return Liouvillian(matrix=lindblad_matrix(h, jumps, rates))
