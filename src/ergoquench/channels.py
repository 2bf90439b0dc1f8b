"""Dissipative and dephasing channels and their vectorized Liouvillians.

Vectorization uses column stacking throughout the repo: vec(rho)[i + j*D]
= rho[i, j], so vec(A rho B) = (B^T (x) A) vec(rho).  Both channels are
defined by the N x N rate-matrix double sum

    D[rho] = sum_ij Gamma_ij (A_i rho A_j^dag - {A_j^dag A_i, rho} / 2)

with A = sigma^- (dissipation) or sigma^z (dephasing) and the rate matrix
Gamma = gamma [(1 - a) I + a 11^T].  That Gamma is diagonal in the basis
of the N site jumps plus their sum, so the generator is assembled in
diagonal form, gamma (1 - a) sum_i D[A_i] + gamma a D[sum_i A_i]: N + 1
jumps instead of N^2 terms, exact for every a.  The jumps depend on N and
the channel kind alone, so each set is built once and shared, read-only,
by every generator; the site operators are those `build_hamiltonian`
sums, from one cache.  The tests hold the assembly to the double sum
itself, applied to states by the reference in tests/reference.py.

A `Liouvillian` keeps its terms (H, the jumps and their rates) and the
excitation number k of each basis state: H conserves it, sigma^- lowers
it by one and sigma^z keeps it (`_chain_labels`; `jc` declares its own
bases' labels).  So L maps vec index i + j*D only to indices of the same
k(i) - k(j) once a jump with a nonzero rate lowers k, and of the same
(k(i), k(j)) otherwise: these classes are its invariant blocks, the
weak-symmetry reduction of Buca & Prosen, New J. Phys. 14, 073007 (2012).
They are read off the labels once per declared structure, never searched
for in a D^2 x D^2 pattern, and a D x D check refuses an H or a jump that
breaks them.  `Liouvillian.block` assembles L[b, b] alone: every term is
gathered at the block's entries only, through index geometry cached per
(labels, block), and summed in the order of the dense formula, so a block
has the bytes of the dense matrix's slice.  The dense `matrix` is the
all-indices block, read by the tests alone; the propagators exponentiate
and step each touched block on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .config import MAX_QUBITS
from .linalg import dagger
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
        if not 0 <= self.gamma < np.inf:  # NaN fails it too
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        for name in ("alpha", "alpha_minus", "alpha_z"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of [0,1]: {value}")


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """GKSL generator -i[H, .] + sum_k rate_k D[A_k] on column-stacked states, kept as its terms.

    labels[i] is the excitation number k of basis state i, held as a
    tuple whatever sequence gives it: H must conserve it and each jump
    with a nonzero rate must keep it or lower it by one, which a D x D
    check of each matrix enforces (ValueError otherwise).
    `dim_state` is D, read off H.  `blocks` partitions the D^2 vec indices
    into ascending index arrays, ordered by their first index, that L
    never couples: the classes of k(i) - k(j) of vec index i + j*D when a
    jump with a nonzero rate lowers k, and of (k(i), k(j)) otherwise.
    `block(b)` assembles L[b, b] alone and `matrix` the whole D^2 x D^2
    generator.  `==` compares identity: an array field has no single
    truth value.
    """

    hamiltonian: np.ndarray
    jumps: tuple
    rates: tuple
    labels: tuple
    dim_state: int = field(init=False)
    blocks: tuple = field(init=False, repr=False)

    def __post_init__(self):
        put = partial(object.__setattr__, self)
        put("labels", tuple(self.labels))  # hashable: the caches and the screen key on them
        h = np.asarray(self.hamiltonian, dtype=complex)
        d = h.shape[0] if h.ndim == 2 else 0
        if d == 0 or h.shape != (d, d):
            raise ValueError(f"the Hamiltonian must be D x D with D >= 1, got shape {h.shape}")
        for k, jump in enumerate(self.jumps):
            if np.shape(jump) != (d, d):
                raise ValueError(
                    f"jump {k} has shape {np.shape(jump)}, not the Hamiltonian's {(d, d)}")
        if len(self.labels) != d:
            raise ValueError(f"{len(self.labels)} excitation labels for a {d}-state basis")
        off_keep, off_shift = _shift_masks(self.labels)
        if np.count_nonzero(h.ravel()[off_keep]):
            raise ValueError("the Hamiltonian couples states of different excitation number")
        rates = np.asarray(self.rates, dtype=float)
        if rates.shape != (len(self.jumps),):
            raise ValueError(f"{rates.size} rates for {len(self.jumps)} jumps")
        live = np.flatnonzero(rates)
        rates = rates[live]
        jumps = np.array([self.jumps[k] for k in live], dtype=complex).reshape(-1, d, d)
        # per jump, whether it has weight where k changes, and where k changes by other
        # than -1 (a NaN entry counts as weight)
        moved = np.abs(jumps).reshape(-1, d * d) @ off_shift != 0
        broken = moved.all(axis=1)
        if broken.any():
            raise ValueError(f"jump {live[np.argmax(broken)]} neither keeps nor lowers "
                             "the excitation number by one")
        lowering = moved[:, 0]
        # sum_k rate_k A_k^dag A_k / 2, added in jump order (a reduce may pair the terms
        # up); a stacked product has the bytes of its 2-D call
        decay = np.zeros((d, d), dtype=complex)
        for term in (0.5 * rates)[:, None, None] * np.matmul(dagger(jumps), jumps):
            decay += term
        x, y = -1j * h, 1j * h.T  # the commutator is I (x) x + y (x) I
        y_off = y.copy()
        np.fill_diagonal(y_off, 0.0)
        put("dim_state", d)
        put("blocks", _label_blocks(self.labels, bool(lowering.any())))
        # rate conj(A) and A, flat, of the jumps that keep k and of those that lower it:
        # each entry of L takes the jumps of one shift
        weighted = (rates[:, None, None] * np.conj(jumps)).reshape(-1, d * d)
        jumps = jumps.reshape(-1, d * d)
        put("_terms", tuple((shift, weighted[mask], jumps[mask])
                            for shift, mask in ((0, ~lowering), (-1, lowering)) if mask.any()))
        put("_parts", (decay.ravel(), x.ravel(), np.diagonal(y).copy(), y_off.ravel()))

    def block(self, b) -> np.ndarray:
        """L[b, b] for an ascending array b of vec indices, assembled alone.

        Each entry is the sum the dense formula forms, in its order: the
        jumps rate conj(A) (x) A, in jump order, then - I (x) decay, then
        - decay^T (x) I, then the commutator's I (x) x, whose diagonal
        carries y's, and last y (x) I off the diagonal.  A jump term is
        added wherever the labels let its shift reach: where the jump itself
        cannot, its product is an exact zero, which leaves the sum's bytes
        alone (the sum starts at +0 and never reads -0).  So L[b, b] has
        the bytes of the dense matrix's slice.
        """
        b = np.ascontiguousarray(b, dtype=np.intp)
        geometry = _block_geometry(self.labels, b.tobytes())
        decay, x, y_diag, y_off = self._parts
        out = np.zeros((b.size, b.size), dtype=complex)
        flat = out.reshape(-1)  # a view: the caller holds out alone, with no base behind it
        for shift, weighted, jumps in self._terms:
            at, w_at, a_at = geometry.reach[shift]
            total = np.zeros(at.size, dtype=complex)
            for product in weighted[:, w_at] * jumps[:, a_at]:  # in jump order
                total += product
            flat[at] = total
        left, right = geometry.left, geometry.right
        flat[left] -= decay[geometry.left_x]
        flat[right] -= decay[geometry.right_decay]
        slab = x[geometry.left_x]
        slab[geometry.left_diagonal] += y_diag[geometry.left_column]
        flat[left] += slab
        flat[right] += y_off[geometry.right_y]
        return out

    @property
    def matrix(self) -> np.ndarray:
        """The whole D^2 x D^2 generator, the all-indices `block`, assembled on each access."""
        return self.block(np.arange(self.dim_state ** 2))


@lru_cache(maxsize=None)
def _shift_masks(labels: tuple) -> tuple:
    """Where a D x D matrix changes the excitation number k, per labels; read-only.

    A[i, j] takes |j> to |i>, changing k by k(i) - k(j).  Returns the flat
    (D*D,) mask of the entries that change k, and the (D*D, 2) float
    weights of those and of the entries that change it by other than -1.
    """
    k = np.array(labels)
    shift = (k[:, None] - k[None, :]).ravel()
    off_keep, off_shift = shift != 0, np.stack((shift != 0, shift != -1), axis=1).astype(float)
    off_keep.setflags(write=False)
    off_shift.setflags(write=False)
    return off_keep, off_shift


@lru_cache(maxsize=None)
def _label_blocks(labels: tuple, lowering: bool) -> tuple:
    """The vec indices of each class of k(i) - k(j) (lowering) or of (k(i), k(j)), read-only.

    Vec index i + j*D is entry (i, j).  Each block is ascending and the
    blocks are ordered by their first index.
    """
    k = np.array(labels)
    d = k.size
    ket, bra = k[np.arange(d * d) % d], k[np.arange(d * d) // d]
    classes = (ket - bra)[None] if lowering else np.stack((ket, bra))
    key = np.unique(classes, axis=1, return_inverse=True)[1].ravel()
    order = np.argsort(key, kind="stable")
    blocks = sorted(np.split(order, np.flatnonzero(np.diff(key[order])) + 1), key=lambda b: b[0])
    for b in blocks:
        b.setflags(write=False)
    return tuple(blocks)


class _Geometry(NamedTuple):
    """Where each term of L[b, b] lands, as flat (n*n) positions and flat (D*D) sources."""

    reach: dict             # shift -> (positions, rate conj(A) source, A source) it reaches
    left: np.ndarray        # positions of I (x) X: p and q share their column of rho
    left_x: np.ndarray      # X's entry at each
    left_diagonal: np.ndarray  # the left entries on L's diagonal, as indices into left
    left_column: np.ndarray    # their column c, whose y[c, c] the commutator adds
    right: np.ndarray       # positions of Y (x) I: p and q share their row of rho
    right_decay: np.ndarray  # decay^T's entry at each, as decay's
    right_y: np.ndarray     # y's entry at each


@lru_cache(maxsize=None)
def _block_geometry(labels: tuple, key: bytes) -> _Geometry:
    """The `_Geometry` of the block whose vec indices key holds, per labels; read-only.

    Entry (p, q) of L[b, b] joins vec indices p = r + c*D and q = r' + c'*D
    (rows r, r' and columns c, c' of rho).  A jump reaches it through rate
    conj(A)[c, c'] A[r, r'] where k(r) - k(r') and k(c) - k(c') both equal
    its shift, I (x) X through X[r, r'] where c = c', and Y (x) I through
    Y[c, c'] where r = r'.
    """
    b = np.frombuffer(key, dtype=np.intp)
    k = np.array(labels)
    d = k.size
    r, c = (b % d)[:, None], (b // d)[:, None]  # p's row and column
    r2, c2 = r.T, c.T  # q's
    ket, bra = k[r] - k[r2], k[c] - k[c2]
    reach = {}
    for shift in (0, -1):
        at = np.flatnonzero((ket == shift) & (bra == shift))
        reach[shift] = (at, (c * d + c2).ravel()[at], (r * d + r2).ravel()[at])
    left, right = np.flatnonzero(c == c2), np.flatnonzero(r == r2)
    left_diagonal = np.flatnonzero((r == r2).ravel()[left])
    geometry = _Geometry(
        reach, left, (r * d + r2).ravel()[left], left_diagonal,
        np.broadcast_to(c, (b.size, b.size)).ravel()[left][left_diagonal],
        right, (c2 * d + c).ravel()[right], (c * d + c2).ravel()[right])
    for array in (*(a for triple in reach.values() for a in triple), *geometry[1:]):
        array.setflags(write=False)
    return geometry


def vec(rho) -> np.ndarray:
    """Column-stack one (D, D) matrix, or each of a (B, D, D) stack into a (B, D*D) row.

    Column-stacking is the row-major order of the transpose.
    """
    rho = np.asarray(rho, dtype=complex)
    return np.swapaxes(rho, -1, -2).reshape(*rho.shape[:-2], -1)


@lru_cache(maxsize=None)
def _chain_labels(n: int) -> tuple:
    """The excitation number of each basis state of an n-qubit chain: its count of |e> sites.

    |e> is bit 0 of each site's digit (`model`'s basis convention).
    """
    return tuple(n - bin(index).count("1") for index in range(2 ** n))


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
                         f"{MAX_QUBITS}, got shape {h.shape}")
    jumps, rates = [], []
    for weight, kind, interp in ((1.0 - spec.alpha, "minus", spec.alpha_minus),
                                 (spec.alpha, "z", spec.alpha_z)):
        if weight > 0.0 and spec.gamma > 0.0:
            # gamma [(1 - interp) I + interp 11^T] in diagonal form: the site jumps plus their sum
            jumps += _site_jumps(n_qubits, kind)
            rates += ([weight * spec.gamma * (1.0 - interp)] * n_qubits
                      + [weight * spec.gamma * interp])
    return Liouvillian(h, tuple(jumps), tuple(rates), _chain_labels(n_qubits))
