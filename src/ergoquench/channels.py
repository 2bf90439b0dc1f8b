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

A `Liouvillian` may also be a family of P generators of one chain size
(`build_liouvillian` of a stack of H or a sequence of channels), as a
steady sweep's points are.  The jump checks, the A^dag A products and
the label blocks are then done once for the family, and H's label
check, the decay, the commutator parts and the rate weighting are
stacked elementwise operations in the dense formula's order.  A jump
live in any member is added for all of them: its zero-rate products are
exact zeros, so `block(b)`, a (P, n, n) stack, gives each member the
bytes of its own one-generator block, and `block(b, members)` those of
the consecutive members a slice picks, assembled alone.  One generator
is the family of one whose block has no leading axis.
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

    It is one generator, or a family of P that share their jumps and
    labels: hamiltonian is one (D, D) matrix or a (P, D, D) stack, and
    rates a (K,) sequence or P rows of K, one per member; a family whose
    H or rates are one is read as that one for every member.
    labels[i] is the excitation number k of basis state i, held as a
    tuple whatever sequence gives it: each H must conserve it and each
    jump with a nonzero rate in some member must keep it or lower it by
    one, which a D x D check of each matrix enforces (ValueError
    otherwise).  A jump with a nonzero rate in any member is added for
    every member, and the members must agree on whether one of theirs
    lowers k.  `dim_state` is D, read off H, and `members` is P (1 for one
    generator).  `blocks` partitions the D^2 vec indices into ascending
    index arrays, ordered by their first index, that L never couples: the
    classes of k(i) - k(j) of vec index i + j*D when a jump with a nonzero
    rate lowers k, and of (k(i), k(j)) otherwise.  `block(b, members)`
    assembles L[b, b] alone, (n, n) for one generator and (P, n, n) for a
    family, or for the members that slice picks, and `matrix` the whole
    D^2 x D^2 generator (a (P, D^2, D^2) stack).  `==`
    compares identity: an array field has no single truth value.
    """

    hamiltonian: np.ndarray
    jumps: tuple
    rates: tuple
    labels: tuple
    dim_state: int = field(init=False)
    members: int = field(init=False)
    blocks: tuple = field(init=False, repr=False)

    def __post_init__(self):
        put = partial(object.__setattr__, self)
        put("labels", tuple(self.labels))  # hashable: the caches and the screen key on them
        h = np.asarray(self.hamiltonian, dtype=complex)
        d = h.shape[-1] if h.ndim in (2, 3) else 0
        if d == 0 or h.shape[-2:] != (d, d):
            raise ValueError("the Hamiltonian must be D x D with D >= 1, or a (P, D, D) stack, "
                             f"got shape {h.shape}")
        for k, jump in enumerate(self.jumps):
            if np.shape(jump) != (d, d):
                raise ValueError(
                    f"jump {k} has shape {np.shape(jump)}, not the Hamiltonian's {(d, d)}")
        if len(self.labels) != d:
            raise ValueError(f"{len(self.labels)} excitation labels for a {d}-state basis")
        off_keep, off_shift = _shift_masks(self.labels)
        h = h.reshape(-1, d, d)
        if np.count_nonzero(h.reshape(-1, d * d)[:, off_keep]):
            raise ValueError("the Hamiltonian couples states of different excitation number")
        rates = np.asarray(self.rates, dtype=float)
        if rates.ndim not in (1, 2) or rates.shape[-1] != len(self.jumps):
            raise ValueError(f"rates of shape {rates.shape} for {len(self.jumps)} jumps")
        # the member counts of the stacked ones
        counts = ([len(h)] if np.ndim(self.hamiltonian) == 3 else []) + (
            [len(rates)] if rates.ndim == 2 else [])
        if len(set(counts)) > 1 or 0 in counts:
            raise ValueError(f"a family needs one member count >= 1, got {counts}")
        rates = np.atleast_2d(rates)
        live = np.flatnonzero(rates.any(axis=0))  # a NaN rate counts as live
        rates = rates[:, live]
        jumps = np.array([self.jumps[k] for k in live], dtype=complex).reshape(-1, d, d)
        # per jump, whether it has weight where k changes, and where k changes by other
        # than -1 (a NaN entry counts as weight)
        moved = np.abs(jumps).reshape(-1, d * d) @ off_shift != 0
        broken = moved.all(axis=1)
        if broken.any():
            raise ValueError(f"jump {live[np.argmax(broken)]} neither keeps nor lowers "
                             "the excitation number by one")
        lowering = moved[:, 0]
        lowers = ((rates != 0) & lowering).any(axis=1)  # per member
        if lowers.any() != lowers.all():
            raise ValueError(f"member {np.argmax(lowers != lowers[0])} disagrees with member 0 "
                             "on whether a jump lowers the excitation number")
        # sum_k rate_k A_k^dag A_k / 2, added in jump order (a reduce may pair the terms
        # up); a stacked product has the bytes of its 2-D call, and a zero-rate term adds
        # an exact zero to a sum that starts at +0, which leaves its bytes alone
        decay = np.zeros((len(rates), d, d), dtype=complex)
        for half, product in zip((0.5 * rates).T, np.matmul(dagger(jumps), jumps)):
            decay += half[:, None, None] * product
        x, y = -1j * h, 1j * np.swapaxes(h, -1, -2)  # the commutator is I (x) x + y (x) I
        y_diag = np.diagonal(y, axis1=1, axis2=2).copy()
        y_off = y.copy()
        y_off[:, np.arange(d), np.arange(d)] = 0.0
        put("dim_state", d)
        put("members", counts[0] if counts else 1)
        put("_stacked", bool(counts))  # whether block has a leading member axis
        put("blocks", _label_blocks(self.labels, bool(lowers.any())))

        def rows(part):  # one row per member; a shared part's are one row, not copies
            return np.broadcast_to(part.reshape(len(part), -1), (self.members, part[0].size))

        # the rates, conj(A) and A, flat, of the jumps that keep k and of those that lower
        # it: each entry of L takes the jumps of one shift
        jumps = jumps.reshape(-1, d * d)
        put("_terms", tuple((shift, rows(rates[:, mask]), np.conj(jumps[mask]), jumps[mask])
                            for shift, mask in ((0, ~lowering), (-1, lowering)) if mask.any()))
        put("_parts", tuple(map(rows, (decay, x, y_diag, y_off))))

    def block(self, b, members=slice(None)) -> np.ndarray:
        """L[b, b] for an ascending array b of vec indices, assembled alone: (n, n) or (P, n, n).

        A family gives only the consecutive members the slice members picks.
        Each entry is the sum the dense formula forms, in its order: the
        jumps rate conj(A) (x) A, in jump order, then - I (x) decay, then
        - decay^T (x) I, then the commutator's I (x) x, whose diagonal
        carries y's, and last y (x) I off the diagonal.  A jump term is
        added wherever the labels let its shift reach: where the jump itself
        cannot, or its rate in a member is 0, its product is an exact zero,
        which leaves the sum's bytes alone (the sum starts at +0 and never
        reads -0).  Every member's terms are formed by the same elementwise
        operations, stacked over the members asked for, so each member's
        L[b, b] has the bytes of the dense matrix's slice, in any company.
        """
        b = np.ascontiguousarray(b, dtype=np.intp)
        geometry = _block_geometry(self.labels, b.tobytes())
        decay, x, y_diag, y_off = (part[members] for part in self._parts)
        out = np.zeros((len(decay), b.size * b.size), dtype=complex)
        for shift, rates, conj, jumps in self._terms:
            at, w_at, a_at = geometry.reach[shift]
            rates, total = rates[members], np.zeros((len(out), at.size), dtype=complex)
            for k in range(len(jumps)):  # in jump order
                total += rates[:, k, None] * conj[k, w_at] * jumps[k, a_at]
            out[:, at] = total
        out[:, geometry.left] -= decay[:, geometry.left_x]
        out[:, geometry.right] -= decay[:, geometry.right_decay]
        slab = x[:, geometry.left_x]
        slab[:, geometry.left_diagonal] += y_diag[:, geometry.left_column]
        out[:, geometry.left] += slab
        out[:, geometry.right] += y_off[:, geometry.right_y]
        return out.reshape(-1, b.size, b.size) if self._stacked else out.reshape(b.size, b.size)

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


def build_liouvillian(h_matrix, spec) -> Liouvillian:
    """Full quench generator: commutator plus the alpha-mixed channels, in diagonal form.

    h_matrix is the 2^N x 2^N Hamiltonian of an N-qubit chain, or a
    (P, 2^N, 2^N) stack of them; N is read off its shape and must be at
    most `config.MAX_QUBITS`.  spec is one `ChannelSpec`, or a sequence of
    P.  A stack or a sequence gives the family of P generators, member p
    from H p and spec p (either one shared), each with the rates and the
    bytes of its own one-generator call; its members must agree on whether
    they dissipate (ValueError otherwise).  Both channels' jumps are passed,
    at rate 0.0 where a member's channel is off, and `Liouvillian` keeps
    those live in some member.
    """
    h = np.asarray(h_matrix, dtype=complex)
    n_qubits = h.shape[-1].bit_length() - 1 if h.ndim in (2, 3) else 0
    if not 1 <= n_qubits <= MAX_QUBITS or h.shape[-2:] != (2 ** n_qubits,) * 2:
        raise ValueError(f"the Hamiltonian must be 2^N x 2^N with 1 <= N <= "
                         f"{MAX_QUBITS}, got shape {h.shape}")
    specs = (spec,) if isinstance(spec, ChannelSpec) else tuple(spec)
    if not specs:
        raise ValueError("spec must be a ChannelSpec or a non-empty sequence of them")
    jumps = _site_jumps(n_qubits, "minus") + _site_jumps(n_qubits, "z")
    rates = tuple(_channel_rates(s, n_qubits) for s in specs)
    return Liouvillian(h, jumps, rates[0] if isinstance(spec, ChannelSpec) else rates,
                       _chain_labels(n_qubits))


def _channel_rates(spec: ChannelSpec, n: int) -> tuple:
    """The rates of the n site jumps sigma^- and their sum, then sigma^z's, 0.0 where off.

    Each channel is gamma [(1 - interp) I + interp 11^T] in diagonal form.
    """
    rates = ()
    for weight, interp in ((1.0 - spec.alpha, spec.alpha_minus), (spec.alpha, spec.alpha_z)):
        rate = weight * spec.gamma
        rates += (rate * (1.0 - interp),) * n + (rate * interp,)
    return rates
