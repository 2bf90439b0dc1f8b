"""Time evolution rho(t) = exp(L t) rho(0), on uniform grids or in one jump.

The primary propagator works block by block: L never couples two of its
invariant blocks (`Liouvillian.blocks`, declared by its excitation
labels), so exp(L t) is block-diagonal too.  `propagate` and `evolve_to`
exponentiate L[b, b] t once for each block b that vec(rho0) touches,
each assembled alone by `Liouvillian.block` (no D^2 x D^2 generator is
formed), and step or apply only those blocks; every entry outside them
stays exactly zero, as exact evolution leaves it.
`evolve_points` jumps one generator family (`Liouvillian.members`) from
one state or stack, or from one stack per member (a steady sweep's Gibbs
stacks), `evolve_to` being its one-generator case.  Each touched block
is assembled and jumped EXPM_CHUNK_CELLS generator cells of consecutive
members at a time, by one stacked `expm` call and one stacked apply,
and the family is screened once, each acting on every matrix and state
as on it alone, so a point evolves to the same bytes alone or among
others: a steady sweep's dozens of 6x6 problems cost a few numpy calls.
A steady sweep asks `evolve_points` for limits: a touched block whose
generator has a one-dimensional kernel, found by one stacked solve per
chunk of the blocks bordered by their trace rows that are not exactly
singular (`_block_limits`), is read at t -> infinity, its unique steady
state times each state's trace on it; every other block, and every
`evolve_to`, keeps the exact jump to t.
`propagate` steps by doubling: with P = exp(L[b, b] dt)^m, one matrix
product turns the first m stored states into the next m, and P squares,
so a grid of T steps costs ceil(log2(T + 1)) products per block rather
than T mat-vecs.  With dissipation on, the chain's blocks are the sectors
of fixed ket-minus-bra excitation number, and a Gibbs state touches only
the largest (70 of 256 indices at four qubits).
A `Trajectory` stores each state at its support only: the (D, D) entries
of the blocks the propagator touched, as one (T, S) array that `propagate`
and `evolve_points` write their block powers and jumps into (S = 70 of 256 at
four qubits, 6 of 16 at two).  Every linear readout Tr(rho A) (energies,
energy-basis populations, the dark population) is `Trajectory.expect`,
one fixed-order sum over those entries, so a state reads the same bytes
alone or inside a stack; the whole (T, D, D) stack is built only on
request.
Every stored state is re-symmetrized and screened against the CPTP
invariants (trace, Hermiticity, positivity); a violation beyond the guard
tolerance aborts with the offending step index, because it can only mean
a bug in the generator or the integrator.  Positivity is monitored, never
projected.  The screen works on the stored entries themselves,
SCREEN_CHUNK states at a time, and writes the symmetrized entries back
over the support in ascending row-major order, so a trajectory holds its
(T, S) array and only (SCREEN_CHUNK, S)-sized temporaries.
A support also fixes the sectors of its states (`sector_layout`), read
off the excitation labels its producer declares (`Liouvillian.labels`):
H conserves excitation number and the sigma^- and sigma^z jumps move a
state only between excitation sectors, so a Gibbs quench stays
block-diagonal over them for all time: 1+4+6+4+1 at four qubits, 1+2+1
at two.  A support with an entry that joins two sectors is read as one
whole-basis sector.  The chain's mirror (site i <-> N+1-i) is a weak
symmetry of every channel the paper uses, and rho(t) commutes with it to
rounding, so the screen reads each sector on its mirror-parity blocks:
1,2,2,4,2,2,2,1 at four qubits, 1,1,1,1 at two.  One layout serves both
block kinds: each block entry combines stored entries with fixed
weights, the mirror's layout giving the parity blocks and the identity's
each sector's own block.  A 1x1 block is its diagonal entry and a parity
2x2 block has a closed form, so the only eigensolver call left is one
batch of 4x4 blocks per chunk at four qubits.  A state whose even-odd
entries exceed OFF_PARITY_TOL, and every state at a support without
parity blocks, is read on its sectors' own blocks instead.  The screen
keeps the values only; eigenvectors are computed by the branch tracker
in `ergotropy.eigenvalue_crossings` alone, on the sectors' own blocks of
the trajectory's layout, SCREEN_CHUNK states at a time, and matched
inside their sector.
Both propagators return such a `Trajectory`: `propagate` one entry per
grid time, `evolve_to` one entry per input state, all at the target time,
and `evolve_points` one such Trajectory per member.  They read the initial
states in place, row-major (`_initial_states`): no vectorized copy of a
stack is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .channels import Liouvillian, _chain_labels
from .config import grid_error
from .linalg import expm, hermitian_eigvals_batch, solve
from .model import check_density_matrix

GUARD_TOL = 1e-6  # runtime CPTP guard; test-level bounds are far tighter
SCREEN_CHUNK = 256  # states whose screen or branch-tracker temporaries are held at once
# Generator cells (P n^2) that `evolve_points` assembles and exponentiates at once, the
# one chunk of generator cells: a whole stack of 70x70 blocks' Pade temporaries raised
# the steady sweeps' peak memory by a fifth; a 70x70 block gains nothing from company.
EXPM_CHUNK_CELLS = 4096
# Largest ||M||_1 ||M^-1||_1 of a bordered generator block M (`_block_limits`) whose
# kernel is read as one-dimensional.  A block with a kernel of dimension 2 or more
# gives an M that is singular in exact arithmetic: 6e16 to 1e18 here, or a zero pivot.
LIMIT_COND = 1e10
# Largest |ell L_b| and |L_b x|, relative to ||L_b||_1, of a block whose limit is read.
LIMIT_TOL = 1e-12
# A state is read on its parity blocks only if the Frobenius norm of its
# even-odd entries X is at most this.  Dropping them is a Hermitian
# perturbation of spectral norm ||X||_2 <= ||X||_F, so by Weyl's inequality
# no eigenvalue moves by more than the bound the sector spectra are held to
# against full-matrix eigvalsh.
OFF_PARITY_TOL = 1e-14


class InvariantViolation(RuntimeError):
    """A propagated state left the CPTP manifold beyond the guard tolerance."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform output grid: states are stored at k*dt for k = 0..t_max/dt."""

    t_max: float
    dt: float = 0.5

    def __post_init__(self):
        if not 0 < self.dt <= 1.0:  # NaN fails it too
            raise ValueError(f"dt must be in (0, 1], got {self.dt}")
        if not self.dt <= self.t_max < math.inf:
            raise ValueError(f"t_max must be finite and >= dt, got {self.t_max}")
        if error := grid_error(self.t_max, self.dt):
            raise ValueError(error)

    @property
    def n_steps(self) -> int:
        return round(self.t_max / self.dt)

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


@dataclass(eq=False)
class Trajectory:
    """Stored states and their times, with the spectra the CPTP screen computed of each.

    A state is kept at its support only: `values[k, s]` is the entry of
    state k at the row-major (D, D) index `support[s]`, ascending, and
    every entry off the support is exactly zero.  A propagator's support is
    the indices of the blocks of L it touched, so a four-qubit Gibbs
    trajectory stores 70 of each state's 256 entries; a stack given to
    `screened` is kept at the entries nonzero in some state.  `layout` is
    the `SectorLayout` the screen read: the support and the sectors, from
    the producer's excitation labels, where the screen took the spectra
    and where the branch tracker takes eigenvectors.  `expect` reads
    Tr(rho A) from those entries, and `states` builds the whole (T, D, D)
    stack on each access.  `==` compares identity: an array field has no
    single truth value.
    """

    times: np.ndarray
    values: np.ndarray     # (T, S): each state's entries at `support`
    layout: SectorLayout   # the support's sectors, as the screen read them
    spectra: np.ndarray    # (T, D), ascending

    def __len__(self) -> int:
        return len(self.times)

    @property
    def support(self) -> np.ndarray:
        """(S,) row-major indices into a (D, D) state, ascending: the layout's, read-only."""
        return self.layout.stored

    @property
    def dim(self) -> int:
        """D, the dimension of each state."""
        return self.spectra.shape[1]

    def expect(self, ops) -> np.ndarray:
        """Re Tr(rho_t A) of every stored state: (T,) for one (D, D) operator, (T, K) for a stack.

        The sum runs over the support in ascending row-major order, each
        state's own sum in the same order (einsum without BLAS), so a state
        gives the same bytes alone or inside a stack, and as it would over
        all D*D entries: the ones off the support are exact zeros.
        """
        ops = np.asarray(ops)
        if ops.shape[-2:] != (self.dim, self.dim):
            raise ValueError(
                f"operator shape {ops.shape[-2:]} does not match state dim {self.dim}")
        # Tr(rho A) = sum_ij rho_ij A_ji: A^T's entries at the support
        transposed = np.swapaxes(ops, -1, -2).reshape(*ops.shape[:-2], -1)[..., self.support]
        # a float array of its own: a .real view would keep the complex sums alive
        return np.einsum("ts,...s->t...", self.values, transposed, optimize=False).real.copy()

    @property
    def states(self) -> np.ndarray:
        """Every stored state as one fresh C-contiguous (T, D, D) stack, built anew on each access."""
        full = np.zeros((len(self), self.dim, self.dim), dtype=complex)
        # full[k, support] = values[k] through one flat index: numpy's 2-D fancy
        # assignment costs about three times as much
        index = np.arange(len(self))[:, None] * self.dim ** 2 + self.support
        full.reshape(-1)[index.reshape(-1)] = self.values.reshape(-1)
        return full

    @classmethod
    def screened(cls, times, raw_states) -> "Trajectory":
        """The screened Trajectory of a full (T, D, D) stack; raw_states is left as it was.

        It is kept at the entries that are nonzero in some state, closed
        under transposition, so a state on its own finds the sectors it has
        inside its trajectory whenever its support fills them.  A stack has
        no producer to declare its labels: a 2^N-dimensional one is read in
        the N-qubit chain's (`channels._chain_labels`, those
        `build_liouvillian` gives), any other as one class.
        """
        raw = np.asarray(raw_states)
        dim = raw.shape[-1]
        flat = raw.reshape(len(raw), dim * dim)
        held = np.any(flat != 0, axis=0)
        held |= held.reshape(dim, dim).T.ravel()  # closed under transposition
        support = np.flatnonzero(held)
        labels = _chain_labels(dim.bit_length() - 1) if dim & (dim - 1) == 0 else (0,) * dim
        return _screen(times, np.asarray(flat[:, support], dtype=complex), support, labels)


class BlockLayout(NamedTuple):
    """The blocks of the states at one support in one orthonormal basis; see `_block_layout`.

    Each of the E entries of a state in that basis is the sum, in order, of
    its K terms sign * (stored entry), times its weight; term 0's sign is
    +1, a term of sign 0 is padding, and an entry that the support does not
    hold has weight 0.  The entries lie in this order: the even-odd ones
    (one triangle), then every block whole and row-major, block after
    block, the blocks of one size together and the sizes ascending.
    """

    sources: np.ndarray  # (K, E) stored column of each entry's terms
    signs: np.ndarray    # (K, E) +1, -1 or 0, as complex numbers
    weights: np.ndarray  # (E,) 1, 1/sqrt(2), 1/2 or 0, as complex numbers
    off: slice           # the even-odd entries
    blocks: tuple        # (m, slice, basis) of each size m, ascending; basis labels the vectors


class SectorLayout(NamedTuple):
    """How the states stored at one support decompose into blocks; see `sector_layout`."""

    stored: np.ndarray     # (S,) the support, ascending
    order: np.ndarray      # (S,) input column of each stored entry
    transpose: np.ndarray  # (S,) input column of each stored entry's transpose
    diagonal: np.ndarray   # stored columns of the diagonal entries, ascending
    sectors: BlockLayout   # each sector's own block, in the product basis
    parity: BlockLayout | None  # the sectors' parity blocks; None if the mirror does not act


@lru_cache(maxsize=64)
def sector_layout(dim: int, support: tuple, labels: tuple) -> SectorLayout:
    """The sector layout of (D, D) states held at the row-major indices `support`, in that order.

    labels[i] is the excitation number of basis state i, as the states'
    producer declares it (`Liouvillian.labels`).  The sectors are its
    classes, ordered by their first index, when every held entry joins two
    basis states of one class: no state held there couples two of them,
    so each state is block-diagonal over them, 1+4+6+4+1 at four qubits
    under the paper's channels.  A support with an entry that joins two
    classes is one whole-basis sector.  support must be closed under
    transposition.  The identity's `_block_layout` gives each sector its
    own block; the chain's mirror, which reverses the bits of a basis
    index, gives the sectors' parity blocks where dim is a power of two
    >= 4, the mirror maps every sector onto itself and the support holds
    every sector's block whole.  Computed once per (dim, support, labels),
    read-only.
    """
    support = np.array(support, dtype=int)
    order = np.argsort(support)
    stored = support[order]
    column = np.full(dim * dim, -1)
    column[support] = np.arange(support.size)
    transpose = column[_row_major(stored, dim)]  # (i, j) -> (j, i)
    position = np.full(dim * dim, -1)
    position[stored] = np.arange(stored.size)
    diagonal = position[np.arange(dim) * (dim + 1)]
    key, (rows, cols) = np.array(labels), np.divmod(stored, dim)
    sectors = (tuple(np.flatnonzero(key == k) for k in dict.fromkeys(labels))  # by first index
               if np.array_equal(key[rows], key[cols]) else (np.arange(dim),))
    parity, bits = None, dim.bit_length() - 1
    # every held entry lies in a sector's block: the blocks are held whole iff they hold S
    if dim >= 4 and dim == 1 << bits and sum(b.size ** 2 for b in sectors) == stored.size:
        mirror = np.array([int(f"{i:0{bits}b}"[::-1], 2) for i in range(dim)])
        if all(np.array_equal(np.sort(mirror[b]), b) for b in sectors):
            parity = _block_layout(dim, sectors, position, mirror)
    layout = SectorLayout(stored, order, transpose, diagonal[diagonal >= 0],
                          _block_layout(dim, sectors, position, np.arange(dim)), parity)
    for array in layout[:4]:
        array.setflags(write=False)
    return layout


def _block_layout(dim: int, sectors, position, perm) -> BlockLayout:
    """The blocks of the sectors in the basis that an involution perm of the basis indices gives.

    Each fixed point b gives the vector |b>, labelled b; each pair
    b < perm(b) gives the even vector (|b> + |perm(b)>)/sqrt(2), labelled b,
    and the odd one (|b> - |perm(b)>)/sqrt(2), labelled perm(b).  A
    sector's even vectors, ordered by b, form one block and its odd ones
    another.  The identity gives each sector's own block, one stored entry
    per entry, or none where the support does not hold it: such an entry
    reads stored column 0 (for a positive state, a population) with weight
    0.  perm maps each sector onto itself.  position maps a row-major
    (D, D) index to its stored column, or -1.  Read-only.
    """
    off, blocks = [], {}
    for b in sectors:
        heads = [int(i) for i in b if i <= perm[i]]
        even = [((i, int(perm[i])), (1, 1), i) if i < perm[i] else ((i,), (1,), i) for i in heads]
        odd = [((i, int(perm[i])), (1, -1), int(perm[i])) for i in heads if i < perm[i]]
        off += [(u, v) for u in even for v in odd]
        for block in (even, odd):
            if block:
                blocks.setdefault(len(block), []).append(block)
    pairs, groups = list(off), []  # (row vector, column vector) of each entry, in storage order
    for size in sorted(blocks):
        groups.append((size, slice(len(pairs), len(pairs) + len(blocks[size]) * size ** 2),
                       np.array([u[2] for block in blocks[size] for u in block])))
        pairs += [(u, v) for block in blocks[size] for u in block for v in block]
    k = max(len(u[0]) * len(v[0]) for u, v in pairs)  # terms per entry
    sources = np.zeros((k, len(pairs)), dtype=int)
    signs = np.zeros((k, len(pairs)), dtype=complex)  # complex: no cast buffers in the products
    for e, ((rows, row_signs, _), (cols, col_signs, _)) in enumerate(pairs):
        terms = [(position[i * dim + j], si * sj)
                 for i, si in zip(rows, row_signs) for j, sj in zip(cols, col_signs)]
        terms += [(terms[0][0], 0)] * (k - len(terms))
        sources[:, e], signs[:, e] = zip(*terms)
    weights = np.array([np.sqrt(1 / (len(u[0]) * len(v[0]))) for u, v in pairs], dtype=complex)
    weights[np.any(sources < 0, axis=0)] = 0
    sources[sources < 0] = 0
    for array in (sources, signs, weights, *(basis for *_, basis in groups)):
        array.setflags(write=False)
    return BlockLayout(sources, signs, weights, slice(0, len(off)), tuple(groups))


def block_entries(rows, blocks: BlockLayout, spare=None) -> np.ndarray:
    """The (C, E) entries of C states in a layout's basis, given by their (C, S) stored entries.

    Both arrays are read by entry, one contiguous (C,) column each, as the
    screen's column gathers lay them out (Fortran order); mode="clip" lets
    `take` write into its output directly, every source being in range.
    The entries fill the first C*E elements of the contiguous buffer
    spare if it has that many, and a new array otherwise.
    """
    size = len(rows) * blocks.weights.size
    flat = np.ravel(spare, order="K") if spare is not None else ()
    if len(flat) < size:
        flat = np.empty(size, dtype=complex)
    stored, by_entry = rows.T, flat[:size].reshape(blocks.weights.size, len(rows))
    term = np.empty_like(by_entry) if len(blocks.sources) > 1 else None
    np.take(stored, blocks.sources[0], axis=0, out=by_entry, mode="clip")
    for sources, signs in zip(blocks.sources[1:], blocks.signs[1:]):
        np.take(stored, sources, axis=0, out=term, mode="clip")
        term *= signs[:, None]
        by_entry += term
    by_entry *= blocks.weights[:, None]
    return by_entry.T


def _hermitian_2x2_eigvals(a, d, c):
    """Ascending eigenvalues of [[a, conj(c)], [c, d]], a and d real.

    They are mid -+ hypot((a - d)/2, |c|) with mid = (a + d)/2.
    """
    mid = (a + d) * 0.5
    radius = np.hypot((a - d) * 0.5, np.abs(c))
    return mid - radius, mid + radius


def _block_spectra(entries, blocks: BlockLayout, out, closed_twos: bool) -> None:
    """Write the spectra, unsorted, of C states given by their (C, E) block entries into out.

    Each block's eigenvalues go to the (C, D) out's columns at its vectors'
    labels.  A 1x1 block is its real entry, a 2x2 block is read in closed
    form if closed_twos (parity blocks; a sector's stays on eigvalsh, whose
    bytes `ergotropy` is held to) and larger ones by `hermitian_eigvals_batch`.
    """
    for size, span, basis in blocks.blocks:
        block = entries[:, span]
        if size == 1:
            out[:, basis] = block.real
        elif size == 2 and closed_twos:
            out[:, basis[0::2]], out[:, basis[1::2]] = _hermitian_2x2_eigvals(
                block[:, 0::4].real, block[:, 3::4].real, block[:, 2::4])
        else:
            out[:, basis] = hermitian_eigvals_batch(
                block.reshape(-1, size, size)).reshape(len(entries), -1)


def _chunk_spectra(sym, spare, layout: SectorLayout, out) -> None:
    """Write the spectra, unsorted, of C symmetrized states, given by their stored entries.

    A state is read on its parity blocks, whose 2x2 blocks have a closed
    form, if its even-odd entries have a Frobenius norm of at most
    OFF_PARITY_TOL, and on its sectors' own blocks otherwise, so that its
    bytes do not depend on the other states.  spare is a contiguous (C, S)
    complex buffer free for the block entries; the parity entries always
    fit (a sector held whole stores more entries than its parity blocks read).
    """
    rest = np.ones(len(sym), dtype=bool)
    parity = layout.parity
    if parity is not None:
        entries = block_entries(sym, parity, spare)
        rest = ~(np.linalg.norm(entries[:, parity.off], axis=1) <= OFF_PARITY_TOL)
        if not rest.all():
            _block_spectra(entries, parity, out, closed_twos=True)
    if rest.any():  # overwrite the others' rows
        part = np.empty((np.count_nonzero(rest), out.shape[1]))
        entries = block_entries(sym[rest], layout.sectors, spare)
        _block_spectra(entries, layout.sectors, part, closed_twos=False)
        out[rest] = part


def _screen(times, values, support, labels: tuple, per_point: int | None = None) -> Trajectory:
    """Symmetrize the (T, S) raw entries in place, enforce the CPTP guard and keep the spectra.

    The states are screened SCREEN_CHUNK at a time, at their support, in
    the `sector_layout` of the excitation labels of their D basis states:
    each check reads the chunk's (C, S) entries and the transposes the
    layout maps them to.  The spectra are taken on the sectors' parity
    blocks or on the sectors' own blocks (`_chunk_spectra`), their entries
    formed in the buffer of the raw entries once the symmetrized ones hold
    them; each state's are merged by a row sort.  No (D, D) matrix is
    formed.  support must be closed under transposition, so that
    symmetrizing leaves nothing outside it.  The deviations of every state
    are checked after the last chunk, so the first bad step is reported
    whichever chunk it lies in; a deviation that is not a number (a NaN
    entry) fails the check like one above GUARD_TOL.  The states may be
    the per_point states of each member of a family in turn (a many-point
    jump): a violation is then reported for the first member that has one,
    at its step inside that member.  Each chunk's symmetrized entries are
    written back over `values` in ascending row-major order, the order of
    the returned Trajectory's support; the Trajectory carries the layout.
    """
    dim = len(labels)
    layout = sector_layout(dim, tuple(support.tolist()), labels)
    herm, trace_dev = np.empty(len(values)), np.empty(len(values))
    vals = np.empty((len(values), dim))
    for a in range(0, len(values), SCREEN_CHUNK):
        rows = values[a:a + SCREEN_CHUNK]
        raw = rows[:, layout.order]
        sym = rows[:, layout.transpose]
        np.conjugate(sym, out=sym)  # raw^H at each stored entry
        with np.errstate(invalid="ignore"):  # inf - inf: a NaN defect, reported below
            herm[a:a + SCREEN_CHUNK] = np.abs(raw - sym).max(axis=1, initial=0.0)
            # 0.5 * (raw + raw^H), formed in the adjoint's buffer
            sym += raw
            sym *= 0.5
            trace_dev[a:a + SCREEN_CHUNK] = np.abs(sym[:, layout.diagonal].sum(axis=1) - 1.0)
        # a non-finite entry makes the Hermiticity defect non-finite, which the guard
        # rejects; such a state is not given to the eigensolver, which may refuse it
        sym[~np.isfinite(herm[a:a + SCREEN_CHUNK])] = 0.0
        chunk = vals[a:a + SCREEN_CHUNK]
        _chunk_spectra(sym, raw, layout, chunk)  # raw's buffer is free now
        chunk.sort(axis=1)
        rows[...] = sym
    checks = (("Hermiticity", herm), ("trace", trace_dev), ("positivity", -vals[:, 0]))
    failed = np.zeros(len(values), dtype=bool)
    for _, dev in checks:
        failed |= ~(dev <= GUARD_TOL)
    if failed.any():
        own = per_point or len(values)
        start = int(np.argmax(failed)) // own * own
        for name, dev in checks:
            bad = np.flatnonzero(~(dev[start:start + own] <= GUARD_TOL))
            if bad.size:
                k = int(bad[0])
                raise InvariantViolation(f"dynamics: {name} defect {dev[start + k]:.3e} "
                                         f"at step {k} (t={times[start + k]:g})")
    return Trajectory(times=times, values=values, layout=layout, spectra=vals)


def _initial_states(rho0) -> np.ndarray:
    """The row-major entries of one (D, D) state or a stack, as a (B, D*D) or (P, B, D*D) array.

    rho0 is first checked, as a whole, to hold density matrices, and
    refused if it holds none.  One state gives one row.  The rows are a
    view of rho0 where it is contiguous: a block b of vec indices reads its
    entries at `_row_major(b, D)`.
    """
    rho0 = np.asarray(rho0)
    if rho0.ndim < 2 or 0 in rho0.shape:
        raise ValueError(f"rho0 must hold at least one (D, D) state, got shape {rho0.shape}")
    check_density_matrix(rho0, context="initial state")
    rows = rho0.reshape(*rho0.shape[:-2], rho0.shape[-1] * rho0.shape[-2])
    return rows if rho0.ndim > 2 else rows[None]


def _row_major(vec_indices, dim: int) -> np.ndarray:
    """Row-major (D, D) indices of column-stacked ones: vec index j*D + i is entry (i, j)."""
    return (vec_indices % dim) * dim + vec_indices // dim


def _layout(blocks, dim: int):
    """The support of states spanned by blocks of vec indices, and each block's column slice.

    The blocks' entries come first, block after block, so that each block
    fills one run of columns; transposes of them that no block holds follow
    (zero until symmetrized), so the support is closed under transposition.
    """
    spans, start = [], 0
    for b in blocks:
        spans.append(slice(start, start + len(b)))
        start += len(b)
    support = _row_major(np.concatenate(blocks), dim)
    held = np.zeros(dim * dim, dtype=bool)
    held[support] = True
    transposes = _row_major(support, dim)  # the map is its own inverse: (i, j) -> (j, i)
    return np.concatenate((support, transposes[~held[transposes]])), spans


def _powers(step, v, rows) -> None:
    """Fill the (n_steps + 1, v.size) rows with v and step^k v for k = 1..n_steps, by doubling.

    With P = step^m, the rows m..2m-1 are the rows 0..m-1 times P^T, one
    product for the whole block of rows; then P squares.  Every row comes
    from ceil(log2(n_steps + 1)) products, not n_steps mat-vecs in a loop.
    rows may be a run of columns of a wider array.
    """
    n_steps = len(rows) - 1
    rows[0] = v
    power = step.T  # (step^m)^T, so that rows @ power = (step^m rows^T)^T
    m = 1
    while m <= n_steps:
        j = min(m, n_steps + 1 - m)
        np.matmul(rows[:j], power, out=rows[m:m + j])
        m *= 2
        if m <= n_steps:
            power = power @ power


def _touched_blocks(liou: Liouvillian, states) -> list:
    """The invariant blocks of L, in its order, that some state has an entry in.

    states holds row-major (D*D) entries along its last axis (`_initial_states`).
    """
    side = math.isqrt(states.shape[-1])
    if side != liou.dim_state:
        raise ValueError(f"state shape {(side, side)} does not match dim {liou.dim_state}")
    held = np.any(states.reshape(-1, states.shape[-1]), axis=0)
    return [b for b in liou.blocks if held[_row_major(b, side)].any()]


def _one_generator(liou: Liouvillian, caller: str) -> None:
    """Refuse a family of more than one generator where one is evolved."""
    if liou.members != 1:
        raise ValueError(f"{caller} takes one generator, got a family of {liou.members}; "
                         "evolve_points evolves a family")


def propagate(liou: Liouvillian, rho0, grid: TimeGrid) -> Trajectory:
    """Evolve one state rho0 with the one-step blocks exp(L[b, b] dt), their powers by doubling.

    Only the blocks b that rho0 touches are assembled (`liou.block(b)`).
    liou is one generator (or a family of one).
    """
    _one_generator(liou, "propagate")
    if np.ndim(rho0) != 2:
        raise ValueError(f"propagate takes one (D, D) state, got shape {np.shape(rho0)}")
    states = _initial_states(rho0)
    jumps = [(b, expm(liou.block(b).reshape(b.size, b.size) * grid.dt))
             for b in _touched_blocks(liou, states)]
    support, spans = _layout([b for b, _ in jumps], liou.dim_state)
    values = np.zeros((grid.n_steps + 1, support.size), dtype=complex)
    for (b, step), cols in zip(jumps, spans):
        _powers(step, states[0, _row_major(b, liou.dim_state)], values[:, cols])
    return _screen(grid.times(), values, support, liou.labels)


def _diagonal_sum(stack, diagonal) -> np.ndarray:
    """stack's entries at the positions `diagonal` along its last axis, summed in ascending order.

    Each sum is its own run of elementwise adds, so an entry gets the same
    bytes alone or inside a stack (a BLAS product over the stack need not).
    """
    first, *rest = np.flatnonzero(diagonal)
    total = stack[..., first].copy()
    for position in rest:
        total += stack[..., position]
    return total


def _block_limits(generators, diagonal):
    """The t -> infinity limits of the generator blocks L_b of a (P, n, n) stack that have one.

    diagonal marks the block's vec indices of diagonal entries: its trace
    row ell.  Given ell L_b = 0, the bordered M (L_b with its row r, the
    first that ell marks, replaced by ell) is nonsingular iff the kernel
    of L_b is one-dimensional.  Then L_b's unique steady state (Spohn, Rep.
    Math. Phys. 10, 189 (1976)) is x = M^-1[:, r], of trace 1, and
    exp(L_b t) v tends to (ell v) x.  A block's limit is read only if it
    is finite, |ell L_b| <= LIMIT_TOL ||L_b||_1, M is not exactly singular
    (slogdet's sign, from the LU factorization solve would make, is not
    0), ||M||_1 ||M^-1||_1 <= LIMIT_COND and |L_b x| <= LIMIT_TOL
    ||L_b||_1.  The M that remain are inverted by one stacked solve, or
    none if no M remains.  Returns the (P,) mask of the blocks that pass
    and the (P, n) limits x (rows of the others are not read).
    """
    count, n = generators.shape[:2]
    passed, limits = np.zeros(count, dtype=bool), np.zeros((count, n), dtype=complex)
    if not diagonal.any():
        return passed, limits
    with np.errstate(invalid="ignore", over="ignore"):
        scale = LIMIT_TOL * np.abs(generators).sum(axis=1).max(axis=1)
        leak = np.abs(_diagonal_sum(np.swapaxes(generators, -1, -2), diagonal)).max(axis=1)
    candidates = np.flatnonzero(np.isfinite(generators).all(axis=(1, 2)) & (leak <= scale))
    r = int(np.argmax(diagonal))
    bordered = generators[candidates]
    bordered[:, r, :] = diagonal
    # slogdet's sign is 0 exactly where LU meets a zero pivot, where solve would raise
    regular = np.linalg.slogdet(bordered)[0] != 0
    candidates, bordered = candidates[regular], bordered[regular]
    if candidates.size == 0:
        return passed, limits
    inverses = solve(bordered, np.broadcast_to(np.eye(n, dtype=complex), bordered.shape))
    x = inverses[:, :, r]
    with np.errstate(invalid="ignore", over="ignore"):
        cond = np.abs(bordered).sum(axis=1).max(axis=1) * np.abs(inverses).sum(axis=1).max(axis=1)
        residual = np.abs(np.matmul(generators[candidates], x[..., None])[..., 0]).max(axis=1)
        passed[candidates] = (cond <= LIMIT_COND) & (residual <= scale[candidates])
    limits[candidates] = x
    return passed, limits


def evolve_points(rho0, liou: Liouvillian, t: float, limit: bool = False) -> list:
    """Single-jump evolution exp(L t) rho0 of each member of a family, as `evolve_to` gives it.

    liou is one generator or a family of P (`Liouvillian.members`), and
    rho0 is a state or a (B, D, D) stack that every member starts from, or
    a (P, B, D, D) array of one stack per member.  rho0 is checked by one
    `check_density_matrix` call, as `evolve_to` checks it, and refused if
    it holds no state.  The blocks b its states touch are found once, and
    each is assembled EXPM_CHUNK_CELLS generator cells of consecutive
    members at a time (`liou.block(b, members)`): a chunk is exponentiated
    by one stacked `expm` call and applied by stacked matrix-vector
    products before the next is assembled, so no block of the whole family
    is held.  The states are screened by one `_screen` call in the family's
    labels.  Each acts on every matrix and state as on it alone, so a
    member gets the bytes it gets alone.  Returns one Trajectory per
    member; a violation names the step, inside its own member, of the
    first failing member.

    With limit, each chunk's blocks larger than 1x1 are first tested by
    `_block_limits`, whose one stacked solve takes the chunk's bordered
    blocks that are not exactly singular: a block with a one-dimensional
    kernel is read at t -> infinity, each state as (ell v) x with ell v its
    own fixed-order sum of diagonal entries, and only the others go to
    `expm` at t.  Both kinds are read from the chunk's generators and its
    states, which are written in their place in the output first.  The
    states are screened as before and their times still read t; the
    decision and the limit of a block do not depend on its company.
    """
    if not 0 <= t < math.inf:  # NaN fails it too
        raise ValueError(f"t must be finite and >= 0, got {t}")
    rows = _initial_states(rho0)
    if rows.ndim > 3 or rows.ndim == 3 and len(rows) != liou.members:
        raise ValueError(f"rho0 of shape {np.shape(rho0)} is neither one stack nor one "
                         f"stack per member of a family of {liou.members}")
    touched = _touched_blocks(liou, rows)
    dim, count, states = liou.dim_state, liou.members, rows.shape[-2]
    support, spans = _layout(touched, dim)
    values = np.zeros((count, states, support.size), dtype=complex)
    for b, cols in zip(touched, spans):
        # the states go in their place, which the limits and the jumps then overwrite
        values[:, :, cols] = rows[..., _row_major(b, dim)]
        step = max(1, EXPM_CHUNK_CELLS // b.size ** 2)
        diagonal = b % (dim + 1) == 0  # vec index i*D + i is entry (i, i)
        for members in (slice(a, a + step) for a in range(0, count, step)):
            part = values[members, :, cols]
            generators = liou.block(b, members).reshape(-1, b.size, b.size)
            # a 1x1 block keeps its jump: expm reads exp(0) as 1 - 2^-53, so a limit
            # read as exactly 1 would move the rows of points that have no limit
            passed, limits = (_block_limits(generators, diagonal) if limit and b.size > 1
                              else (np.zeros(len(generators), dtype=bool), None))
            if passed.any():
                part[passed] = (_diagonal_sum(part[passed], diagonal)[..., None]
                                * limits[passed, None])
            if not passed.all():
                part[~passed] = np.matmul(expm(generators[~passed] * t)[:, None],
                                          part[~passed, ..., None])[..., 0]
    traj = _screen(np.full(count * states, t), values.reshape(-1, support.size),
                   support, liou.labels, per_point=states)
    return [Trajectory(traj.times[own], traj.values[own], traj.layout, traj.spectra[own])
            for own in (slice(p * states, (p + 1) * states) for p in range(count))]


def evolve_to(liou: Liouvillian, rho0, t: float) -> Trajectory:
    """Single-jump evolution exp(L t) rho0; exact, no intermediate storage.

    liou is one generator (or a family of one), and rho0 one (D, D) state
    or a (B, D, D) stack of states, checked as a whole by one
    `check_density_matrix` call (a failure names the index of the first bad
    member); the result is the screened Trajectory with one entry per input
    state, all at time t.  It is `evolve_points` of one generator: each
    touched block's exp(L[b, b] t) is computed once and applied to each
    state by one stacked matrix-vector product, so a state evolves to the
    same bytes alone or inside a stack.
    """
    _one_generator(liou, "evolve_to")
    return evolve_points(rho0, liou, t)[0]
