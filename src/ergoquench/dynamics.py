"""Time evolution rho(t) = exp(L t) rho(0), on uniform grids or in one jump.

The primary propagator works block by block: L never couples two of its
invariant blocks (`Liouvillian.blocks`), so exp(L t) is block-diagonal
too.  `propagate` and `evolve_to` exponentiate L[b, b] t once for each
block b that vec(rho0) touches and step or apply only those blocks; every
entry outside them stays exactly zero, as exact evolution leaves it.
`propagate` steps by doubling: with P = exp(L[b, b] dt)^m, one matrix
product turns the first m stored states into the next m, and P squares,
so a grid of T steps costs ceil(log2(T + 1)) products per block rather
than T mat-vecs.  With dissipation on, the chain's blocks are the sectors
of fixed ket-minus-bra excitation number, and a Gibbs state touches only
the largest (70 of 256 indices at four qubits).
A `Trajectory` stores each state at its support only: the (D, D) entries
of the blocks the propagator touched, as one (T, S) array that `propagate`
and `evolve_to` write their block powers and jumps into (S = 70 of 256 at
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
A support also fixes the sectors of its states (`sector_layout`): the
connected components of its (D, D) pattern, which no stored state
couples.  H conserves excitation number and the sigma^- and sigma^z jumps
move a state only between excitation sectors, so a Gibbs quench stays
block-diagonal over them for all time: 1+4+6+4+1 at four qubits, 1+2+1
at two.  The chain's mirror (site i <-> N+1-i) is a weak symmetry of every
channel the paper uses, and rho(t) commutes with it to rounding, so the
screen reads each sector on its mirror-parity blocks: 1,2,2,4,2,2,2,1 at
four qubits, 1,1,1,1 at two.  A 1x1 block is its diagonal entry and a 2x2
block has a closed form, so the only eigensolver call left is one batch
of 4x4 blocks per chunk at four qubits.  A state whose even-odd entries
exceed OFF_PARITY_TOL, or any state at a support the mirror does not map
onto itself, is read sector by sector instead (`_sector_spectra`).  The
screen keeps the values only: the `Trajectory` carries them, and the
energy bookkeeping reads them from there.  Eigenvectors are computed only
where they are read, by the branch tracker in
`ergotropy.eigenvalue_crossings`, SCREEN_CHUNK states and one excitation
sector at a time, and matched inside their sector.
Both propagators return such a `Trajectory`: `propagate` one entry per
grid time, `evolve_to` one entry per input state, all at the target time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .channels import Liouvillian, _invariant_blocks, vec
from .linalg import expm, hermitian_eigvals_batch
from .model import check_density_matrix

GUARD_TOL = 1e-6  # runtime CPTP guard; test-level bounds are far tighter
SCREEN_CHUNK = 256  # states whose screen or branch-tracker temporaries are held at once
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
        if self.dt <= 0 or self.dt > 1.0:
            raise ValueError(f"dt must be in (0, 1], got {self.dt}")
        if self.t_max < self.dt:
            raise ValueError(f"t_max must be >= dt, got {self.t_max}")
        n = round(self.t_max / self.dt)
        if abs(n * self.dt - self.t_max) > 1e-9 * max(1.0, self.t_max):
            raise ValueError(f"t_max {self.t_max} is not a multiple of dt {self.dt}")

    @property
    def n_steps(self) -> int:
        return round(self.t_max / self.dt)

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


@dataclass
class Trajectory:
    """Stored states and their times, with the spectra the CPTP screen computed of each.

    A state is kept at its support only: `values[k, s]` is the entry of
    state k at the row-major (D, D) index `support[s]`, ascending, and
    every entry off the support is exactly zero.  A propagator's support is
    the indices of the blocks of L it touched, so a four-qubit Gibbs
    trajectory stores 70 of each state's 256 entries; a stack given to
    `screened` is kept at the entries nonzero in some state.  The support's
    sectors (`sector_layout`) are where the screen took the spectra and
    where the branch tracker takes eigenvectors.  `expect` reads Tr(rho A)
    from those entries, and `states` builds the whole (T, D, D) stack on
    each access.
    """

    times: np.ndarray
    values: np.ndarray   # (T, S): each state's entries at `support`
    support: np.ndarray  # (S,) row-major indices into a (D, D) state
    dim: int
    spectra: np.ndarray  # (T, D), ascending

    def __len__(self) -> int:
        return len(self.times)

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
        inside its trajectory whenever its support fills them.
        """
        raw = np.asarray(raw_states)
        dim = raw.shape[-1]
        flat = raw.reshape(len(raw), dim * dim)
        held = np.any(flat != 0, axis=0)
        held |= held.reshape(dim, dim).T.ravel()  # closed under transposition
        support = np.flatnonzero(held)
        return _screen(times, np.asarray(flat[:, support], dtype=complex), support, dim)


class SectorGroup(NamedTuple):
    """The k sectors of one size m, gathered as k (m, m) blocks per state."""

    size: int            # m
    entries: np.ndarray  # (k*m*m,) row-major (D, D) index of each block entry, block after block
    present: np.ndarray  # positions in `entries` that the support holds; the others are zero
    columns: np.ndarray  # stored column of each present entry
    basis: np.ndarray    # (k*m,) the blocks' basis indices, block after block


class ParityLayout(NamedTuple):
    """The mirror-parity blocks of the states at one support; see `_parity_layout`.

    Each of the E parity-basis entries is the sum, in order, of its four
    terms sign * (stored entry), times its weight; term 0's sign is +1 and
    a term of sign 0 is padding.  The entries lie in this order: the
    even-odd ones (one triangle), the 1x1 blocks, the a = (0, 0), d = (1, 1)
    and c = (1, 0) entries of the 2x2 blocks, then each larger size's
    blocks, row-major, block after block.
    """

    sources: np.ndarray  # (4, E) stored column of each entry's terms
    signs: np.ndarray    # (4, E) +1, -1 or 0, as complex numbers
    weights: np.ndarray  # (E,) 1, 1/sqrt(2) or 1/2, as complex numbers
    off: slice           # the even-odd entries
    ones: slice          # the 1x1 blocks
    twos: tuple          # slices of the 2x2 blocks' a, d and c
    groups: tuple        # (m, slice) of the m x m blocks of each m >= 3, ascending


class SectorLayout(NamedTuple):
    """How the states stored at one support decompose into sectors; see `sector_layout`."""

    stored: np.ndarray     # (S,) the support, ascending
    order: np.ndarray      # (S,) input column of each stored entry
    transpose: np.ndarray  # (S,) input column of each stored entry's transpose
    diagonal: np.ndarray   # stored columns of the diagonal entries, ascending
    groups: tuple          # one SectorGroup per sector size, ascending
    parity: ParityLayout | None  # the sectors' parity blocks; None if the mirror does not act


@lru_cache(maxsize=64)
def sector_layout(dim: int, support: tuple) -> SectorLayout:
    """The sector layout of (D, D) states held at the row-major indices `support`, in that order.

    The sectors are the connected components of the support's (D, D)
    pattern: no state held there couples two of them, so each state is
    block-diagonal over them, 1+4+6+4+1 at four qubits under the paper's
    channels and one sector for a dense support.  support must be closed
    under transposition.  Computed once per (dim, support), with the
    sectors' parity blocks (`_parity_layout`), read-only.
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
    sectors = _invariant_blocks(position.reshape(dim, dim) >= 0)
    groups = []
    for size in sorted({len(b) for b in sectors}):
        same = [b for b in sectors if len(b) == size]
        entries = np.concatenate([(b[:, None] * dim + b).ravel() for b in same])
        present = np.flatnonzero(position[entries] >= 0)
        groups.append(SectorGroup(size, entries, present, position[entries[present]],
                                  np.concatenate(same)))
    parity = _parity_layout(dim, sectors, position)
    layout = SectorLayout(stored, order, transpose, diagonal[diagonal >= 0], tuple(groups), parity)
    for array in (*layout[:4], *(a for g in groups for a in g[1:]), *(parity or ())[:3]):
        array.setflags(write=False)
    return layout


def _parity_layout(dim: int, sectors, position) -> ParityLayout | None:
    """The excitation x mirror-parity blocks of sectors held whole, or None where there are none.

    The chain's mirror reverses the bits of a basis index.  Where it maps
    a sector onto itself, the sector's parity basis holds |b> for each
    fixed point b and (|b> +- |m(b)>)/sqrt(2) for each pair b < m(b),
    ordered by b, even vectors and odd vectors apart; each entry of a
    state in that basis combines at most four of its stored entries.  None
    if dim is not a power of two >= 4, or if the mirror does not map some
    sector onto itself or the support does not hold some sector's block
    whole.  position maps a row-major (D, D) index to its stored column.
    """
    bits = dim.bit_length() - 1
    if dim < 4 or dim != 1 << bits:
        return None
    mirror = np.array([int(f"{i:0{bits}b}"[::-1], 2) for i in range(dim)])
    off, blocks = [], {}
    for b in sectors:
        if (set(mirror[b].tolist()) != set(b.tolist())
                or np.any(position[(b[:, None] * dim + b).ravel()] < 0)):
            return None
        heads = [int(i) for i in b if i <= mirror[i]]
        even = [((i, int(mirror[i])), (1, 1)) if i < mirror[i] else ((i,), (1,)) for i in heads]
        odd = [((i, int(mirror[i])), (1, -1)) for i in heads if i < mirror[i]]
        off += [(u, v) for u in even for v in odd]
        for block in (even, odd):
            if block:
                blocks.setdefault(len(block), []).append(block)
    pairs = []  # (row vector, column vector) of each entry, in storage order

    def span(new):
        pairs.extend(new)
        return slice(len(pairs) - len(new), len(pairs))

    off_entries = span(off)
    ones = span([(u, u) for (u,) in blocks.pop(1, ())])
    twos = blocks.pop(2, ())
    two_entries = tuple(span([(block[r], block[c]) for block in twos])
                        for r, c in ((0, 0), (1, 1), (1, 0)))
    larger = tuple((size, span([(u, v) for block in blocks[size] for u in block for v in block]))
                   for size in sorted(blocks))
    sources = np.zeros((4, len(pairs)), dtype=int)
    signs = np.zeros((4, len(pairs)), dtype=complex)  # complex: no cast buffers in the products
    for e, ((rows, row_signs), (cols, col_signs)) in enumerate(pairs):
        terms = [(position[i * dim + j], si * sj)
                 for i, si in zip(rows, row_signs) for j, sj in zip(cols, col_signs)]
        terms += [(terms[0][0], 0)] * (4 - len(terms))
        sources[:, e], signs[:, e] = zip(*terms)
    weights = np.array([np.sqrt(1 / (len(u[0]) * len(v[0]))) for u, v in pairs], dtype=complex)
    return ParityLayout(sources, signs, weights, off_entries, ones, two_entries, larger)


def sector_blocks(rows, group: SectorGroup) -> np.ndarray:
    """The (C*k, m, m) blocks of a group's sectors, of C states given by their stored entries."""
    blocks = np.zeros((len(rows), group.entries.size), dtype=complex)
    blocks[:, group.present] = rows[:, group.columns]
    return blocks.reshape(-1, group.size, group.size)


def _sector_spectra(rows, layout: SectorLayout, out) -> None:
    """Write the spectra, unsorted, of C states given by their stored entries into the (C, D) out.

    One values-only batch per sector size.
    """
    for group in layout.groups:
        out[:, group.basis] = hermitian_eigvals_batch(
            sector_blocks(rows, group)).reshape(len(rows), -1)


def _parity_entries(rows, parity: ParityLayout, out) -> None:
    """Write the (C, E) parity-basis entries of C states, given by their (C, S) stored entries.

    Both arrays are read by entry, one contiguous (C,) column each, as the
    screen's column gathers lay them out (Fortran order); mode="clip" lets
    `take` write into its output directly, every source being in range.
    """
    stored, by_entry = rows.T, out.T
    term = np.empty_like(by_entry)
    np.take(stored, parity.sources[0], axis=0, out=by_entry, mode="clip")
    for sources, signs in zip(parity.sources[1:], parity.signs[1:]):
        np.take(stored, sources, axis=0, out=term, mode="clip")
        term *= signs[:, None]
        by_entry += term
    by_entry *= parity.weights[:, None]


def _hermitian_2x2_eigvals(a, d, c):
    """Ascending eigenvalues of [[a, conj(c)], [c, d]], a and d real.

    They are mid -+ hypot((a - d)/2, |c|) with mid = (a + d)/2.
    """
    mid = (a + d) * 0.5
    radius = np.hypot((a - d) * 0.5, np.abs(c))
    return mid - radius, mid + radius


def _parity_spectra(entries, parity: ParityLayout, out) -> None:
    """Write the spectra, unsorted, of C states given by their parity-basis entries into out.

    The 1x1 blocks are their diagonal entries, the 2x2 blocks are read in
    closed form and each larger size is one `hermitian_eigvals_batch`.
    """
    a, d, c = (entries[:, span] for span in parity.twos)
    parts = [entries[:, parity.ones].real, *_hermitian_2x2_eigvals(a.real, d.real, c)]
    parts += [hermitian_eigvals_batch(entries[:, span].reshape(-1, size, size))
              .reshape(len(entries), -1) for size, span in parity.groups]
    column = 0
    for part in parts:
        out[:, column:column + part.shape[1]] = part
        column += part.shape[1]


def _chunk_spectra(sym, spare, layout: SectorLayout, out) -> None:
    """Write the spectra, unsorted, of C symmetrized states, given by their stored entries.

    A state is read on its parity blocks if its even-odd entries have a
    Frobenius norm of at most OFF_PARITY_TOL, and sector by sector
    otherwise, so that its bytes do not depend on the other states.
    spare is a contiguous (C, S) complex buffer free for the parity-basis
    entries, which fill its first C*E elements, entry by entry (E <= S: a
    sector held whole stores more entries than its parity blocks read).
    """
    parity = layout.parity
    if parity is None:
        _sector_spectra(sym, layout, out)
        return
    size = parity.weights.size * len(spare)
    entries = np.ravel(spare, order="K")[:size].reshape(-1, len(spare)).T
    _parity_entries(sym, parity, entries)
    held = np.linalg.norm(entries[:, parity.off], axis=1) <= OFF_PARITY_TOL
    if held.any():
        _parity_spectra(entries, parity, out)
    if not held.all():  # overwrite the others' rows
        rest = ~held
        part = np.empty((np.count_nonzero(rest), out.shape[1]))
        _sector_spectra(sym[rest], layout, part)
        out[rest] = part


def _screen(times, values, support, dim: int) -> Trajectory:
    """Symmetrize the (T, S) raw entries in place, enforce the CPTP guard and keep the spectra.

    The states are screened SCREEN_CHUNK at a time, at their support:
    each check reads the chunk's (C, S) entries and the transposes the
    layout maps them to.  The spectra are taken on the sectors' parity
    blocks (`_chunk_spectra`), formed in the buffer of the raw entries
    once the symmetrized ones hold them, or sector by sector, one
    values-only batch per sector size; each state's are merged by a row
    sort.  No (D, D) matrix is formed.  support must be closed under
    transposition, so that symmetrizing leaves nothing outside it.
    The deviations of every state are checked after the last chunk, so the
    first bad step is reported whichever chunk it lies in.  Each chunk's
    symmetrized entries are written back over `values` in ascending
    row-major order, the order of the returned Trajectory's support.
    """
    layout = sector_layout(dim, tuple(support.tolist()))
    herm, trace_dev = np.empty(len(values)), np.empty(len(values))
    vals = np.empty((len(values), dim))
    for a in range(0, len(values), SCREEN_CHUNK):
        rows = values[a:a + SCREEN_CHUNK]
        raw = rows[:, layout.order]
        sym = rows[:, layout.transpose]
        np.conjugate(sym, out=sym)  # raw^H at each stored entry
        herm[a:a + SCREEN_CHUNK] = np.abs(raw - sym).max(axis=1, initial=0.0)
        # 0.5 * (raw + raw^H), formed in the adjoint's buffer
        sym += raw
        sym *= 0.5
        trace_dev[a:a + SCREEN_CHUNK] = np.abs(sym[:, layout.diagonal].sum(axis=1) - 1.0)
        chunk = vals[a:a + SCREEN_CHUNK]
        _chunk_spectra(sym, raw, layout, chunk)  # raw's buffer is free now
        chunk.sort(axis=1)
        rows[...] = sym
    neg = -vals[:, 0]
    for name, dev in (("Hermiticity", herm), ("trace", trace_dev), ("positivity", neg)):
        bad = np.nonzero(dev > GUARD_TOL)[0]
        if bad.size:
            k = int(bad[0])
            raise InvariantViolation(
                f"dynamics: {name} defect {dev[k]:.3e} at step {k} (t={times[k]:g})")
    return Trajectory(times=times, values=values, support=layout.stored, dim=dim, spectra=vals)


def _initial_vectors(liou: Liouvillian, rho0) -> np.ndarray:
    """Rows vec(rho0[k]) of one (D, D) state or a (B, D, D) stack, as a (B, D*D) array.

    rho0 is first checked, as a whole, to hold density matrices of the
    generator's dim.
    """
    rho0 = np.asarray(rho0)
    check_density_matrix(rho0, context="initial state")
    d = liou.dim_state
    if rho0.shape[-2:] != (d, d):
        raise ValueError(f"state shape {rho0.shape[-2:]} does not match dim {d}")
    return vec(rho0).reshape(-1, d * d)


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


def _block_exponentials(liou: Liouvillian, vs, t: float):
    """(b, exp(L[b, b] t)) for every invariant block b of L that a vector of vs touches."""
    return [(b, expm(liou.matrix[np.ix_(b, b)] * t))
            for b in liou.blocks if np.any(vs[:, b])]


def propagate(liou: Liouvillian, rho0, grid: TimeGrid) -> Trajectory:
    """Evolve one state rho0 with the one-step blocks exp(L[b, b] dt), their powers by doubling."""
    if np.ndim(rho0) != 2:
        raise ValueError(f"propagate takes one (D, D) state, got shape {np.shape(rho0)}")
    vs = _initial_vectors(liou, rho0)
    jumps = _block_exponentials(liou, vs, grid.dt)
    support, spans = _layout([b for b, _ in jumps], liou.dim_state)
    values = np.zeros((grid.n_steps + 1, support.size), dtype=complex)
    for (b, step), cols in zip(jumps, spans):
        _powers(step, vs[0, b], values[:, cols])
    return _screen(grid.times(), values, support, liou.dim_state)


def evolve_to(liou: Liouvillian, rho0, t: float) -> Trajectory:
    """Single-jump evolution exp(L t) rho0; exact, no intermediate storage.

    rho0 is one (D, D) state or a (B, D, D) stack of states, checked as a
    whole by one `check_density_matrix` call (a failure names the index of
    the first bad member); the result is the screened Trajectory with one
    entry per input state, all at time t.
    Each touched block's exp(L[b, b] t) is computed once and applied to each
    state in turn, so a state evolves to the same bytes alone or inside a
    stack.
    """
    initial = _initial_vectors(liou, rho0)
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    jumps = _block_exponentials(liou, initial, t)
    support, spans = _layout([b for b, _ in jumps], liou.dim_state)
    values = np.zeros((len(initial), support.size), dtype=complex)
    for (b, step), cols in zip(jumps, spans):
        for v, out in zip(initial, values):
            out[cols] = step @ v[b]
    return _screen(np.full(len(initial), t), values, support, liou.dim_state)
