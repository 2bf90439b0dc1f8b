"""Ergotropy, passive energies and spectral analysis of trajectories.

The unitary minimization in the ergotropy definition has the closed form
E_passive = sum_k r_k eps_k with the state populations r sorted descending
and the Hamiltonian levels eps sorted ascending, so the spectrum of each
state, without its eigenvectors, is all that the energy bookkeeping needs.
A trajectory's records read the spectra its CPTP screen computed
(`Trajectory.spectra`): `trajectory_records` gives the energy bookkeeping
of every stored state at once, as one `ErgotropyRecord` of arrays, and
`ergotropy` that of a single state.  Only the branch tracker
`eigenvalue_crossings` reads eigenvectors; it decomposes the states
itself, one chunk at a time and, like the screen, one sector of the
layout the screen read at a time (`Trajectory.layout`, whose sectors
the states' producer declared), and matches branches inside each
sector: a sector's eigenvectors vanish outside it.
Energies and energy-basis populations are read from the trajectory's
compact storage by `Trajectory.expect`, and passive energies by one
fixed-order sum per state, so every record of a state is the same bytes
whichever other states share its trajectory; `ergotropy` is the
one-state case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import SCREEN_CHUNK, Trajectory, block_entries
from .linalg import dagger, hermitian_eig, hermitian_eig_batch

ERGOTROPY_CLIP = 1e-10        # admissible negative rounding before clipping to 0
CROSSING_SIGNIFICANCE = 1e-10  # eigenvalue-gap noise floor for crossing reports
LEVEL_TOL = 1e-9              # relative gap below which two levels of H are one level


@dataclass(frozen=True)
class ErgotropyRecord:
    """Energy bookkeeping: E, passive E, their difference and the descending spectrum.

    `ergotropy` gives these for one state (floats and a (D,) spectrum),
    `trajectory_records` for every state of a trajectory (arrays with one
    entry per state, and a (T, D) spectrum).
    """

    energy: float | np.ndarray
    passive_energy: float | np.ndarray
    ergotropy: float | np.ndarray
    rho_spectrum: np.ndarray  # descending


def _clip(values):
    values = np.asarray(values, dtype=float)
    low = values.min() if values.size else 0.0
    if low < -ERGOTROPY_CLIP:
        raise ValueError(
            f"ergotropy {low:.3e} below -{ERGOTROPY_CLIP:.0e}; eigensolver failure?")
    return np.maximum(values, 0.0)


def ergotropy(rho, h_matrix) -> ErgotropyRecord:
    """Maximum unitarily extractable work of a single state.

    The state is screened as a one-state trajectory and read by
    `trajectory_records`, so it must pass the CPTP screen
    (`InvariantViolation` otherwise), and a screened state gives its
    `trajectory_records` entry bit for bit.
    """
    record = trajectory_records(Trajectory.screened(np.zeros(1), np.asarray(rho)[None]), h_matrix)
    return ErgotropyRecord(energy=float(record.energy[0]),
                           passive_energy=float(record.passive_energy[0]),
                           ergotropy=float(record.ergotropy[0]),
                           rho_spectrum=record.rho_spectrum[0])


def trajectory_records(traj: Trajectory, h_matrix, h_eig=None) -> ErgotropyRecord:
    """ErgotropyRecord of every stored state, as arrays, from the screen's spectra.

    Both energies are fixed-order sums per state, so a state's record does
    not depend on the other states it is stored with.  h_eig is H's
    (levels, vectors) if it is already decomposed (`gibbs_state` with
    with_eig); H is decomposed here otherwise.
    """
    energies = traj.expect(h_matrix)  # ValueError unless h_matrix is (dim, dim)
    h_levels, _ = hermitian_eig(h_matrix) if h_eig is None else h_eig
    descending = np.ascontiguousarray(traj.spectra[:, ::-1])
    passive = np.einsum("td,d->t", descending, h_levels, optimize=False)
    return ErgotropyRecord(energy=energies, passive_energy=passive,
                           ergotropy=_clip(energies - passive), rho_spectrum=descending)


def _greedy_match(overlaps) -> np.ndarray:
    """Map row branches to column branches of each (d, d) overlap in a stack.

    Each of the d rounds takes every matrix's best remaining overlap (the
    first in row-major order on ties) and strikes out its row and column.
    """
    overlaps = np.array(overlaps, dtype=float)
    steps, d, _ = overlaps.shape
    perms = np.full((steps, d), -1, dtype=int)
    rows = np.arange(steps)
    for _ in range(d):
        i, j = np.divmod(overlaps.reshape(steps, -1).argmax(axis=1), d)
        perms[rows, i] = j
        overlaps[rows, i, :] = -1.0
        overlaps[rows, :, j] = -1.0
    return perms


def eigenvalue_crossings(traj: Trajectory,
                         significance: float = CROSSING_SIGNIFICANCE) -> list[tuple[float, tuple[int, int]]]:
    """Times at which tracked eigenvalue branches of rho(t) swap order.

    Sorted spectra never visibly cross, so branches are tracked by maximal
    eigenvector overlap between consecutive grid points; an order swap of
    two branches adjacent in the sorted spectrum, with a gap exceeding
    `significance` on both sides of the swap, is reported with the linearly
    interpolated crossing time and the (sorted) position pair.  Raising
    `significance` selects only crossings among non-negligible populations.
    The grid is tracked SCREEN_CHUNK steps at a time.  Each sector of the
    screen's layout (`traj.layout.sectors`) is decomposed and greedily
    matched on its own, and a stable sort of the spectrum places its
    branches among the other sectors'; a level degenerate across sectors
    keeps the sectors' own vectors, not an arbitrary basis of the level.
    This is the greedy matching of the full (D, D) overlaps, whose
    cross-sector entries are exact zeros: each sector's overlaps are
    doubly stochastic, so the full greedy pairs across sectors only in a
    round whose best remaining overlap is exactly 0.0, and a sector's
    basis indices ascend, so the stable sort keeps eigh's order and with
    it the row-major tie rule.
    """
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    times, sectors = traj.times, traj.layout.sectors
    found: list[tuple[float, tuple[int, int]]] = []
    for start in range(1, len(traj), SCREEN_CHUNK):
        stop = min(start + SCREEN_CHUNK, len(traj))
        # the chunk's states and the one before it: step s of the chunk goes s -> s + 1
        rows = traj.values[start - 1:stop]
        vals = np.empty((len(rows), traj.dim))
        # moves[s, b]: the basis index that the branch at basis index b takes at step s + 1
        moves = np.empty((len(rows) - 1, traj.dim), dtype=int)
        entries = block_entries(rows, sectors)
        for size, span, basis in sectors.blocks:
            block_vals, vecs = hermitian_eig_batch(entries[:, span].reshape(-1, size, size))
            vals[:, basis] = block_vals.reshape(len(rows), -1)
            basis = basis.reshape(-1, size)  # (k, m), block after block
            # block b of step s is vecs[s * k + b], and vecs[(s + 1) * k + b] at step s + 1
            local = _greedy_match(np.abs(dagger(vecs[:-len(basis)]) @ vecs[len(basis):]) ** 2)
            moves[:, basis] = np.take_along_axis(
                basis[None], local.reshape(len(rows) - 1, *basis.shape), axis=2)
        order = np.argsort(vals, axis=1, kind="stable")  # sorted position -> basis index
        rank = np.argsort(order, axis=1)  # basis index -> sorted position
        perms = np.take_along_axis(rank[1:], np.take_along_axis(moves, order[:-1], axis=1), axis=1)
        vals = np.take_along_axis(vals, order, axis=1)
        # swapped adjacent pairs (step, i): branch i now sits above branch i + 1
        step, i = np.nonzero(perms[:, :-1] > perms[:, 1:])
        gap_before = vals[step, i + 1] - vals[step, i]
        gap_after = vals[step + 1, perms[step, i]] - vals[step + 1, perms[step, i + 1]]
        keep = (gap_before > significance) & (gap_after > significance)
        k, i, gap_before, gap_after = start + step[keep], i[keep], gap_before[keep], gap_after[keep]
        t0, t1 = times[k - 1], times[k]
        t_cross = t0 + (t1 - t0) * gap_before / (gap_before + gap_after)
        found += [(t, (pos, pos + 1)) for t, pos in zip(t_cross.tolist(), i.tolist())]
    found.sort(key=lambda item: item[0])
    return found


def energy_basis_populations(traj: Trajectory, h_matrix, h_eig=None) -> np.ndarray:
    """Populations of the ascending energy levels, Tr[P_E rho(t)] / g_E in each of E's g_E columns.

    Levels are the eigenvalues of H grouped where neighbours differ by at
    most LEVEL_TOL * max(1, |E|).  A level's projector P_E, unlike a basis
    inside it, is fixed by H, so every column is basis-independent; a
    non-degenerate level's column is <eps_k| rho |eps_k>.  h_eig is H's
    (levels, vectors) if it is already decomposed, as `trajectory_records`
    takes it.
    """
    h_levels, h_vecs = hermitian_eig(h_matrix) if h_eig is None else h_eig
    gaps = np.diff(h_levels) > LEVEL_TOL * np.maximum(1.0, np.abs(h_levels[1:]))
    level = np.concatenate(([0], np.cumsum(gaps)))
    same = level[:, None] == level[None, :]
    # column k reads P_E / g_E of k's level: sum_m |eps_m><eps_m| / g_E over the level's vectors
    projectors = np.einsum("im,jm,mk->kij", h_vecs, np.conj(h_vecs), same / same.sum(axis=0),
                           optimize=False)
    return traj.expect(projectors)
