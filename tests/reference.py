"""Independent references the tests hold the package to; no experiment runs them.

- `propagate_rk4`: classical fourth-order Runge-Kutta on the full dense
  generator, one mat-vec at a time, against the block-wise exact stepping.
- `dissipator_apply` with `rate_matrix`: the N x N rate-matrix double sum
  applied to a state, against the diagonal-form assembly of the generator.
- `passive_state`: the passive state itself, from the eigenvectors of H.
- `two_qubit_collective_block`: the collective channel's two-qubit sector
  system, against propagated states.
- `unvec`: the inverse of `channels.vec`.
- `sector_eigvalsh` and `sector_eigh`: spectra and eigenvectors of a
  stack block by block over the connected components of its nonzero
  pattern, found by a breadth-first search, against the screen and the
  branch tracker, which find them from the support.
- `mirror`, `parity_bases`, `parity_blocks` and `parity_eigvalsh`: the
  chain's mirror as an explicit permutation of site occupations, each
  sector's parity basis read off the projectors (1 +- M)/2, and the
  spectra on those blocks, against the screen's parity layout.
- `row_lines`: CSV lines formatted one row at a time with the template
  that the first row's cell types fix, against the writer's blocks of
  rows with their fixed cells formatted once per block.
- `activation_time`, `ergotropy_difference` and `activation_time_analytic`:
  the ergotropy's switch-on time, read off a trajectory's records and from
  its closed form, and the signed ergotropy gap of two trajectories with
  its sign changes, for the acceptance criteria on activation and
  crossings.
- `decoherence_free_subspace`: the largest H-invariant subspace of
  ker S^-, which the collective channel neither decays nor leaves, against
  the four-qubit collective limit that criterion 6 reads.
"""

from typing import NamedTuple

import numpy as np

from ergoquench import (Trajectory, build_hamiltonian, check_density_matrix, dark_subspace,
                        trajectory_records, vec)
from ergoquench.linalg import dagger, hermitian_eig, null_space_hermitian
from ergoquench.oracles import _evolve_block, _parallel_generator


def unvec(vs, dim: int) -> np.ndarray:
    """(D, D) matrix of one column-stacked vector, or (T, D, D) stack of a (T, D*D) one."""
    return np.swapaxes(np.reshape(vs, (*np.shape(vs)[:-1], dim, dim)), -1, -2)


def sectors(states) -> list:
    """Ascending basis-index arrays of the connected components of a stack's nonzero pattern."""
    coupled = np.any(np.asarray(states) != 0, axis=0)
    coupled |= coupled.T
    unseen, found = set(range(len(coupled))), []
    while unseen:
        frontier = [min(unseen)]
        sector = set(frontier)
        while frontier:
            reached = {int(j) for i in frontier for j in np.flatnonzero(coupled[i])} - sector
            sector |= reached
            frontier = sorted(reached)
        unseen -= sector
        found.append(np.array(sorted(sector)))
    return sorted(found, key=lambda b: b[0])


def sector_eigvalsh(states) -> np.ndarray:
    """Ascending spectra of a (T, D, D) Hermitian stack: eigvalsh of each sector's blocks, sorted."""
    vals = np.empty(np.shape(states)[:2])
    for b in sectors(states):
        vals[:, b] = np.linalg.eigvalsh(states[:, b[:, None], b])
    return np.sort(vals, axis=1)


def sector_eigh(states):
    """Ascending spectra and eigenvector columns of a (T, D, D) Hermitian stack, sector by sector.

    Each sector's eigenvectors fill its rows of the columns of its basis
    indices, and a stable sort by eigenvalue orders the columns.
    """
    vals = np.empty(np.shape(states)[:2])
    vecs = np.zeros(np.shape(states), dtype=complex)
    for b in sectors(states):
        vals[:, b], vecs[:, b[:, None], b] = np.linalg.eigh(states[:, b[:, None], b])
    order = np.argsort(vals, axis=1, kind="stable")
    return (np.take_along_axis(vals, order, axis=1),
            np.take_along_axis(vecs, order[:, None, :], axis=2))


def mirror(dim: int) -> np.ndarray:
    """The (D, D) permutation matrix of the chain's mirror: site i's occupation moves to N+1-i."""
    n = round(np.log2(dim))
    m = np.zeros((dim, dim))
    for i in range(dim):
        sites = np.unravel_index(i, (2,) * n)
        m[np.ravel_multi_index(sites[::-1], (2,) * n), i] = 1.0
    return m


def parity_bases(states):
    """(even, odd) (D, k) orthonormal columns of each sector of a (T, D, D) stack, or None.

    Column i of the projector (1 + s M)/2 restricted to a sector is kept,
    normalized, where i is its first nonzero row: the fixed points and the
    pairs (i, m(i)) with i < m(i), ascending.  None if D is not a power of
    two >= 4, or if some sector is not mapped onto itself or is not wholly
    nonzero in the stack.
    """
    dim = np.shape(states)[-1]
    if dim < 4 or dim & (dim - 1):
        return None
    m, pattern = mirror(dim), np.any(np.asarray(states) != 0, axis=0)
    bases = []
    for b in sectors(states):
        inside = np.zeros(dim, dtype=bool)
        inside[b] = True
        if np.any(m[~inside][:, b]) or not pattern[np.ix_(b, b)].all():
            return None
        pair = []
        for sign in (1.0, -1.0):
            projector = (np.eye(dim) + sign * m) / 2
            kept = [projector[:, i] / np.linalg.norm(projector[:, i]) for i in b
                    if np.any(projector[:, i]) and np.flatnonzero(projector[:, i])[0] == i]
            pair.append(np.array(kept).T.reshape(dim, len(kept)))
        bases.append(tuple(pair))
    return bases


def parity_blocks(states):
    """The even and odd blocks U^T rho U of each sector of a (T, D, D) stack, with their couplings.

    Returns a list of (even (T, k, k), odd (T, l, l), even-odd (T, k, l))
    per sector, by matrix products, or None where `parity_bases` is None.
    """
    bases = parity_bases(states)
    if bases is None:
        return None
    return [(even.T @ states @ even, odd.T @ states @ odd, even.T @ states @ odd)
            for even, odd in bases]


def _entry(states, u, v):
    """<u|rho|v> of each state, with the screen's arithmetic.

    The terms sign * rho_ij run over the nonzero entries of u and v in
    row-major order and add left to right; the sum is then scaled by
    sqrt(1 / (nonzeros of u * nonzeros of v)).
    """
    rows, cols = np.flatnonzero(u), np.flatnonzero(v)
    terms = [(i, j, np.sign(u[i]) * np.sign(v[j])) for i in rows for j in cols]
    total = states[:, terms[0][0], terms[0][1]].copy()
    for i, j, sign in terms[1:]:
        total = total + sign * states[:, i, j]
    return total * np.sqrt(1 / (len(rows) * len(cols)))


def parity_eigvalsh(states) -> np.ndarray:
    """Ascending spectra of a (T, D, D) Hermitian stack, each state on its parity blocks if it can.

    A state whose even-odd entries have a Frobenius norm above 1e-14, or
    a stack without parity bases, gets `sector_eigvalsh`.  A 1x1 block is
    its real entry, a 2x2 block [[a, conj(c)], [c, d]] has the eigenvalues
    mid -+ hypot((a - d)/2, |c|) with mid = (a + d)/2, and a larger block
    goes to eigvalsh; every block entry comes from `_entry`.
    """
    states = np.asarray(states)
    vals = sector_eigvalsh(states)
    bases = parity_bases(states)
    if bases is None:
        return vals
    parts, off = [], np.zeros(len(states))
    for even, odd in bases:
        off += sum(np.abs(_entry(states, u, v)) ** 2 for u in even.T for v in odd.T)
        for basis in (even, odd):
            k = basis.shape[1]
            block = np.array([[_entry(states, u, v) for v in basis.T] for u in basis.T])
            block = np.moveaxis(block, -1, 0).reshape(len(states), k, k)
            if k == 1:
                parts.append(block[:, 0, :].real)
            elif k == 2:
                a, d, c = block[:, 0, 0].real, block[:, 1, 1].real, block[:, 1, 0]
                mid, radius = (a + d) * 0.5, np.hypot((a - d) * 0.5, np.abs(c))
                parts.append(np.stack([mid - radius, mid + radius], axis=1))
            elif k:
                parts.append(np.linalg.eigvalsh(block))
    held = np.sqrt(off) <= 1e-14
    vals[held] = np.sort(np.concatenate(parts, axis=1), axis=1)[held]
    return vals


def propagate_rk4(liou, rho0, grid, substeps: int = 20) -> Trajectory:
    """Classical RK4 on the vectorized master equation; integrator cross-check."""
    d = liou.dim_state
    check_density_matrix(rho0, context="initial state")
    if np.shape(rho0) != (d, d):
        raise ValueError(f"state shape {np.shape(rho0)} does not match dim {d}")
    v = vec(rho0)
    mat = liou.matrix
    h = grid.dt / substeps

    stacked = np.empty((grid.n_steps + 1, v.size), dtype=complex)
    stacked[0] = v
    for k in range(1, grid.n_steps + 1):
        for _ in range(substeps):
            k1 = mat @ v
            k2 = mat @ (v + 0.5 * h * k1)
            k3 = mat @ (v + 0.5 * h * k2)
            k4 = mat @ (v + h * k3)
            v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        stacked[k] = v
    return Trajectory.screened(grid.times(), unvec(stacked, d))


def rate_matrix(gamma: float, alpha_interp: float, n: int) -> np.ndarray:
    """Interpolated rate matrix gamma * [(1 - alpha) I + alpha * ones].

    Positive semidefinite for alpha in [0, 1]: eigenvalues gamma*(1-alpha)
    (n-1 fold) and gamma*(1 - alpha + n*alpha).
    """
    if not 0.0 <= alpha_interp <= 1.0:
        raise ValueError(f"interpolation parameter out of [0,1]: {alpha_interp}")
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    return gamma * ((1.0 - alpha_interp) * np.eye(n) + alpha_interp * np.ones((n, n)))


def dissipator_apply(rates, jumps, rho) -> np.ndarray:
    """Apply sum_ij Gamma_ij (A_i rho A_j^dag - {A_j^dag A_i, rho} / 2) to rho."""
    rates = np.asarray(rates, dtype=float)
    rho = np.asarray(rho, dtype=complex)
    n = len(jumps)
    if rates.shape != (n, n):
        raise ValueError(f"rate matrix shape {rates.shape} does not match {n} jumps")
    if any(a.shape != rho.shape for a in jumps):
        raise ValueError("jump operator dimension does not match the state")
    out = np.zeros_like(rho)
    for i in range(n):
        for j in range(n):
            g = rates[i, j]
            if g == 0.0:
                continue
            ajd_ai = dagger(jumps[j]) @ jumps[i]
            out += g * (jumps[i] @ rho @ dagger(jumps[j])
                        - 0.5 * (ajd_ai @ rho + rho @ ajd_ai))
    return out


def passive_state(rho, h_matrix) -> np.ndarray:
    """State with the same spectrum, reordered to be passive with respect to H.

    Descending populations are paired with the ascending-energy eigenvectors
    of H; the result commutes with H.  Under level degeneracy only the
    pairing of eigenvalue multisets is determined, so compare spectra and
    energies rather than matrices.
    """
    vals, _ = hermitian_eig(rho)
    h_levels, h_vecs = hermitian_eig(h_matrix)
    if vals.size != h_levels.size:
        raise ValueError("dimension mismatch between state and Hamiltonian")
    populations = vals[::-1]
    return (h_vecs * populations) @ dagger(h_vecs)


def _collective_generator(gamma: float) -> np.ndarray:
    """Sector generator of the collective channel on y = (p_gg, p_eg, p_ge, p_ee, Re c, Im c)."""
    m = _parallel_generator(gamma)
    m[0, 4] += 2.0 * gamma
    m[1, 4] += -gamma
    m[2, 4] += -gamma
    m[4, 1] += -0.5 * gamma
    m[4, 2] += -0.5 * gamma
    m[4, 3] += gamma
    return m


def two_qubit_collective_block(init, gamma: float, t):
    """Exact sector solution for the collective dissipative channel."""
    return _evolve_block(_collective_generator(gamma), init, t)


def _cell_template(value) -> str:
    if isinstance(value, str):
        return "%s"
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return "%d"
    return "%.17g"


def row_lines(header, rows):
    """CSV lines of rows, each formatted with the template of the first row.

    A row whose length differs from the header's, or with a cell whose type
    asks for another template than its column's, raises ValueError.
    """
    columns = None
    for index, row in enumerate(rows):
        row = tuple(row)
        cells = [_cell_template(value) for value in row]
        if columns is None:
            if len(cells) != len(header):
                raise ValueError(f"row 0 has {len(cells)} cells, header has {len(header)}")
            columns = cells
            template = ",".join(columns) + "\n"
        elif cells != columns:
            raise ValueError(f"row {index} {row!r} does not fit the columns {columns}")
        yield template % row


ACTIVATION_THRESHOLD = 1e-6   # default "ergotropy has switched on" level
DIFFERENCE_NOISE_FLOOR = 1e-9  # |dE| below this never counts as a signed value


def activation_time(traj: Trajectory, h_matrix,
                    threshold: float = ACTIVATION_THRESHOLD) -> float | None:
    """First time the ergotropy exceeds `threshold` (linearly interpolated).

    Returns None when the trajectory never activates.
    """
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    erg = trajectory_records(traj, h_matrix).ergotropy
    above = np.nonzero(erg > threshold)[0]
    if above.size == 0:
        return None
    k = int(above[0])
    if k == 0:
        return float(traj.times[0])
    t0, t1 = traj.times[k - 1], traj.times[k]
    e0, e1 = erg[k - 1], erg[k]
    return float(t0 + (t1 - t0) * (threshold - e0) / (e1 - e0))


class ErgotropyDifference(NamedTuple):
    times: np.ndarray
    delta: np.ndarray
    crossings: list[float]


def ergotropy_difference(traj_a: Trajectory, traj_b: Trajectory, h_matrix,
                         noise_floor: float = DIFFERENCE_NOISE_FLOOR) -> ErgotropyDifference:
    """Pointwise ergotropy difference and its sign-change times.

    A crossing is recorded when the difference flips sign between two values
    both exceeding `noise_floor` in magnitude (intervening sub-floor samples
    are ignored); the time is linearly interpolated.
    """
    if len(traj_a) != len(traj_b) or np.abs(traj_a.times - traj_b.times).max() > 1e-12:
        raise ValueError("trajectories must share the same time grid")
    delta = (trajectory_records(traj_a, h_matrix).ergotropy
             - trajectory_records(traj_b, h_matrix).ergotropy)
    crossings: list[float] = []
    last_idx = None
    for k in np.nonzero(np.abs(delta) > noise_floor)[0]:
        if last_idx is not None and delta[k] * delta[last_idx] < 0:
            t0, t1 = traj_a.times[last_idx], traj_a.times[k]
            d0, d1 = delta[last_idx], delta[k]
            crossings.append(float(t0 + (t1 - t0) * (-d0) / (d1 - d0)))
        last_idx = int(k)
    return ErgotropyDifference(times=traj_a.times.copy(), delta=delta, crossings=crossings)


def activation_time_analytic(beta: float, h: float, gamma: float) -> float:
    """Ergotropy activation time ln(1 + tanh(beta - beta h)) / gamma.

    Only meaningful below the critical field (h < 1 in coupling units).
    """
    if h >= 1.0:
        raise ValueError("activation formula requires h < 1")
    if beta <= 0 or gamma <= 0:
        raise ValueError("beta and gamma must be > 0")
    return float(np.log(1.0 + np.tanh(beta - beta * h)) / gamma)


def decoherence_free_subspace(model) -> np.ndarray:
    """Orthonormal basis, as columns, of the largest H-invariant subspace of ker S^-.

    Starting from B = `dark_subspace(model).basis`, each pass keeps the
    vectors x = B c of the current span with (1 - P) H x = 0, P = B B^dag:
    the c in the kernel of M^dag M for M = (1 - P) H B.  It stops when a
    pass keeps the whole span.  That span is the decoherence-free subspace
    of the collective decay channel (Zanardi & Rasetti, PRL 79, 3306
    (1997)): its states neither decay nor leave it under H.
    """
    h = build_hamiltonian(model)
    basis = dark_subspace(model).basis
    while True:
        leak = h @ basis - basis @ (dagger(basis) @ h @ basis)
        kept = basis @ null_space_hermitian(dagger(leak) @ leak)
        if kept.shape[1] == basis.shape[1]:
            return basis
        basis = kept
