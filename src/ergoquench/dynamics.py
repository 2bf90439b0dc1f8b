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
the largest (70 of 256 indices at four qubits).  A classical fourth-order
integrator on the full dense generator, stepped one mat-vec at a time, is
kept alongside purely as a cross-check.  Every stored
state is re-symmetrized and screened against the CPTP invariants (trace,
Hermiticity, positivity); a violation beyond the guard tolerance aborts
with the offending step index, because it can only mean a bug in the
generator or the integrator.  Positivity is monitored, never projected.
The screen works through the stack SCREEN_CHUNK states at a time and, in
the propagators, writes each symmetrized chunk over the propagator's own
buffer once it has read it, so a trajectory holds one full-size array
and only chunk-sized temporaries.
The screen computes the spectrum of each state, values only: the
`Trajectory` carries it, and the energy bookkeeping reads it from there.
Eigenvectors are computed only where they are read, by the branch
tracker in `ergotropy.eigenvalue_crossings`, one chunk of states at a time.
Every propagator returns such a `Trajectory`: `propagate` and
`propagate_rk4` one entry per grid time, `evolve_to` one entry per input
state, all at the target time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Liouvillian, unvec_batch, vec
from .linalg import dagger, expm, hermitian_eigvals_batch
from .model import check_density_matrix

GUARD_TOL = 1e-6  # runtime CPTP guard; test-level bounds are far tighter
SCREEN_CHUNK = 256  # states whose (16x16 at N=4) screen temporaries are held at once


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
    """Stored states and their times, with the spectra the CPTP screen computed of each."""

    times: np.ndarray
    states: np.ndarray
    spectra: np.ndarray  # (T, D), ascending

    def __len__(self) -> int:
        return len(self.times)

    @classmethod
    def screened(cls, times, raw_states, out=None) -> "Trajectory":
        """Symmetrize the stored states, enforce the CPTP guard and keep their spectra.

        The stack is screened SCREEN_CHUNK states at a time.  The symmetrized
        states go to `out`, a C-contiguous array of the stack's shape, which
        may share memory with raw_states state by state (each chunk is read
        before it is overwritten); without `out` a new array is allocated and
        raw_states is left as it was.  The deviations of every state are
        checked after the last chunk, so the first bad step is reported
        whichever chunk it lies in.
        """
        raw = np.asarray(raw_states)
        states = np.empty(raw.shape, dtype=raw.dtype) if out is None else out
        herm, trace_dev = np.empty(len(raw)), np.empty(len(raw))
        vals = np.empty(raw.shape[:2])
        for a in range(0, len(raw), SCREEN_CHUNK):
            chunk = raw[a:a + SCREEN_CHUNK]
            sym = dagger(chunk)
            herm[a:a + SCREEN_CHUNK] = np.abs(chunk - sym).max(axis=(1, 2))
            # 0.5 * (raw + raw^H), formed in the adjoint's buffer
            sym += chunk
            sym *= 0.5
            trace_dev[a:a + SCREEN_CHUNK] = np.abs(np.trace(sym, axis1=1, axis2=2) - 1.0)
            vals[a:a + SCREEN_CHUNK] = hermitian_eigvals_batch(sym)
            states[a:a + SCREEN_CHUNK] = sym
        neg = -vals[:, 0]
        for name, dev in (("Hermiticity", herm), ("trace", trace_dev), ("positivity", neg)):
            bad = np.nonzero(dev > GUARD_TOL)[0]
            if bad.size:
                k = int(bad[0])
                raise InvariantViolation(
                    f"dynamics: {name} defect {dev[k]:.3e} at step {k} (t={times[k]:g})")
        return cls(times=times, states=states, spectra=vals)


def _initial_vector(liou: Liouvillian, rho0) -> np.ndarray:
    """vec(rho0), once rho0 is checked to be a density matrix of the generator's dim."""
    check_density_matrix(rho0, context="initial state")
    d = liou.dim_state
    if np.asarray(rho0).shape != (d, d):
        raise ValueError(f"state shape {np.asarray(rho0).shape} does not match dim {d}")
    return vec(rho0)


def _screened_in_place(times, stacked, dim: int) -> Trajectory:
    """The screened Trajectory of a (T, D*D) stack of vec'd states, symmetrized over its buffer."""
    return Trajectory.screened(times, unvec_batch(stacked, dim),
                               out=stacked.reshape(-1, dim, dim))


def _powers(step, v, n_steps: int) -> np.ndarray:
    """v and step^k v for k = 1..n_steps, as an (n_steps + 1, v.size) stack, by doubling.

    With P = step^m, the rows m..2m-1 are the rows 0..m-1 times P^T, one
    product for the whole block of rows; then P squares.  Every row comes
    from ceil(log2(n_steps + 1)) products, not n_steps mat-vecs in a loop.
    """
    rows = np.empty((n_steps + 1, v.size), dtype=complex)
    rows[0] = v
    power = step.T  # (step^m)^T, so that rows @ power = (step^m rows^T)^T
    m = 1
    while m <= n_steps:
        j = min(m, n_steps + 1 - m)
        np.matmul(rows[:j], power, out=rows[m:m + j])
        m *= 2
        if m <= n_steps:
            power = power @ power
    return rows


def _block_exponentials(liou: Liouvillian, vs, t: float):
    """(b, exp(L[b, b] t)) for every invariant block b of L that a vector of vs touches."""
    return [(b, expm(liou.matrix[np.ix_(b, b)] * t))
            for b in liou.blocks if np.any(vs[:, b])]


def propagate(liou: Liouvillian, rho0, grid: TimeGrid) -> Trajectory:
    """Evolve rho0 with the one-step blocks exp(L[b, b] dt), their powers formed by doubling."""
    v = _initial_vector(liou, rho0)
    stacked = np.zeros((grid.n_steps + 1, v.size), dtype=complex)
    for b, step in _block_exponentials(liou, v[None], grid.dt):
        stacked[:, b] = _powers(step, v[b], grid.n_steps)
    return _screened_in_place(grid.times(), stacked, liou.dim_state)


def propagate_rk4(liou: Liouvillian, rho0, grid: TimeGrid, substeps: int = 20) -> Trajectory:
    """Classical RK4 on the vectorized master equation; integrator cross-check."""
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    v = _initial_vector(liou, rho0)
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
    return _screened_in_place(grid.times(), stacked, liou.dim_state)


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
    rho0 = np.asarray(rho0)
    check_density_matrix(rho0, context="initial state")
    d = liou.dim_state
    if rho0.shape[-2:] != (d, d):
        raise ValueError(f"state shape {rho0.shape[-2:]} does not match dim {d}")
    # row k is vec(rho0[k]): column-stacking is row-major order of the transpose
    initial = np.swapaxes(rho0, -1, -2).reshape(-1, d * d).astype(complex, copy=False)
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    final = np.zeros_like(initial)
    for b, step in _block_exponentials(liou, initial, t):
        for v, out in zip(initial, final):
            out[b] = step @ v[b]
    return _screened_in_place(np.full(len(initial), t), final, d)
