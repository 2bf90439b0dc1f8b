"""Lossy-cavity Jaynes-Cummings model versus its adiabatically eliminated limit.

A very lossy cavity never holds more than one photon, so the joint system
lives in the four-dimensional basis {|g,0>, |e,0>, |g,1>, |e,1>} (that
ordering is used for the joint matrices below).  Eliminating the fast
cavity yields a two-level master equation with a single lowering jump at

    Gamma_eff = 4 g^2 kappa / (kappa^2 + 4 Delta^2),  Delta = omega_c - omega_q,

plus a Lamb-shift term on |e><e|.  Atom-facing inputs and outputs follow
the repo-wide (|e>, |g>) qubit ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Liouvillian, lindblad_matrix
from .dynamics import TimeGrid, Trajectory, propagate
from .model import PAULI


@dataclass(frozen=True)
class JCSpec:
    """Qubit/cavity frequencies, coupling and cavity loss rate."""

    omega_q: float
    omega_c: float
    g: float
    kappa: float

    def __post_init__(self):
        for name in ("omega_q", "omega_c", "g", "kappa"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.g < 0 or self.kappa < 0:
            raise ValueError("g and kappa must be >= 0")

    @property
    def delta(self) -> float:
        return self.omega_c - self.omega_q

    @property
    def gamma_eff(self) -> float:
        return 4.0 * self.g ** 2 * self.kappa / (self.kappa ** 2 + 4.0 * self.delta ** 2)

    @property
    def lamb_shift(self) -> float:
        return -self.g ** 2 * self.delta / (self.kappa ** 2 / 4.0 + self.delta ** 2)


def default_jc_spec(kappa_over_g: float) -> JCSpec:
    """Resonant spec with g = 1 and omega_q = omega_c = 10 g."""
    return JCSpec(omega_q=10.0, omega_c=10.0, g=1.0, kappa=kappa_over_g)


def jc_hamiltonian(spec: JCSpec) -> np.ndarray:
    """Joint Hamiltonian in the one-photon-truncated basis {g0, e0, g1, e1}."""
    h = np.diag([-0.5 * spec.omega_q,
                 0.5 * spec.omega_q,
                 spec.omega_c - 0.5 * spec.omega_q,
                 spec.omega_c + 0.5 * spec.omega_q]).astype(complex)
    h[1, 2] = h[2, 1] = spec.g
    return h


def _cavity_annihilator() -> np.ndarray:
    a = np.zeros((4, 4), dtype=complex)
    a[0, 2] = 1.0  # |g,0><g,1|
    a[1, 3] = 1.0  # |e,0><e,1|
    return a


def _embed_atom_vacuum(rho_atom) -> np.ndarray:
    """Lift a 2x2 atom state (e,g ordering) into the n=0 cavity sector."""
    rho_atom = np.asarray(rho_atom, dtype=complex)
    if rho_atom.shape != (2, 2):
        raise ValueError(f"expected a 2x2 atom state, got {rho_atom.shape}")
    rho4 = np.zeros((4, 4), dtype=complex)
    rho4[1, 1] = rho_atom[0, 0]  # |e,0>
    rho4[0, 0] = rho_atom[1, 1]  # |g,0>
    rho4[1, 0] = rho_atom[0, 1]
    rho4[0, 1] = rho_atom[1, 0]
    return rho4


def _trace_out_cavity(states4) -> np.ndarray:
    """Batch partial trace over the cavity, back to (e,g) atom ordering."""
    states4 = np.asarray(states4)
    atoms = np.empty(states4.shape[:-2] + (2, 2), dtype=complex)
    atoms[..., 0, 0] = states4[..., 1, 1] + states4[..., 3, 3]
    atoms[..., 1, 1] = states4[..., 0, 0] + states4[..., 2, 2]
    atoms[..., 0, 1] = states4[..., 1, 0] + states4[..., 3, 2]
    atoms[..., 1, 0] = states4[..., 0, 1] + states4[..., 2, 3]
    return atoms


def jc_full_evolution(spec: JCSpec, rho0_atom, grid: TimeGrid) -> Trajectory:
    """Propagate the joint master equation from |atom> x |0> and trace out the cavity."""
    generator = lindblad_matrix(jc_hamiltonian(spec), [_cavity_annihilator()], [spec.kappa])
    joint = propagate(Liouvillian(matrix=generator), _embed_atom_vacuum(rho0_atom), grid)
    return Trajectory.screened(joint.times, _trace_out_cavity(joint.states))


def effective_atom_evolution(spec: JCSpec, rho0_atom, grid: TimeGrid) -> Trajectory:
    """Two-level master equation with jump sigma^- at Gamma_eff and the Lamb shift."""
    h_ls = np.diag([spec.lamb_shift, 0.0]).astype(complex)
    generator = lindblad_matrix(h_ls, [PAULI["minus"]], [spec.gamma_eff])
    return propagate(Liouvillian(matrix=generator), np.asarray(rho0_atom, dtype=complex), grid)


def _auto_grid(spec: JCSpec) -> TimeGrid:
    """Span eight effective lifetimes in 400 steps, or in steps of 1 if those would be longer."""
    t_max = 8.0 / spec.gamma_eff if spec.gamma_eff > 0 else 1.0
    dt = t_max / 400
    if dt > 1.0:
        dt = 1.0
        t_max = float(np.ceil(t_max))
    return TimeGrid(t_max=t_max, dt=dt)


def compare_jc(spec_base: JCSpec, kappa_over_g):
    """Maximum excited-population deviation between the two descriptions.

    For each ratio the cavity loss is set to ratio * g (frequencies and
    coupling from spec_base) and both evolutions start from |e, 0>, on a
    grid spanning eight of that ratio's own effective lifetimes.
    Returns [(ratio, max |p_ee_full - p_ee_eff|)] in input order.
    """
    if any(r <= 0 for r in kappa_over_g):
        raise ValueError("kappa/g ratios must be positive")
    excited = np.diag([1.0, 0.0]).astype(complex)
    table = []
    for ratio in kappa_over_g:
        spec = JCSpec(omega_q=spec_base.omega_q, omega_c=spec_base.omega_c,
                      g=spec_base.g, kappa=ratio * spec_base.g)
        grid = _auto_grid(spec)
        full = jc_full_evolution(spec, excited, grid)
        eff = effective_atom_evolution(spec, excited, grid)
        deviation = np.abs(full.states[:, 0, 0].real - eff.states[:, 0, 0].real).max()
        table.append((float(ratio), float(deviation)))
    return table
