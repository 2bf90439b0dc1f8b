import numpy as np
import pytest

from ergoquench import TimeGrid
from ergoquench.jc import (JCSpec, _auto_grid, compare_jc, default_jc_spec,
                           effective_atom_evolution, jc_full_evolution, jc_hamiltonian)
from ergoquench.linalg import dagger, hermitian_eig

EXCITED = np.diag([1.0, 0.0]).astype(complex)  # (e, g) ordering


def test_spec_validation():
    with pytest.raises(ValueError):
        JCSpec(omega_q=10.0, omega_c=10.0, g=-1.0, kappa=1.0)
    with pytest.raises(ValueError):
        JCSpec(omega_q=np.inf, omega_c=10.0, g=1.0, kappa=1.0)
    spec = default_jc_spec(kappa_over_g=10.0)
    assert spec.delta == 0.0
    assert spec.kappa == 10.0


def test_hamiltonian_decoupled_limit():
    spec = JCSpec(omega_q=3.0, omega_c=5.0, g=0.0, kappa=1.0)
    h = jc_hamiltonian(spec)
    assert np.allclose(h, np.diag([-1.5, 1.5, 3.5, 6.5]), atol=1e-14)


def test_hamiltonian_coupling_structure():
    spec = JCSpec(omega_q=3.0, omega_c=5.0, g=0.7, kappa=1.0)
    h = jc_hamiltonian(spec)
    assert np.abs(h - dagger(h)).max() == 0.0
    assert h[1, 2] == 0.7 and h[2, 1] == 0.7
    off = h - np.diag(np.diag(h))
    off[1, 2] = off[2, 1] = 0.0
    assert np.abs(off).max() == 0.0


def test_resonant_one_excitation_splitting():
    spec = JCSpec(omega_q=10.0, omega_c=10.0, g=0.7, kappa=1.0)
    vals, _ = hermitian_eig(jc_hamiltonian(spec)[1:3, 1:3])
    assert np.allclose(vals, [10.0 / 2 - 0.7, 10.0 / 2 + 0.7], atol=1e-12)


def test_full_evolution_stays_diagonal_and_normalized():
    spec = default_jc_spec(kappa_over_g=5.0)
    grid = TimeGrid(t_max=10.0, dt=0.05)
    traj = jc_full_evolution(spec, EXCITED, grid)
    coherences = np.abs(traj.states[:, 0, 1])
    assert coherences.max() < 1e-12
    populations = traj.states[:, 0, 0].real + traj.states[:, 1, 1].real
    assert np.abs(populations - 1.0).max() <= 1e-9


def test_full_evolution_reaches_effective_rate_limit():
    spec = default_jc_spec(kappa_over_g=1e4)
    t_max = 2.0 / spec.gamma_eff
    grid = TimeGrid(t_max=t_max, dt=min(1.0, t_max / 200))
    traj = jc_full_evolution(spec, EXCITED, grid)
    expected = np.exp(-spec.gamma_eff * traj.times)
    assert np.abs(traj.states[:, 0, 0].real - expected).max() <= 1e-3


def test_effective_rate_on_resonance():
    spec = JCSpec(omega_q=10.0, omega_c=10.0, g=1.0, kappa=20.0)
    assert abs(spec.gamma_eff - 4.0 / 20.0) <= 1e-15
    assert spec.lamb_shift == 0.0


def test_effective_evolution_is_exponential_decay():
    spec = default_jc_spec(kappa_over_g=10.0)
    grid = TimeGrid(t_max=20.0, dt=0.1)
    traj = effective_atom_evolution(spec, EXCITED, grid)
    expected = np.exp(-spec.gamma_eff * traj.times)
    assert np.abs(traj.states[:, 0, 0].real - expected).max() <= 1e-10


def test_effective_evolution_thermal_initial_state():
    # same generator for any input: populations relax exponentially toward |g>
    spec = default_jc_spec(kappa_over_g=10.0)
    grid = TimeGrid(t_max=20.0, dt=0.1)
    thermal = np.diag([0.3, 0.7]).astype(complex)
    traj = effective_atom_evolution(spec, thermal, grid)
    expected = 0.3 * np.exp(-spec.gamma_eff * traj.times)
    assert np.abs(traj.states[:, 0, 0].real - expected).max() <= 1e-10


def test_comparison_improves_with_loss_rate():
    table = compare_jc(default_jc_spec(kappa_over_g=1.0),
                       (1.0, 5.0, 10.0, 20.0, 50.0, 100.0))
    deviations = [dev for _, dev in table]
    assert all(b < a for a, b in zip(deviations, deviations[1:]))
    assert deviations[0] > 10.0 * deviations[-1]


def test_comparison_trivial_without_coupling():
    spec = JCSpec(omega_q=10.0, omega_c=10.0, g=0.0, kappa=1.0)
    grid = TimeGrid(t_max=5.0, dt=0.1)
    full = jc_full_evolution(spec, EXCITED, grid)
    eff = effective_atom_evolution(spec, EXCITED, grid)
    assert np.abs(full.states[:, 0, 0].real - eff.states[:, 0, 0].real).max() <= 1e-12


def test_compare_rejects_nonpositive_ratio():
    with pytest.raises(ValueError):
        compare_jc(default_jc_spec(kappa_over_g=1.0), (1.0, -2.0))


def test_auto_grid_of_a_slow_decay_takes_whole_unit_steps():
    spec = JCSpec(omega_q=10.0, omega_c=10.0, g=0.03, kappa=1.0)  # gamma_eff = 0.0036
    span = 8.0 / spec.gamma_eff  # 2222.2..., so 400 points would be 5.6 apart
    grid = _auto_grid(spec)
    assert grid.dt == 1.0
    assert grid.t_max == np.ceil(span) and grid.t_max >= span
    assert grid.times()[-1] == grid.t_max
