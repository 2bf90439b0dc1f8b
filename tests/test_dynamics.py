import numpy as np
import pytest

from ergoquench import (ChannelSpec, InvariantViolation, ModelSpec, TimeGrid,
                        build_hamiltonian, build_liouvillian, detect_steady,
                        evolve_to, gibbs_state, propagate, propagate_rk4)
from ergoquench.channels import Liouvillian
from ergoquench.ergotropy import ergotropy
from ergoquench.jc import default_jc_spec, jc_full_evolution
from ergoquench.linalg import dagger, frobenius, hermitian_eig_batch


def _liouvillian(n, h_field, **channel):
    model = ModelSpec(n_qubits=n, field_h=h_field)
    h = build_hamiltonian(model)
    return build_liouvillian(h, ChannelSpec(**channel), model), h


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(t_max=10.0, dt=2.0)  # output resolution capped at 1
    with pytest.raises(ValueError):
        TimeGrid(t_max=10.3, dt=0.5)  # not an integral number of steps
    with pytest.raises(ValueError):
        TimeGrid(t_max=0.1, dt=0.5)
    grid = TimeGrid(t_max=10.0, dt=0.5)
    assert grid.n_steps == 20
    assert np.allclose(grid.times(), np.arange(21) * 0.5)


def test_closed_system_conserves_energy(h2):
    liou, _ = _liouvillian(2, 0.1, gamma=0.0)
    traj = propagate(liou, gibbs_state(h2, 0.7), TimeGrid(t_max=50.0, dt=0.5))
    energies = np.einsum("tij,ji->t", traj.states, h2).real
    assert np.abs(energies - energies[0]).max() <= 1e-9


def test_parallel_two_qubit_top_population_decay(h2):
    liou, _ = _liouvillian(2, 0.1, gamma=0.05)
    rho0 = gibbs_state(h2, 0.5)
    traj = propagate(liou, rho0, TimeGrid(t_max=100.0, dt=0.5))
    expected = rho0[0, 0].real * np.exp(-2.0 * 0.05 * traj.times)
    assert np.abs(traj.states[:, 0, 0].real - expected).max() <= 1e-12


def test_collective_dephasing_is_frozen(h2):
    liou, _ = _liouvillian(2, 0.1, gamma=0.05, alpha=1.0, alpha_z=1.0)
    rho0 = gibbs_state(h2, 1.0)
    traj = propagate(liou, rho0, TimeGrid(t_max=800.0, dt=0.5))
    assert np.abs(traj.states - rho0).max() <= 1e-10


def test_rk4_matches_expm_on_plateau_parameters(h2):
    liou, _ = _liouvillian(2, 0.1, gamma=0.05)
    rho0 = gibbs_state(h2, 1.0)
    grid = TimeGrid(t_max=800.0, dt=0.5)
    a = propagate(liou, rho0, grid)
    b = propagate_rk4(liou, rho0, grid, substeps=20)
    assert np.abs(a.states - b.states).max() < 1e-7


def test_rk4_free_precession_phase():
    liou, h = _liouvillian(1, 0.1, gamma=0.0)
    plus = np.full((2, 2), 0.5, dtype=complex)
    traj = propagate_rk4(liou, plus, TimeGrid(t_max=20.0, dt=0.1), substeps=10)
    expected = 0.5 * np.exp(-2j * 0.1 * traj.times)
    assert np.abs(traj.states[:, 0, 1] - expected).max() <= 1e-9


def test_zero_liouvillian_keeps_state():
    liou = Liouvillian(matrix=np.zeros((4, 4), dtype=complex), dim_state=2)
    rho0 = np.diag([0.75, 0.25]).astype(complex)
    traj = propagate_rk4(liou, rho0, TimeGrid(t_max=5.0, dt=0.5), substeps=3)
    assert np.abs(traj.states - rho0).max() == 0.0


def test_semigroup_property(h2):
    liou, _ = _liouvillian(2, 0.1, gamma=0.05, alpha_minus=0.5)
    rho0 = gibbs_state(h2, 0.5)
    coarse = propagate(liou, rho0, TimeGrid(t_max=40.0, dt=0.5))
    fine = propagate(liou, rho0, TimeGrid(t_max=40.0, dt=0.25))
    assert np.abs(coarse.states - fine.states[::2]).max() <= 1e-10


def test_cptp_suite_and_purity(h2):
    liou, _ = _liouvillian(2, 0.1, gamma=0.05, alpha_minus=1.0)
    traj = propagate(liou, gibbs_state(h2, 0.2), TimeGrid(t_max=800.0, dt=0.5))
    traces = np.trace(traj.states, axis1=1, axis2=2)
    assert np.abs(traces - 1.0).max() < 1e-9
    assert np.abs(traj.states - dagger(traj.states)).max() < 1e-9
    vals, _ = hermitian_eig_batch(traj.states, check=False)
    assert vals[:, 0].min() > -1e-9
    purity = np.einsum("tij,tji->t", traj.states, traj.states).real
    assert purity.max() <= 1.0 + 1e-9


def test_evolve_to_matches_stepping(h2):
    liou, _ = _liouvillian(2, 0.1, gamma=0.05, alpha_minus=1.0)
    rho0 = gibbs_state(h2, 0.5)
    traj = propagate(liou, rho0, TimeGrid(t_max=20.0, dt=0.5))
    jumped = evolve_to(liou, rho0, 20.0)
    assert np.abs(jumped - traj.states[-1]).max() <= 1e-10


def test_evolve_to_stack_equals_single_calls(h2):
    liou, _ = _liouvillian(2, 0.1, gamma=0.05, alpha_minus=1.0)
    stack = np.array([gibbs_state(h2, beta) for beta in (0.2, 1.0, 5.0)])
    jumped = evolve_to(liou, stack, 20.0)
    assert jumped.shape == stack.shape
    single = np.array([evolve_to(liou, rho, 20.0) for rho in stack])
    assert single.shape == stack.shape  # a (D, D) input still gives (D, D)
    assert np.array_equal(jumped, single)


def test_evolve_to_stack_rejects_a_non_density_matrix(h2):
    liou, _ = _liouvillian(2, 0.1, gamma=0.05)
    stack = np.array([gibbs_state(h2, 1.0), 2.0 * gibbs_state(h2, 1.0),
                      gibbs_state(h2, 0.5)])
    with pytest.raises(ValueError, match="trace"):
        evolve_to(liou, stack, 1.0)


def test_detect_steady_frozen_from_start(h2):
    liou, _ = _liouvillian(2, 0.1, gamma=0.05, alpha=1.0, alpha_z=1.0)
    traj = propagate(liou, gibbs_state(h2, 1.0), TimeGrid(t_max=100.0, dt=0.5))
    steady = detect_steady(traj, tol=1e-8)
    assert steady.converged
    assert steady.t_settle == 0.0


def test_detect_steady_parallel_plateau(h2):
    liou, _ = _liouvillian(2, 0.1, gamma=0.05)
    traj = propagate(liou, gibbs_state(h2, 1.0), TimeGrid(t_max=800.0, dt=0.5))
    steady = detect_steady(traj, tol=1e-8)
    assert steady.converged
    assert abs(ergotropy(steady.state, h2).ergotropy - 1.8) <= 1e-6


def test_detect_steady_gibbs_under_unitary_flow(h2):
    liou, _ = _liouvillian(2, 0.1, gamma=0.0)
    traj = propagate(liou, gibbs_state(h2, 0.5), TimeGrid(t_max=100.0, dt=0.5))
    assert detect_steady(traj, tol=1e-8).converged


def test_detect_steady_reports_unconverged_transient(h2):
    # stop well before the slowest mode (rate gamma) has died out
    liou, _ = _liouvillian(2, 0.1, gamma=0.05)
    traj = propagate(liou, gibbs_state(h2, 1.0), TimeGrid(t_max=20.0, dt=0.5))
    steady = detect_steady(traj, tol=1e-8)
    assert not steady.converged
    assert steady.t_settle == traj.times[-1]


def test_collective_steady_state_remembers_initial_condition(h2):
    liou, _ = _liouvillian(2, 0.1, gamma=0.05, alpha_minus=1.0)
    grid = TimeGrid(t_max=800.0, dt=0.5)
    hot = detect_steady(propagate(liou, gibbs_state(h2, 0.2), grid), tol=1e-8)
    cold = detect_steady(propagate(liou, gibbs_state(h2, 5.0), grid), tol=1e-8)
    assert hot.converged and cold.converged
    assert frobenius(hot.state - cold.state) > 0.1


def test_invariant_violation_names_step():
    # a trace-growing generator is not CPTP and must abort with a step index
    liou = Liouvillian(matrix=0.1 * np.eye(4, dtype=complex), dim_state=2)
    rho0 = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(InvariantViolation, match="step"):
        propagate(liou, rho0, TimeGrid(t_max=5.0, dt=1.0))


def test_propagate_rejects_invalid_initial_state(h2):
    liou, _ = _liouvillian(2, 0.1, gamma=0.05)
    with pytest.raises(ValueError):
        propagate(liou, np.eye(4, dtype=complex), TimeGrid(t_max=1.0, dt=0.5))


@pytest.mark.parametrize("evolve", [
    lambda liou, rho: propagate(liou, rho, TimeGrid(t_max=1.0, dt=0.5)),
    lambda liou, rho: propagate_rk4(liou, rho, TimeGrid(t_max=1.0, dt=0.5)),
    lambda liou, rho: evolve_to(liou, rho, 1.0),
], ids=["propagate", "propagate_rk4", "evolve_to"])
def test_state_of_the_wrong_dim_is_rejected(evolve):
    liou = Liouvillian(matrix=np.zeros((16, 16), dtype=complex), dim_state=4)
    with pytest.raises(ValueError, match="does not match dim"):
        evolve(liou, np.diag([0.5, 0.5]).astype(complex))


@pytest.mark.parametrize("run", [
    lambda liou, rho: propagate(liou, rho, TimeGrid(t_max=20.0, dt=0.5)),
    lambda liou, rho: propagate_rk4(liou, rho, TimeGrid(t_max=20.0, dt=0.5), substeps=4),
    lambda liou, rho: jc_full_evolution(default_jc_spec(kappa_over_g=10.0),
                                        np.diag([1.0, 0.0]).astype(complex),
                                        TimeGrid(t_max=2.0, dt=0.05)),
], ids=["propagate", "propagate_rk4", "jc_full_evolution"])
def test_trajectory_carries_the_screened_decomposition(h2, run):
    liou, _ = _liouvillian(2, 0.1, gamma=0.05, alpha_minus=0.5)
    traj = run(liou, gibbs_state(h2, 0.5))
    vals, vecs = hermitian_eig_batch(traj.states, check=False)
    assert np.array_equal(traj.spectra, vals)
    assert np.array_equal(traj.vectors, vecs)
