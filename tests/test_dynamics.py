import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from ergoquench import (ChannelSpec, InvariantViolation, ModelSpec, TimeGrid,
                        build_hamiltonian, build_liouvillian, evolve_to, gibbs_state,
                        propagate)
from ergoquench.channels import Liouvillian, _chain_labels
from ergoquench import dynamics
from ergoquench.dynamics import (GUARD_TOL, OFF_PARITY_TOL, SCREEN_CHUNK, Trajectory,
                                 _hermitian_2x2_eigvals, _powers, _screen, block_entries,
                                 sector_layout)
from ergoquench.ergotropy import (CROSSING_SIGNIFICANCE, LEVEL_TOL, _greedy_match,
                                  eigenvalue_crossings, energy_basis_populations,
                                  trajectory_records)
from ergoquench.jc import default_jc_spec, jc_full_evolution
from ergoquench.linalg import (LinalgError, dagger, expm, hermitian_eig, hermitian_eig_batch,
                               hermitian_eigvals_batch)
from ergoquench.model import site_operator
from ergoquench.oracles import dark_population_series, dark_subspace

from conftest import random_density
from fingerprint import run_defaults
from reference import (DenseGenerator, _invariant_blocks, mirror, parity_bases, parity_blocks,
                       parity_eigvalsh, propagate_rk4, sector_eigh, sector_eigvalsh, unvec, vec)


def _liouvillian(n, h_field, **channel):
    model = ModelSpec(n_qubits=n, field_h=h_field)
    h = build_hamiltonian(model)
    return build_liouvillian(h, ChannelSpec(**channel)), h


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
    liou = DenseGenerator(np.zeros((4, 4), dtype=complex))
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
    vals = hermitian_eigvals_batch(traj.states)
    assert vals[:, 0].min() > -1e-9
    purity = np.einsum("tij,tji->t", traj.states, traj.states).real
    assert purity.max() <= 1.0 + 1e-9


def test_evolve_to_matches_stepping(h2):
    liou, _ = _liouvillian(2, 0.1, gamma=0.05, alpha_minus=1.0)
    rho0 = gibbs_state(h2, 0.5)
    traj = propagate(liou, rho0, TimeGrid(t_max=20.0, dt=0.5))
    jumped = evolve_to(liou, rho0, 20.0)
    assert np.array_equal(jumped.times, [20.0])
    assert np.abs(jumped.states[0] - traj.states[-1]).max() <= 1e-10


def test_evolve_to_stack_equals_single_calls(h2):
    liou, _ = _liouvillian(2, 0.1, gamma=0.05, alpha_minus=1.0)
    stack = np.array([gibbs_state(h2, beta) for beta in (0.2, 1.0, 5.0)])
    jumped = evolve_to(liou, stack, 20.0)
    assert jumped.states.shape == stack.shape and np.array_equal(jumped.times, [20.0] * 3)
    single = [evolve_to(liou, rho, 20.0) for rho in stack]
    assert all(len(traj) == 1 for traj in single)  # a (D, D) input gives one entry
    assert np.array_equal(jumped.states, np.concatenate([traj.states for traj in single]))
    assert np.array_equal(jumped.spectra, np.concatenate([traj.spectra for traj in single]))


def test_evolve_to_stack_of_mixed_support_equals_single_calls(h4):
    # the full-support state touches blocks the Gibbs states leave at zero
    liou, _ = _liouvillian(4, 0.1, gamma=0.05, alpha=1.0)
    stack = np.array([gibbs_state(h4, 0.5), random_density(np.random.default_rng(5), 16),
                      gibbs_state(h4, 2.0)])
    jumped = evolve_to(liou, stack, 7.0).states
    single = np.concatenate([evolve_to(liou, rho, 7.0).states for rho in stack])
    assert jumped.tobytes() == single.tobytes()


def _bits(traj):
    return (traj.times.tobytes(), traj.values.tobytes(), traj.support.tobytes(),
            traj.spectra.tobytes())


def _family(n, h_field, channels, gamma=0.05):
    """The generator family of one chain size and field over channels (ChannelSpec keywords)."""
    h = build_hamiltonian(ModelSpec(n_qubits=n, field_h=h_field))
    return build_liouvillian(h, [ChannelSpec(gamma=gamma, **channel) for channel in channels])


def test_many_point_jump_gives_each_member_the_bytes_of_evolve_to_alone(h2, h4):
    # N=2 and N=4, dissipation and dephasing: families of one and two members, a 70x70
    # block alone per expm call and smaller ones stacked
    betas = np.array([0.2, 1.0, 5.0])
    stacks = {2: gibbs_state(h2, betas), 4: gibbs_state(h4, betas)}
    cases = [(2, [{"alpha_minus": 0.3}, {"alpha_minus": 1.0}]), (4, [{"alpha_minus": 0.5}]),
             (4, [{"alpha": 1.0}, {"alpha": 1.0, "alpha_z": 0.4}]),
             (2, [{"alpha": 1.0, "alpha_z": 0.7}]), (4, [{"alpha_minus": 1.0}]),
             (2, [{"alpha_minus": 0.0}])]
    points = 0
    for n, channels in cases:
        together = dynamics.evolve_points(stacks[n], _family(n, 0.1, channels), 800.0)
        for channel, traj in zip(channels, together, strict=True):
            alone = _liouvillian(n, 0.1, gamma=0.05, **channel)[0]
            assert _bits(traj) == _bits(evolve_to(alone, stacks[n], 800.0))
            points += 1
    assert points == 8


def _counting_checks(monkeypatch):
    calls = []
    original = dynamics.check_density_matrix

    def counting(rho, *args, **kwargs):
        calls.append(rho)
        return original(rho, *args, **kwargs)

    monkeypatch.setattr(dynamics, "check_density_matrix", counting)
    return calls


@pytest.mark.parametrize("writable", [False, True], ids=["read-only", "writable"])
def test_many_point_jump_checks_its_stack_once_however_many_members(h2, monkeypatch,
                                                                    writable):
    rho0 = gibbs_state(h2, np.array([0.5, 2.0]))
    rho0.setflags(write=writable)
    channels = [{"alpha_minus": a} for a in (0.0, 0.5, 1.0)]
    calls = _counting_checks(monkeypatch)
    together = dynamics.evolve_points(rho0, _family(2, 0.1, channels), 800.0)
    assert len(calls) == 1
    monkeypatch.undo()
    for channel, traj in zip(channels, together, strict=True):
        alone = _liouvillian(2, 0.1, gamma=0.05, **channel)[0]
        assert _bits(traj) == _bits(evolve_to(alone, rho0, 800.0))


def test_many_point_jump_checks_each_call_and_rejects_a_generator_of_another_dim(h2, h4,
                                                                                monkeypatch):
    rho2 = gibbs_state(h2, np.array([0.5, 2.0]))
    rho4 = gibbs_state(h4, np.array([0.5, 2.0]))
    liou2, liou4 = _liouvillian(2, 0.1, gamma=0.05)[0], _liouvillian(4, 0.1, gamma=0.05)[0]
    calls = _counting_checks(monkeypatch)
    # each call checks its stack, an equal copy of one checked before included
    for rho0, liou in [(rho2, liou2), (rho2.copy(), liou2), (rho4, liou4), (rho2, liou2)]:
        dynamics.evolve_points(rho0, liou, 1.0)
    assert len(calls) == 4
    # a 4x4 stack, checked, with a 16x16 generator
    with pytest.raises(ValueError, match="does not match dim 16"):
        dynamics.evolve_points(rho2, liou4, 1.0)
    assert len(calls) == 5


def test_many_point_jump_rejects_a_bad_stack_before_assembling_a_block(h2, monkeypatch):
    bad = 2.0 * gibbs_state(h2, np.array([0.5, 2.0]))
    liou = _liouvillian(2, 0.1, gamma=0.05)[0]
    assembled = []
    block = Liouvillian.block
    monkeypatch.setattr(Liouvillian, "block",
                        lambda self, *args: assembled.append(1) or block(self, *args))
    with pytest.raises(ValueError, match=r"initial state: trace deviates from 1 by 1\.000e\+00"):
        dynamics.evolve_points(bad, liou, 1.0)
    assert assembled == []


def test_many_point_jump_reports_a_violation_at_its_step_in_its_own_member():
    # identity generators and one that drains the population of level 3: all
    # singleton blocks; the second member's third state loses trace, and so does the
    # first state of the reversed stack
    drain = np.zeros((16, 16), dtype=complex)
    drain[15, 15] = -1.0  # vec index of (3, 3)
    stack = np.array([np.diag(np.eye(4)[k]).astype(complex) for k in (0, 1, 3)])
    family = DenseGenerator(np.array([np.zeros((16, 16), dtype=complex), drain]))
    with pytest.raises(InvariantViolation, match=r"trace defect 6\.321e-01 at step 2 \(t=1\)"):
        dynamics.evolve_points(stack, family, 1.0)
    with pytest.raises(InvariantViolation, match=r"trace defect 6\.321e-01 at step 0 \(t=1\)"):
        dynamics.evolve_points(stack[::-1].copy(), DenseGenerator(drain), 1.0)
    with pytest.raises(InvariantViolation, match=r"trace defect 6\.321e-01 at step 2 \(t=1\)"):
        evolve_to(DenseGenerator(drain), stack, 1.0)


def _limit_jumps(rho0, liou, t=800.0):
    return dynamics.evolve_points(rho0, liou, t, limit=True)


def test_limit_jump_gives_a_point_its_bytes_alone_in_a_stacked_or_a_fallback_chunk(h2, h4,
                                                                                  monkeypatch):
    # N=2 dephasing: the 4x4 blocks of one chunk share one stacked solve; at
    # alpha_z = 1 the bordered block is exactly singular (a zero pivot), so it
    # is left out of its chunk's solve and keeps its jump
    betas = np.array([0.2, 1.0, 5.0])
    rho2 = gibbs_state(h2, betas)
    deph = {a: {"alpha": 1.0, "alpha_z": a} for a in (0.3, 0.6, 1.0)}

    def family(*alphas):
        return _family(2, 0.1, [deph[a] for a in alphas])

    solves, original = [], dynamics.solve

    def counting(a, b):
        solves.append(np.ndim(a))
        return original(a, b)

    monkeypatch.setattr(dynamics, "solve", counting)
    stacked = _limit_jumps(rho2, family(0.3, 0.6))
    assert solves == [3]
    solves.clear()
    mixed = _limit_jumps(rho2, family(0.3, 1.0, 0.6))
    assert solves == [3]
    solves.clear()
    alone = [_limit_jumps(rho2, family(a))[0] for a in (0.3, 0.6)]
    assert solves == [3, 3]
    solves.clear()
    singular = _limit_jumps(rho2, family(1.0))[0]
    assert solves == []  # its chunk's only bordered block is exactly singular
    assert _bits(stacked[0]) == _bits(mixed[0]) == _bits(alone[0])
    assert _bits(stacked[1]) == _bits(mixed[2]) == _bits(alone[1])
    own = {a: _liouvillian(2, 0.1, gamma=0.05, **deph[a])[0] for a in deph}
    assert _bits(mixed[1]) == _bits(singular) == _bits(evolve_to(own[1.0], rho2, 800.0))
    # the limit was read: it is not the t = 800 jump
    assert stacked[1].values.tobytes() != evolve_to(own[0.6], rho2, 800.0).values.tobytes()
    # N=4 dissipation, a 70x70 block a chunk, next to points without a limit
    rho4 = gibbs_state(h4, betas)
    alphas = (0.9, 1.0, 0.4)
    together = (_limit_jumps(rho4, _family(4, 0.1, [{"alpha_minus": a} for a in alphas]))
                + _limit_jumps(rho2, family(0.6)))
    diss = [_liouvillian(4, 0.1, gamma=0.05, alpha_minus=a)[0] for a in alphas]
    for liou, rho0, traj in zip(diss + [own[0.6]], [rho4] * 3 + [rho2], together, strict=True):
        assert _bits(traj) == _bits(_limit_jumps(rho0, liou)[0])


@pytest.mark.parametrize("n", [2, 4])
def test_limit_jump_keeps_the_jump_of_a_1x1_block(h2, h4, n):
    # expm reads exp(0) as 1 - 2^-53, so each 1x1 population block under
    # dephasing keeps its jump's bytes, and a point whose other blocks have no
    # limit (alpha_z = 1) is the finite-t jump byte for byte
    rho0 = gibbs_state({2: h2, 4: h4}[n], np.array([0.2, 1.0, 5.0]))
    for alpha_z in (0.3, 1.0):
        liou = _liouvillian(n, 0.1, gamma=0.05, alpha=1.0, alpha_z=alpha_z)[0]
        limit = _limit_jumps(rho0, liou)[0]
        jump = evolve_to(liou, rho0, 800.0)
        corners = np.isin(limit.support, [0, 4 ** n - 1])  # |1..1><1..1| and |0..0><0..0|
        assert np.count_nonzero(corners) == 2
        assert limit.values[:, corners].tobytes() == jump.values[:, corners].tobytes()
        assert (_bits(limit) == _bits(jump)) == (alpha_z == 1.0)


def test_limit_jump_at_zero_rate_is_the_jump_and_leaves_no_ergotropy(h2, h4):
    betas = np.array([0.2, 0.5, 1.0, 2.0, 5.0])
    channels = [(0.0, 0.5, 0.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.5), (1.0, 0.0, 1.0)]
    for h in (h2, h4):
        rho0 = gibbs_state(h, betas)
        lious = [build_liouvillian(h, ChannelSpec(0.0, *channel)) for channel in channels]
        family = build_liouvillian(h, [ChannelSpec(0.0, *channel) for channel in channels])
        for liou, traj in zip(lious, _limit_jumps(rho0, family), strict=True):
            assert _bits(traj) == _bits(evolve_to(liou, rho0, 800.0))
            assert np.abs(trajectory_records(traj, h).ergotropy).max() <= 1e-12


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_limit_jump_sends_a_non_finite_generator_to_expm(h2, value):
    matrix = _liouvillian(2, 0.1, gamma=0.05, alpha_minus=0.5)[0].matrix.copy()
    matrix[0, 0] = value  # inside the 6x6 block the Gibbs state touches
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(LinalgError, match="expm input has non-finite entries"):
            _limit_jumps(gibbs_state(h2, 0.5), DenseGenerator(matrix))
    # as evolve_to: only inf * 0, in the complex product L_b t, warns
    assert [str(w.message) for w in caught] == (
        ["invalid value encountered in multiply"] if np.isinf(value) else [])


def test_limit_jump_leaves_a_generator_that_is_not_trace_preserving_on_its_jump(h2):
    # a loss of 1e-10 on the population of (0, 0): |ell L_b| = 1e-10 fails the
    # trace test, while the trace it loses by t = 800 stays inside the guard
    matrix = _liouvillian(2, 0.1, gamma=0.05, alpha_minus=0.5)[0].matrix.copy()
    matrix[0, 0] -= 1e-10
    liou, rho0 = DenseGenerator(matrix), gibbs_state(h2, np.array([0.2, 5.0]))
    assert _bits(_limit_jumps(rho0, liou)[0]) == _bits(evolve_to(liou, rho0, 800.0))
    # a generator that drains level 3: its 1x1 block loses trace, still reported at its step
    drain = np.zeros((16, 16), dtype=complex)
    drain[15, 15] = -1.0
    with pytest.raises(InvariantViolation, match=r"trace defect 6\.321e-01 at step 0 \(t=1\)"):
        _limit_jumps(np.diag(np.eye(4)[3]).astype(complex), DenseGenerator(drain), 1.0)


ALPHAS = tuple(round(0.1 * k, 1) for k in range(11))
DEFAULT_BETAS = (0.2, 0.5, 1.0, 2.0, 5.0)


def _steady_points(h, betas, gamma=0.05, sizes=(2, 4), fig4=True):
    """(n, h, gamma, channel, betas) of the steady sweeps: fig4's 50 fields, appB's 44 points."""
    points = [(2, field, gamma, (0.0, 1.0, 0.0), np.linspace(0.1, 3.0, 50))
              for field in np.linspace(0.0, 0.9, 50)] if fig4 else []
    for n in sizes:
        for a in ALPHAS:
            points += [(n, h, gamma, (0.0, a, 0.0), betas), (n, h, gamma, (1.0, 0.0, a), betas)]
    return points


@pytest.mark.parametrize("points,limits", [
    (_steady_points(0.1, DEFAULT_BETAS), 60),
    (_steady_points(0.215, (0.595, 0.793, 1.435, 3.434, 4.589)), 60),
    (_steady_points(0.056, (0.554, 1.12, 1.353, 3.418, 4.046)), 60),
    (_steady_points(0.1, DEFAULT_BETAS, gamma=0.0), 0),
    (_steady_points(0.1, DEFAULT_BETAS, sizes=(1, 3), fig4=False), 41),  # N=1 decays locally at alpha_minus = 1 too
], ids=["default", "h=0.215", "h=0.056", "gamma=0", "N=1,3"])
def test_limit_decision_is_a_one_dimensional_kernel(points, limits):
    # the bordered test of every block the sweep's Gibbs stacks touch agrees with the
    # dimension of the numerical kernel, read off the singular values of L_b
    passed = 0
    for n, h, gamma, channel, betas in points:
        hamiltonian = build_hamiltonian(ModelSpec(n_qubits=n, field_h=h))
        liou = build_liouvillian(hamiltonian, ChannelSpec(gamma, *channel))
        held = np.any(vec(gibbs_state(hamiltonian, np.asarray(betas))), axis=0)
        for b in liou.blocks:
            if not held[b].any():
                continue
            block = liou.block(b)
            ok, _ = dynamics._block_limits(block[None], b % (liou.dim_state + 1) == 0)
            sigma = np.linalg.svd(block, compute_uv=False)
            assert ok[0] == (np.count_nonzero(sigma <= 1e-10 * sigma[0]) == 1), (n, channel, b)
            passed += bool(ok[0]) and b.size > 1
    assert passed == limits


def test_labels_given_as_a_list_propagate_as_a_tuple_does(h2):
    # the screen's layout cache keys on the labels
    liou, _ = _liouvillian(2, 0.1, gamma=0.05)
    listed = Liouvillian(liou.hamiltonian, liou.jumps, liou.rates, list(liou.labels))
    assert isinstance(listed.labels, tuple) and listed.labels == liou.labels
    rho0, grid = gibbs_state(h2, 0.5), TimeGrid(t_max=5.0, dt=0.5)
    assert np.array_equal(propagate(listed, rho0, grid).values, propagate(liou, rho0, grid).values)
    assert np.array_equal(evolve_to(listed, rho0, 5.0).values, evolve_to(liou, rho0, 5.0).values)


def test_generators_and_trajectories_compare_by_identity(h2):
    liou, _ = _liouvillian(2, 0.1, gamma=0.05)
    twin = Liouvillian(liou.hamiltonian, liou.jumps, liou.rates, liou.labels)
    assert (liou == twin) is False and liou == liou and liou != twin
    traj = evolve_to(liou, gibbs_state(h2, 0.5), 1.0)
    copy = Trajectory(traj.times.copy(), traj.values.copy(), traj.layout, traj.spectra.copy())
    assert (traj == copy) is False and traj == traj


def test_evolve_to_stack_rejects_a_non_density_matrix(h2):
    liou, _ = _liouvillian(2, 0.1, gamma=0.05)
    stack = np.array([gibbs_state(h2, 1.0), 2.0 * gibbs_state(h2, 1.0),
                      gibbs_state(h2, 0.5)])
    with pytest.raises(ValueError, match="trace") as caught:
        evolve_to(liou, stack, 1.0)
    assert str(caught.value).endswith("at index 1")


def test_gibbs_is_stationary_under_unitary_flow(h2):
    liou, _ = _liouvillian(2, 0.1, gamma=0.0)
    rho0 = gibbs_state(h2, 0.5)
    traj = propagate(liou, rho0, TimeGrid(t_max=100.0, dt=0.5))
    assert np.abs(traj.states[-1] - rho0).max() <= 1e-10


def test_collective_steady_state_remembers_initial_condition(h2):
    liou, _ = _liouvillian(2, 0.1, gamma=0.05, alpha_minus=1.0)
    grid = TimeGrid(t_max=800.0, dt=0.5)
    hot = propagate(liou, gibbs_state(h2, 0.2), grid).states[-1]
    cold = propagate(liou, gibbs_state(h2, 5.0), grid).states[-1]
    assert np.linalg.norm(hot - cold) > 0.1


def test_invariant_violation_names_step():
    # a trace-growing generator is not CPTP and must abort with a step index
    liou = DenseGenerator(0.1 * np.eye(4, dtype=complex))
    rho0 = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(InvariantViolation, match="step"):
        propagate(liou, rho0, TimeGrid(t_max=5.0, dt=1.0))


def test_propagate_rejects_invalid_initial_state(h2):
    liou, _ = _liouvillian(2, 0.1, gamma=0.05)
    with pytest.raises(ValueError):
        propagate(liou, np.eye(4, dtype=complex), TimeGrid(t_max=1.0, dt=0.5))


def test_propagate_rejects_a_stack_of_states(h2):
    liou, _ = _liouvillian(2, 0.1, gamma=0.05)
    stack = np.array([gibbs_state(h2, beta) for beta in (0.5, 1.0)])
    with pytest.raises(ValueError, match=r"one \(D, D\) state, got shape \(2, 4, 4\)"):
        propagate(liou, stack, TimeGrid(t_max=1.0, dt=0.5))
    with pytest.raises(ValueError, match=r"one \(D, D\) state"):
        propagate(liou, stack[:1], TimeGrid(t_max=1.0, dt=0.5))


@pytest.mark.parametrize("evolve", [
    lambda liou, rho: propagate(liou, rho, TimeGrid(t_max=1.0, dt=0.5)),
    lambda liou, rho: propagate_rk4(liou, rho, TimeGrid(t_max=1.0, dt=0.5)),
    lambda liou, rho: evolve_to(liou, rho, 1.0),
], ids=["propagate", "propagate_rk4", "evolve_to"])
def test_state_of_the_wrong_dim_is_rejected(evolve):
    liou = DenseGenerator(np.zeros((16, 16), dtype=complex))
    with pytest.raises(ValueError, match="does not match dim"):
        evolve(liou, np.diag([0.5, 0.5]).astype(complex))


@pytest.mark.parametrize("run", [
    lambda liou, rho: propagate(liou, rho, TimeGrid(t_max=20.0, dt=0.5)),
    lambda liou, rho: propagate_rk4(liou, rho, TimeGrid(t_max=20.0, dt=0.5), substeps=4),
    lambda liou, rho: jc_full_evolution(default_jc_spec(kappa_over_g=10.0),
                                        np.diag([1.0, 0.0]).astype(complex),
                                        TimeGrid(t_max=2.0, dt=0.05)),
    lambda liou, rho: evolve_to(liou, np.array([rho, np.diag([0.4, 0.3, 0.2, 0.1]),
                                                np.full((4, 4), 0.25)]), 20.0),
], ids=["propagate", "propagate_rk4", "jc_full_evolution", "evolve_to-stack"])
def test_trajectory_carries_the_screened_decomposition(h2, run):
    liou, _ = _liouvillian(2, 0.1, gamma=0.05, alpha_minus=0.5)
    traj = run(liou, gibbs_state(h2, 0.5))
    vals = hermitian_eigvals_batch(traj.states)
    assert traj.spectra.shape == vals.shape
    assert np.abs(traj.spectra - vals).max() <= 1e-14
    assert not hasattr(traj, "vectors")


def test_invariant_violation_names_the_step_of_a_negative_eigenvalue():
    # Hermitian and of unit trace at every step, in a non-diagonal basis;
    # only the spectrum shows the eigenvalue -1e-5 at step 3
    rotation = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    spectra = np.tile([0.75, 0.25], (6, 1))
    spectra[3] = [1.0 + 1e-5, -1e-5]
    stack = (rotation * spectra[:, None, :]) @ dagger(rotation)
    with pytest.raises(InvariantViolation, match=r"positivity defect .* at step 3 \(t=1.5\)"):
        Trajectory.screened(0.5 * np.arange(6), stack)
    Trajectory.screened(0.5 * np.arange(3), stack[:3])


def _dense_states(liou, rho0, dt, n_steps):
    """Reference: expm of the full generator, stepped on the full vector."""
    step = expm(liou.matrix * dt)
    vs = [vec(rho0)]
    for _ in range(n_steps):
        vs.append(step @ vs[-1])
    return unvec(np.array(vs), liou.dim_state)


_ENGINE_CASES = {
    "N2-parallel": (2, dict(gamma=0.05)),
    "N2-collective": (2, dict(gamma=0.05, alpha_minus=1.0)),
    "N2-dephasing": (2, dict(gamma=0.05, alpha=1.0, alpha_z=0.3)),
    "N2-mixed": (2, dict(gamma=0.05, alpha=0.5, alpha_minus=0.5, alpha_z=0.7)),
    "N4-parallel": (4, dict(gamma=0.05)),
    "N4-collective": (4, dict(gamma=0.05, alpha_minus=1.0)),
    "N4-interpolated": (4, dict(gamma=0.05, alpha_minus=0.4)),
    "N4-dephasing": (4, dict(gamma=0.05, alpha=1.0, alpha_z=0.3)),
    "N4-mixed": (4, dict(gamma=0.05, alpha=0.3, alpha_minus=0.5, alpha_z=0.7)),
}


@pytest.mark.parametrize("state", ["gibbs", "random"])
@pytest.mark.parametrize("case", list(_ENGINE_CASES))
def test_blocked_engine_matches_dense_reference(case, state):
    n, channel = _ENGINE_CASES[case]
    liou, h = _liouvillian(n, 0.1, **channel)
    if state == "gibbs":
        rho0 = gibbs_state(h, 0.5)
    else:  # full support: touches every block
        rho0 = random_density(np.random.default_rng(11), 2 ** n)
        assert np.all(vec(rho0) != 0)
    dense = _dense_states(liou, rho0, 0.5, 40)
    traj = propagate(liou, rho0, TimeGrid(t_max=20.0, dt=0.5))
    assert np.abs(traj.states - dense).max() <= 1e-12
    jumped = evolve_to(liou, rho0, 20.0).states[0]
    assert np.abs(jumped - dense[-1]).max() <= 1e-12
    far = unvec((expm(liou.matrix * 800.0) @ vec(rho0))[None], liou.dim_state)[0]
    assert np.abs(evolve_to(liou, rho0, 800.0).states[0] - far).max() <= 1e-12


@pytest.mark.parametrize("case", list(_ENGINE_CASES))
def test_invariant_blocks_partition_the_generator(case):
    n, channel = _ENGINE_CASES[case]
    liou, h = _liouvillian(n, 0.1, **channel)
    dim = liou.matrix.shape[0]
    assert np.array_equal(np.sort(np.concatenate(liou.blocks)), np.arange(dim))
    label = np.empty(dim, dtype=int)
    for k, block in enumerate(liou.blocks):
        label[block] = k
    rows, cols = np.nonzero(liou.matrix)
    assert np.array_equal(label[rows], label[cols])  # no entry couples two blocks
    touched = [len(b) for b in liou.blocks if np.any(vec(gibbs_state(h, 0.5))[b])]
    assert max(touched) <= (70 if n == 4 else 6)


def test_four_qubit_dissipation_blocks_are_the_excitation_sectors():
    liou, _ = _liouvillian(4, 0.1, gamma=0.05, alpha_minus=0.4)
    sizes = sorted((len(b) for b in liou.blocks), reverse=True)
    assert sizes == [70, 56, 56, 28, 28, 8, 8, 1, 1]


@pytest.mark.parametrize("axis,n_blocks", [
    (("x",), 2),        # sigma^x flips ket and bra together: n - m keeps its parity
    (("x", "z"), 1),    # (sigma^x + sigma^z) also flips one side alone
])
def test_cross_coupling_jumps_merge_blocks_and_match_dense(h2, model2, axis, n_blocks):
    jumps = [sum(site_operator(model2, s, kind) for kind in axis) for s in (1, 2)]
    liou = DenseGenerator(Liouvillian(h2, tuple(jumps), (0.05, 0.05), (0,) * 4).matrix)
    assert len(liou.blocks) == n_blocks
    rho0 = random_density(np.random.default_rng(13), 4)
    dense = _dense_states(liou, rho0, 0.5, 40)
    assert np.abs(propagate(liou, rho0, TimeGrid(t_max=20.0, dt=0.5)).states
                  - dense).max() <= 1e-12
    assert np.abs(evolve_to(liou, rho0, 20.0).states[0] - dense[-1]).max() <= 1e-12


def test_untouched_blocks_stay_exactly_zero(h4):
    liou, _ = _liouvillian(4, 0.1, gamma=0.05, alpha_minus=1.0)
    rho0 = gibbs_state(h4, 0.5)
    outside = np.concatenate([b for b in liou.blocks if not np.any(vec(rho0)[b])])
    traj = propagate(liou, rho0, TimeGrid(t_max=10.0, dt=0.5))
    assert np.all(np.array([vec(s) for s in traj.states])[:, outside] == 0)
    assert np.all(vec(evolve_to(liou, rho0, 10.0).states[0])[outside] == 0)


def _stepped_reference(step, v, n_steps):
    """One mat-vec per step, the loop that doubling replaces."""
    rows = [v]
    for _ in range(n_steps):
        rows.append(step @ rows[-1])
    return np.array(rows)


_DOUBLING_BLOCKS = {  # (n, channel, block size)
    "1-index": (4, dict(gamma=0.05, alpha=1.0), 1),     # pure dephasing
    "6-index": (2, dict(gamma=0.05), 6),
    "70-index": (4, dict(gamma=0.05), 70),
}


@pytest.mark.parametrize("n_steps", [1, 2, 3, 4, 7, 8, 9, 1600, 4000])
@pytest.mark.parametrize("block", list(_DOUBLING_BLOCKS))
def test_powers_by_doubling_equal_sequential_steps(block, n_steps):
    n, channel, size = _DOUBLING_BLOCKS[block]
    liou, _ = _liouvillian(n, 0.1, **channel)
    b = next(b for b in liou.blocks if len(b) == size)
    step = expm(liou.matrix[np.ix_(b, b)] * 0.5)
    v = vec(random_density(np.random.default_rng(17), 2 ** n))[b]
    rows = np.empty((n_steps + 1, size), dtype=complex)
    _powers(step, v, rows)
    assert np.abs(rows - _stepped_reference(step, v, n_steps)).max() <= 1e-12


@pytest.mark.parametrize("n,channel,grid", [
    (4, dict(gamma=0.05), TimeGrid(t_max=800.0, dt=0.5)),
    (2, dict(gamma=0.05, alpha=0.5), TimeGrid(t_max=400.0, dt=0.1)),
], ids=["N4-1600", "N2-4000"])
def test_propagate_matches_one_jump_per_stored_step(n, channel, grid):
    liou, h = _liouvillian(n, 0.1, **channel)
    rho0 = gibbs_state(h, 0.5)
    traj = propagate(liou, rho0, grid)
    dense = liou.matrix
    j = int(np.log2(grid.n_steps))
    for k in (1, 2 ** j - 1, 2 ** j, 2 ** j + 1, grid.n_steps):
        exact = np.zeros(dense.shape[0], dtype=complex)
        for b in liou.blocks:
            exact[b] = expm(dense[np.ix_(b, b)] * (k * grid.dt)) @ vec(rho0)[b]
        assert np.abs(traj.states[k] - unvec(exact[None], liou.dim_state)[0]).max() <= 1e-12


def test_doubling_screen_names_the_first_bad_step_of_sequential_steps(h4):
    # L - eps I loses trace as exp(-eps t); the guard trips first at t = 350.5
    liou, _ = _liouvillian(4, 0.1, gamma=0.05)
    eps = 1e-6 / 350.25
    leaky = DenseGenerator(liou.matrix - eps * np.eye(256))
    rho0 = gibbs_state(h4, 0.5)
    grid = TimeGrid(t_max=800.0, dt=0.5)
    v = vec(rho0)
    stacked = np.zeros((grid.n_steps + 1, v.size), dtype=complex)
    for b in leaky.blocks:
        if np.any(v[b]):
            step = expm(leaky.matrix[np.ix_(b, b)] * grid.dt)
            stacked[:, b] = _stepped_reference(step, v[b], grid.n_steps)
    where = r"trace defect .* at step 701 \(t=350.5\)"
    with pytest.raises(InvariantViolation, match=where):
        Trajectory.screened(grid.times(), unvec(stacked, 16))
    with pytest.raises(InvariantViolation, match=where):
        propagate(leaky, rho0, grid)


def _whole_stack_screen(raw):
    """The screen in one pass over the whole stack: states, spectra, first violation or None.

    The spectra are the parity-block or per-sector ones the package's
    screen computes, here taken of the full symmetrized matrices by an
    independent sector search and parity basis.
    """
    states = dagger(raw)
    herm = np.abs(raw - states).max(axis=(1, 2))
    states += raw
    states *= 0.5
    trace_dev = np.abs(np.trace(states, axis1=1, axis2=2) - 1.0)
    vals = parity_eigvalsh(states)
    for name, dev in (("Hermiticity", herm), ("trace", trace_dev), ("positivity", -vals[:, 0])):
        bad = np.nonzero(dev > GUARD_TOL)[0]
        if bad.size:
            return states, vals, (name, int(bad[0]))
    return states, vals, None


def _noisy_stack(n_states, seed=19):
    """Column-stacked density matrices with a Hermiticity defect far inside the guard."""
    rng = np.random.default_rng(seed)
    stack = np.array([random_density(rng, 4) for _ in range(n_states)])
    stack += 1e-12 * (rng.normal(size=stack.shape) + 1j * rng.normal(size=stack.shape))
    return np.swapaxes(stack, -1, -2).reshape(n_states, 16)  # row k is vec(stack[k])


@pytest.mark.parametrize("n_states", [1, SCREEN_CHUNK - 1, SCREEN_CHUNK, SCREEN_CHUNK + 1,
                                      2 * SCREEN_CHUNK + 1])
def test_chunked_screen_equals_the_whole_stack_screen(n_states):
    stacked = _noisy_stack(n_states)
    times = np.arange(n_states, dtype=float)
    states, vals, violation = _whole_stack_screen(unvec(stacked, 4))
    assert violation is None
    traj = Trajectory.screened(times, unvec(stacked, 4))
    assert traj.states.flags.c_contiguous
    assert np.array_equal(traj.states, states) and np.array_equal(traj.spectra, vals)


def test_chunked_screen_reports_the_violation_of_the_whole_stack_screen():
    # a trace defect in the first chunk, a Hermiticity defect in the last:
    # Hermiticity is checked first, over every step, as in one whole-stack pass
    n_states = 2 * SCREEN_CHUNK + 1
    raw = unvec(_noisy_stack(n_states), 4).copy()
    raw[3] *= 1.0 + 1e-5
    raw[n_states - 1, 0, 1] += 1e-5
    _, _, (name, step) = _whole_stack_screen(raw)
    assert (name, step) == ("Hermiticity", n_states - 1)
    with pytest.raises(InvariantViolation, match=rf"Hermiticity defect .* at step {step} "):
        Trajectory.screened(np.arange(n_states, dtype=float), raw)
    raw[n_states - 1, 0, 1] -= 1e-5
    with pytest.raises(InvariantViolation, match=r"trace defect .* at step 3 "):
        Trajectory.screened(np.arange(n_states, dtype=float), raw)


def test_screen_leaves_the_callers_array_alone():
    stacked = _noisy_stack(SCREEN_CHUNK + 5)
    raw = unvec(stacked, 4)
    kept = stacked.copy()
    traj = Trajectory.screened(np.arange(len(raw), dtype=float), raw)
    assert not np.array_equal(traj.states, raw)  # symmetrizing changed the states ...
    assert np.array_equal(stacked, kept)         # ... but not the caller's buffer
    assert not np.shares_memory(traj.states, stacked)


def test_propagate_holds_the_support_and_chunk_temporaries(h4):
    # 70 of 256 entries per state plus chunk-sized temporaries; a full (T, D, D)
    # stack screened in place peaked at 1.3x its bytes, the whole-stack screen at 3.5x
    liou, _ = _liouvillian(4, 0.1, gamma=0.05)
    rho0, grid = gibbs_state(h4, 0.2), TimeGrid(t_max=250.0, dt=0.1)
    propagate(liou, rho0, grid)
    tracemalloc.start()
    try:
        traj = propagate(liou, rho0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj) == 2501 and traj.values.shape == (2501, 70)
    assert peak <= 0.75 * 2501 * 16 ** 2 * 16



def _whole_stack_engine(stacked, dim):
    """States and spectra of a zero-filled (T, D*D) vec stack under the whole-stack screen."""
    states, vals, violation = _whole_stack_screen(unvec(stacked, dim))
    assert violation is None
    return states, vals


@pytest.mark.parametrize("case", list(_ENGINE_CASES))
def test_states_at_the_support_equal_the_whole_stack_engine(case):
    n, channel = _ENGINE_CASES[case]
    liou, h = _liouvillian(n, 0.1, **channel)
    rho0, grid = gibbs_state(h, 0.5), TimeGrid(t_max=30.0, dt=0.1)  # 301 states: two chunks
    v = vec(rho0)
    touched = [b for b in liou.blocks if np.any(v[b])]
    assert len(touched) == (n + 1 if "dephasing" in case else 1)  # 1+4+1, 1+16+36+16+1 entries
    stacked = np.zeros((grid.n_steps + 1, v.size), dtype=complex)
    for b in touched:
        rows = np.empty((grid.n_steps + 1, len(b)), dtype=complex)
        _powers(expm(liou.matrix[np.ix_(b, b)] * grid.dt), v[b], rows)
        stacked[:, b] = rows
    states, vals = _whole_stack_engine(stacked, liou.dim_state)
    traj = propagate(liou, rho0, grid)
    assert traj.values.shape == (len(traj), sum(map(len, touched)))
    assert np.array_equal(traj.states, states) and np.array_equal(traj.spectra, vals)

    stack = gibbs_state(h, np.array([0.2, 1.0, 5.0]))
    initial = np.swapaxes(stack, -1, -2).reshape(len(stack), -1).astype(complex)
    final = np.zeros_like(initial)
    for b in touched:
        step = expm(liou.matrix[np.ix_(b, b)] * 20.0)
        for x, out in zip(initial, final):
            out[b] = step @ x[b]
    states, vals = _whole_stack_engine(final, liou.dim_state)
    jumped = evolve_to(liou, stack, 20.0)
    assert np.array_equal(jumped.states, states) and np.array_equal(jumped.spectra, vals)


_CHUNK_BOUNDARIES = [1, SCREEN_CHUNK - 1, SCREEN_CHUNK, SCREEN_CHUNK + 1, 2 * SCREEN_CHUNK + 1]


def _prefix(traj, n_states):
    """The first n_states stored states of traj, as a Trajectory of their own."""
    return Trajectory(times=traj.times[:n_states], values=traj.values[:n_states],
                      layout=traj.layout, spectra=traj.spectra[:n_states])


def _tracked_crossings(states, times, decompose):
    """eigenvalue_crossings' matching done over every step of the stack at once.

    Returns the step, lower position, time and gap sum (before plus after)
    of every reported crossing, in step order.
    """
    vals, vecs = decompose(states)
    perms = _greedy_match(np.abs(dagger(vecs[:-1]) @ vecs[1:]) ** 2)
    step, i = np.nonzero(perms[:, :-1] > perms[:, 1:])
    gap_before = vals[step, i + 1] - vals[step, i]
    gap_after = vals[step + 1, perms[step, i]] - vals[step + 1, perms[step, i + 1]]
    keep = (gap_before > CROSSING_SIGNIFICANCE) & (gap_after > CROSSING_SIGNIFICANCE)
    k, i, gap_before, gap_after = 1 + step[keep], i[keep], gap_before[keep], gap_after[keep]
    t_cross = times[k - 1] + (times[k] - times[k - 1]) * gap_before / (gap_before + gap_after)
    return k, i, t_cross, gap_before + gap_after


def _whole_stack_crossings(states, times):
    """eigenvalue_crossings' result, from its matching done over the whole stack at once."""
    _, i, t_cross, _ = _tracked_crossings(states, times, sector_eigh)
    return sorted(((t, (pos, pos + 1)) for t, pos in zip(t_cross.tolist(), i.tolist())),
                  key=lambda item: item[0])


@pytest.fixture(scope="module")
def long_n4_trajectory(h4):
    liou, _ = _liouvillian(4, 0.1, gamma=0.05, alpha_minus=1.0)
    return propagate(liou, gibbs_state(h4, 0.5), TimeGrid(t_max=256.0, dt=0.5))


@pytest.mark.parametrize("n_states", _CHUNK_BOUNDARIES)
def test_crossings_over_chunks_equal_the_whole_stack_matching(long_n4_trajectory, n_states):
    traj = _prefix(long_n4_trajectory, n_states)
    expected = _whole_stack_crossings(traj.states, traj.times) if n_states > 1 else []
    assert eigenvalue_crossings(traj) == expected
    assert n_states < SCREEN_CHUNK or len(expected) > 10


def _fixed_order_readout(states, ops):
    """Re Tr(rho_t A) over all D*D entries of a full stack, by Trajectory.expect's sum."""
    flat = states.reshape(len(states), -1)
    transposed = np.swapaxes(ops, -1, -2).reshape(*ops.shape[:-2], -1)
    return np.einsum("ts,...s->t...", flat, transposed, optimize=False).real


def _level_projectors(h):
    """energy_basis_populations' (D, D, D) stack: column k reads P_E / g_E of k's level."""
    levels, vecs = hermitian_eig(h)
    level = np.concatenate(([0], np.cumsum(
        np.diff(levels) > LEVEL_TOL * np.maximum(1.0, np.abs(levels[1:])))))
    same = level[:, None] == level[None, :]
    return np.einsum("im,jm,mk->kij", vecs, np.conj(vecs), same / same.sum(axis=0),
                     optimize=False)


@pytest.mark.parametrize("n", [2, 4])
def test_readers_over_chunks_equal_their_whole_stack_formulas(n, long_n4_trajectory):
    model = ModelSpec(n_qubits=n, field_h=0.1)
    h = build_hamiltonian(model)
    if n == 4:
        traj = long_n4_trajectory
    else:
        liou = build_liouvillian(h, ChannelSpec(gamma=0.05, alpha_minus=0.5))
        traj = propagate(liou, gibbs_state(h, 0.5), TimeGrid(t_max=256.0, dt=0.5))
    assert len(traj) == 2 * SCREEN_CHUNK + 1
    states = traj.states
    energies = _fixed_order_readout(states, np.asarray(h, dtype=complex))
    assert np.array_equal(trajectory_records(traj, h).energy, energies)
    populations = _fixed_order_readout(states, _level_projectors(h))
    assert np.array_equal(energy_basis_populations(traj, h), populations)

    assert eigenvalue_crossings(traj) == _whole_stack_crossings(states, traj.times)
    if n == 4:
        dark = dark_subspace(model)
        whole = _fixed_order_readout(states, dark.projector)
        assert np.array_equal(dark_population_series(traj, dark), whole)


_READOUT_CASES = {
    "N2-alpha-minus-0.5": (2, dict(gamma=0.05, alpha_minus=0.5)),
    "N4-parallel": (4, dict(gamma=0.05)),
    "N4-dephasing": (4, dict(gamma=0.05, alpha=1.0)),
}


@pytest.mark.parametrize("case", list(_READOUT_CASES))
def test_expect_reads_the_same_bytes_over_the_support_the_full_stack_and_one_state(case):
    n, channel = _READOUT_CASES[case]
    liou, h = _liouvillian(n, 0.1, **channel)
    traj = propagate(liou, gibbs_state(h, 0.5), TimeGrid(t_max=150.0, dt=0.5))
    assert np.all(np.diff(traj.support) > 0)  # ascending row-major order
    assert traj.support.size < traj.dim ** 2
    full = Trajectory.screened(traj.times, traj.states)
    assert np.array_equal(full.support, traj.support)  # every stored entry is nonzero somewhere
    for ops in (np.asarray(h, dtype=complex), _level_projectors(h)):
        whole = traj.expect(ops)
        assert whole.shape == (len(traj), *ops.shape[:-2])
        assert np.array_equal(full.expect(ops), whole)
        assert np.array_equal(_fixed_order_readout(traj.states, ops), whole)
        for k in range(len(traj)):
            single = Trajectory(times=traj.times[k:k + 1], values=traj.values[k:k + 1],
                                layout=traj.layout, spectra=traj.spectra[k:k + 1])
            assert np.array_equal(single.expect(ops), whole[k:k + 1])


@pytest.mark.parametrize("n,other", [(2, 4), (4, 2)])
def test_readers_reject_an_operator_of_the_other_chain_size(n, other):
    liou, h = _liouvillian(n, 0.1, gamma=0.05)
    traj = propagate(liou, gibbs_state(h, 0.5), TimeGrid(t_max=2.0, dt=0.5))
    other_model = ModelSpec(n_qubits=other, field_h=0.1)
    other_h = build_hamiltonian(other_model)
    with pytest.raises(ValueError, match="does not match state dim"):
        trajectory_records(traj, other_h)
    with pytest.raises(ValueError, match="does not match state dim"):
        energy_basis_populations(traj, other_h)
    with pytest.raises(ValueError, match="does not match state dim"):
        dark_population_series(traj, dark_subspace(other_model))


def test_support_holds_the_transposes_that_symmetrizing_fills():
    # a generator that feeds rho_10 from rho_00 but leaves rho_01 alone: the touched
    # block holds (0, 0) and (1, 0) only, and the screen's symmetrizing fills (0, 1)
    generator = np.zeros((4, 4), dtype=complex)
    generator[1, 0] = 1e-8  # vec index 1 is entry (1, 0), vec index 0 entry (0, 0)
    liou = DenseGenerator(generator)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    traj = propagate(liou, rho0, TimeGrid(t_max=2.0, dt=0.5))
    states = traj.states
    assert np.array_equal(states, dagger(states))
    assert np.allclose(states[:, 0, 1], 0.5e-8 * traj.times, rtol=1e-12, atol=0)
    assert np.abs(evolve_to(liou, rho0, 2.0).states[0] - states[-1]).max() <= 1e-15


def _sectors(layout):
    """The basis-index tuples of a layout's sectors, ordered by their first index."""
    return sorted(tuple(basis[a:a + size].tolist())
                  for size, _, basis in layout.sectors.blocks for a in range(0, basis.size, size))


@pytest.mark.parametrize("case", ["N2-parallel", "N4-parallel", "N4-dephasing", "N4-mixed"])
def test_sectors_of_a_gibbs_support_are_the_excitation_number_classes(case):
    n, channel = _ENGINE_CASES[case]
    liou, h = _liouvillian(n, 0.1, **channel)
    traj = propagate(liou, gibbs_state(h, 0.5), TimeGrid(t_max=2.0, dt=0.5))
    sectors = _sectors(traj.layout)
    excitations = [bin(i).count("1") for i in range(traj.dim)]
    classes = sorted(tuple(i for i in range(traj.dim) if excitations[i] == k) for k in range(n + 1))
    assert sectors == classes
    assert [len(s) for s in sectors] == ([1, 4, 6, 4, 1] if n == 4 else [1, 2, 1])


def test_a_dense_support_is_one_sector():
    layout = sector_layout(16, tuple(range(256)), _chain_labels(4))
    assert _sectors(layout) == [tuple(range(16))]
    (block,) = layout.sectors.blocks
    assert block[:2] == (16, slice(0, 256))
    assert np.array_equal(layout.sectors.sources, np.arange(256)[None])
    assert np.all(layout.sectors.weights == 1)


def _pattern_parity(dim, support, blocks):
    """The parity layout the rule gives the pattern's own components, or None.

    The mirror acts where dim is a power of two >= 4, maps every component
    onto itself and the support holds every component's block whole.
    """
    perm = np.argmax(mirror(dim), axis=0) if dim >= 4 and dim & (dim - 1) == 0 else None
    if (perm is None or sum(b.size ** 2 for b in blocks) != len(support)
            or not all(np.array_equal(np.sort(perm[b]), b) for b in blocks)):
        return None
    position = np.full(dim * dim, -1)
    position[sorted(support)] = np.arange(len(support))
    return dynamics._block_layout(dim, blocks, position, perm)


def _same_block_layout(a, b):
    if a is None or b is None:
        return a is b
    return (all(np.array_equal(x, y) for x, y in zip(a[:3], b[:3])) and a.off == b.off
            and len(a.blocks) == len(b.blocks)
            and all(m == n and s == t and np.array_equal(u, v)
                    for (m, s, u), (n, t, v) in zip(a.blocks, b.blocks)))


def test_declared_sectors_of_every_default_support_are_its_pattern_components(tmp_path,
                                                                              monkeypatch):
    # the screen reads the sectors off its producer's labels; on every support the
    # 13 default experiments screen they are the connected components of the
    # support's (D, D) pattern, and the parity layout is the one those components give
    seen, layout_of = {}, dynamics.sector_layout

    def recording(dim, support, labels):
        seen[dim, support, labels] = layout_of(dim, support, labels)
        return seen[dim, support, labels]

    monkeypatch.setattr(dynamics, "sector_layout", recording)
    run_defaults(tmp_path)
    assert {dim for dim, *_ in seen} == {2, 4, 16}
    for (dim, support, labels), layout in seen.items():
        pattern = np.zeros(dim * dim, dtype=bool)
        pattern[list(support)] = True
        blocks = _invariant_blocks(pattern.reshape(dim, dim))
        assert _sectors(layout) == [tuple(b.tolist()) for b in blocks]
        assert _same_block_layout(layout.parity, _pattern_parity(dim, support, blocks))
    assert any(layout.parity is not None for layout in seen.values())


def test_a_support_that_joins_two_excitation_classes_is_one_sector(h2):
    # a Gibbs state with |ee> and |gg> in coherence: the lowering jumps keep the (0, 3)
    # entry, which joins the classes k = 2 and k = 0, though the support's pattern
    # splits into {0, 3} and {1, 2}
    liou, _ = _liouvillian(2, 0.1, gamma=0.05)
    psi = np.array([0.8, 0.0, 0.0, 0.6], dtype=complex)
    rho0 = 0.7 * gibbs_state(h2, 2.0) + 0.3 * np.outer(psi, psi.conj())
    traj = propagate(liou, rho0, TimeGrid(t_max=150.0, dt=0.1))
    assert traj.support.size == 8
    assert len(_invariant_blocks(np.any(traj.states != 0, axis=0))) == 2
    assert _sectors(traj.layout) == [(0, 1, 2, 3)] and traj.layout.parity is None
    assert np.abs(traj.spectra - np.linalg.eigvalsh(traj.states)).max() <= 1e-14
    # one sector: the tracker is the full-matrix tracker
    _, i, t_cross, _ = _tracked_crossings(traj.states, traj.times, hermitian_eig_batch)
    crossings = eigenvalue_crossings(traj)
    assert len(crossings) == 2
    assert crossings == sorted(((t, (pos, pos + 1)) for t, pos in zip(t_cross.tolist(), i.tolist())),
                               key=lambda item: item[0])


def _same_bits(a, b):
    return np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                          np.ascontiguousarray(b).view(np.uint64))


@pytest.mark.parametrize("case", ["N2-gibbs", "N4-gibbs", "dense", "not-whole"])
def test_sector_blocks_are_the_states_blocks_bit_for_bit(case, h2, h4):
    rng = np.random.default_rng(31)
    times = np.arange(40, dtype=float)
    if case.endswith("gibbs"):
        n, h = (2, h2) if case == "N2-gibbs" else (4, h4)
        liou, _ = _liouvillian(n, 0.1, gamma=0.05)
        traj = propagate(liou, gibbs_state(h, 0.5), TimeGrid(t_max=20.0, dt=0.5))
    elif case == "dense":
        traj = Trajectory.screened(times, np.array([random_density(rng, 16) for _ in times]))
    else:  # (0, 1) and (1, 2) couple the sector {0, 1, 2}, whose (0, 2) entry no state holds
        states = np.zeros((len(times), 4, 4), dtype=complex)
        states[:] = np.diag([0.4, 0.3, 0.2, 0.1])
        for i, j in ((0, 1), (1, 2)):
            z = rng.normal(size=(2, len(times)))
            states[:, i, j] = 0.05 * (z[0] + 1j * z[1])
            states[:, j, i] = np.conj(states[:, i, j])
        traj = Trajectory.screened(times, states)
    sectors = traj.layout.sectors
    assert sectors.sources.shape[0] == 1  # one term per entry: one take per state
    assert np.any(sectors.weights == 0) == (case == "not-whole")
    states, entries = traj.states, block_entries(traj.values, sectors)
    for size, span, basis in sectors.blocks:
        blocks = entries[:, span].reshape(len(traj), -1, size, size)
        for mine, b in zip(np.moveaxis(blocks, 1, 0), basis.reshape(-1, size)):
            assert _same_bits(mine, states[:, b[:, None], b])
    assert np.array_equal(traj.spectra, parity_eigvalsh(states))


def _rotated_jc_stack():
    """fig9-jc's reduced atom states, diagonal, and the same states in a rotated basis, dense."""
    traj = jc_full_evolution(default_jc_spec(kappa_over_g=1.0),
                             np.diag([1.0, 0.0]).astype(complex), TimeGrid(t_max=20.0, dt=0.05))
    u = expm(1j * np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.4]]))
    return traj, Trajectory.screened(traj.times, u @ traj.states @ dagger(u))


@pytest.mark.parametrize("case", [*_ENGINE_CASES, "JC", "JC-rotated"])
def test_sector_spectra_agree_with_full_matrix_eigvalsh(case):
    if case.startswith("JC"):
        diagonal, rotated = _rotated_jc_stack()
        traj, n_sectors = (rotated, 1) if case == "JC-rotated" else (diagonal, 2)
    else:
        n, channel = _ENGINE_CASES[case]
        liou, h = _liouvillian(n, 0.1, **channel)
        traj = propagate(liou, gibbs_state(h, 0.2), TimeGrid(t_max=300.0, dt=0.5))
        n_sectors = n + 1
    assert len(_sectors(traj.layout)) == n_sectors
    assert np.abs(traj.spectra - np.linalg.eigvalsh(traj.states)).max() <= 1e-14


@pytest.mark.parametrize("beta", [0.2, 5.0])
@pytest.mark.parametrize("case", list(_ENGINE_CASES))
def test_sector_tracker_finds_the_crossings_of_the_full_matrix_tracker(case, beta):
    n, channel = _ENGINE_CASES[case]
    liou, h = _liouvillian(n, 0.1, **channel)
    grid = TimeGrid(t_max=150.0, dt=0.1)
    traj = propagate(liou, gibbs_state(h, beta), grid)
    crossings = eigenvalue_crossings(traj)
    assert crossings == _whole_stack_crossings(traj.states, traj.times)
    # the Gibbs state's degenerate levels span sectors at N=4, where a full-matrix eigh
    # returns an arbitrary basis of each level: compare the steps after the first
    found = {(step, pair): t for t, pair in crossings
             if (step := int(np.searchsorted(traj.times, t))) > 1}
    k, i, t_cross, gaps = _tracked_crossings(traj.states, traj.times, hermitian_eig_batch)
    full = {(step, (pos, pos + 1)): (t, gap)
            for step, pos, t, gap in zip(k.tolist(), i.tolist(), t_cross, gaps) if step > 1}
    assert found.keys() == full.keys()
    # a crossing time moves by dt * (eigenvalue error) / (gap sum)
    assert all(abs(found[key] - t) <= 1e-12 + grid.dt * 1e-15 / gap
               for key, (t, gap) in full.items())
    assert found or "dephasing" in case


def _rotating_in_clusters(rng, rotated):
    """hermitian_eig_batch, each matrix's eigenvectors turned by a random unitary in every cluster.

    A cluster is a run of eigenvalues whose neighbour gaps are at most
    1e-11, where eigh's choice of basis is arbitrary; `rotated` counts
    the clusters turned.
    """
    def eig(blocks):
        vals, vecs = hermitian_eig_batch(blocks)
        close = np.diff(vals, axis=1) <= 1e-11
        for b in np.flatnonzero(close.any(axis=1)):
            cluster = np.concatenate(([0], np.cumsum(~close[b])))
            for c in np.unique(cluster):
                cols = np.flatnonzero(cluster == c)
                if cols.size > 1:
                    z = rng.normal(size=(2, cols.size, cols.size))
                    vecs[b][:, cols] = vecs[b][:, cols] @ np.linalg.qr(z[0] + 1j * z[1])[0]
                    rotated[0] += 1
        return vals, vecs
    return eig


@pytest.mark.parametrize("beta", [0.2, 5.0])
@pytest.mark.parametrize("case", ["N4-parallel", "N4-collective", "N4-dephasing", "N4-mixed"])
def test_crossings_do_not_depend_on_the_eigenvector_basis_inside_a_cluster(case, beta, monkeypatch):
    n, channel = _ENGINE_CASES[case]
    liou, h = _liouvillian(n, 0.1, **channel)
    traj = propagate(liou, gibbs_state(h, beta), TimeGrid(t_max=150.0, dt=0.1))

    def after_first_step(crossings):
        return [(t, pair) for t, pair in crossings if np.searchsorted(traj.times, t) > 1]

    found = eigenvalue_crossings(traj)
    assert found
    for seed in range(4):
        rotated = [0]
        # the package re-exports the function ergotropy under the module's name
        monkeypatch.setattr(sys.modules["ergoquench.ergotropy"], "hermitian_eig_batch",
                            _rotating_in_clusters(np.random.default_rng(seed), rotated))
        turned = eigenvalue_crossings(traj)
        assert rotated[0] > 0
        if case == "N4-parallel":  # appD's channel
            assert turned == found
        else:
            # the Gibbs state's exactly degenerate levels leave the first step's
            # matching to eigh's basis under dephasing and mixed channels at beta = 5
            assert after_first_step(turned) == after_first_step(found)


def test_a_nan_initial_state_is_refused():
    liou, _ = _liouvillian(2, 0.1, gamma=0.05)
    rho0 = np.diag([np.nan, 0.5, 0.5, 0.0])
    with pytest.raises(ValueError, match="initial state: Hermiticity defect nan"):
        propagate(liou, rho0, TimeGrid(t_max=2.0, dt=0.5))
    with pytest.raises(ValueError, match="initial state: Hermiticity defect nan"):
        evolve_to(liou, rho0, 2.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("entry", [(0, 0), (5, 5), (3, 5)], ids=["1x1", "6-diagonal", "6-off"])
def test_a_non_finite_entry_is_reported_at_its_step(h4, entry, value):
    # NaN > tol is false; and inside the 6-state sector a non-finite entry would
    # reach the eigensolver, which refuses it, before the guard ran
    liou, _ = _liouvillian(4, 0.1, gamma=0.05)
    traj = propagate(liou, gibbs_state(h4, 0.5), TimeGrid(t_max=300.0, dt=0.5))
    raw, first = traj.states, SCREEN_CHUNK + 44
    for k in (first, first + 100):
        raw[k][entry] = value
    where = rf"Hermiticity defect (nan|inf) at step {first} "
    with pytest.raises(InvariantViolation, match=where):
        Trajectory.screened(traj.times, raw)
    values = raw.reshape(len(raw), -1)[:, traj.support]
    with pytest.raises(InvariantViolation, match=where):
        _screen(traj.times, values, traj.support, liou.labels)


def test_a_negative_eigenvalue_inside_the_six_state_sector_is_reported_at_its_step(h4):
    liou, _ = _liouvillian(4, 0.1, gamma=0.05)
    traj = propagate(liou, gibbs_state(h4, 0.5), TimeGrid(t_max=300.0, dt=0.5))
    sector = np.ix_(*2 * [[i for i in range(16) if bin(i).count("1") == 2]])
    raw, first = traj.states, SCREEN_CHUNK + 44
    for k in (first, first + 100):  # both in the second chunk, the first one reported
        vals, vecs = hermitian_eig(raw[k][sector])
        vals[-1] += vals[0] + 1e-5  # the trace stays 1
        vals[0] = -1e-5
        raw[k][sector] = (vecs * vals) @ dagger(vecs)
    assert np.linalg.eigvalsh(raw[first])[0] < -0.9e-5
    _, _, violation = _whole_stack_screen(raw)
    assert violation == ("positivity", first)
    with pytest.raises(InvariantViolation, match=rf"positivity defect .* at step {first} "):
        Trajectory.screened(traj.times, raw)
    values = raw.reshape(len(raw), -1)[:, traj.support]
    with pytest.raises(InvariantViolation, match=rf"positivity defect .* at step {first} "):
        _screen(traj.times, values, traj.support, liou.labels)


def _package_parity_blocks(traj):
    """The parity blocks the screen reads, by size, and the even-odd entries, of a Trajectory."""
    parity = traj.layout.parity
    entries = block_entries(traj.values, parity)
    blocks = {size: list(np.moveaxis(entries[:, span].reshape(len(traj), -1, size, size), 1, 0))
              for size, span, _ in parity.blocks}
    return blocks, entries[:, parity.off]


@pytest.mark.parametrize("case", list(_ENGINE_CASES))
def test_parity_blocks_equal_those_of_the_explicit_mirror_and_its_projectors(case):
    n, channel = _ENGINE_CASES[case]
    liou, h = _liouvillian(n, 0.1, **channel)
    traj = propagate(liou, gibbs_state(h, 0.5), TimeGrid(t_max=30.0, dt=0.5))
    blocks, off = _package_parity_blocks(traj)
    reference = parity_blocks(traj.states)
    parts = [part for even, odd, _ in reference for part in (even, odd) if part.shape[-1]]
    assert [part.shape[-1] for part in parts] == ([1, 2, 2, 4, 2, 2, 2, 1] if n == 4 else [1] * 4)
    by_size = {}
    for part in parts:
        by_size.setdefault(part.shape[-1], []).append(part)
    assert sorted(blocks) == sorted(by_size)
    for size, parts in by_size.items():
        assert len(blocks[size]) == len(parts)
        for mine, theirs in zip(blocks[size], parts):
            assert np.abs(mine - theirs).max() <= 1e-15
    couplings = np.concatenate([c.reshape(len(traj), -1) for _, _, c in reference], axis=1)
    assert np.abs(off - couplings).max() <= 1e-15
    assert np.linalg.norm(off, axis=1).max() <= 1e-15  # rho(t) commutes with the mirror


def _counting_eigvals(monkeypatch):
    """Record the shape of every batch the screen gives to `hermitian_eigvals_batch`."""
    shapes = []

    def counted(blocks):
        shapes.append(blocks.shape)
        return hermitian_eigvals_batch(blocks)

    monkeypatch.setattr(dynamics, "hermitian_eigvals_batch", counted)
    return shapes


@pytest.mark.parametrize("case", list(_ENGINE_CASES))
def test_the_screen_calls_the_eigensolver_once_per_four_qubit_chunk_only(case, monkeypatch):
    n, channel = _ENGINE_CASES[case]
    liou, h = _liouvillian(n, 0.1, **channel)
    grid = TimeGrid(t_max=300.0, dt=0.5)  # 601 states: three chunks
    shapes = _counting_eigvals(monkeypatch)
    traj = propagate(liou, gibbs_state(h, 0.2), grid)
    expected = [(SCREEN_CHUNK, 4, 4), (SCREEN_CHUNK, 4, 4), (601 - 2 * SCREEN_CHUNK, 4, 4)]
    assert shapes == (expected if n == 4 else [])
    assert np.array_equal(traj.spectra, parity_eigvalsh(traj.states))


def _mirror_broken(states, size):
    """states with (1, 2) and (2, 1) raised by size: entries off the parity blocks of a sector."""
    broken = states.copy()
    broken[:, 1, 2] += size
    broken[:, 2, 1] += size
    return broken


def test_a_mirror_symmetric_state_reads_the_same_bytes_alone_and_beside_broken_ones(h4):
    liou, _ = _liouvillian(4, 0.1, gamma=0.05)
    traj = propagate(liou, gibbs_state(h4, 0.5), TimeGrid(t_max=150.0, dt=0.5))
    states = traj.states
    stack = np.empty((2 * len(states), 16, 16), dtype=complex)
    stack[0::2], stack[1::2] = states, _mirror_broken(states, 1e-6)
    mixed = Trajectory.screened(np.repeat(traj.times, 2), stack)
    assert mixed.support.size == 70
    for k in range(0, len(states), 37):
        alone = Trajectory.screened(traj.times[k:k + 1], states[k:k + 1])
        assert alone.layout.parity is not None
        assert np.array_equal(alone.spectra[0], mixed.spectra[2 * k])
        assert np.array_equal(alone.spectra[0], traj.spectra[k])
    assert np.array_equal(mixed.spectra[1::2], sector_eigvalsh(mixed.states[1::2]))


@pytest.mark.parametrize("size", [2e-14, 1e-9, 1e-6])
def test_a_state_with_off_parity_entries_above_the_bound_reads_its_sector_spectrum(h4, size):
    liou, _ = _liouvillian(4, 0.1, gamma=0.05)
    traj = propagate(liou, gibbs_state(h4, 0.5), TimeGrid(t_max=150.0, dt=0.5))
    states, k = traj.states, 123
    states[k] = _mirror_broken(states[k:k + 1], size)[0]
    screened = Trajectory.screened(traj.times, states)
    *_, coupling = zip(*parity_blocks(screened.states[k:k + 1]))
    assert np.sqrt(sum(np.linalg.norm(c) ** 2 for c in coupling)) > OFF_PARITY_TOL
    assert np.array_equal(screened.spectra[k], sector_eigvalsh(screened.states)[k])
    others = np.arange(len(traj)) != k
    assert np.array_equal(screened.spectra[others], traj.spectra[others])


def _plant_negative_eigenvalue(state, basis):
    """Turn the lowest eigenvalue of state's block on the orthonormal columns of basis into -1e-5.

    The highest takes up the difference, so the trace stays 1.
    """
    block = basis.T @ state @ basis
    vals, vecs = hermitian_eig(block)
    planted = vals.copy()
    planted[-1] += vals[0] + 1e-5
    planted[0] = -1e-5
    state += basis @ ((vecs * (planted - vals)) @ dagger(vecs)) @ basis.T


@pytest.mark.parametrize("sector,parity,size", [(2, 0, 4), (1, 1, 2), (3, 1, 2), (2, 1, 2)])
def test_a_negative_eigenvalue_inside_a_parity_block_is_reported_at_its_step(
        h4, sector, parity, size, monkeypatch):
    liou, _ = _liouvillian(4, 0.1, gamma=0.05)
    traj = propagate(liou, gibbs_state(h4, 0.5), TimeGrid(t_max=300.0, dt=0.5))
    basis = parity_bases(traj.states)[sector][parity]
    assert basis.shape[1] == size
    raw, first = traj.states, SCREEN_CHUNK + 44
    for k in (first, first + 100):  # both in the second chunk, the first one reported
        _plant_negative_eigenvalue(raw[k], basis)
    assert np.linalg.eigvalsh(raw[first])[0] < -0.9e-5
    *_, coupling = zip(*parity_blocks(raw[first:first + 1]))
    assert np.sqrt(sum(np.linalg.norm(c) ** 2 for c in coupling)) <= 1e-15  # read on parity blocks
    _, _, violation = _whole_stack_screen(raw)
    assert violation == ("positivity", first)
    shapes = _counting_eigvals(monkeypatch)
    with pytest.raises(InvariantViolation, match=rf"positivity defect .* at step {first} "):
        Trajectory.screened(traj.times, raw)
    values = raw.reshape(len(raw), -1)[:, traj.support]
    with pytest.raises(InvariantViolation, match=rf"positivity defect .* at step {first} "):
        _screen(traj.times, values, traj.support, liou.labels)
    assert {shape[1:] for shape in shapes} == {(4, 4)}  # no state fell back to its sectors


@pytest.mark.parametrize("kind", ["random", "rank-one", "degenerate"])
def test_the_2x2_closed_form_agrees_with_eigvalsh(kind):
    rng = np.random.default_rng(29)
    n = 4000
    if kind == "random":
        x = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
        blocks = x + dagger(x)
        blocks *= (rng.uniform(size=n) / np.linalg.norm(blocks, ord=2, axis=(1, 2)))[:, None, None]
    elif kind == "rank-one":  # pure states, trace in (0, 1]
        v = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        v *= np.sqrt(rng.uniform(size=n) / np.linalg.norm(v, axis=1) ** 2)[:, None]
        blocks = v[:, :, None] * np.conj(v[:, None, :])
    else:
        blocks = rng.uniform(-1, 1, size=n)[:, None, None] * np.eye(2)
    a, d, c = blocks[:, 0, 0].real, blocks[:, 1, 1].real, blocks[:, 1, 0]
    lower, upper = _hermitian_2x2_eigvals(a, d, c)
    assert np.all(lower <= upper)
    assert np.abs(np.stack([lower, upper], axis=1) - np.linalg.eigvalsh(blocks)).max() <= 1e-15
    if kind == "rank-one":
        assert np.all(np.abs(lower) <= 2.2e-16 * (a + d))
    if kind == "degenerate":
        assert np.array_equal(lower, a) and np.array_equal(upper, a)


def test_the_screen_holds_chunks_of_the_support_only(h4):
    liou, _ = _liouvillian(4, 0.1, gamma=0.05)
    traj = propagate(liou, gibbs_state(h4, 0.5), TimeGrid(t_max=300.0, dt=0.5))
    values = traj.values.copy()
    _screen(traj.times, values.copy(), traj.support, liou.labels)
    tracemalloc.start()
    try:
        _screen(traj.times, values, traj.support, liou.labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # at most four (SCREEN_CHUNK, S) arrays at once: the gathered entries, their
    # adjoint, and the difference with its modulus for the Hermiticity defect
    assert traj.support.size == 70
    assert peak <= 4 * SCREEN_CHUNK * 70 * 16 + traj.spectra.nbytes


@pytest.mark.parametrize("t", [np.inf, np.nan, -1.0])
def test_a_non_finite_or_negative_jump_time_is_refused_by_name(h2, t):
    # inf once failed inside expm after a warning, and NaN with limit returned states
    # stamped at time NaN
    liou, rho0 = _liouvillian(2, 0.1, gamma=0.05)[0], gibbs_state(h2, 1.0)
    with pytest.raises(ValueError, match="^t must be finite and >= 0"):
        evolve_to(liou, rho0, t)
    with pytest.raises(ValueError, match="^t must be finite and >= 0"):
        dynamics.evolve_points(rho0, liou, t, limit=True)


def test_an_empty_initial_stack_is_refused_by_name(h2):
    liou = _liouvillian(2, 0.1, gamma=0.05)[0]
    family = _family(2, 0.1, [{}, {"alpha_minus": 0.5}])
    assert vec(np.zeros((0, 4, 4))).shape == (0, 16)
    with pytest.raises(ValueError, match=r"^rho0 must hold at least one \(D, D\) state"):
        evolve_to(liou, np.zeros((0, 4, 4)), 1.0)
    with pytest.raises(ValueError, match=r"^rho0 must hold at least one \(D, D\) state"):
        dynamics.evolve_points(np.zeros((2, 0, 4, 4)), family, 1.0)


def test_one_generator_propagators_refuse_a_family_and_a_family_its_stack_count(h2):
    family, rho0 = _family(2, 0.1, [{}, {"alpha_minus": 0.5}]), gibbs_state(h2, 1.0)
    with pytest.raises(ValueError, match="propagate takes one generator, got a family of 2"):
        propagate(family, rho0, TimeGrid(t_max=1.0))
    with pytest.raises(ValueError, match="evolve_to takes one generator, got a family of 2"):
        evolve_to(family, rho0, 1.0)
    with pytest.raises(ValueError, match=r"neither one stack nor one stack per member"):
        dynamics.evolve_points(np.array([[rho0]] * 3), family, 1.0)
    # a family of one is one generator
    one = _family(2, 0.1, [{"alpha_minus": 0.5}])
    alone = _liouvillian(2, 0.1, gamma=0.05, alpha_minus=0.5)[0]
    assert _bits(evolve_to(one, rho0, 5.0)) == _bits(evolve_to(alone, rho0, 5.0))
    grid = TimeGrid(t_max=5.0)
    assert _bits(propagate(one, rho0, grid)) == _bits(propagate(alone, rho0, grid))


_SEED_PARAMS = {  # the benchmark's seeds: field and betas of the appB sweeps
    "seed0": (0.1, DEFAULT_BETAS),
    "seed7": (0.215, (0.595, 0.793, 1.435, 3.434, 4.589)),
    "seed31": (0.056, (0.554, 1.12, 1.353, 3.418, 4.046)),
}


@pytest.mark.parametrize("seed", list(_SEED_PARAMS))
def test_a_family_jump_gives_each_member_the_bytes_of_its_own_jump(seed):
    # the steady sweeps' five families: fig4's 50 fields under collective dissipation,
    # one Gibbs stack per member, and appB's 11 channels of one H at N=2 and N=4, which
    # share one stack; each member is its own evolve_to, and with limit its own limit jump
    h_field, betas = _SEED_PARAMS[seed]
    collective = ChannelSpec(0.05, 0.0, 1.0, 0.0)
    hs = np.stack([build_hamiltonian(ModelSpec(n_qubits=2, field_h=f))
                   for f in np.linspace(0.0, 0.9, 50)])
    fig4_states = gibbs_state(hs, np.linspace(0.1, 3.0, 50))
    families = [(fig4_states, build_liouvillian(hs, collective))]
    points = [(build_liouvillian(h, collective), rho0) for h, rho0 in zip(hs, fig4_states)]
    for n in (2, 4):
        h = build_hamiltonian(ModelSpec(n_qubits=n, field_h=h_field))
        rho0 = gibbs_state(h, np.array(betas))
        for kind in (lambda a: (0.0, a, 0.0), lambda a: (1.0, 0.0, a)):
            specs = [ChannelSpec(0.05, *kind(a)) for a in ALPHAS]
            families.append((rho0, build_liouvillian(h, specs)))
            points += [(build_liouvillian(h, spec), rho0) for spec in specs]
    jumps = [traj for rho0, liou in families for traj in dynamics.evolve_points(rho0, liou, 800.0)]
    limits = [traj for rho0, liou in families for traj in _limit_jumps(rho0, liou)]
    assert len(jumps) == len(limits) == len(points) == 94
    for (liou, rho0), jump, limit in zip(points, jumps, limits, strict=True):
        assert _bits(jump) == _bits(evolve_to(liou, rho0, 800.0))
        assert _bits(limit) == _bits(_limit_jumps(rho0, liou)[0])
