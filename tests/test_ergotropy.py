import importlib
import itertools

import numpy as np
import pytest

from ergoquench import (ChannelSpec, ModelSpec, TimeGrid, build_hamiltonian,
                        build_liouvillian, gibbs_state, propagate)
from ergoquench.dynamics import InvariantViolation
from ergoquench.ergotropy import (_greedy_match, eigenvalue_crossings, energy_basis_populations,
                                  ergotropy, trajectory_records)
from ergoquench.linalg import dagger, expm, hermitian_eig, hermitian_eigvals_batch
from ergoquench.model import STATE_CHUNK

from conftest import random_density, random_hermitian
from reference import (activation_time, activation_time_analytic, ergotropy_difference,
                       passive_state, sector_eigh)


def _traj(n, beta, grid, **channel):
    model = ModelSpec(n_qubits=n, field_h=0.1)
    h = build_hamiltonian(model)
    liou = build_liouvillian(h, ChannelSpec(**channel))
    return propagate(liou, gibbs_state(h, beta), grid), h


def test_gibbs_has_zero_ergotropy(h2):
    assert ergotropy(gibbs_state(h2, 1.0), h2).ergotropy < 1e-9


def test_discharged_state_ergotropy(h2):
    gg = np.zeros((4, 4), dtype=complex)
    gg[3, 3] = 1.0
    record = ergotropy(gg, h2)
    assert abs(record.ergotropy - 1.8) <= 1e-12
    assert abs(record.energy - record.passive_energy - record.ergotropy) <= 1e-12


def test_maximally_mixed_is_passive(h2):
    assert ergotropy(np.eye(4, dtype=complex) / 4.0, h2).ergotropy < 1e-12


def test_random_unitaries_never_beat_passive_energy(h2):
    rng = np.random.default_rng(101)
    rho = random_density(rng, 4)
    record = ergotropy(rho, h2)
    for _ in range(200):
        u = expm(1j * random_hermitian(rng, 4))
        rotated_energy = np.trace(u @ rho @ dagger(u) @ h2).real
        assert rotated_energy >= record.passive_energy - 1e-10


def test_passive_state_of_gibbs_is_gibbs(h2):
    rho = gibbs_state(h2, 1.0)
    passive = passive_state(rho, h2)
    vals_a, _ = hermitian_eig(rho)
    vals_b, _ = hermitian_eig(passive)
    assert np.abs(vals_a - vals_b).max() <= 1e-10
    assert abs(np.trace((passive - rho) @ h2).real) <= 1e-10


def test_passive_state_properties(h2):
    rng = np.random.default_rng(7)
    for _ in range(5):
        rho = random_density(rng, 4)
        passive = passive_state(rho, h2)
        assert np.trace(passive @ h2).real <= np.trace(rho @ h2).real + 1e-12
        assert np.abs(passive @ h2 - h2 @ passive).max() <= 1e-10


def test_activation_time_matches_formula():
    grid = TimeGrid(t_max=30.0, dt=0.1)
    traj, h = _traj(2, 1.0, grid, gamma=0.05)
    measured = activation_time(traj, h)
    assert measured is not None
    assert abs(measured - activation_time_analytic(1.0, 0.1, 0.05)) <= 2 * grid.dt


def test_activation_never_happens_under_collective_dephasing():
    traj, h = _traj(2, 1.0, TimeGrid(t_max=100.0, dt=0.5),
                    gamma=0.05, alpha=1.0, alpha_z=1.0)
    assert activation_time(traj, h) is None


def test_ergotropy_difference_of_identical_trajectories():
    traj, h = _traj(2, 0.5, TimeGrid(t_max=50.0, dt=0.5), gamma=0.05)
    diff = ergotropy_difference(traj, traj, h)
    assert np.abs(diff.delta).max() == 0.0
    assert diff.crossings == []


def test_ergotropy_difference_grid_mismatch():
    traj_a, h = _traj(2, 0.5, TimeGrid(t_max=50.0, dt=0.5), gamma=0.05)
    traj_b, _ = _traj(2, 0.5, TimeGrid(t_max=25.0, dt=0.5), gamma=0.05)
    with pytest.raises(ValueError):
        ergotropy_difference(traj_a, traj_b, h)


def test_no_crossings_without_dissipation():
    traj, _ = _traj(2, 1.0, TimeGrid(t_max=50.0, dt=0.5), gamma=0.0)
    assert eigenvalue_crossings(traj) == []


def test_first_crossing_matches_activation_formula():
    grid = TimeGrid(t_max=20.0, dt=0.1)
    traj, _ = _traj(2, 1.0, grid, gamma=0.05)
    crossings = eigenvalue_crossings(traj)
    assert crossings
    t_first = crossings[0][0]
    assert abs(t_first - activation_time_analytic(1.0, 0.1, 0.05)) <= 2 * grid.dt


def _greedy_match_reference(overlap):
    """Per-step greedy matching: take the best overlap, strike its row and column."""
    overlap = np.array(overlap, dtype=float)
    d = overlap.shape[0]
    perm = np.full(d, -1, dtype=int)
    for _ in range(d):
        i, j = np.unravel_index(int(np.argmax(overlap)), overlap.shape)
        perm[i] = j
        overlap[i, :] = -1.0
        overlap[:, j] = -1.0
    return perm


def _crossings_reference(traj, significance=1e-10):
    """Step-by-step branch tracking, the reference for eigenvalue_crossings."""
    vals, vecs = sector_eigh(traj.states)
    found = []
    for k in range(1, len(traj)):
        perm = _greedy_match_reference(np.abs(dagger(vecs[k - 1]) @ vecs[k]) ** 2)
        for i in range(vals.shape[1] - 1):
            if perm[i] <= perm[i + 1]:
                continue
            gap_before = vals[k - 1, i + 1] - vals[k - 1, i]
            gap_after = vals[k, perm[i]] - vals[k, perm[i + 1]]
            if gap_before <= significance or gap_after <= significance:
                continue
            t0, t1 = traj.times[k - 1], traj.times[k]
            found.append((float(t0 + (t1 - t0) * gap_before / (gap_before + gap_after)),
                          (i, i + 1)))
    found.sort(key=lambda item: item[0])
    return found


@pytest.mark.parametrize("d", [1, 2, 4, 6, 16])  # the sector sizes at N = 2 and 4, and D = 16
def test_batched_greedy_match_equals_per_step_loop(d):
    rng = np.random.default_rng(7)
    # coarse values force exact ties, inside rows, columns and across both
    overlaps = rng.integers(0, 4, size=(300, d, d)) / 4.0
    overlaps[:50] = rng.random((50, d, d))
    overlaps[50:60] = 0.5
    perms = _greedy_match(overlaps)
    for overlap, perm in zip(overlaps, perms):
        assert np.array_equal(perm, _greedy_match_reference(overlap))
        assert sorted(perm) == list(range(d))


def test_eigenvalue_crossings_equal_per_step_tracking():
    # appD's channel and step, long enough to span several chunks
    grid = TimeGrid(t_max=0.1 * (2 * STATE_CHUNK + 17), dt=0.1)
    for beta in (0.2, 5.0):
        traj, _ = _traj(4, beta, grid, gamma=0.05)
        for significance in (1e-10, 1e-3):
            found = eigenvalue_crossings(traj, significance=significance)
            assert found == _crossings_reference(traj, significance)
        assert found


@pytest.mark.parametrize("chunk", [1, 7, 256])
def test_eigenvalue_crossings_do_not_depend_on_the_chunk(monkeypatch, chunk):
    # each chunk decomposes its own states; the grid spans several 256-step chunks
    traj, _ = _traj(4, 0.2, TimeGrid(t_max=0.1 * 600, dt=0.1), gamma=0.05)
    whole = eigenvalue_crossings(traj)
    assert whole
    # the package re-exports the function ergotropy under the module's name
    monkeypatch.setattr(importlib.import_module("ergoquench.ergotropy"), "STATE_CHUNK", chunk)
    assert eigenvalue_crossings(traj) == whole


def test_hotter_states_cross_earlier_four_qubits():
    # compare observable crossings: a cold state also reshuffles its
    # exponentially small spectral tail right away, which is not what the
    # passive-energy drops respond to
    grid = TimeGrid(t_max=25.0, dt=0.1)
    hot, _ = _traj(4, 0.2, grid, gamma=0.05)
    cold, _ = _traj(4, 5.0, grid, gamma=0.05)
    hot_crossings = eigenvalue_crossings(hot, significance=1e-3)
    cold_crossings = eigenvalue_crossings(cold, significance=1e-3)
    assert hot_crossings and cold_crossings
    assert hot_crossings[0][0] < cold_crossings[0][0]


def test_parallel_difference_vanishes_at_long_times():
    grid = TimeGrid(t_max=800.0, dt=0.5)
    traj_a, h = _traj(2, 0.2, grid, gamma=0.05)
    traj_b, _ = _traj(2, 2.0, grid, gamma=0.05)
    diff = ergotropy_difference(traj_a, traj_b, h)
    assert abs(diff.delta[-1]) < 1e-9


def test_energy_basis_populations_of_gibbs(h4):
    liou = build_liouvillian(h4, ChannelSpec(gamma=0.05))
    beta = 0.7
    traj = propagate(liou, gibbs_state(h4, beta), TimeGrid(t_max=2.0, dt=0.5))
    pops = energy_basis_populations(traj, h4)
    levels, _ = hermitian_eig(h4)
    boltzmann = np.exp(-beta * (levels - levels[0]))
    boltzmann /= boltzmann.sum()
    assert np.abs(pops[0] - boltzmann).max() <= 1e-10
    assert np.abs(pops.sum(axis=1) - 1.0).max() <= 1e-9


def test_energy_and_population_products_equal_the_einsum_formulas(h4):
    # appD's quench and grid: N=4 parallel dissipation, dt = 0.1 up to t = 250
    liou = build_liouvillian(h4, ChannelSpec(gamma=0.05))
    traj = propagate(liou, gibbs_state(h4, 0.2), TimeGrid(t_max=250.0, dt=0.1))
    levels, h_vecs = hermitian_eig(h4)
    populations = np.einsum("ik,tij,jk->tk", np.conj(h_vecs), traj.states, h_vecs).real
    # E = 0 is the one degenerate level (vectors 7 and 8): Tr[P_0 rho] / 2 in both columns
    assert np.diff(levels).min() == levels[8] - levels[7] <= 1e-12
    p_zero = h_vecs[:, 7:9] @ dagger(h_vecs[:, 7:9])
    populations[:, 7:9] = (np.einsum("ij,tji->t", p_zero, traj.states).real / 2.0)[:, None]
    energies = np.einsum("tij,ji->t", traj.states, h4).real
    assert np.abs(energy_basis_populations(traj, h4) - populations).max() <= 1e-14
    assert np.abs(trajectory_records(traj, h4).energy - energies).max() <= 1e-14


@pytest.mark.parametrize("field", [0.05, 0.1, 0.23, 0.4])
def test_energy_basis_populations_do_not_depend_on_the_basis_of_a_degenerate_level(
        field, monkeypatch):
    model = ModelSpec(n_qubits=4, field_h=field)
    h = build_hamiltonian(model)
    liou = build_liouvillian(h, ChannelSpec(gamma=0.05))
    traj = propagate(liou, gibbs_state(h, 0.2), TimeGrid(t_max=100.0, dt=0.5))
    levels, h_vecs = hermitian_eig(h)
    assert abs(levels[8] - levels[7]) <= 1e-12 and abs(levels[7]) <= 1e-12
    rng = np.random.default_rng(23)
    unitary, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    rotated = h_vecs.copy()
    rotated[:, 7:9] = h_vecs[:, 7:9] @ unitary

    def single(vecs):
        return np.einsum("ik,tij,jk->tk", np.conj(vecs), traj.states, vecs).real

    # the single-vector populations of the level do depend on its basis ...
    assert np.abs(single(rotated) - single(h_vecs))[:, 7:9].max() > 1e-6
    pops = energy_basis_populations(traj, h)
    monkeypatch.setattr(importlib.import_module("ergoquench.ergotropy"), "hermitian_eig",
                        lambda m: (levels, rotated) if m is h else hermitian_eig(m))
    # ... the level's populations do not
    assert np.abs(energy_basis_populations(traj, h) - pops).max() <= 1e-14
    others = np.r_[0:7, 9:16]
    assert np.abs(pops[:, others] - single(h_vecs)[:, others]).max() <= 1e-14
    assert np.array_equal(pops[:, 7], pops[:, 8])
    assert np.abs(pops.sum(axis=1) - 1.0).max() <= 1e-12


def test_hotter_initial_population_row_is_flatter(h4):
    def entropy(row):
        row = row[row > 1e-300]
        return float(-(row * np.log(row)).sum())

    liou = build_liouvillian(h4, ChannelSpec(gamma=0.05))
    grid = TimeGrid(t_max=1.0, dt=0.5)
    hot = energy_basis_populations(propagate(liou, gibbs_state(h4, 0.2), grid), h4)
    cold = energy_basis_populations(propagate(liou, gibbs_state(h4, 5.0), grid), h4)
    assert entropy(hot[0]) > entropy(cold[0])


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_sorted_pairing_is_global_minimum_over_permutations(dim):
    rng = np.random.default_rng(dim)
    rho = random_density(rng, dim)
    h = random_hermitian(rng, dim)
    record = ergotropy(rho, h)
    # the spectrum ergotropy() reads: its Hermitian part, values only
    populations = hermitian_eigvals_batch(0.5 * (rho + dagger(rho))[None])[0]
    levels, _ = hermitian_eig(h)
    r_desc = populations[::-1]
    # trajectory_records' fixed-order sum, the one it forms for a stack of states too
    best = min(float(np.einsum("d,d->", r_desc[list(perm)], levels, optimize=False))
               for perm in itertools.permutations(range(dim)))
    assert best == record.passive_energy


def test_passive_energy_invariant_under_degenerate_relabeling():
    # h = 0 makes the one-excitation doublet degenerate
    model = ModelSpec(n_qubits=2, field_h=0.0)
    h = build_hamiltonian(model)
    rng = np.random.default_rng(9)
    rho = random_density(rng, 4)
    base = ergotropy(rho, h).passive_energy
    swap = np.eye(4)[[0, 2, 1, 3]]  # relabel the two degenerate basis states
    assert abs(ergotropy(swap @ rho @ swap.T, swap @ h @ swap.T).passive_energy
               - base) <= 1e-10


def test_ergotropy_nonnegative_along_trajectory():
    traj, h = _traj(2, 0.2, TimeGrid(t_max=200.0, dt=0.5), gamma=0.05, alpha_minus=1.0)
    series = trajectory_records(traj, h).ergotropy
    assert series.min() >= 0.0
    records = trajectory_records(traj, h)
    assert np.array_equal(records.ergotropy, series)
    assert records.rho_spectrum.shape == (len(traj), 4)
    assert np.abs(records.rho_spectrum.sum(axis=1) - 1.0).max() <= 1e-9


def test_dimension_mismatch_rejected(h2):
    with pytest.raises(ValueError):
        ergotropy(np.eye(8, dtype=complex) / 8.0, h2)


def test_ergotropy_of_a_nan_state_raises(h2):
    # NaN > tol is false: the screen must flag what is not within its bound
    with pytest.raises(InvariantViolation, match="Hermiticity defect nan at step 0"):
        ergotropy(np.diag([np.nan, 0.5, 0.5, 0.0]), h2)


@pytest.mark.parametrize("n,channel", [(2, dict(gamma=0.05, alpha_minus=0.5)),
                                       (4, dict(gamma=0.05)), (4, dict(gamma=0.05, alpha=1.0))],
                         ids=["N2", "N4", "N4-dephasing"])
def test_single_state_ergotropy_reads_the_screen_spectrum(n, channel):
    # ergotropy() is the one-state case of trajectory_records: every field, bit for bit
    traj, h = _traj(n, 0.5, TimeGrid(t_max=300.0, dt=0.5), **channel)
    rec = trajectory_records(traj, h)
    for k, state in enumerate(traj.states):
        single = ergotropy(state, h)
        assert np.array_equal(single.rho_spectrum, rec.rho_spectrum[k])
        for field in ("energy", "passive_energy", "ergotropy"):
            assert getattr(single, field) == getattr(rec, field)[k]
