"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Shared trajectories are computed once per module; criterion 13
audits the CPTP invariants of every state stored along the way.
"""

import csv
import itertools
import time

import numpy as np
import pytest

from ergoquench import (ChannelSpec, ModelSpec, TimeGrid, build_hamiltonian,
                        build_liouvillian, evolve_to, gibbs_state, propagate)
from ergoquench.config import ExperimentConfig
from ergoquench.ergotropy import eigenvalue_crossings, ergotropy, trajectory_records
from ergoquench.experiments import run_experiment
from ergoquench.jc import compare_jc, default_jc_spec, effective_atom_evolution, jc_full_evolution
from ergoquench.linalg import dagger, expm, hermitian_eig, hermitian_eigvals_batch
from ergoquench.oracles import (TwoQubitBlockState, beta_critical, collective_steady_spectrum,
                                dark_population_series, dark_subspace,
                                dephasing_two_qubit_block, p_dark, p_dark_derivative,
                                steady_state_is_passive, two_qubit_collective_sc,
                                two_qubit_parallel_block)

from conftest import random_density, random_hermitian
from reference import activation_time, activation_time_analytic, ergotropy_difference

H_FIELD = 0.1
GAMMA = 0.05
BETA_GRID = (0.2, 0.5, 1.0, 2.0, 5.0)

# every trajectory computed for the criteria, audited by criterion 13
_ALL_STATES: dict[str, np.ndarray] = {}


def _register(name, traj):
    _ALL_STATES[name] = traj.states
    return traj


def _report(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _run(n, beta, grid, name=None, **channel):
    model = ModelSpec(n_qubits=n, field_h=H_FIELD)
    h = build_hamiltonian(model)
    liou = build_liouvillian(h, ChannelSpec(gamma=GAMMA, **channel))
    traj = propagate(liou, gibbs_state(h, beta), grid)
    if name:
        _register(name, traj)
    return traj, h


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def fig2_run(out_dir):
    config = ExperimentConfig(experiment="fig2", output_dir=str(out_dir / "fig2"))
    start = time.perf_counter()
    paths = run_experiment(config)
    elapsed = time.perf_counter() - start
    with open(paths[0], newline="") as handle:
        rows = list(csv.DictReader(handle))
    return rows, elapsed


@pytest.fixture(scope="module")
def fig5_trajs():
    return {beta: _run(4, beta, TimeGrid(800.0, 0.5), name=f"fig5-{beta}")
            for beta in BETA_GRID}


@pytest.fixture(scope="module")
def fig6_trajs():
    return {beta: _run(4, beta, TimeGrid(800.0, 0.5), name=f"fig6-{beta}",
                       alpha_minus=1.0) for beta in BETA_GRID}


@pytest.fixture(scope="module")
def fig8_trajs():
    return {(n, beta): _run(n, beta, TimeGrid(800.0, 0.5), name=f"fig8-{n}-{beta}",
                            alpha=1.0) for n in (2, 4) for beta in BETA_GRID}


@pytest.fixture(scope="module")
def n2_channel_trajs():
    grid = TimeGrid(800.0, 0.5)
    out = {}
    for beta in BETA_GRID:
        out[("parallel", beta)] = _run(2, beta, grid, name=f"par-{beta}")
        out[("collective", beta)] = _run(2, beta, grid, name=f"col-{beta}",
                                         alpha_minus=1.0)
        out[("dephasing", beta)] = _run(2, beta, grid, name=f"dep-{beta}", alpha=1.0)
    return out


def test_criterion_01_parallel_plateau_and_activation(fig2_run):
    rows, elapsed = fig2_run
    plateau_dev = 0.0
    for beta in BETA_GRID:
        final = [float(r["ergotropy"]) for r in rows
                 if float(r["beta"]) == beta and float(r["time"]) == 800.0]
        assert len(final) == 1
        plateau_dev = max(plateau_dev, abs(final[0] - 1.8))
    grid = TimeGrid(30.0, 0.1)
    tc_dev = 0.0
    for beta in BETA_GRID:
        traj, h = _run(2, beta, grid)
        measured = activation_time(traj, h)
        tc_dev = max(tc_dev, abs(measured - activation_time_analytic(beta, H_FIELD, GAMMA)))
    ok = plateau_dev <= 1e-3 and tc_dev <= 2 * grid.dt and elapsed < 30.0
    _report(1, ok, f"plateau dev {plateau_dev:.2e} (<=1e-3), "
                   f"t_c dev {tc_dev:.3f} (<=0.2), fig2 runtime {elapsed:.1f}s (<30s)")


def test_criterion_02_cold_limit_activation_bound():
    traj, h = _run(2, 50.0, TimeGrid(30.0, 0.1))
    measured = activation_time(traj, h)
    target = np.log(2.0) / GAMMA
    ok = measured is not None and abs(measured - target) <= 0.2
    _report(2, ok, f"beta=50 t_c {measured:.3f} vs ln(2)/gamma {target:.3f} (within 0.2)")


def test_criterion_03_collective_critical_temperature():
    model = ModelSpec(n_qubits=2, field_h=H_FIELD)
    h = build_hamiltonian(model)
    liou = build_liouvillian(h, ChannelSpec(gamma=GAMMA, alpha_minus=1.0))
    steady = {}
    for beta in (0.2, 0.3, 0.4, 0.5, 1.0, 2.0, 5.0):
        state = evolve_to(liou, gibbs_state(h, beta), 800.0).states[0]
        steady[beta] = ergotropy(state, h).ergotropy
    bc = beta_critical(0.1)
    ok = (all(steady[b] > 1e-3 for b in (0.2, 0.3, 0.4))
          and all(steady[b] < 1e-4 for b in (0.5, 1.0, 2.0, 5.0))
          and 0.43 <= bc <= 0.45)
    _report(3, ok, f"nonpassive {[f'{steady[b]:.3f}' for b in (0.2, 0.3, 0.4)]}, "
                   f"passive max {max(steady[b] for b in (0.5, 1.0, 2.0, 5.0)):.1e}, "
                   f"beta_c(0.1)={bc:.4f}")


def test_criterion_04_phase_diagram_classification(out_dir):
    config = ExperimentConfig(experiment="fig4", output_dir=str(out_dir / "fig4"))
    paths = run_experiment(config)
    with open(paths[0], newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2500
    betas = sorted({float(r["beta"]) for r in rows})
    fields = sorted({float(r["h"]) for r in rows})
    d_beta = betas[1] - betas[0]
    d_h = fields[1] - fields[0]
    bc_cache = {hf: beta_critical(hf) for hf in fields}
    mismatches = []
    for row in rows:
        beta, hf = float(row["beta"]), float(row["h"])
        if row["passive_predicted"] == row["passive_observed"]:
            continue
        near = min(abs(beta - bc_cache[hf]),
                   abs(beta - beta_critical(min(0.9, hf + d_h))),
                   abs(beta - beta_critical(max(0.0, hf - d_h)))) <= d_beta
        if not near:
            mismatches.append((beta, hf))
    ok = not mismatches
    _report(4, ok, f"50x50 grid, non-excused mismatches: {len(mismatches)} "
                   f"{mismatches[:3] if mismatches else ''}")


def test_criterion_05_mpemba_crossings(fig5_trajs):
    ref_traj, h = fig5_trajs[5.0]
    finals = []
    missing = []
    for beta in (0.2, 0.5, 1.0, 2.0):
        traj, _ = fig5_trajs[beta]
        diff = ergotropy_difference(traj, ref_traj, h)
        if not diff.crossings:
            missing.append(beta)
    for beta in BETA_GRID:
        traj, _ = fig5_trajs[beta]
        finals.append(trajectory_records(traj, h).ergotropy[-1])
    spread = max(finals) - min(finals)
    ok = not missing and spread <= 1e-3
    _report(5, ok, f"crossings found for all betas (missing: {missing}), "
                   f"steady spread {spread:.1e} (<=1e-3)")


def test_criterion_06_collective_four_qubits(fig6_trajs):
    model = ModelSpec(n_qubits=4, field_h=H_FIELD)
    dark = dark_subspace(model)
    steady = []
    drift = {}
    for beta in BETA_GRID:
        traj, h = fig6_trajs[beta]
        steady.append(trajectory_records(traj, h).ergotropy[-1])
        pd_t = dark_population_series(traj, dark)
        drift[beta] = float(np.abs(pd_t - pd_t[0]).max())
    monotone = all(b >= a - 1e-9 for a, b in zip(steady, steady[1:]))
    pd_grid = [p_dark(b, model) for b in BETA_GRID]
    increasing = all(b > a for a, b in zip(pd_grid, pd_grid[1:]))
    pd0 = p_dark(0.0, model)
    deriv_dev = 0.0
    for beta in (0.2, 1.0, 5.0):
        fd = (p_dark(beta + 1e-5, model)
              - p_dark(beta - 1e-5, model)) / 2e-5
        deriv_dev = max(deriv_dev, abs(p_dark_derivative(beta, model) - fd))
    max_drift = max(drift.values())
    # the open-chain XX Hamiltonian does not commute with P_dark, so the dark
    # population is NOT conserved; the criterion's reporting branch applies
    drift_line = (f"p_dark(t) constant to 1e-6" if max_drift <= 1e-6 else
                  f"p_dark(t) NOT constant; measured drift per beta "
                  f"{ {b: f'{d:.3f}' for b, d in drift.items()} } (reported)")
    ok = (monotone and increasing and abs(pd0 - 0.375) <= 1e-12 and deriv_dev <= 1e-6)
    _report(6, ok,
            f"steady ergotropy {[f'{e:.4f}' for e in steady]} monotone={monotone}, "
            f"p_dark increasing={increasing}, p_dark(0)={pd0:.6f}, "
            f"derivative dev {deriv_dev:.1e} (<=1e-6); {drift_line}")


def test_criterion_07_dark_subspace_dimensions():
    dims = {}
    defect = 0.0
    from ergoquench.model import collective_operator
    for n, expected in ((1, 1), (2, 2), (4, 6)):
        model = ModelSpec(n_qubits=n, field_h=H_FIELD)
        dark = dark_subspace(model)
        dims[n] = dark.dimension
        lowering = collective_operator(model, "minus")
        defect = max(defect, float(np.abs(lowering @ dark.basis).max()))
    ok = dims == {1: 1, 2: 2, 4: 6} and defect <= 1e-12
    _report(7, ok, f"dimensions {dims} (expect 1/2/6), S^- annihilation defect {defect:.1e}")


def test_criterion_08_dephasing(fig8_trajs):
    rate_dev = 0.0
    for n in (2, 4):
        model = ModelSpec(n_qubits=n, field_h=H_FIELD)
        h = build_hamiltonian(model)
        liou = build_liouvillian(h, ChannelSpec(gamma=GAMMA, alpha=1.0))
        dim = model.dim
        plus = np.full((dim, dim), 1.0 / dim, dtype=complex)
        traj = _register(f"crit8-plus-{n}",
                         propagate(liou, plus, TimeGrid(100.0, 0.5)))
        single = [k for k in range(dim) if bin(k).count("1") == 1]
        double = [k for k in range(dim) if bin(k).count("1") == 2]
        w1 = np.sqrt((np.abs(traj.states[:, 0, single]) ** 2).sum(axis=1))
        w2 = np.sqrt((np.abs(traj.states[:, 0, double]) ** 2).sum(axis=1))
        rate1 = -np.polyfit(traj.times, np.log(w1), 1)[0]
        rate2 = -np.polyfit(traj.times, np.log(w2), 1)[0]
        rate_dev = max(rate_dev, abs(rate1 - 2 * GAMMA) / (2 * GAMMA),
                       abs(rate2 - 4 * GAMMA) / (4 * GAMMA))
    crossing_count = 0
    for n in (2, 4):
        ref, h = fig8_trajs[(n, 5.0)]
        for beta in (0.2, 0.5, 1.0, 2.0):
            traj, _ = fig8_trajs[(n, beta)]
            crossing_count += len(ergotropy_difference(traj, ref, h).crossings)
    model = ModelSpec(n_qubits=2, field_h=H_FIELD)
    h = build_hamiltonian(model)
    liou = build_liouvillian(h, ChannelSpec(gamma=GAMMA, alpha=1.0, alpha_z=1.0))
    rho0 = gibbs_state(h, 1.0)
    frozen = _register("crit8-frozen", propagate(liou, rho0, TimeGrid(800.0, 0.5)))
    frozen_dev = max(float(np.sqrt((np.abs(s - rho0) ** 2).sum())) for s in frozen.states)
    frozen_erg = trajectory_records(frozen, h).ergotropy.max()
    ok = rate_dev <= 0.01 and crossing_count == 0 and frozen_dev < 1e-9 and frozen_erg < 1e-9
    _report(8, ok, f"decay-rate rel dev {rate_dev:.2e} (<=1%), "
                   f"dephasing dE sign changes {crossing_count} (expect 0), "
                   f"collective-dephasing drift {frozen_dev:.1e} / ergotropy {frozen_erg:.1e}")


def test_criterion_09_interpolation_sweeps():
    # (a) two qubits: collectivity alpha_minus >~ 0.8 drives t=800 ergotropy to 0
    model2 = ModelSpec(n_qubits=2, field_h=H_FIELD)
    h2 = build_hamiltonian(model2)
    alpha_tail = (0.8, 0.9, 0.95, 0.99, 1.0)
    tail_ok, collective_zero, drop = True, True, np.inf
    for beta in (1.0, 2.0, 5.0):
        ergs = []
        for am in alpha_tail:
            liou = build_liouvillian(h2, ChannelSpec(gamma=GAMMA, alpha_minus=am))
            state = evolve_to(liou, gibbs_state(h2, beta), 800.0).states[0]
            ergs.append(ergotropy(state, h2).ergotropy)
        tail_ok &= all(b <= a + 1e-9 for a, b in zip(ergs, ergs[1:]))
        collective_zero &= ergs[-1] < 1e-3
        drop = min(drop, ergs[0] - ergs[-1])
    # (b) four qubits: local plateau survives up to alpha_minus = 0.9 within 5%
    model4 = ModelSpec(n_qubits=4, field_h=H_FIELD)
    h4 = build_hamiltonian(model4)
    resilient = True
    worst_rel = 0.0
    for beta in BETA_GRID:
        local = None
        for am in (0.0, 0.5, 0.8, 0.9):
            liou = build_liouvillian(h4, ChannelSpec(gamma=GAMMA, alpha_minus=am))
            erg = ergotropy(evolve_to(liou, gibbs_state(h4, beta), 800.0).states[0],
                            h4).ergotropy
            if am == 0.0:
                local = erg
            else:
                rel = abs(erg - local) / local
                worst_rel = max(worst_rel, rel)
                resilient &= rel <= 0.05
    # (c) channel mixing: identical plateau, settling time increasing in alpha
    mixing_ok = True
    settle_detail = []
    grid = TimeGrid(4000.0, 1.0)
    for panel, (am, az, beta) in (("parallel-hot", (0.0, 0.0, 0.2)),
                                  ("parallel-cold", (0.0, 0.0, 5.0)),
                                  ("collective-hot", (1.0, 1.0, 0.2))):
        finals, settles = [], []
        for alpha in (0.0, 0.3, 0.5, 0.7, 0.9):
            liou = build_liouvillian(
                h2, ChannelSpec(gamma=GAMMA, alpha=alpha, alpha_minus=am, alpha_z=az))
            traj = _register(f"crit9c-{panel}-{alpha}",
                             propagate(liou, gibbs_state(h2, beta), grid))
            erg = trajectory_records(traj, h2).ergotropy
            finals.append(erg[-1])
            above = np.nonzero(np.abs(erg - erg[-1]) > 1e-3)[0]
            settles.append(float(traj.times[above[-1]]) if above.size else 0.0)
        spread = max(finals) - min(finals)
        mixing_ok &= spread <= 1e-3
        mixing_ok &= all(b > a for a, b in zip(settles, settles[1:]))
        settle_detail.append(f"{panel}: spread {spread:.1e}, settle {settles}")
    ok = tail_ok and collective_zero and drop > 1.0 and resilient and mixing_ok
    _report(9, ok,
            f"N=2 tail nonincreasing={tail_ok}, erg(alpha=1)<1e-3={collective_zero}, "
            f"drop {drop:.2f} (>1); N=4 worst rel dev at alpha<=0.9 {worst_rel:.2%} "
            f"(<=5%); mixing: {'; '.join(settle_detail)}")


def test_criterion_10_oracle_equivalence(n2_channel_trajs):
    worst_block = 0.0
    worst_sc = 0.0
    worst_spec = 0.0
    for beta in BETA_GRID:
        par, h = n2_channel_trajs[("parallel", beta)]
        col, _ = n2_channel_trajs[("collective", beta)]
        dep, _ = n2_channel_trajs[("dephasing", beta)]
        init = TwoQubitBlockState.from_density(par.states[0])
        # one oracle call per sector covers every grid time
        oracle = two_qubit_parallel_block(init, GAMMA, par.times)
        worst_block = max(worst_block, float(np.abs(oracle.to_density() - par.states).max()))
        oracle = dephasing_two_qubit_block(init, GAMMA, dep.times)
        worst_block = max(worst_block, float(np.abs(oracle.to_density() - dep.states).max()))
        s_val, c_val = two_qubit_collective_sc(init, GAMMA, col.times)
        s_ref = col.states[:, 1, 1].real + col.states[:, 2, 2].real
        c_ref = col.states[:, 1, 2].real
        worst_sc = max(worst_sc, float(np.abs(s_val - s_ref).max()),
                       float(np.abs(c_val - c_ref).max()))
        vals, _ = hermitian_eig(col.states[-1])
        worst_spec = max(worst_spec,
                         float(np.abs(vals - collective_steady_spectrum(beta, H_FIELD)).max()))
    ok = worst_block <= 1e-8 and worst_sc <= 1e-8 and worst_spec <= 1e-6
    _report(10, ok, f"block oracles dev {worst_block:.1e} (<=1e-8), "
                    f"s/c closed form dev {worst_sc:.1e} (<=1e-8), "
                    f"steady spectrum dev {worst_spec:.1e} (<=1e-6)")


def test_criterion_11_ergotropy_correctness():
    rng = np.random.default_rng(2024)
    exact = True
    for dim in (2, 4, 8):
        rho = random_density(rng, dim)
        h = random_hermitian(rng, dim)
        record = ergotropy(rho, h)
        # the spectrum ergotropy() reads: its Hermitian part, values only
        populations = hermitian_eigvals_batch(0.5 * (rho + dagger(rho))[None])[0]
        levels, _ = hermitian_eig(h)
        r_desc = populations[::-1]
        best = min(float(np.einsum("d,d->", r_desc[list(perm)], levels, optimize=False))
                   for perm in itertools.permutations(range(dim)))
        exact &= best == record.passive_energy
    rho = random_density(rng, 4)
    model = ModelSpec(n_qubits=2, field_h=H_FIELD)
    h2 = build_hamiltonian(model)
    passive = ergotropy(rho, h2).passive_energy
    beaten = 0
    for _ in range(200):
        u = expm(1j * random_hermitian(rng, 4))
        if np.trace(u @ rho @ dagger(u) @ h2).real < passive - 1e-10:
            beaten += 1
    ok = exact and beaten == 0
    _report(11, ok, f"permutation minimum equals sorted pairing exactly: {exact}; "
                    f"unitaries beating passive energy: {beaten}/200")


def test_criterion_12_jc_validation():
    table = compare_jc((1.0, 5.0, 10.0, 20.0, 50.0, 100.0))
    deviations = [dev for _, dev in table]
    decreasing = all(b < a for a, b in zip(deviations, deviations[1:]))
    excited = np.diag([1.0, 0.0]).astype(complex)
    spec = default_jc_spec(kappa_over_g=10.0)
    grid = TimeGrid(20.0, 0.1)
    full = jc_full_evolution(spec, excited, grid)
    eff = effective_atom_evolution(spec, excited, grid)
    max_coh = max(float(np.abs(full.states[:, 0, 1]).max()),
                  float(np.abs(eff.states[:, 0, 1]).max()))
    cptp_dev = 0.0
    for traj in (full, eff):
        vals = hermitian_eigvals_batch(traj.states)
        cptp_dev = max(cptp_dev,
                       float(np.abs(np.trace(traj.states, axis1=1, axis2=2) - 1.0).max()),
                       float(max(0.0, -vals[:, 0].min())))
    ok = decreasing and max_coh < 1e-12 and cptp_dev < 1e-9
    _report(12, ok, f"deviation table {['%.4f' % d for d in deviations]} "
                    f"strictly decreasing={decreasing}, coherences {max_coh:.1e} "
                    f"(<1e-12), CPTP dev {cptp_dev:.1e}")


def test_criterion_13_cptp_suite(fig5_trajs, fig6_trajs, fig8_trajs, n2_channel_trajs):
    worst_trace = worst_herm = worst_neg = 0.0
    n_states = 0
    for states in _ALL_STATES.values():
        n_states += states.shape[0]
        worst_trace = max(worst_trace,
                          float(np.abs(np.trace(states, axis1=1, axis2=2) - 1.0).max()))
        worst_herm = max(worst_herm, float(np.abs(states - dagger(states)).max()))
        vals = hermitian_eigvals_batch(states)
        worst_neg = max(worst_neg, float(max(0.0, -vals[:, 0].min())))
    ok = worst_trace < 1e-9 and worst_herm < 1e-9 and worst_neg < 1e-9
    _report(13, ok, f"{n_states} stored states over {len(_ALL_STATES)} trajectories: "
                    f"max |tr-1| {worst_trace:.1e}, Hermiticity {worst_herm:.1e}, "
                    f"negativity {worst_neg:.1e} (all <1e-9)")
