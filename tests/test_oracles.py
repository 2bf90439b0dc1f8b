import numpy as np
import pytest

from ergoquench import (ChannelSpec, ModelSpec, TimeGrid, build_hamiltonian,
                        build_liouvillian, ergotropy, evolve_to, gibbs_state, propagate)
from ergoquench.dynamics import evolve_points
from ergoquench.linalg import dagger, hermitian_eig
from ergoquench.model import collective_operator
from ergoquench.oracles import (DarkSubspace, TwoQubitBlockState, _expm_taylor, beta_critical,
                                collective_steady_spectrum, dark_population_series,
                                dark_subspace, dephasing_two_qubit_block, p_dark,
                                p_dark_derivative, steady_s_infinity,
                                steady_state_is_passive, two_qubit_collective_sc,
                                two_qubit_parallel_block)

from reference import (activation_time_analytic, closed_form_steady,
                       decoherence_free_subspace, two_qubit_collective_block)

GAMMA = 0.05


def _gibbs_block(h2, beta):
    return TwoQubitBlockState.from_density(gibbs_state(h2, beta))


def _engine(h2, beta, grid, **channel):
    liou = build_liouvillian(h2, ChannelSpec(**channel))
    return propagate(liou, gibbs_state(h2, beta), grid)


def test_activation_time_limits():
    assert abs(activation_time_analytic(500.0, 0.1, GAMMA) - np.log(2.0) / GAMMA) <= 1e-6
    assert abs(activation_time_analytic(1.0, 0.1, GAMMA) - 10.8034) <= 1e-3
    assert activation_time_analytic(1e-9, 0.1, GAMMA) <= 1e-7


def test_activation_time_preconditions():
    with pytest.raises(ValueError):
        activation_time_analytic(1.0, 1.0, GAMMA)
    with pytest.raises(ValueError):
        activation_time_analytic(-1.0, 0.1, GAMMA)
    with pytest.raises(ValueError):
        activation_time_analytic(1.0, 0.1, 0.0)


def test_passivity_of_an_array_of_betas_equals_the_scalar_calls():
    # fig4's grid: one call per field over its 50 betas
    betas = np.linspace(0.1, 3.0, 50)
    for h in np.linspace(0.0, 0.9, 50):
        together = steady_state_is_passive(betas, h)
        assert together.dtype == bool and together.shape == betas.shape
        assert together.tolist() == [steady_state_is_passive(beta, h) for beta in betas]
    assert type(steady_state_is_passive(5.0, 0.1)) is bool


def test_beta_critical_values():
    assert 0.43 <= beta_critical(0.1) <= 0.45
    assert abs(beta_critical(0.0) - 0.5 * np.log(1.0 + np.sqrt(2.0))) <= 1e-9
    assert beta_critical(0.5) > beta_critical(0.1)
    with pytest.raises(ValueError):
        beta_critical(1.0)


def test_parallel_block_top_population_and_trace(h2):
    init = _gibbs_block(h2, 0.5)
    for t in (0.0, 7.0, 31.0, 200.0):
        out = two_qubit_parallel_block(init, GAMMA, t)
        assert abs(out.p_ee - init.p_ee * np.exp(-2 * GAMMA * t)) <= 1e-12
        assert abs(out.p_gg + out.p_eg + out.p_ge + out.p_ee - 1.0) <= 1e-12


def test_parallel_block_matches_engine(h2):
    grid = TimeGrid(t_max=800.0, dt=0.5)
    for beta in (0.2, 1.0, 5.0):
        traj = _engine(h2, beta, grid, gamma=GAMMA)
        init = TwoQubitBlockState.from_density(traj.states[0])
        for k in range(0, len(traj), 40):
            oracle = two_qubit_parallel_block(init, GAMMA, float(traj.times[k]))
            assert np.abs(oracle.to_density() - traj.states[k]).max() <= 1e-8


def test_collective_block_matches_engine(h2):
    grid = TimeGrid(t_max=800.0, dt=0.5)
    traj = _engine(h2, 0.5, grid, gamma=GAMMA, alpha_minus=1.0)
    init = TwoQubitBlockState.from_density(traj.states[0])
    for k in range(0, len(traj), 40):
        oracle = two_qubit_collective_block(init, GAMMA, float(traj.times[k]))
        assert np.abs(oracle.to_density() - traj.states[k]).max() <= 1e-8


def test_collective_sc_identity_at_zero(h2):
    init = _gibbs_block(h2, 0.7)
    s0, c0 = two_qubit_collective_sc(init, GAMMA, 0.0)
    assert abs(s0 - (init.p_eg + init.p_ge)) <= 1e-14
    assert abs(c0 - init.c.real) <= 1e-14


def test_collective_sc_long_time_limit(h2):
    beta, h_field = 0.2, 0.1
    z = 2.0 * (np.cosh(2 * beta) + np.cosh(2 * beta * h_field))
    s_inf = np.exp(2 * beta) / z
    assert abs(s_inf - 0.358289) <= 1e-5
    assert abs(steady_s_infinity(beta, h_field) - s_inf) <= 1e-14
    init = _gibbs_block(build_hamiltonian(ModelSpec(n_qubits=2, field_h=h_field)), beta)
    s_t, c_t = two_qubit_collective_sc(init, GAMMA, 4000.0)
    assert abs(s_t - s_inf) <= 1e-12
    assert abs(c_t + s_inf / 2.0) <= 1e-12
    # closed form equals the surviving combination s(0)/2 - c(0) exactly
    assert abs((init.p_eg + init.p_ge) / 2.0 - init.c.real - s_inf) <= 1e-12


@pytest.mark.parametrize("h_field", [0.0, 0.1, 0.37, 0.9])
def test_steady_s_infinity_is_finite_at_large_beta(h_field):
    for beta in np.linspace(0.01, 5.0, 200):
        z = 2.0 * (np.cosh(2 * beta) + np.cosh(2 * beta * h_field))
        assert abs(steady_s_infinity(beta, h_field) - np.exp(2 * beta) / z) <= 1e-15
    for beta in (400.0, 1e4):
        spectrum = collective_steady_spectrum(beta, h_field)
        assert np.all(np.isfinite(spectrum))
        assert np.array_equal(spectrum, [0.0, 0.0, 0.0, 1.0])


def test_steady_s_infinity_is_finite_at_a_field_above_one():
    # the config accepts any h >= 0: at beta (h - 1) = 495, e^{2 beta (h - 1)}
    # overflows, so only the form that factors out the largest term stays quiet
    assert steady_s_infinity(5.0, 100.0) == 0.0
    assert np.array_equal(collective_steady_spectrum(5.0, 100.0), [0.0, 0.0, 0.0, 1.0])
    for beta, h_field in ((0.5, 3.0), (2.0, 100.0)):
        z = 2.0 * (np.cosh(2 * beta) + np.cosh(2 * beta * h_field))
        assert steady_s_infinity(beta, h_field) == pytest.approx(np.exp(2 * beta) / z,
                                                                 rel=1e-14)


def test_collective_sc_requires_real_coherence(h2):
    init = TwoQubitBlockState(p_gg=0.4, p_eg=0.25, p_ge=0.25, p_ee=0.1, c=0.1j)
    with pytest.raises(ValueError):
        two_qubit_collective_sc(init, GAMMA, 1.0)


def test_collective_sc_matches_engine(h2):
    grid = TimeGrid(t_max=800.0, dt=0.5)
    for beta in (0.2, 2.0):
        traj = _engine(h2, beta, grid, gamma=GAMMA, alpha_minus=1.0)
        init = TwoQubitBlockState.from_density(traj.states[0])
        for k in range(0, len(traj), 80):
            s_val, c_val = two_qubit_collective_sc(init, GAMMA, float(traj.times[k]))
            s_ref = traj.states[k][1, 1].real + traj.states[k][2, 2].real
            c_ref = traj.states[k][1, 2].real
            assert abs(s_val - s_ref) <= 1e-8
            assert abs(c_val - c_ref) <= 1e-8


def test_steady_spectrum_properties(h2):
    spec = collective_steady_spectrum(0.2, 0.1)
    assert abs(spec.sum() - 1.0) <= 1e-14
    assert steady_state_is_passive(5.0, 0.1)  # s_inf > 1/2: passive ordering
    grid = TimeGrid(t_max=800.0, dt=0.5)
    traj = _engine(h2, 0.2, grid, gamma=GAMMA, alpha_minus=1.0)
    vals, _ = hermitian_eig(traj.states[-1])
    assert np.abs(vals - collective_steady_spectrum(0.2, 0.1)).max() <= 1e-6


def test_passivity_predicate():
    assert not steady_state_is_passive(0.2, 0.1)
    assert steady_state_is_passive(5.0, 0.1)
    bc = beta_critical(0.1)
    assert steady_state_is_passive(bc + 1e-9, 0.1)
    assert not steady_state_is_passive(bc - 1e-6, 0.1)


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (4, 6)])
def test_dark_subspace_dimension(n, expected):
    model = ModelSpec(n_qubits=n, field_h=0.1)
    dark = dark_subspace(model)
    assert dark.dimension == expected
    lowering = collective_operator(model, "minus")
    assert np.abs(lowering @ dark.basis).max() <= 1e-12
    proj = dark.projector
    assert np.abs(proj @ proj - proj).max() <= 1e-12
    assert np.abs(proj - dagger(proj)).max() <= 1e-12
    assert abs(np.trace(proj).real - expected) <= 1e-10


def test_dark_subspace_two_qubits_content():
    model = ModelSpec(n_qubits=2, field_h=0.1)
    proj = dark_subspace(model).projector
    gg = np.zeros(4)
    gg[3] = 1.0
    anti = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    expected = np.outer(gg, gg) + np.outer(anti, anti)
    assert np.abs(proj - expected).max() <= 1e-12


@pytest.mark.parametrize("n,dark_dim,dfs_dim", [(2, 2, 2), (4, 6, 3)])
def test_decoherence_free_subspace_is_the_h_invariant_part_of_the_dark_subspace(
        n, dark_dim, dfs_dim):
    # the open N=4 chain's H moves half of ker S^- out of it; at N=2 all of it stays
    model = ModelSpec(n_qubits=n, field_h=0.1)
    dark = dark_subspace(model)
    basis = decoherence_free_subspace(model)
    proj = basis @ dagger(basis)
    h = build_hamiltonian(model)
    assert (dark.dimension, basis.shape[1]) == (dark_dim, dfs_dim)
    assert np.abs(dagger(basis) @ basis - np.eye(dfs_dim)).max() <= 1e-12
    assert np.abs(dark.projector @ proj - proj).max() <= 1e-12
    assert np.abs(h @ proj - proj @ h).max() <= 1e-12
    if n == 2:
        assert np.abs(proj - dark.projector).max() <= 1e-12


def test_four_qubit_collective_limit_lies_in_the_decoherence_free_subspace(model4, h4):
    # at t = 6000 the slowest decaying mode, exp(-0.00528 t), is down to 2e-14
    basis = decoherence_free_subspace(model4)
    proj = basis @ dagger(basis)
    liou = build_liouvillian(h4, ChannelSpec(gamma=GAMMA, alpha_minus=1.0))
    betas = np.array([0.2, 0.5, 1.0, 2.0, 5.0])
    limits = evolve_to(liou, gibbs_state(h4, betas), 6000.0).states
    steady = []
    for rho in limits:
        inside = proj @ rho @ proj
        assert np.trace(inside).real >= 1.0 - 1e-10
        steady.append(ergotropy(rho, h4).ergotropy)
        assert abs(steady[-1] - ergotropy(inside, h4).ergotropy) <= 1e-10
    # not monotone in beta: the dip criterion 6 reports is in the limit too
    assert np.abs(np.array(steady) - [3.0204, 2.7236, 2.8147, 3.5091, 4.0475]).max() <= 1e-4


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("channel", [
    (0.0, 0.0, 0.0), (0.0, 0.5, 0.0), (0.0, 0.9, 0.0),
    (1.0, 0.0, 0.0), (1.0, 0.0, 0.5), (1.0, 0.0, 0.9), (1.0, 0.0, 1.0),
], ids=lambda channel: "alpha={}-alpha_minus={}-alpha_z={}".format(*channel))
def test_closed_form_steady_is_the_long_time_limit_of_the_engine(n, channel):
    # t = 2e5: the slowest gap these channels leave, gamma (1 - alpha_minus) = 0.005
    # at alpha_minus = 0.9, has decayed to exp(-1000)
    betas = (0.2, 1.0, 5.0)
    h = build_hamiltonian(ModelSpec(n_qubits=n, field_h=0.1))
    liou = build_liouvillian(h, ChannelSpec(GAMMA, *channel))
    limits = evolve_to(liou, gibbs_state(h, np.array(betas)), 2e5).states
    for beta, rho in zip(betas, limits):
        closed = closed_form_steady(n, 0.1, channel, beta)
        assert np.abs(rho - closed).max() <= 1e-10


@pytest.mark.parametrize("n", [2, 4])
def test_closed_form_steady_is_the_limit_jump_of_the_engine(n):
    # every channel of appB-diss and appB-deph that has a closed form, in one limit jump
    betas = (0.2, 1.0, 5.0)
    alphas = [round(0.1 * k, 1) for k in range(11)]
    channels = [(0.0, a, 0.0) for a in alphas[:-1]] + [(1.0, 0.0, a) for a in alphas]
    h = build_hamiltonian(ModelSpec(n_qubits=n, field_h=0.1))
    rho0 = gibbs_state(h, np.array(betas))
    # the dissipative and the dephasing channels, one generator family each
    steady = []
    for part in (channels[:10], channels[10:]):
        family = build_liouvillian(h, [ChannelSpec(GAMMA, *channel) for channel in part])
        steady += evolve_points(rho0, family, 800.0, limit=True)
    for channel, traj in zip(channels, steady, strict=True):
        for beta, rho in zip(betas, traj.states):
            assert np.abs(rho - closed_form_steady(n, 0.1, channel, beta)).max() <= 1e-10


@pytest.mark.parametrize("channel", [(0.0, 1.0, 0.0), (0.5, 0.0, 0.0), (0.3, 0.5, 1.0)])
def test_closed_form_steady_knows_no_form_for_collective_decay_or_a_mix(channel):
    assert closed_form_steady(2, 0.1, channel, 1.0) is None


def test_p_dark_values(model4):
    assert abs(p_dark(0.0, model4) - 0.375) <= 1e-12
    grid = (0.2, 0.5, 1.0, 2.0, 5.0)
    values = [p_dark(b, model4) for b in grid]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


def test_p_dark_derivative_matches_finite_difference(model4):
    for beta in (0.2, 1.0, 5.0):
        analytic = p_dark_derivative(beta, model4)
        fd = (p_dark(beta + 1e-5, model4)
              - p_dark(beta - 1e-5, model4)) / 2e-5
        assert abs(analytic - fd) <= 1e-6


def test_p_dark_and_its_derivative_reject_negative_beta(model4):
    for oracle in (p_dark, p_dark_derivative):
        with pytest.raises(ValueError, match="beta must be >= 0"):
            oracle(-1.0, model4)
        with pytest.raises(ValueError, match="beta must be >= 0"):
            oracle(np.array([0.5, -1.0]), model4)
        with pytest.raises(ValueError, match=r"a scalar or a (non-empty )?1-D array"):
            oracle(np.array([[0.5, 1.0]]), model4)


@pytest.mark.parametrize("n,h_field", [(2, 0.1), (4, 0.1), (4, 0.215), (3, 0.0)])
def test_p_dark_of_a_beta_array_has_the_bytes_of_its_scalar_calls(n, h_field):
    # fig7's grid and the benchmark seeds' fields: one decomposition of H and one of
    # S^+ S^- per call, each beta's entry the bytes of its own scalar call
    model = ModelSpec(n_qubits=n, field_h=h_field)
    betas = np.concatenate((np.linspace(0.0, 5.0, 51), [1e-5, 40.0, 700.0]))
    for oracle in (p_dark, p_dark_derivative):
        together = oracle(betas, model)
        assert together.shape == betas.shape and together.dtype == float
        alone = np.array([oracle(beta, model) for beta in betas])
        assert isinstance(oracle(float(betas[3]), model), float)
        assert together.tobytes() == alone.tobytes()


def test_dephasing_block_constants_and_engine(h2):
    grid = TimeGrid(t_max=800.0, dt=0.5)
    traj = _engine(h2, 1.0, grid, gamma=GAMMA, alpha=1.0)
    init = TwoQubitBlockState.from_density(traj.states[0])
    for k in range(0, len(traj), 40):
        oracle = dephasing_two_qubit_block(init, GAMMA, float(traj.times[k]))
        assert abs(oracle.p_gg - init.p_gg) <= 1e-12
        assert abs(oracle.p_ee - init.p_ee) <= 1e-12
        assert np.abs(oracle.to_density() - traj.states[k]).max() <= 1e-8


def test_engine_coherence_decay_rates():
    # from |+...+>, the |ee..e> row norms over the (N-1)- and (N-2)-excitation
    # sectors decay exactly at 2*gamma and 4*gamma under parallel dephasing
    for n in (2, 4):
        model = ModelSpec(n_qubits=n, field_h=0.1)
        h = build_hamiltonian(model)
        liou = build_liouvillian(h, ChannelSpec(gamma=GAMMA, alpha=1.0))
        dim = model.dim
        plus = np.full((dim, dim), 1.0 / dim, dtype=complex)
        traj = propagate(liou, plus, TimeGrid(t_max=100.0, dt=0.5))
        single = [k for k in range(dim) if bin(k).count("1") == 1]
        double = [k for k in range(dim) if bin(k).count("1") == 2]
        w1 = np.sqrt((np.abs(traj.states[:, 0, single]) ** 2).sum(axis=1))
        w2 = np.sqrt((np.abs(traj.states[:, 0, double]) ** 2).sum(axis=1))
        rate1 = -np.polyfit(traj.times, np.log(w1), 1)[0]
        rate2 = -np.polyfit(traj.times, np.log(w2), 1)[0]
        assert abs(rate1 - 2 * GAMMA) <= 0.01 * 2 * GAMMA
        assert abs(rate2 - 4 * GAMMA) <= 0.01 * 4 * GAMMA


def test_block_state_validation_and_roundtrip(h2):
    with pytest.raises(ValueError):
        TwoQubitBlockState(p_gg=0.9, p_eg=0.3, p_ge=0.0, p_ee=-0.2, c=0.0)
    with pytest.raises(ValueError):
        TwoQubitBlockState(p_gg=0.7, p_eg=0.1, p_ge=0.1, p_ee=0.1, c=0.5)
    block = TwoQubitBlockState.from_density(gibbs_state(h2, 0.7))
    assert np.abs(TwoQubitBlockState.from_density(block.to_density()).to_density()
                  - block.to_density()).max() == 0.0


def test_dark_population_series_shape(model4, h4):
    dark = dark_subspace(model4)
    liou = build_liouvillian(h4, ChannelSpec(gamma=GAMMA, alpha_minus=1.0))
    traj = propagate(liou, gibbs_state(h4, 1.0), TimeGrid(t_max=5.0, dt=0.5))
    series = dark_population_series(traj, dark)
    assert series.shape == (len(traj),)
    assert abs(series[0] - p_dark(1.0, model4)) <= 1e-10


def _taylor_reference(m):
    """One-matrix scaled Taylor exponential, the reference for the batched kernel."""
    a = np.asarray(m, dtype=float)
    nrm = np.abs(a).sum(axis=0).max()
    squarings = max(0, int(np.ceil(np.log2(nrm / 0.5)))) if nrm > 0.5 else 0
    a = a / (2.0 ** squarings)
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, 40):
        term = term @ a / k
        out = out + term
        if np.abs(term).max() < 1e-20:
            break
    for _ in range(squarings):
        out = out @ out
    return out


def test_batched_taylor_equals_per_matrix_calls():
    rng = np.random.default_rng(3)
    shapes = rng.standard_normal((10, 6, 6))
    shapes /= np.abs(shapes).sum(axis=-2).max(axis=-1)[:, None, None]  # unit one-norm
    # one-norms on both sides of the 0.5 scaling threshold, and a zero matrix
    norms = np.array([0.0, 1e-3, 0.3, 0.5, 0.5 + 1e-12, 0.7, 3.0, 41.0, 800.0, 0.5])
    stack = shapes * norms[:, None, None]
    stack[0] = 0.0
    batched = _expm_taylor(stack)
    for m, out in zip(stack, batched):
        assert np.array_equal(out, _taylor_reference(m))
        assert np.array_equal(out, _expm_taylor(m[None])[0])
    assert np.array_equal(batched[0], np.eye(6))


def test_array_of_times_equals_scalar_calls(h2):
    init = _gibbs_block(h2, 0.5)
    times = np.arange(0.0, 400.5, 12.5)
    for oracle in (two_qubit_parallel_block, dephasing_two_qubit_block,
                   two_qubit_collective_block):
        batch = oracle(init, GAMMA, times)
        scalar = [oracle(init, GAMMA, t) for t in times]
        assert batch.to_density().shape == (len(times), 4, 4)
        assert np.array_equal(batch.to_density(), [s.to_density() for s in scalar])
        for field in ("p_gg", "p_eg", "p_ge", "p_ee", "c"):
            assert np.array_equal(getattr(batch, field), [getattr(s, field) for s in scalar])
    s_batch, c_batch = two_qubit_collective_sc(init, GAMMA, times)
    pairs = np.array([two_qubit_collective_sc(init, GAMMA, t) for t in times])
    assert np.array_equal(s_batch, pairs[:, 0]) and np.array_equal(c_batch, pairs[:, 1])
    with pytest.raises(ValueError):
        two_qubit_parallel_block(init, GAMMA, times.reshape(1, -1))


def test_a_sequence_of_initial_states_equals_one_call_each(h2):
    inits = [_gibbs_block(h2, beta) for beta in (0.2, 1.0, 5.0)]
    times = np.arange(0.0, 400.5, 12.5)
    for oracle in (two_qubit_parallel_block, dephasing_two_qubit_block,
                   two_qubit_collective_block):
        together = oracle(inits, GAMMA, times)
        assert isinstance(together, list) and len(together) == len(inits)
        for init, solution in zip(inits, together):
            assert np.array_equal(solution.to_density(), oracle(init, GAMMA, times).to_density())


@pytest.mark.parametrize("bad", [
    dict(p_gg=0.9, p_eg=0.3, p_ge=0.0, p_ee=-0.2, c=0.0),    # population out of [0, 1]
    dict(p_gg=0.5, p_eg=0.25, p_ge=0.25, p_ee=0.1, c=0.0),   # populations sum to 1.1
    dict(p_gg=0.7, p_eg=0.1, p_ge=0.1, p_ee=0.1, c=0.5),     # |c| > sqrt(p_eg p_ge)
], ids=["range", "sum", "coherence"])
def test_batched_state_reports_its_bad_time_point_like_a_scalar_state(bad):
    good = dict(p_gg=0.4, p_eg=0.25, p_ge=0.25, p_ee=0.1, c=0.2)
    with pytest.raises(ValueError) as scalar_err:
        TwoQubitBlockState(**bad)
    fields = {key: np.array([good[key], good[key], bad[key], good[key]]) for key in good}
    fields["c"] = fields["c"].astype(complex)
    with pytest.raises(ValueError) as batch_err:
        TwoQubitBlockState(**fields)
    assert str(batch_err.value) == str(scalar_err.value)
    TwoQubitBlockState(**{key: np.delete(value, 2) for key, value in fields.items()})
