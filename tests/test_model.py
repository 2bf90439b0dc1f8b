import tracemalloc

import numpy as np
import pytest

from ergoquench import (ChannelSpec, ModelSpec, TimeGrid, build_hamiltonian,
                        check_density_matrix, collective_operator, gibbs_state, site_operator)
from ergoquench.config import MAX_QUBITS
from ergoquench.ergotropy import ergotropy
from ergoquench.linalg import hermitian_eig, kron
from ergoquench.model import PAULI, STATE_CHUNK

from conftest import random_hermitian


def test_single_qubit_spectrum():
    vals, _ = hermitian_eig(build_hamiltonian(ModelSpec(n_qubits=1, field_h=0.1)))
    assert np.allclose(vals, [-0.1, 0.1], atol=1e-12)


def test_two_qubit_spectrum(h2):
    vals, _ = hermitian_eig(h2)
    assert np.allclose(vals, [-2.0, -0.2, 0.2, 2.0], atol=1e-12)


def test_discharged_state_energy_gap(h2):
    # E(|gg>) - E_ground = 2(1 - h): the parallel-dissipation plateau value
    vals, _ = hermitian_eig(h2)
    e_gg = h2[3, 3].real
    assert abs((e_gg - vals[0]) - 1.8) <= 1e-12


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("kind", sorted(PAULI))
def test_site_operator_equals_the_chained_kron(n, kind):
    spec = ModelSpec(n_qubits=n)
    for site in range(1, n + 1):
        reference = np.eye(1, dtype=complex)
        for k in range(1, n + 1):
            reference = kron(reference, PAULI[kind] if k == site else np.eye(2))
        assert np.array_equal(site_operator(spec, site, kind), reference)


@pytest.mark.parametrize("n", range(1, 5))
def test_hamiltonian_from_cached_site_operators_keeps_its_bytes(n):
    # the XX chain written out from fresh site operators, in the order it is summed
    for h_field in (0.0, 0.1, 0.37, 0.9, 2.5):
        spec = ModelSpec(n_qubits=n, field_h=h_field)
        expected = np.zeros((spec.dim, spec.dim), dtype=complex)
        for site in range(1, n):
            for kind in ("x", "y"):
                expected += site_operator(spec, site, kind) @ site_operator(spec, site + 1, kind)
        for site in range(1, n + 1):
            expected += h_field * site_operator(spec, site, "z")
        assert build_hamiltonian(spec).tobytes() == expected.tobytes()


def test_site_operators_are_cached_read_only_and_handed_out_fresh():
    from ergoquench.model import _site_operators
    cached = _site_operators(3, "x")
    assert cached is _site_operators(3, "x")
    assert not any(op.flags.writeable for op in cached)
    fresh = site_operator(ModelSpec(n_qubits=3, field_h=0.4), 2, "x")
    assert fresh.flags.writeable and np.array_equal(fresh, cached[1])
    fresh[0, 0] = 7.0
    assert cached[1][0, 0] == 0


def test_site_operator_placement(model2):
    assert np.array_equal(site_operator(model2, 1, "z"), kron(PAULI["z"], np.eye(2)))
    assert np.array_equal(site_operator(model2, 2, "minus"), kron(np.eye(2), PAULI["minus"]))


def test_lowering_nilpotent(model4):
    for site in range(1, 5):
        op = site_operator(model4, site, "minus")
        assert np.abs(op @ op).max() == 0.0


def test_disjoint_sites_commute(model2):
    z1 = site_operator(model2, 1, "z")
    z2 = site_operator(model2, 2, "z")
    assert np.abs(z1 @ z2 - z2 @ z1).max() == 0.0


def test_site_out_of_range(model2):
    with pytest.raises(ValueError):
        site_operator(model2, 3, "z")
    with pytest.raises(ValueError):
        site_operator(model2, 0, "x")


def test_collective_lowering_action(model2):
    ee = np.zeros(4)
    ee[0] = 1.0
    out = collective_operator(model2, "minus") @ ee
    expected = np.zeros(4)
    expected[1] = expected[2] = 1.0  # |eg> + |ge>
    assert np.allclose(out, expected, atol=1e-14)


@pytest.mark.parametrize("n", [2, 4])
def test_hamiltonian_commutes_with_sz(n):
    model = ModelSpec(n_qubits=n, field_h=0.1)
    h = build_hamiltonian(model)
    sz = collective_operator(model, "z")
    assert np.abs(h @ sz - sz @ h).max() <= 1e-12


def test_antisymmetric_state_is_dark(model2):
    dark = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    assert np.abs(collective_operator(model2, "minus") @ dark).max() <= 1e-14


def test_gibbs_infinite_temperature(h2):
    assert np.allclose(gibbs_state(h2, 0.0), np.eye(4) / 4.0, atol=1e-14)


def test_gibbs_zero_temperature_ground_projector(h2):
    rho = gibbs_state(h2, 1e6)
    ground = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    assert np.abs(rho - np.outer(ground, ground.conj())).max() <= 1e-9


def test_gibbs_single_qubit_closed_form():
    h = build_hamiltonian(ModelSpec(n_qubits=1, field_h=0.1))
    rho = gibbs_state(h, 1.0)
    p_g = np.exp(0.1) / (np.exp(0.1) + np.exp(-0.1))
    assert abs(rho[1, 1].real - p_g) <= 1e-14


@pytest.mark.parametrize("beta", [0.0, 0.2, 1.0, 5.0, 1e6])
def test_gibbs_is_valid_density_matrix(h4, beta):
    check_density_matrix(gibbs_state(h4, beta))


@pytest.mark.parametrize("n", [2, 4])
def test_gibbs_states_are_passive(n):
    h = build_hamiltonian(ModelSpec(n_qubits=n, field_h=0.1))
    for beta in (0.2, 0.5, 1.0, 2.0, 5.0):
        assert ergotropy(gibbs_state(h, beta), h).ergotropy < 1e-9


def test_gibbs_rejects_negative_beta(h2):
    with pytest.raises(ValueError):
        gibbs_state(h2, -0.5)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_gibbs_stack_has_the_bytes_of_single_calls(n):
    h = build_hamiltonian(ModelSpec(n_qubits=n, field_h=0.1))
    betas = np.array([0.0, 0.2, 1.0, 5.0, 1e4])
    stack = gibbs_state(h, betas)
    assert stack.shape == (len(betas), 2 ** n, 2 ** n)
    assert stack.tobytes() == b"".join(gibbs_state(h, beta).tobytes() for beta in betas)
    assert gibbs_state(h, (1.0,)).shape == (1, 2 ** n, 2 ** n)


@pytest.mark.parametrize("betas", [(-0.5, 1.0, 2.0), (0.2, 1.0, -1e-9)])
def test_gibbs_stack_rejects_a_negative_beta_anywhere(h2, betas):
    with pytest.raises(ValueError, match="beta must be >= 0"):
        gibbs_state(h2, np.array(betas))


def test_gibbs_refuses_an_empty_beta_array_or_hamiltonian_stack_by_name(h2):
    # an empty beta array once divided by zero choosing its chunk, and an empty stack of
    # H gave an empty stack of states
    with pytest.raises(ValueError, match=r"^beta must be a scalar or a non-empty 1-D array, "
                                         r"got shape \(0,\)"):
        gibbs_state(h2, np.array([]))
    with pytest.raises(ValueError, match=r"^h_matrix must hold at least one H, "
                                         r"got shape \(0, 4, 4\)"):
        gibbs_state(np.zeros((0, 4, 4)), np.array([0.5, 1.0]))


_NON_FINITE_INPUTS = {
    "t_max-inf": ("t_max", lambda h: TimeGrid(t_max=np.inf)),
    "t_max-nan": ("t_max", lambda h: TimeGrid(np.nan, 0.5)),
    "dt-nan": ("dt", lambda h: TimeGrid(10.0, np.nan)),
    "gamma-nan": ("gamma", lambda h: ChannelSpec(gamma=np.nan)),
    "gamma-inf": ("gamma", lambda h: ChannelSpec(gamma=np.inf)),
    "field_h-nan": ("field_h", lambda h: ModelSpec(n_qubits=2, field_h=np.nan)),
    "field_h-inf": ("field_h", lambda h: ModelSpec(n_qubits=2, field_h=np.inf)),
    "beta-nan": ("beta", lambda h: gibbs_state(h, np.nan)),
    "beta-inf": ("beta", lambda h: gibbs_state(h, np.inf)),
    "beta-stack-inf": ("beta", lambda h: gibbs_state(h, np.array([0.5, np.inf]))),
}


@pytest.mark.parametrize("case", list(_NON_FINITE_INPUTS))
def test_a_non_finite_spec_input_is_refused_by_name(h2, case):
    # NaN passes every `x < 0` test: a NaN gamma would have quenched with no jump at all
    field, make = _NON_FINITE_INPUTS[case]
    with pytest.raises(ValueError, match=rf"^{field} must be"):
        make(h2)


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(n_qubits=0)
    with pytest.raises(ValueError):
        ModelSpec(n_qubits=7)
    # the chain-size limit of the config and of build_liouvillian
    assert ModelSpec(n_qubits=MAX_QUBITS).dim == 16
    with pytest.raises(ValueError, match=r"n_qubits must be in 1\.\.4, got 5"):
        ModelSpec(n_qubits=5)
    with pytest.raises(ValueError):
        ModelSpec(n_qubits=2, field_h=-0.1)


def test_check_density_matrix_rejects_bad_states():
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([0.6, 0.6]).astype(complex))  # trace 1.2
    with pytest.raises(ValueError):
        check_density_matrix(np.array([[1.0, 0.5], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([1.5, -0.5]).astype(complex))  # negative weight


def test_check_density_matrix_rejects_a_nan_state():
    # NaN > tol is false: each check must flag what is not within its bound
    with pytest.raises(ValueError, match="Hermiticity defect nan > 1e-10"):
        check_density_matrix(np.diag([np.nan, 0.5, 0.5, 0.0]))


@pytest.mark.parametrize("bad,message", [
    (np.diag([0.6, 0.6]).astype(complex), "trace deviates from 1 by 2.000e-01 at index 2"),
    (np.array([[1.0, 0.5], [0.0, 0.0]], dtype=complex),
     "Hermiticity defect 5.000e-01 > 1e-10 at index 2"),
    (np.diag([1.5, -0.5]).astype(complex), "negative eigenvalue -5.000e-01 at index 2"),
    # Hermitian, unit trace and non-diagonal: only the spectrum shows the defect
    (np.array([[0.6, 0.8j], [0.8j, 0.6]]) @ np.diag([1.0 + 1e-5, -1e-5])
     @ np.array([[0.6, -0.8j], [-0.8j, 0.6]]), "negative eigenvalue -1.000e-05 at index 2"),
], ids=["trace", "hermiticity", "positivity", "small-negative-eigenvalue"])
def test_check_density_matrix_names_the_first_bad_member_of_a_stack(bad, message):
    good = np.diag([0.75, 0.25]).astype(complex)
    stack = np.array([good, good, bad, bad])
    with pytest.raises(ValueError) as caught:
        check_density_matrix(stack, context="stack")
    assert str(caught.value) == f"stack: {message}"
    check_density_matrix(stack[:2])
    with pytest.raises(ValueError) as caught:
        check_density_matrix(bad, context="single")
    assert str(caught.value) == "single: " + message.rsplit(" at index", 1)[0]


def test_gibbs_state_of_a_hamiltonian_stack_gives_each_member_its_own_bytes():
    # fig4's 50 fields and 50 betas (more members than one product chunk holds), and
    # random complex Hamiltonians of every chain dimension
    fields = np.linspace(0.0, 0.9, 50)
    betas = np.linspace(0.1, 3.0, 50)
    rng = np.random.default_rng(3)
    cases = [(np.stack([build_hamiltonian(ModelSpec(n_qubits=2, field_h=f)) for f in fields]),
              betas)]
    cases += [(np.stack([random_hermitian(rng, 2 ** n) for _ in range(3)]), betas[:4])
              for n in (1, 3, 4)]
    for hs, betas in cases:
        stack, (levels, vectors) = gibbs_state(hs, betas, with_eig=True)
        assert stack.shape == (len(hs), len(betas)) + hs.shape[1:]
        for p, h in enumerate(hs):
            own, (own_levels, own_vectors) = gibbs_state(h, betas, with_eig=True)
            assert stack[p].tobytes() == own.tobytes()
            assert levels[p].tobytes() == own_levels.tobytes() == hermitian_eig(h)[0].tobytes()
            assert vectors[p].tobytes() == own_vectors.tobytes() == hermitian_eig(h)[1].tobytes()
        scalar = gibbs_state(hs, betas[1])
        assert scalar.shape == hs.shape
        assert scalar.tobytes() == b"".join(gibbs_state(h, betas[1]).tobytes() for h in hs)


def test_check_density_matrix_reports_the_first_failure_of_the_first_check_across_chunks():
    good = np.diag([0.75, 0.25]).astype(complex)
    stack = np.array([good] * (3 * STATE_CHUNK))
    stack[STATE_CHUNK + 5] = np.diag([0.6, 0.6])  # trace, in the second chunk
    stack[2 * STATE_CHUNK + 7] = [[1.0, 0.5], [0.0, 0.0]]  # Hermiticity, in the third
    with pytest.raises(ValueError, match=rf"Hermiticity defect 5\.000e-01 > 1e-10 at index "
                                         rf"{2 * STATE_CHUNK + 7}$"):
        check_density_matrix(stack)
    # a stack per member names the member and the state
    with pytest.raises(ValueError, match=r"trace deviates from 1 by 2\.000e-01 at index \(1, 5\)$"):
        check_density_matrix(stack[:2 * STATE_CHUNK].reshape(2, STATE_CHUNK, 2, 2))


def test_check_density_matrix_holds_a_chunk_of_temporaries(h4):
    # fig4's 2,500 Gibbs states: the check's temporaries are a few chunks', not the stack's
    stack = gibbs_state(h4, np.linspace(0.1, 3.0, 2500))
    check_density_matrix(stack)
    tracemalloc.start()
    try:
        check_density_matrix(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stack.nbytes / 4
