import numpy as np
import pytest

from ergoquench import (ModelSpec, build_hamiltonian, check_density_matrix,
                        collective_operator, gibbs_state, site_operator)
from ergoquench.ergotropy import ergotropy
from ergoquench.linalg import hermitian_eig, kron
from ergoquench.model import PAULI


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


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("kind", sorted(PAULI))
def test_site_operator_equals_the_chained_kron(n, kind):
    spec = ModelSpec(n_qubits=n)
    for site in range(1, n + 1):
        reference = np.eye(1, dtype=complex)
        for k in range(1, n + 1):
            reference = kron(reference, PAULI[kind] if k == site else np.eye(2))
        assert np.array_equal(site_operator(spec, site, kind), reference)


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


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(n_qubits=0)
    with pytest.raises(ValueError):
        ModelSpec(n_qubits=7)
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
