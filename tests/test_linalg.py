import numpy as np
import pytest

from ergoquench.linalg import (LinalgError, dagger, expm, hermitian_eig,
                               hermitian_eig_batch, hermitian_eigvals_batch,
                               null_space_hermitian, solve)
from ergoquench.model import PAULI, gibbs_state

from conftest import random_hermitian


def test_eig_sigma_z():
    vals, _ = hermitian_eig(PAULI["z"])
    assert np.allclose(vals, [-1.0, 1.0], atol=1e-14)


def test_eig_identity():
    vals, vecs = hermitian_eig(np.eye(8, dtype=complex))
    assert np.allclose(vals, 1.0, atol=1e-14)
    assert np.abs(dagger(vecs) @ vecs - np.eye(8)).max() <= 1e-14


def test_eig_reconstruction_random_8x8():
    rng = np.random.default_rng(5)
    m = random_hermitian(rng, 8)
    vals, vecs = hermitian_eig(m)
    scale = np.abs(vals).max()
    assert np.abs((vecs * vals) @ dagger(vecs) - m).max() <= 1e-10 * scale
    assert np.abs(m @ vecs - vecs * vals).max() <= 1e-10 * scale


def test_eig_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(LinalgError):
        hermitian_eig(bad)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
def test_eig_rejects_a_non_finite_entry(value, where):
    # a NaN defect once passed the Hermiticity test and gave NaN levels, vectors and
    # Gibbs states; an inf reached eigh and warned
    bad = np.eye(2, dtype=complex)
    bad[where] = value
    with pytest.raises(LinalgError, match="non-finite entries"):
        hermitian_eig(bad)
    with pytest.raises(LinalgError, match="non-finite entries"):
        gibbs_state(bad, 1.0)
    with pytest.raises(LinalgError, match="non-finite entries"):
        hermitian_eig(np.full((2, 2), np.nan))


@pytest.mark.parametrize("upper,lower", [(np.inf, -np.inf), (np.inf, complex(np.inf, 1.0)),
                                         (complex(0.0, np.inf), complex(0.0, np.inf))])
def test_eig_refuses_infinities_its_adjoint_cancels_without_a_warning(upper, lower):
    # inf - inf in the Hermiticity defect or in a + a^H once warned (an error under the
    # suite's filterwarnings) before the finiteness check refused the input
    bad = np.array([[0.0, upper], [lower, 0.0]], dtype=complex)
    with pytest.raises(LinalgError, match="non-finite entries"):
        hermitian_eig(bad)


def test_eig_values_ascending():
    rng = np.random.default_rng(17)
    vals, _ = hermitian_eig(random_hermitian(rng, 12))
    assert np.all(np.diff(vals) >= 0)


def test_eig_residual_sweep_1000_matrices():
    # dims cycling 2..16; residual relative to the spectral norm stays < 1e-10
    rng = np.random.default_rng(23)
    by_dim = {}
    for k in range(1000):
        d = 2 + k % 15
        by_dim.setdefault(d, []).append(random_hermitian(rng, d))
    worst = 0.0
    for d, mats in by_dim.items():
        mats = np.array(mats)
        vals, vecs = hermitian_eig_batch(mats)
        residual = np.abs(mats @ vecs - vecs * vals[:, None, :]).max(axis=(1, 2))
        spectral = np.abs(vals).max(axis=1)
        worst = max(worst, float((residual / spectral).max()))
        assert np.abs(dagger(vecs) @ vecs - np.eye(d)).max() <= 1e-10
        # the values-only routine reads the same (exactly Hermitian) matrices
        assert (np.abs(hermitian_eigvals_batch(mats) - vals).max(axis=1) / spectral).max() <= 1e-14
    assert worst < 1e-10


@pytest.mark.parametrize("ms,match", [
    (np.eye(3), "expected a \\(B, D, D\\) batch"),
    (np.zeros((2, 3, 4)), "expected a \\(B, D, D\\) batch"),
    (np.full((1, 3, 3), np.nan + 0j), "eigenvalue computation failed"),
], ids=["matrix", "non-square", "nan"])
def test_eigvals_batch_rejects_what_it_cannot_decompose(ms, match):
    with pytest.raises(LinalgError, match=match):
        hermitian_eigvals_batch(ms)


def test_expm_zero():
    assert np.allclose(expm(np.zeros((3, 3))), np.eye(3), atol=1e-15)


def test_expm_diagonal():
    out = expm(np.diag([1.0, -2.0]).astype(complex))
    assert np.allclose(out, np.diag([np.e, np.exp(-2.0)]), atol=1e-14)


def test_expm_nilpotent():
    out = expm(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    assert np.allclose(out, [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)


def test_expm_inverse_identity():
    rng = np.random.default_rng(31)
    for dim in (2, 6, 16):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        prod = expm(m) @ expm(-m)
        assert np.abs(prod - np.eye(dim)).max() <= 1e-9


def test_expm_anti_hermitian_is_unitary():
    rng = np.random.default_rng(37)
    for dim in (2, 8, 16, 32):
        for scale in (0.5, 5.0, 50.0):
            a = 1j * scale * random_hermitian(rng, dim)
            u = expm(a)
            assert np.abs(dagger(u) @ u - np.eye(dim)).max() <= 1e-9


def _same_bytes(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("n", [1, 6, 16, 70])
def test_expm_of_a_stack_gives_each_matrix_the_bytes_of_its_own_call(n):
    # anti-Hermitian, one-norms from 0 to ~1e4: from no squaring up to about 11,
    # each matrix its own count
    rng = np.random.default_rng(n)
    stack = np.array([1j * scale * random_hermitian(rng, n)
                      for scale in (0.0, 0.1, 1.0, 10.0, 300.0, 3000.0)])
    together = expm(stack)
    assert together.shape == stack.shape
    for k, m in enumerate(stack):
        assert _same_bytes(together[k], expm(m))
    assert np.allclose(together[0], np.eye(n), rtol=0, atol=1e-15)


def test_expm_refuses_what_is_not_a_matrix_or_a_stack():
    for bad in (np.ones(3), np.ones((2, 3)), np.ones((2, 3, 4)), np.ones((1, 2, 2, 2))):
        with pytest.raises(LinalgError, match="expm expects"):
            expm(bad)


@pytest.mark.parametrize("n", [1, 4, 6, 16, 36, 70])
def test_stacked_blas_and_lapack_calls_give_the_bytes_of_per_matrix_calls(n):
    # the premise of the stacked expm and of the many-point jump: numpy calls BLAS and
    # LAPACK once per matrix of a stack, so a numpy or BLAS build that does otherwise
    # fails here rather than as a changed CSV
    rng = np.random.default_rng(100 + n)
    a = rng.normal(size=(5, n, n)) + 1j * rng.normal(size=(5, n, n))
    b = rng.normal(size=(5, n, n)) + 1j * rng.normal(size=(5, n, n))
    v = rng.normal(size=(5, 3, n)) + 1j * rng.normal(size=(5, 3, n))
    products, squares, solved = a @ b, a @ a, solve(a, b)
    applied = np.matmul(a[:, None], v[..., None])[..., 0]
    for k in range(5):
        assert _same_bytes(products[k], a[k] @ b[k])
        assert _same_bytes(squares[k], a[k] @ a[k])
        assert _same_bytes(solved[k], solve(a[k], b[k]))
        for j in range(3):
            assert _same_bytes(applied[k, j], a[k] @ v[k, j].copy())


def test_null_space_diag():
    basis = null_space_hermitian(np.diag([0.0, 1.0]).astype(complex))
    assert basis.shape == (2, 1)
    assert np.allclose(np.abs(basis[:, 0]), [1.0, 0.0], atol=1e-14)


def test_null_space_empty_for_positive_definite():
    rng = np.random.default_rng(41)
    m = random_hermitian(rng, 4)
    m = m @ dagger(m) + np.eye(4)
    assert null_space_hermitian(m).shape == (4, 0)


def test_solve_random_system():
    rng = np.random.default_rng(43)
    a = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    b = rng.normal(size=(10, 3)) + 1j * rng.normal(size=(10, 3))
    x = solve(a, b)
    assert np.abs(a @ x - b).max() <= 1e-10
    v = solve(a, b[:, 0])
    assert np.abs(a @ v - b[:, 0]).max() <= 1e-10


def test_solve_failures_raise_linalg_error():
    with pytest.raises(LinalgError):
        solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))
    with pytest.raises(LinalgError):
        solve(np.eye(3), np.ones(2))
    with pytest.raises(LinalgError):
        solve(np.ones((2, 3)), np.ones(2))
    with pytest.raises(LinalgError):  # a stack takes a stack of right-hand sides
        solve(np.ones((2, 3, 3)), np.ones((2, 3)))
    with pytest.raises(LinalgError):
        solve(np.ones((2, 3, 3)), np.ones((3, 3, 1)))
