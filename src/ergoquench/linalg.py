"""Dense complex matrix kernel.

Everything downstream (operators, Liouvillians, propagators, spectra) is
built on the routines in this module: Kronecker products, Hermitian
eigendecomposition (with eigenvectors, or eigenvalues only), the linear
solve, the matrix exponential and Hermitian null spaces.

The eigendecompositions and the linear solve are LAPACK's, through
``numpy.linalg``; this module adds the Hermiticity check, symmetrization and
the translation of failures into `LinalgError`.  Readers that need only a
spectrum (the CPTP screen and the density-matrix check) take the
values-only `hermitian_eigvals_batch`, which skips the eigenvectors and
reads an already-Hermitian stack as it is.  numpy has no matrix
exponential, so `expm` is Pade(13) scaling-and-squaring, implemented here,
of one matrix or of a stack at once.
`kron` is numpy's broadcast product of two matrices without np.kron's
general-rank wrapper; it builds the site operators.  States are at most
16x16.  Superoperators are assembled and exponentiated one invariant
block at a time (see `channels`), the same block of many generators in
one stacked call: 70x70 at most for the experiments' four-qubit Gibbs
inputs (1, 16, 36, 16, 1 under pure dephasing), 6x6 at two qubits.
numpy's stacked matmul and solve call BLAS and LAPACK once per matrix, so
a stacked product or solve gives each matrix the bytes of its own 2-D
call.
"""

from __future__ import annotations

import numpy as np

# Tolerances, fixed repo-wide.
HERM_TOL = 1e-12   # admissible Hermiticity defect of eigensolver inputs
NULL_TOL = 1e-10   # eigenvalue cutoff for null spaces


class LinalgError(RuntimeError):
    """Raised when a kernel routine cannot satisfy its contract."""


def kron(a, b) -> np.ndarray:
    """Kronecker product with the left factor as the slow index.

    (a (x) b)[i*P + k, j*Q + l] = a[i, j] * b[k, l] for b of shape (P, Q);
    chains built left-to-right put site 1 in the leftmost factor.  Both
    factors must be matrices.  The entries are the products np.kron forms,
    by the same broadcast multiply, without its per-call dispatch.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2:
        raise LinalgError(f"kron expects two matrices, got shapes {a.shape} and {b.shape}")
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def dagger(m) -> np.ndarray:
    """Conjugate transpose (of a matrix or a batch of matrices)."""
    m = np.asarray(m)
    return np.conj(np.swapaxes(m, -1, -2))


def hermitian_eig(m):
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    m : (D, D) array_like
        Hermitian within HERM_TOL (relative to its largest entry); the
        input is symmetrized before the decomposition.

    Returns
    -------
    vals : (D,) float ndarray, ascending
    vecs : (D, D) complex ndarray, unitary, columns are eigenvectors

    Raises
    ------
    LinalgError
        If the input is not finite, or not Hermitian within tolerance.
    """
    vals, vecs = hermitian_eig_batch(np.asarray(m, dtype=complex)[None])
    return vals[0], vecs[0]


def hermitian_eig_batch(ms):
    """`hermitian_eig` of every matrix in a (B, D, D) batch, by ``numpy.linalg.eigh``.

    Returns (B, D) eigenvalues, ascending along each row, and the (B, D, D)
    unitary matrices whose columns are the matching eigenvectors.
    """
    a = np.array(ms, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise LinalgError(f"expected a (B, D, D) batch, got shape {a.shape}")
    adj = dagger(a)
    # an exactly Hermitian batch (a screened stack of states) needs no defect temporaries
    if not np.array_equal(a, adj):
        defect = float(np.abs(a - adj).max())
        scale = max(1.0, float(np.abs(a).max()))
        if defect > HERM_TOL * scale:
            raise LinalgError(
                f"input not Hermitian: defect {defect:.3e} exceeds "
                f"{HERM_TOL:.0e} * scale")
    # eigh reads one triangle only; symmetrizing makes the result that of
    # the Hermitian part rather than of whichever triangle LAPACK picks.
    a += adj
    del adj  # free one batch-sized temporary before eigh allocates its outputs
    # a NaN defect passes the test above, and a complex inf times 0.5 below would warn
    if not np.isfinite(a).all():
        raise LinalgError("Hermitian eigendecomposition input has non-finite entries")
    a *= 0.5
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise LinalgError(f"Hermitian eigendecomposition failed: {exc}") from exc
    return vals, vecs


def hermitian_eigvals_batch(ms) -> np.ndarray:
    """Ascending eigenvalues of every matrix in a (B, D, D) batch, by ``numpy.linalg.eigvalsh``.

    The batch must already be Hermitian (say, symmetrized by the caller):
    it is neither copied nor checked nor symmetrized again, and eigvalsh
    reads its lower triangle only.  Returns a (B, D) float array.
    """
    a = np.asarray(ms)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise LinalgError(f"expected a (B, D, D) batch, got shape {a.shape}")
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise LinalgError(f"Hermitian eigenvalue computation failed: {exc}") from exc


def solve(a, b) -> np.ndarray:
    """Solve a x = b by LU with partial pivoting.

    a is (N, N) with b of shape (N,) or (N, K), or a is a (P, N, N) stack
    with b a (P, N, K) one, each system solved as it would be alone.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if (a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]
            or b.ndim not in ((1, 2) if a.ndim == 2 else (3,))
            or b.shape[:a.ndim - 1] != a.shape[:-1]):
        raise LinalgError(f"incompatible shapes {a.shape} and {b.shape}")
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise LinalgError(f"singular matrix in solve(): {exc}") from exc


# Pade(13) numerator coefficients (Higham's scaling-and-squaring method).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def expm(m) -> np.ndarray:
    """Matrix exponential by Pade(13) with scaling and squaring, of one matrix or of a stack.

    m is one (n, n) matrix or a (P, n, n) stack, and the result has its
    shape.  Each matrix of a stack is scaled by the power of two its own
    one-norm asks for and squared back as many times, and every product
    and the solve act on each matrix as on it alone, so expm(stack)[k] has
    the bytes of expm(stack[k]).  The result is accurate to rounding, not
    exact: exp(0) reads 1 - 2^-53 on the diagonal (the Pade solve of
    (v - u) x = v + u with u = 0 and v = b_0 I), so a 1x1 block with
    L_b = 0 loses one ulp per jump.
    """
    a = np.asarray(m, dtype=complex)
    shape = a.shape
    if a.ndim not in (2, 3) or shape[-1] != shape[-2]:
        raise LinalgError(f"expm expects a square matrix or a (P, n, n) stack, got {shape}")
    if not np.all(np.isfinite(a)):
        raise LinalgError("expm input has non-finite entries")
    n = shape[-1]
    a = a.reshape(-1, n, n)
    norms = np.abs(a).sum(axis=1).max(axis=1, initial=0.0)  # each matrix's one-norm
    squarings = np.zeros(len(a), dtype=int)
    big = norms > _THETA13
    squarings[big] = np.ceil(np.log2(norms[big] / _THETA13))
    a = a / (2.0 ** squarings)[:, None, None]

    b = _PADE13
    eye = np.eye(n, dtype=complex)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    del a, a2, a4, a6  # the powers go before the solve's operands and workspace
    x = solve(v - u, v + u)
    for done in range(squarings.max(initial=0)):
        more = np.flatnonzero(squarings > done)
        x[more] = x[more] @ x[more]
    return x.reshape(shape)


def null_space_hermitian(m) -> np.ndarray:
    """Orthonormal basis of the small-eigenvalue subspace of a Hermitian PSD matrix.

    Returns the eigenvectors whose eigenvalue is below NULL_TOL as the
    columns of a (D, k) array (k may be zero).
    """
    vals, vecs = hermitian_eig(m)
    return vecs[:, vals < NULL_TOL]
