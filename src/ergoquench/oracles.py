"""Closed-form solutions used to cross-validate the numerical engine.

Every routine here is an independent code path: the two-qubit sector
equations are hand-assembled 6x6 real systems integrated with a local
scaled-Taylor exponential (deliberately not the Pade kernel the engine
uses), the collective-channel results are explicit formulas, and the dark
subspace comes from the kernel of S^+ S^-.  The collective channel's own
6x6 sector system, which no experiment integrates, is kept with the test
references in tests/reference.py.  The sector solutions take a
whole time grid at once: exp(G t) for every grid time is one batched
Taylor evaluation of the (T, 6, 6) stack, still with the local kernel, and
each of the T states passes the same checks as a single one.

Two-qubit product basis indices, repo convention: |ee>=0, |eg>=1, |ge>=2,
|gg>=3; the tracked coherence c is the (|eg>, |ge>) matrix element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory
from .linalg import dagger, hermitian_eig, null_space_hermitian
from .model import ModelSpec, build_hamiltonian, collective_operator, gibbs_state

_BLOCK_SUM_TOL = 1e-8


def _expm_taylor(stack) -> np.ndarray:
    """Scaled Taylor-series exponential of each matrix of a (T, n, n) stack.

    Independent of the engine's kernel.  Matrices sharing a squaring count
    run as one batch; each keeps adding terms until its own last term falls
    below 1e-20, so every result equals that of a one-matrix stack.
    """
    a = np.asarray(stack, dtype=float)
    norms = np.abs(a).sum(axis=-2).max(axis=-1)
    squarings = np.zeros(len(a), dtype=int)
    big = norms > 0.5
    squarings[big] = np.ceil(np.log2(norms[big] / 0.5)).astype(int)
    out = np.empty_like(a)
    eye = np.eye(a.shape[-1])
    for count in np.unique(squarings):
        group = np.flatnonzero(squarings == count)
        scaled = a[group] / (2.0 ** count)
        result = np.empty_like(scaled)
        live = np.arange(len(group))  # members still adding terms
        total = np.broadcast_to(eye, scaled.shape)
        term = total
        for k in range(1, 40):
            term = term @ scaled / k
            total = total + term
            done = np.abs(term).max(axis=(-2, -1)) < 1e-20
            if done.any():
                result[live[done]] = total[done]
                keep = ~done
                live, term, total, scaled = live[keep], term[keep], total[keep], scaled[keep]
                if live.size == 0:
                    break
        result[live] = total
        for _ in range(count):
            result = result @ result
        out[group] = result
    return out


@dataclass(frozen=True)
class TwoQubitBlockState:
    """Excitation-sector variables of a two-qubit state: populations and c.

    Each field is a scalar, or a (T,) array for the state at T time points;
    every time point must pass the checks.
    """

    p_gg: float | np.ndarray
    p_eg: float | np.ndarray
    p_ge: float | np.ndarray
    p_ee: float | np.ndarray
    c: complex | np.ndarray

    def __post_init__(self):
        pops = np.array([self.p_gg, self.p_eg, self.p_ge, self.p_ee], dtype=float).reshape(4, -1)
        coherence = np.abs(np.asarray(self.c)).reshape(-1)
        total = pops[0] + pops[1] + pops[2] + pops[3]
        bound = np.sqrt(np.maximum(pops[1], 0.0) * np.maximum(pops[2], 0.0)) + 1e-10
        out_of_range = (pops.min(axis=0) < -1e-10) | (pops.max(axis=0) > 1.0 + 1e-10)
        off_sum = np.abs(total - 1.0) > _BLOCK_SUM_TOL
        too_coherent = coherence > bound
        bad = np.flatnonzero(out_of_range | off_sum | too_coherent)
        if bad.size == 0:
            return
        k = bad[0]  # the first failing time point, reported as a scalar state would be
        if out_of_range[k]:
            raise ValueError(f"populations out of [0,1]: {tuple(pops[:, k].tolist())}")
        if off_sum[k]:
            raise ValueError(f"populations sum to {total[k]}, expected 1")
        raise ValueError(f"|c| = {coherence[k]} exceeds sqrt(p_eg p_ge) = {bound[k]}")

    @classmethod
    def from_density(cls, rho) -> "TwoQubitBlockState":
        rho = np.asarray(rho)
        if rho.shape != (4, 4):
            raise ValueError(f"expected a 4x4 state, got {rho.shape}")
        return cls(p_gg=rho[3, 3].real, p_eg=rho[1, 1].real, p_ge=rho[2, 2].real,
                   p_ee=rho[0, 0].real, c=complex(rho[1, 2]))

    def to_density(self) -> np.ndarray:
        """The 4x4 state, or a (T, 4, 4) stack for a state at T time points."""
        rho = np.zeros(np.shape(self.p_gg) + (4, 4), dtype=complex)
        rho[..., 0, 0], rho[..., 1, 1] = self.p_ee, self.p_eg
        rho[..., 2, 2], rho[..., 3, 3] = self.p_ge, self.p_gg
        rho[..., 1, 2] = self.c
        rho[..., 2, 1] = np.conj(self.c)
        return rho

    def _vector(self) -> np.ndarray:
        return np.array([self.p_gg, self.p_eg, self.p_ge, self.p_ee,
                         self.c.real, self.c.imag])

    @classmethod
    def _from_vector(cls, y) -> "TwoQubitBlockState":
        """State from y = (p_gg, p_eg, p_ge, p_ee, Re c, Im c), or from a (T, 6) stack."""
        y = np.asarray(y, dtype=float)
        # a complex view of the (Re c, Im c) pair keeps both parts bit for bit
        c = np.ascontiguousarray(y[..., 4:6]).view(complex)[..., 0]
        return cls(p_gg=y[..., 0][()], p_eg=y[..., 1][()], p_ge=y[..., 2][()],
                   p_ee=y[..., 3][()], c=c[()])


# Generators on y = (p_gg, p_eg, p_ge, p_ee, Re c, Im c); unit coupling.

def _parallel_generator(gamma: float) -> np.ndarray:
    m = np.zeros((6, 6))
    m[0, 1] = m[0, 2] = gamma
    m[1, 1] = -gamma
    m[1, 3] = gamma
    m[1, 5] = -4.0
    m[2, 2] = -gamma
    m[2, 3] = gamma
    m[2, 5] = 4.0
    m[3, 3] = -2.0 * gamma
    m[4, 4] = -gamma
    m[5, 1] = 2.0
    m[5, 2] = -2.0
    m[5, 5] = -gamma
    return m


def _dephasing_generator(gamma: float) -> np.ndarray:
    m = np.zeros((6, 6))
    m[1, 5] = -4.0
    m[2, 5] = 4.0
    m[4, 4] = -4.0 * gamma
    m[5, 1] = 2.0
    m[5, 2] = -2.0
    m[5, 5] = -4.0 * gamma
    return m


def _times(t) -> np.ndarray:
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"t must be a time or a 1-D array of times, got shape {times.shape}")
    return times


def _evolve_block(generator, init, t):
    """exp(G t) y(0) of one initial state, or a list of them for a sequence of initial states.

    The (T, 6, 6) stack exp(G t) is built once per call, so each state of
    a sequence gets the same bytes as from a call of its own.
    """
    times = _times(t)
    stack = _expm_taylor(generator * times.reshape(-1, 1, 1))

    def solution(state: TwoQubitBlockState) -> TwoQubitBlockState:
        y = stack @ state._vector()
        return TwoQubitBlockState._from_vector(y.reshape(times.shape + (6,)))

    if isinstance(init, TwoQubitBlockState):
        return solution(init)
    return [solution(state) for state in init]


def two_qubit_parallel_block(init, gamma: float, t):
    """Exact sector solution for two parallel dissipative channels.

    t is a time or a 1-D array of times (then every field is a (T,) array);
    the same holds for the other sector solutions below.  init is one
    TwoQubitBlockState, or a sequence of them for a list of solutions that
    share one exp(G t) stack, here and in `dephasing_two_qubit_block`.
    """
    return _evolve_block(_parallel_generator(gamma), init, t)


def dephasing_two_qubit_block(init, gamma: float, t):
    """Exact sector solution for two parallel dephasing channels.

    Populations are frozen; the two-site coherence mixes with the
    one-excitation populations while decaying at rate 4*gamma.
    """
    return _evolve_block(_dephasing_generator(gamma), init, t)


def two_qubit_collective_sc(init: TwoQubitBlockState, gamma: float, t) -> tuple:
    """Closed form for s(t) = p_eg + p_ge and c(t) under collective dissipation.

        s(t) = 2 g p_ee(0) t e^{-2gt} + s(0)/2 (1 + e^{-2gt}) + c(0)(e^{-2gt} - 1)
        c(t) =   g p_ee(0) t e^{-2gt} + s(0)/4 (e^{-2gt} - 1) + c(0)/2 (e^{-2gt} + 1)

    Valid for real initial coherence (always true for thermal input).  A
    scalar t gives two floats, a 1-D array of times two (T,) arrays.
    """
    if abs(init.c.imag) > 1e-12:
        raise ValueError("closed form requires a real initial coherence")
    t = _times(t)
    c0 = init.c.real
    s0 = init.p_eg + init.p_ge
    decay = np.exp(-2.0 * gamma * t)
    s_t = 2.0 * gamma * init.p_ee * t * decay + 0.5 * s0 * (1.0 + decay) + c0 * (decay - 1.0)
    c_t = gamma * init.p_ee * t * decay + 0.25 * s0 * (decay - 1.0) + 0.5 * c0 * (decay + 1.0)
    return s_t[()], c_t[()]


def steady_s_infinity(beta: float, h: float) -> float:
    """Surviving one-excitation weight e^{2 beta} / Z of the collective steady state.

    Z = e^{2 beta} + e^{-2 beta} + e^{2 beta h} + e^{-2 beta h}.  Numerator
    and Z are divided by e^{2 beta} and then by the largest of the four
    terms left, so every exponential is at most 1 and no beta or h
    overflows.  For beta >= 0 and h <= 1 that largest term is the first,
    e^0, and the quotient is 1 / (1 + e^{-4 beta} + e^{-2 beta (1 - h)} +
    e^{-2 beta (1 + h)}), summed left to right.
    """
    powers = (0.0, -4.0 * beta, -2.0 * beta * (1.0 - h), -2.0 * beta * (1.0 + h))
    top = max(powers)
    terms = [np.exp(p - top) for p in powers]
    return float(np.exp(-top) / (terms[0] + terms[1] + terms[2] + terms[3]))


def collective_steady_spectrum(beta: float, h: float) -> np.ndarray:
    """Ascending eigenvalues {0, 0, 1 - s_inf, s_inf} of the collective steady state."""
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    s = steady_s_infinity(beta, h)
    return np.sort(np.array([0.0, 0.0, 1.0 - s, s]))


def steady_state_is_passive(beta, h: float):
    """Passivity of the two-qubit collective steady state: sinh(2b) >= cosh(2bh).

    A scalar beta gives a bool, an array of betas a bool array of its shape.
    """
    beta = np.asarray(beta, dtype=float)
    passive = np.sinh(2.0 * beta) >= np.cosh(2.0 * beta * h)
    return bool(passive) if passive.ndim == 0 else passive


def beta_critical(h: float) -> float:
    """Positive root of sinh(2b) = cosh(2bh), by bracketing bisection on (0, 20]."""
    if not 0.0 <= h < 1.0:
        raise ValueError(f"h must be in [0, 1), got {h}")

    def f(b):
        return np.sinh(2.0 * b) - np.cosh(2.0 * b * h)

    lo, hi = 1e-12, 20.0
    if not (f(lo) < 0.0 < f(hi)):
        raise ValueError("no sign change in the bisection bracket")
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class DarkSubspace:
    """Orthonormal kernel of S^+ S^- (columns of `basis`) and its projector."""

    basis: np.ndarray
    projector: np.ndarray

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]


def dark_subspace(model: ModelSpec) -> DarkSubspace:
    """States annihilated by the collective lowering operator."""
    lowering = collective_operator(model, "minus")
    basis = null_space_hermitian(dagger(lowering) @ lowering)
    return DarkSubspace(basis=basis, projector=basis @ dagger(basis))


def p_dark(beta, model: ModelSpec):
    """Thermal population inside the dark subspace, Tr[P_dark rho_beta].

    beta is a scalar, giving a float, or a 1-D array of B, giving a (B,)
    array whose entries have the bytes of the scalar calls.  H and the
    dark subspace are built from model, each decomposed once per call.
    """
    states = gibbs_state(build_hamiltonian(model), np.atleast_1d(beta))  # which checks beta
    projector = dark_subspace(model).projector
    # one state at a time: no stack-sized product is held beside the Gibbs stack
    pops = np.array([np.trace(projector @ rho).real for rho in states])
    return pops if np.ndim(beta) else float(pops[0])


def p_dark_derivative(beta, model: ModelSpec):
    """d p_dark / d beta = -(<H>_dark - <H>) p_dark in the H eigenbasis, beta as for `p_dark`."""
    betas = np.asarray(beta, dtype=float)
    if betas.ndim > 1 or np.any(betas < 0):
        raise ValueError(f"beta must be >= 0, a scalar or a 1-D array, got {beta}")
    levels, vecs = hermitian_eig(build_hamiltonian(model))
    weights = np.exp(-betas[..., None] * (levels - levels[0]))
    proj_diag = np.real(np.einsum("ik,ij,jk->k", vecs.conj(), dark_subspace(model).projector, vecs))
    pop = (proj_diag * weights).sum(axis=-1) / weights.sum(axis=-1)
    mean_h = (levels * weights).sum(axis=-1) / weights.sum(axis=-1)
    mean_h_dark = (proj_diag * levels * weights).sum(axis=-1) / (proj_diag * weights).sum(axis=-1)
    slope = -(mean_h_dark - mean_h) * pop
    return slope if betas.ndim else float(slope)


def dark_population_series(traj: Trajectory, dark: DarkSubspace) -> np.ndarray:
    """Tr[P_dark rho(t)] along a trajectory, read by `Trajectory.expect`."""
    return traj.expect(dark.projector)
