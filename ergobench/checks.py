"""Independent correctness checks for every CSV the workloads write.

Nothing here calls the package: Hamiltonians, Gibbs states and the dark
subspace are rebuilt with numpy.kron and numpy.linalg.eigh, and the
expected row layout follows the package defaults restated in
`workloads`.  The checks hold for every seed `workloads.params_for` can
draw; no steady value is pinned to a stored number.

`check_csv` returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from workloads import Params, betas_for

SUM_TOL = 1e-9           # probability sums, ergotropy bookkeeping, negativity floor
REFERENCE_TOL = 1e-9     # agreement with the independent numpy references
PLATEAU_TOL = 1e-3       # fig2's final ergotropy against the |g..g> value
APPC_BOUNDS = {"parallel_block": 1e-8, "collective_sc": 1e-8,
               "dephasing_block": 1e-8, "collective_steady_spectrum": 1e-6}
STEADY_ERGOTROPY_EPS = 1e-4

TRAJECTORY_COLUMNS = ["time", "energy", "passive_energy", "ergotropy"]
DEFAULT_GRID = (800.0, 0.5)          # (t_max, dt)
INTERP_ALPHAS = tuple(round(0.1 * k, 1) for k in range(11))
MIXING_ALPHAS = (0.0, 0.3, 0.5, 0.7, 0.9, 1.0)
CHANNEL_PANELS = (("parallel-hot", 0.2), ("parallel-cold", 5.0), ("collective-hot", 0.2))
JC_RATIOS = (1.0, 5.0, 10.0, 20.0, 50.0, 100.0)
TEXT_COLUMNS = {"panel", "quantity", "crossing_pair"}

# --- independent references ---------------------------------------------------

# Qubit basis (|e>, |g>): sigma_z|e> = +|e>, sigma_minus|e> = |g>.
_PAULI = {"x": np.array([[0, 1], [1, 0]], dtype=complex),
          "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
          "z": np.array([[1, 0], [0, -1]], dtype=complex),
          "minus": np.array([[0, 0], [1, 0]], dtype=complex)}


def _site(n: int, site: int, kind: str) -> np.ndarray:
    op = np.eye(1, dtype=complex)
    for k in range(n):
        op = np.kron(op, _PAULI[kind] if k == site else np.eye(2))
    return op


@lru_cache(maxsize=None)
def hamiltonian(n: int, h: float) -> np.ndarray:
    """Open XX chain with unit coupling: sum(xx + yy) + h sum(z)."""
    out = sum(_site(n, k, p) @ _site(n, k + 1, p) for k in range(n - 1) for p in "xy")
    return out + h * sum(_site(n, k, "z") for k in range(n))


@lru_cache(maxsize=None)
def _eigh(n: int, h: float):
    return np.linalg.eigh(hamiltonian(n, h))


def levels(n: int, h: float) -> np.ndarray:
    return _eigh(n, h)[0]


def gibbs_weights(n: int, h: float, beta: float) -> np.ndarray:
    """Boltzmann weights over the ascending levels of H."""
    eps = levels(n, h)
    w = np.exp(-beta * (eps - eps[0]))
    return w / w.sum()


@lru_cache(maxsize=None)
def _dark_projector(n: int) -> np.ndarray:
    lower = sum(_site(n, k, "minus") for k in range(n))
    vals, vecs = np.linalg.eigh(lower.conj().T @ lower)
    basis = vecs[:, vals < 1e-9]
    return basis @ basis.conj().T


def p_dark(n: int, h: float, beta: float) -> tuple[float, float]:
    """Thermal dark-subspace population and its beta derivative.

    d/dbeta Tr[P e^{-beta H}]/Z = -Tr[P H rho] + Tr[P rho] Tr[H rho].
    """
    eps, vecs = _eigh(n, h)
    rho = (vecs * gibbs_weights(n, h, beta)) @ vecs.conj().T
    proj = _dark_projector(n)
    p = float(np.trace(proj @ rho).real)
    mean_h = float(np.trace(hamiltonian(n, h) @ rho).real)
    dp = -float(np.trace(proj @ hamiltonian(n, h) @ rho).real) + p * mean_h
    return p, dp


# --- table access ----------------------------------------------------------------

class CheckFailure(Exception):
    """A structural problem that makes the remaining checks meaningless."""


class Table:
    def __init__(self, path: str):
        try:
            with open(path, encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise CheckFailure(f"cannot read {path}: {exc}") from None
        if not lines:
            raise CheckFailure("empty file")
        self.header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        if any(len(row) != len(self.header) for row in rows):
            raise CheckFailure("ragged rows")
        self.cells = np.array(rows, dtype=str).reshape(len(rows), len(self.header))
        numeric = [k for k, name in enumerate(self.header) if name not in TEXT_COLUMNS]
        try:
            values = self.cells[:, numeric].astype(float)
        except ValueError:
            raise CheckFailure("non-numeric cell in a numeric column") from None
        if not np.all(np.isfinite(values)):
            raise CheckFailure("non-finite numeric cell")
        self._numeric = {self.header[k]: values[:, i] for i, k in enumerate(numeric)}

    def __len__(self) -> int:
        return self.cells.shape[0]

    def col(self, name: str) -> np.ndarray:
        return self._numeric[name]

    def cols(self, prefix: str) -> np.ndarray:
        names = [c for c in self.header if c.startswith(prefix)]
        return np.stack([self._numeric[c] for c in names], axis=1)

    def text(self, name: str) -> np.ndarray:
        return self.cells[:, self.header.index(name)]


class Problems(list):
    def expect(self, ok, message: str) -> None:
        if not bool(ok):
            self.append(message)


def _max_dev(a, b) -> float:
    return float(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)).max())


def _lambdas(n: int):
    return [f"lambda_{k}" for k in range(2 ** n)]


# --- trajectory CSVs -----------------------------------------------------------------

def _check_trajectories(table: Table, problems: Problems, h: float, blocks, grid,
                        key_columns) -> None:
    """Shared checks of fig2/3/5/6/8, appB-channels and appD.

    blocks: one (n_qubits, beta, key values) triple per stored trajectory,
    in file order, each spanning t_max/dt + 1 rows.
    """
    t_max, dt = grid
    nt = round(t_max / dt) + 1
    problems.expect(len(table) == nt * len(blocks),
                    f"{len(table)} rows, expected {nt * len(blocks)}")
    if problems:
        return
    erg = table.col("ergotropy")
    energy = table.col("energy")
    problems.expect(_max_dev(erg, energy - table.col("passive_energy")) <= SUM_TOL,
                    "ergotropy != energy - passive_energy")
    problems.expect(erg.min() >= 0.0, f"negative ergotropy {erg.min():.3e}")
    spectral = any(c.startswith("lambda_") for c in table.header)
    if spectral:
        lam = table.cols("lambda_")
        problems.expect(np.all(np.diff(lam, axis=1) <= 0.0), "lambda_k not descending")
        problems.expect(_max_dev(lam.sum(axis=1), 1.0) <= SUM_TOL, "lambda_k do not sum to 1")
        problems.expect(lam.min() >= -SUM_TOL, f"negative lambda {lam.min():.3e}")
    times = np.arange(nt) * dt
    for b, (n, beta, keys) in enumerate(blocks):
        rows = slice(b * nt, (b + 1) * nt)
        for name, value in zip(key_columns, keys):
            if name in TEXT_COLUMNS:
                problems.expect(np.all(table.text(name)[rows] == value), f"{name} != {value}")
            else:
                problems.expect(_max_dev(table.col(name)[rows], value) == 0.0,
                                f"{name} != {value} in block {b}")
        problems.expect(_max_dev(table.col("time")[rows], times) <= 1e-9,
                        f"time grid mismatch in block {b}")
        weights = gibbs_weights(n, h, beta)
        eps = levels(n, h)
        problems.expect(abs(energy[b * nt] - weights @ eps) <= REFERENCE_TOL,
                        f"initial energy is not the Gibbs energy (beta={beta})")
        if spectral:
            lam = table.cols("lambda_")[rows]
            problems.expect(_max_dev(lam[0], np.sort(weights)[::-1]) <= REFERENCE_TOL,
                            f"initial spectrum is not the Gibbs spectrum (beta={beta})")
            problems.expect(_max_dev(lam @ eps, table.col("passive_energy")[rows])
                            <= REFERENCE_TOL,
                            f"passive_energy != sorted spectrum . levels (beta={beta})")


def _beta_sweep(name: str, n: int, dark: bool = False):
    def check(table: Table, params: Params, problems: Problems) -> None:
        betas = betas_for(name, params)
        header = (["beta"] + TRAJECTORY_COLUMNS + (["p_dark"] if dark else [])
                  + _lambdas(n))
        problems.expect(table.header == header, f"header {table.header}")
        if problems:
            return
        blocks = [(n, beta, (beta,)) for beta in betas]
        _check_trajectories(table, problems, params.h, blocks, DEFAULT_GRID, ["beta"])
        if problems:
            return
        nt = len(table) // len(betas)
        if name == "fig2":
            # parallel dissipation empties into |g..g>, whose ergotropy is
            # its energy minus the ground energy
            plateau = hamiltonian(n, params.h)[-1, -1].real - levels(n, params.h)[0]
            final = table.col("ergotropy")[nt - 1::nt]
            problems.expect(_max_dev(final, plateau) <= PLATEAU_TOL,
                            f"final ergotropy {final} != |g..g> ergotropy {plateau:.6f}")
        if dark:
            pd = table.col("p_dark")
            problems.expect(pd.min() >= -SUM_TOL and pd.max() <= 1 + SUM_TOL,
                            "p_dark outside [0, 1]")
            initial = [p_dark(n, params.h, beta)[0] for beta in betas]
            problems.expect(_max_dev(pd[::nt], initial) <= REFERENCE_TOL,
                            "initial p_dark is not the thermal dark population")
    return check


def _check_fig8(table: Table, params: Params, problems: Problems) -> None:
    problems.expect(table.header == ["n_qubits", "beta"] + TRAJECTORY_COLUMNS,
                    f"header {table.header}")
    if problems:
        return
    blocks = [(n, beta, (n, beta)) for n in (2, 4) for beta in betas_for("fig8", params)]
    _check_trajectories(table, problems, params.h, blocks, DEFAULT_GRID, ["n_qubits", "beta"])


def _check_appb_channels(table: Table, params: Params, problems: Problems) -> None:
    problems.expect(table.header == ["panel", "alpha", "beta"] + TRAJECTORY_COLUMNS,
                    f"header {table.header}")
    if problems:
        return
    blocks = [(2, beta, (panel, alpha, beta))
              for panel, beta in CHANNEL_PANELS for alpha in MIXING_ALPHAS]
    _check_trajectories(table, problems, params.h, blocks, (4000.0, 1.0),
                        ["panel", "alpha", "beta"])


def _check_appd(table: Table, params: Params, problems: Problems) -> None:
    header = (["beta"] + TRAJECTORY_COLUMNS + ["crossing", "crossing_pair"]
              + [f"pop_{k}" for k in range(16)] + _lambdas(4))
    problems.expect(table.header == header, f"header {table.header}")
    if problems:
        return
    blocks = [(4, beta, (beta,)) for beta in betas_for("appD", params)]
    _check_trajectories(table, problems, params.h, blocks, (250.0, 0.1), ["beta"])
    if problems:
        return
    crossing = table.col("crossing")
    pairs = table.text("crossing_pair")
    problems.expect(np.all((crossing == 0) | (crossing == 1)), "crossing not 0/1")
    problems.expect(np.all((crossing == 1) == (pairs != "")),
                    "crossing flag and crossing_pair disagree")
    for cell in set(pairs[pairs != ""]):
        for pair in cell.split(";"):
            lo, _, hi = pair.partition("-")
            problems.expect(lo.isdigit() and hi.isdigit() and int(hi) == int(lo) + 1
                            and int(hi) < 16, f"malformed crossing pair {pair!r}")
    pops = table.cols("pop_")
    problems.expect(pops.min() >= -SUM_TOL, f"negative population {pops.min():.3e}")
    problems.expect(_max_dev(pops.sum(axis=1), 1.0) <= SUM_TOL, "pop_k do not sum to 1")
    problems.expect(_max_dev(pops @ levels(4, params.h), table.col("energy")) <= REFERENCE_TOL,
                    "energy != sum of energy-basis populations times levels")


# --- steady-state and oracle CSVs ---------------------------------------------------

def _check_fig4(table: Table, params: Params, problems: Problems) -> None:
    problems.expect(table.header == ["beta", "h", "steady_ergotropy", "passive_predicted",
                                     "passive_observed"], f"header {table.header}")
    problems.expect(len(table) == 2500, f"{len(table)} rows, expected 2500")
    if problems:
        return
    beta, h = table.col("beta"), table.col("h")
    problems.expect(_max_dev(beta, np.tile(np.linspace(0.1, 3.0, 50), 50)) == 0.0,
                    "beta grid mismatch")
    problems.expect(_max_dev(h, np.repeat(np.linspace(0.0, 0.9, 50), 50)) == 0.0,
                    "h grid mismatch")
    erg = table.col("steady_ergotropy")
    problems.expect(erg.min() >= 0.0, "negative steady ergotropy")
    # H(2, h) spans [-2, 2] for every field on the grid (h <= 0.9)
    problems.expect(erg.max() <= levels(2, 0.9)[-1] - levels(2, 0.9)[0],
                    "steady ergotropy above the spectral width")
    predicted = np.sinh(2.0 * beta) >= np.cosh(2.0 * beta * h)
    problems.expect(np.all(table.col("passive_predicted") == predicted),
                    "passive_predicted disagrees with sinh(2b) >= cosh(2bh)")
    problems.expect(np.all(table.col("passive_observed") == (erg <= STEADY_ERGOTROPY_EPS)),
                    "passive_observed disagrees with steady_ergotropy")


def _appb(name: str, column: str):
    def check(table: Table, params: Params, problems: Problems) -> None:
        problems.expect(table.header == ["n_qubits", column, "beta", "steady_ergotropy"],
                        f"header {table.header}")
        betas = betas_for(name, params)
        keys = np.array([(n, a, b) for n in (2, 4) for a in INTERP_ALPHAS for b in betas])
        problems.expect(len(table) == len(keys), f"{len(table)} rows, expected {len(keys)}")
        if problems:
            return
        got = np.stack([table.col("n_qubits"), table.col(column), table.col("beta")], axis=1)
        problems.expect(_max_dev(got, keys) == 0.0, "(n_qubits, alpha, beta) layout mismatch")
        erg = table.col("steady_ergotropy")
        problems.expect(erg.min() >= 0.0, "negative steady ergotropy")
        for n in (2, 4):
            width = levels(n, params.h)[-1] - levels(n, params.h)[0]
            problems.expect(erg[keys[:, 0] == n].max() <= width,
                            f"N={n} steady ergotropy above the spectral width")
    return check


def _check_appc(table: Table, params: Params, problems: Problems) -> None:
    problems.expect(table.header == ["quantity", "beta", "max_abs_deviation"],
                    f"header {table.header}")
    betas = betas_for("appC-check", params)
    problems.expect(len(table) == 4 * len(betas), f"{len(table)} rows, expected {4 * len(betas)}")
    if problems:
        return
    quantities = list(APPC_BOUNDS)
    problems.expect(list(table.text("quantity")) == quantities * len(betas), "quantity layout")
    problems.expect(_max_dev(table.col("beta"), np.repeat(betas, 4)) == 0.0, "beta layout")
    dev = table.col("max_abs_deviation")
    bounds = np.array([APPC_BOUNDS[q] for q in table.text("quantity")])
    problems.expect(dev.min() >= 0.0, "negative deviation")
    bad = np.nonzero(dev > bounds)[0]
    problems.expect(bad.size == 0, "oracle deviation above its bound: "
                    + ", ".join(f"{table.text('quantity')[k]}={dev[k]:.2e}" for k in bad))


def _check_fig7(table: Table, params: Params, problems: Problems) -> None:
    problems.expect(table.header == ["beta", "p_dark", "dp_dark_dbeta"], f"header {table.header}")
    problems.expect(len(table) == 51, f"{len(table)} rows, expected 51")
    if problems:
        return
    betas = np.linspace(0.0, 5.0, 51)
    problems.expect(_max_dev(table.col("beta"), betas) == 0.0, "beta grid mismatch")
    ref = np.array([p_dark(4, params.h, beta) for beta in betas])
    problems.expect(_max_dev(table.col("p_dark"), ref[:, 0]) <= REFERENCE_TOL,
                    "p_dark disagrees with the numpy reference")
    problems.expect(_max_dev(table.col("dp_dark_dbeta"), ref[:, 1]) <= REFERENCE_TOL,
                    "dp_dark/dbeta disagrees with the numpy reference")


def _check_fig9(table: Table, params: Params, problems: Problems) -> None:
    problems.expect(table.header == ["kappa_over_g", "max_pee_deviation"],
                    f"header {table.header}")
    problems.expect(len(table) == len(JC_RATIOS), f"{len(table)} rows, expected 6")
    if problems:
        return
    problems.expect(_max_dev(table.col("kappa_over_g"), JC_RATIOS) == 0.0, "ratio layout")
    dev = table.col("max_pee_deviation")
    problems.expect(dev.min() >= 0.0 and dev.max() <= 1.0, "deviation outside [0, 1]")


CHECKS = {
    "fig2": _beta_sweep("fig2", 2),
    "fig3": _beta_sweep("fig3", 2),
    "fig5": _beta_sweep("fig5", 4),
    "fig6": _beta_sweep("fig6", 4, dark=True),
    "fig8": _check_fig8,
    "appB-channels": _check_appb_channels,
    "appD": _check_appd,
    "fig4": _check_fig4,
    "appB-diss": _appb("appB-diss", "alpha_minus"),
    "appB-deph": _appb("appB-deph", "alpha_z"),
    "appC-check": _check_appc,
    "fig7": _check_fig7,
    "fig9-jc": _check_fig9,
}


def check_csv(experiment: str, path: str, params: Params) -> list[str]:
    """Problems found in one experiment's CSV (empty when it passes)."""
    problems = Problems()
    try:
        CHECKS[experiment](Table(path), params, problems)
    except CheckFailure as exc:
        problems.append(str(exc))
    return list(problems)
