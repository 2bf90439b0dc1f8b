"""Experiment registry: every figure/sweep as a reproducible CSV (+ optional SVG).

Each experiment writes exactly one CSV with a fixed per-experiment schema
and full double precision (17 significant digits), so identical configs
produce byte-identical files.  Rows are streamed to the file in blocks,
each formatted by one %-operation with the templates the first block
fixes (%.17g for floats, %d for ints and bools, %s for strings); a block
whose cells would need other templates raises instead of being written
differently.  The cells of float array columns are written by the numpy
%.17g kernel of `floattext`, byte for byte as %.17g writes them: its
exact product is off by under 5e-15 in the 17th digit, and each cell it
cannot prove (0, -0, inf, nan, a fraction within 1e-12 of a rounding
tie, a missed decade, |x| outside 1e-279..1e290) is written by % itself.
Consecutive blocks share one kernel call until they hold CSV_BATCH_CELLS
such cells.  A trajectory figure writes each trajectory's rows as soon
as it is computed, CSV_BLOCK_ROWS rows per block from its record arrays,
so no run holds a whole trajectory's rows, a list per row or its full
state stack.  The file is written beside its path and moved into place only
when complete: a run that fails leaves no partial CSV, and an older file
at that path stays as it was.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain, groupby
from operator import itemgetter
from typing import Callable, NamedTuple

import numpy as np

from .channels import ChannelSpec, build_liouvillian
from .config import ExperimentConfig
from .dynamics import TimeGrid, evolve_points, propagate
from .ergotropy import eigenvalue_crossings, energy_basis_populations, trajectory_records
from .floattext import float_text, warm_up
from .jc import compare_jc
from .linalg import hermitian_eig  # noqa: F401 (ergobench's tracer test patches it here)
from .model import ModelSpec, build_hamiltonian, gibbs_state
from .oracles import (TwoQubitBlockState, beta_critical, collective_steady_spectrum,
                      dark_population_series, dark_subspace, dephasing_two_qubit_block,
                      p_dark, p_dark_derivative, steady_state_is_passive,
                      two_qubit_collective_sc, two_qubit_parallel_block)
from .registry import DESCRIPTIONS, resolve
from .svgplot import line_plot_svg

STEADY_ERGOTROPY_EPS = 1e-4  # classification threshold for "non-passive steady state"
JC_RATIOS = (1.0, 5.0, 10.0, 20.0, 50.0, 100.0)
MIXING_ALPHA_GRID = (0.0, 0.3, 0.5, 0.7, 0.9, 1.0)
INTERP_ALPHA_GRID = tuple(round(0.1 * k, 1) for k in range(11))
# Rows per block of a trajectory's CSV: 128 rows of appD are about 100 KB, under
# glibc's initial 128 KiB mmap threshold; freeing larger blocks raises it, and
# 256-row blocks raised the peak RSS of repeated trajectory passes by up to 10%.
CSV_BLOCK_ROWS = 128
# Float array cells that consecutive blocks gather for one call of the %.17g
# kernel, whose fixed cost (about 0.1 ms) would otherwise dominate the 10-cell
# blocks of the steady sweeps and the 512-cell ones of appB-channels.
CSV_BATCH_CELLS = 2048


def _template(cls) -> str | None:
    """The %-template of a cell of type cls, or None if it has none (complex, object)."""
    if issubclass(cls, str):
        return "%s"
    if issubclass(cls, (bool, np.bool_, int, np.integer)):
        return "%d"
    return "%.17g" if issubclass(cls, (float, np.floating)) else None


def _format_runs(runs) -> None:
    """Fill each run's texts by one `float_text` call.

    A run is (texts, arrays): arrays are consecutive float array columns of
    one block, and texts receives one string per row, the row's cells of
    those columns joined by commas.
    """
    tables = [np.column_stack(arrays) for _, arrays in runs]
    seps = [np.full(table.shape, ord(","), np.uint8) for table in tables]
    for sep in seps:
        sep[:, -1] = ord("\n")
    lines = float_text(np.concatenate([table.ravel() for table in tables]),
                       np.concatenate([sep.ravel() for sep in seps])).split("\n")
    start = 0
    for (texts, _), table in zip(runs, tables):
        texts[:] = lines[start:start + len(table)]
        start += len(table)


def _batch_text(batch, runs):
    """The text of each (template, per_row) block of batch, once runs are formatted."""
    if runs:
        _format_runs(runs)
    for template, per_row in batch:
        yield template % tuple(chain.from_iterable(zip(*per_row)))


def _lines(header, blocks):
    """CSV text of blocks of rows, one string per block, each made by one %-operation.

    A block is a sequence of column items: a scalar is one cell, the same
    on every row, formatted once and written %-escaped into the block's
    template; a list or 1-D array gives one cell per row, a (rows, k) array
    k cells per row.  Templates come from an array's dtype, a list's
    element types and a scalar's type.  The first block fixes the file's
    templates; a block that asks for others (a float in an int column, say)
    or another count of them, whose columns differ in length, or with a
    cell that has no template (complex, object) raises ValueError.

    The cells of consecutive float array columns fill one %s of the
    template, written by the %.17g kernel of `floattext` (see the module
    docstring), one call serving consecutive blocks until they hold CSV_BATCH_CELLS cells.
    """
    def untemplated(what):  # the error for the next cell of block index, a cell of what
        name = header[len(kinds)] if len(kinds) < len(header) else len(kinds)
        return ValueError(f"block {index} column {name!r} is {what}, which has no CSV template")

    columns = None
    batch, runs, pending = [], [], 0
    for index, block in enumerate(blocks):
        kinds, pieces, per_row, lengths, block_runs, run = [], [], [], [], [], None
        for item in block:
            if isinstance(item, np.ndarray):
                if item.dtype.kind not in "biufU":
                    raise untemplated(f"a {item.dtype} array")
                cells = [_template(item.dtype.type)] * (item.shape[1] if item.ndim == 2 else 1)
                kinds += cells
                if cells:
                    lengths.append(len(item))
                if cells[:1] != ["%.17g"]:
                    pieces += cells
                    per_row += item.T.tolist() if item.ndim == 2 else [item.tolist()]
                    run = None
                elif run is None:  # a float array opens a run: one %s cell, kernel-written
                    run = ([], [item])
                    block_runs.append(run)
                    pieces.append("%s")
                    per_row.append(run[0])
                else:
                    run[1].append(item)
            elif isinstance(item, list):
                classes = set(map(type, item))
                found = set(map(_template, classes))
                if None in found:
                    raise untemplated(f"a list of {', '.join(sorted(c.__name__ for c in classes))}")
                if len(found) != 1:
                    raise ValueError(f"block {index} has a list column with templates {found}")
                kinds += found
                pieces += found
                per_row.append(item)
                lengths.append(len(item))
                run = None
            elif (template := _template(type(item))) is None:
                raise untemplated(f"a {type(item).__name__}")
            else:
                kinds.append(template)
                pieces.append((kinds[-1] % item).replace("%", "%%"))
                run = None
        if columns is None:
            if len(kinds) != len(header):
                raise ValueError(f"block 0 has {len(kinds)} cells a row, header has {len(header)}")
            columns = kinds
        elif kinds != columns:
            raise ValueError(f"block {index} {kinds} does not fit the columns {columns}")
        rows = set(lengths) or {1}
        if len(rows) != 1:
            raise ValueError(f"block {index} has columns of lengths {sorted(rows)}")
        batch.append(((",".join(pieces) + "\n") * rows.pop(), per_row))
        runs += block_runs
        pending += sum(array.size for _, arrays in block_runs for array in arrays)
        if pending >= CSV_BATCH_CELLS:
            yield from _batch_text(batch, runs)
            batch, runs, pending = [], [], 0
    yield from _batch_text(batch, runs)


def _write_csv(path: str, header, blocks) -> str:
    """Write header and blocks of rows (see `_lines`) to path, all or nothing.

    A row of scalars is a one-row block.  The text goes to a temporary file
    beside path, which replaces path only once every block is written; on
    any error it is removed, and a file already at path is left as it was.
    """
    warm_up()  # before any block is computed
    partial = f"{path}.partial"
    try:
        with open(partial, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(",".join(header) + "\n")
            handle.writelines(_lines(header, blocks))
        os.replace(partial, path)
    except BaseException:
        if os.path.exists(partial):
            os.remove(partial)
        raise
    return path


def _chain_sizes(config: ExperimentConfig) -> tuple:
    """The configured chain size, or both N=2 and N=4 (fig8, appB-diss/deph)."""
    return (config.n_qubits,) if config.n_qubits is not None else (2, 4)


def _hamiltonians(pairs) -> dict:
    """{(n, h): H} for each distinct chain size and field among pairs, each built once."""
    return {(n, h): build_hamiltonian(ModelSpec(n_qubits=n, field_h=h)) for n, h in set(pairs)}


def _quench(hamiltonians: dict, n: int, h: float, gamma: float, channel: tuple):
    """H (looked up in hamiltonians) and L of one quench.

    channel is (alpha, alpha_minus, alpha_z).
    """
    h_matrix = hamiltonians[n, h]
    return h_matrix, build_liouvillian(h_matrix, ChannelSpec(gamma, *channel))


def _output(config: ExperimentConfig, extension: str) -> str:
    """The path of the run's output file <output_dir>/<experiment>.<extension>."""
    return os.path.join(config.output_dir, f"{config.experiment}.{extension}")


def _maybe_svg(config, series, title, ylabel="ergotropy", xlabel="time"):
    if not config.emit_svg:
        return []
    path = _output(config, "svg")
    line_plot_svg(path, series, title=title, xlabel=xlabel, ylabel=ylabel)
    return [path]


# --- trajectory experiments -------------------------------------------------

class _Row(NamedTuple):
    """One quench of a trajectory figure, propagated from each beta's Gibbs state."""

    tag: tuple       # leading CSV cells, written before beta
    n: int
    channel: tuple   # (alpha, alpha_minus, alpha_z)
    betas: tuple


_NO_EXTRA = ((), lambda traj, h_matrix, h_eig: ())


def _trajectory_blocks(lead, times, rec, added, with_spectrum: bool):
    """One trajectory's CSV rows in blocks of CSV_BLOCK_ROWS rows (see `_lines`).

    A row is lead (the cells that are the same on every row), the state's
    time, energy, passive energy and ergotropy from the ErgotropyRecord
    rec, its cells of each added column and, if with_spectrum, its spectrum.
    """
    columns = [times, rec.energy, rec.passive_energy, rec.ergotropy, *added]
    if with_spectrum:
        columns.append(rec.rho_spectrum)
    for start in range(0, len(times), CSV_BLOCK_ROWS):
        part = slice(start, start + CSV_BLOCK_ROWS)
        yield [*lead, *(column[part] for column in columns)]


def _trajectory_figure(config, ids, table, title, label, with_spectrum: bool = True,
                       extra=_NO_EXTRA):
    """Shared body of the trajectory figures (fig2/3/5/6/8, appB-channels, appD).

    H is built once per chain size and L once per table row, and each row's
    Gibbs states come from one `gibbs_state` call over its betas, whose
    decomposition of H the records reuse.  The (row, beta) trajectories
    run one at a time in table order, and each one's rows are written as
    soon as it returns (see `_trajectory_blocks`): a job returns only
    records, so its states are freed before its rows are formatted.
    label(tag, beta) names the SVG series of a trajectory, or None to leave
    it out.  extra is (columns, cells): cells(traj, h_matrix, h_eig) returns
    the added columns, written between ergotropy and the spectrum, given
    H's (levels, vectors) h_eig.
    """
    grid = TimeGrid(t_max=config.t_max, dt=config.dt)
    hamiltonians = _hamiltonians((row.n, config.h) for row in table)
    quenches = [_quench(hamiltonians, row.n, config.h, config.gamma, row.channel)
                for row in table]
    columns, cells = extra

    def run(job):
        row, (h_matrix, liou), h_eig, beta, rho0 = job
        traj = propagate(liou, rho0, grid)
        return ((*row.tag, beta), traj.times, trajectory_records(traj, h_matrix, h_eig),
                cells(traj, h_matrix, h_eig), label(row.tag, beta))

    def jobs():  # one row's Gibbs states at a time
        for row, quench in zip(table, quenches):
            states, h_eig = gibbs_state(quench[0], row.betas, with_eig=True)
            yield from ((row, quench, h_eig, beta, rho0) for beta, rho0 in zip(row.betas, states))

    series = []

    def streamed_blocks():  # each trajectory's rows, written as soon as its job returns
        for lead, times, rec, added, series_label in map(run, jobs()):
            if series_label is not None:
                series.append((series_label, times, rec.ergotropy))
            yield from _trajectory_blocks(lead, times, rec, added, with_spectrum)

    header = list(ids) + ["beta", "time", "energy", "passive_energy", "ergotropy"] + list(columns)
    if with_spectrum:
        header += [f"lambda_{k}" for k in range(2 ** table[0].n)]
    paths = [_write_csv(_output(config, "csv"), header, streamed_blocks())]
    paths += _maybe_svg(config, series, title)
    return paths


def _single_size_figure(config, channel, title, extra=_NO_EXTRA):
    """fig2/3/5/6/appD: the config's chain size and one channel, swept over its betas."""
    row = _Row((), config.n_qubits, channel, config.beta_list)
    return _trajectory_figure(config, (), [row], title, lambda tag, b: f"beta={b:g}", extra=extra)


def _run_fig2(config: ExperimentConfig):
    return _single_size_figure(config, (config.alpha, config.alpha_minus, config.alpha_z),
                               "two-qubit parallel dissipation")


def _run_fig3(config: ExperimentConfig):
    return _single_size_figure(config, (0.0, 1.0, config.alpha_z),
                               "two-qubit collective dissipation")


def _run_fig5(config: ExperimentConfig):
    return _single_size_figure(config, (config.alpha, config.alpha_minus, config.alpha_z),
                               "four-qubit parallel dissipation")


def _run_fig6(config: ExperimentConfig):
    dark = dark_subspace(ModelSpec(n_qubits=config.n_qubits, field_h=config.h))

    def cells(traj, h_matrix, h_eig):
        return [dark_population_series(traj, dark)]

    return _single_size_figure(config, (0.0, 1.0, config.alpha_z),
                               "four-qubit collective dissipation", extra=(["p_dark"], cells))


def _run_fig8(config: ExperimentConfig):
    table = [_Row((n,), n, (1.0, config.alpha_minus, 0.0), config.beta_list)
             for n in _chain_sizes(config)]
    return _trajectory_figure(config, ("n_qubits",), table, "parallel dephasing",
                              lambda tag, b: f"N={tag[0]} beta={b:g}", with_spectrum=False)


def _run_appb_channels(config: ExperimentConfig):
    panels = (("parallel-hot", 0.0, 0.0, 0.2), ("parallel-cold", 0.0, 0.0, 5.0),
              ("collective-hot", 1.0, 1.0, 0.2))
    table = [_Row((panel, alpha), config.n_qubits, (alpha, am, az), (beta,))
             for panel, am, az, beta in panels for alpha in MIXING_ALPHA_GRID]
    return _trajectory_figure(
        config, ("panel", "alpha"), table, "channel mixing (parallel, beta=0.2)",
        lambda tag, b: f"alpha={tag[1]:g}" if tag[0] == "parallel-hot" else None,
        with_spectrum=False)


# --- steady-state experiments ------------------------------------------------

def _steady_sweep(config, header, table, betas,
                  block_of=lambda tag, betas, ergs: (*tag, betas, ergs)):
    """Shared body of the steady-state sweeps (fig4, appB-diss/deph).

    table holds (tag, n, h, channel) points.  H is built once per distinct
    (n, h), before the points run.  The consecutive points of one chain
    size, once per size in the sweeps' tables, are one generator family
    (`build_liouvillian` of their H, stacked unless they share one, and
    their channels), evolved in limit mode by one `evolve_points` call
    from the Gibbs states of every beta, made by one `gibbs_state` call:
    one stack that every member shares when they share H (appB), one stack
    per member otherwise (fig4).  Each touched block with a one-dimensional
    kernel is read at t -> infinity (appB-diss at alpha_minus < 1,
    appB-deph at alpha_z < 1), and the other blocks (fig4, the alpha = 1
    rows) jump to t_max.  Each point's ergotropies are read off the CPTP
    screen's spectra and the levels of its H's decomposition in
    `gibbs_state`, and block_of(tag, betas, ergotropies) gives its rows as
    one block (see `_lines`), all written in table order at the end.
    """
    hamiltonians = _hamiltonians((n, h) for _, n, h, _ in table)
    betas = np.asarray(betas, dtype=float)
    blocks = []
    for n, rows in groupby(table, key=itemgetter(1)):
        tags, _, fields, channels = zip(*rows)
        h_matrix = (hamiltonians[n, fields[0]] if len(set(fields)) == 1
                    else np.stack([hamiltonians[n, h] for h in fields]))
        rho0, (levels, vectors) = gibbs_state(h_matrix, betas, with_eig=True)
        liou = build_liouvillian(h_matrix, [ChannelSpec(config.gamma, *c) for c in channels])
        steady = evolve_points(rho0, liou, config.t_max, limit=True)
        eigs = zip(levels, vectors) if levels.ndim == 2 else [(levels, vectors)] * len(tags)
        for tag, h, traj, eig in zip(tags, fields, steady, eigs):
            blocks.append(block_of(tag, betas,
                                   trajectory_records(traj, hamiltonians[n, h], eig).ergotropy))
        del rho0, liou, steady  # before the next family is built and the CSV is written
    return [_write_csv(_output(config, "csv"), header, blocks)]


def _run_fig4(config: ExperimentConfig):
    fields = np.linspace(0.0, 0.9, 50)
    header = ["beta", "h", "steady_ergotropy", "passive_predicted", "passive_observed"]
    paths = _steady_sweep(
        config, header, [(h, config.n_qubits, h, (0.0, 1.0, 0.0)) for h in fields],
        np.linspace(0.1, 3.0, 50),
        lambda h, betas, ergs: (betas, h, ergs,
                                steady_state_is_passive(betas, h),
                                ergs <= STEADY_ERGOTROPY_EPS))
    if config.emit_svg:
        boundary = [beta_critical(h_value) for h_value in fields]
        paths += _maybe_svg(config, [("beta_c(h)", boundary, fields)],
                            "steady-state passivity boundary", ylabel="h", xlabel="beta")
    return paths


def _run_fig7(config: ExperimentConfig):
    model = ModelSpec(n_qubits=config.n_qubits, field_h=config.h)
    betas = np.linspace(0.0, 5.0, 51)
    pops = p_dark(betas, model)
    paths = [_write_csv(_output(config, "csv"), ["beta", "p_dark", "dp_dark_dbeta"],
                        [(betas, pops, p_dark_derivative(betas, model))])]
    paths += _maybe_svg(config, [("p_dark", betas, pops)],
                        "dark-subspace occupation of the thermal state",
                        ylabel="p_dark", xlabel="beta")
    return paths


def _run_appb_diss(config: ExperimentConfig):
    return _steady_sweep(config, ["n_qubits", "alpha_minus", "beta", "steady_ergotropy"],
                         [((n, a), n, config.h, (0.0, a, 0.0))
                          for n in _chain_sizes(config) for a in INTERP_ALPHA_GRID],
                         config.beta_list)


def _run_appb_deph(config: ExperimentConfig):
    return _steady_sweep(config, ["n_qubits", "alpha_z", "beta", "steady_ergotropy"],
                         [((n, a), n, config.h, (1.0, 0.0, a))
                          for n in _chain_sizes(config) for a in INTERP_ALPHA_GRID],
                         config.beta_list)


# --- validation experiments ---------------------------------------------------

def _run_appc_check(config: ExperimentConfig):
    grid = TimeGrid(t_max=config.t_max, dt=config.dt)
    betas, n = config.beta_list, config.n_qubits
    hamiltonians = _hamiltonians([(n, config.h)])
    h_matrix, liou_par = _quench(hamiltonians, n, config.h, config.gamma, (0.0, 0.0, 0.0))
    _, liou_col = _quench(hamiltonians, n, config.h, config.gamma, (0.0, 1.0, 0.0))
    _, liou_dep = _quench(hamiltonians, n, config.h, config.gamma, (1.0, 0.0, 0.0))
    rho0s = gibbs_state(h_matrix, betas)
    pars = [propagate(liou_par, rho0, grid) for rho0 in rho0s]
    inits = [TwoQubitBlockState.from_density(traj.states[0]) for traj in pars]
    # each oracle builds its exp(G t) stack once for all betas
    solutions = zip(two_qubit_parallel_block(inits, config.gamma, grid.times()),
                    dephasing_two_qubit_block(inits, config.gamma, grid.times()))
    rows = []
    for beta, rho0, traj_par, init, (par, dep) in zip(betas, rho0s, pars, inits, solutions):
        traj_col = propagate(liou_col, rho0, grid)
        traj_dep = propagate(liou_dep, rho0, grid)
        dev_par = np.abs(par.to_density() - traj_par.states).max()
        dev_dep = np.abs(dep.to_density() - traj_dep.states).max()
        s_val, c_val = two_qubit_collective_sc(init, config.gamma, traj_col.times)
        states = traj_col.states
        dev_sc = max(np.abs(s_val - (states[:, 1, 1].real + states[:, 2, 2].real)).max(),
                     np.abs(c_val - states[:, 1, 2].real).max())
        dev_spec = float(np.abs(traj_col.spectra[-1]
                                - collective_steady_spectrum(beta, config.h)).max())
        rows.append(("parallel_block", beta, dev_par))
        rows.append(("collective_sc", beta, dev_sc))
        rows.append(("dephasing_block", beta, dev_dep))
        rows.append(("collective_steady_spectrum", beta, dev_spec))
    header = ["quantity", "beta", "max_abs_deviation"]
    return [_write_csv(_output(config, "csv"), header, rows)]


def _run_appd(config: ExperimentConfig):
    def cells(traj, h_matrix, h_eig):
        populations = energy_basis_populations(traj, h_matrix, h_eig)
        marks = {}
        for t_cross, pair in eigenvalue_crossings(traj):
            k = int(round((t_cross - traj.times[0]) / config.dt))
            marks.setdefault(k, []).append(f"{pair[0]}-{pair[1]}")
        steps = range(len(traj))
        return [[1 if k in marks else 0 for k in steps],
                [";".join(marks.get(k, [])) for k in steps], populations]

    columns = ["crossing", "crossing_pair"] + [f"pop_{k}" for k in range(2 ** config.n_qubits)]
    return _single_size_figure(config, (0.0, 0.0, 0.0), "four-qubit crossing analysis",
                               extra=(columns, cells))


def _run_fig9_jc(config: ExperimentConfig):
    table = compare_jc(JC_RATIOS)
    header = ["kappa_over_g", "max_pee_deviation"]
    paths = [_write_csv(_output(config, "csv"), header, table)]
    paths += _maybe_svg(config, [("max deviation", [r for r, _ in table], [d for _, d in table])],
                        "lossy-cavity model vs adiabatic elimination",
                        ylabel="max |p_ee deviation|", xlabel="kappa/g")
    return paths


@dataclass(frozen=True)
class ExperimentInfo:
    name: str
    runner: Callable
    description: str


def _runner(name: str) -> Callable:
    """The runner of experiment name: _run_<name>, lower-cased, with '-' read as '_'."""
    return globals()["_run_" + name.lower().replace("-", "_")]


EXPERIMENTS = {name: ExperimentInfo(name, _runner(name), description)
               for name, description in DESCRIPTIONS.items()}


def run_experiment(config: ExperimentConfig) -> list[str]:
    """Run one registered experiment on `registry.resolve(config)`; returns the written paths."""
    config = resolve(config)
    os.makedirs(config.output_dir, exist_ok=True)
    return EXPERIMENTS[config.experiment].runner(config)
