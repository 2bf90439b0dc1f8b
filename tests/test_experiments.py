import ast
import csv
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ergoquench import (ChannelSpec, ErgotropyRecord, ModelSpec, TimeGrid,
                        build_hamiltonian, build_liouvillian, energy_basis_populations,
                        ergotropy, gibbs_state, propagate, trajectory_records)
from ergoquench import dynamics, experiments, oracles
from ergoquench.channels import Liouvillian
from ergoquench.config import ConfigError, ExperimentConfig
from ergoquench.dynamics import InvariantViolation, Trajectory, evolve_points
from ergoquench.experiments import (CSV_BATCH_CELLS, CSV_BLOCK_ROWS, EXPERIMENTS, _lines,
                                    _trajectory_blocks, _write_csv, run_experiment)
from ergoquench.floattext import float_text
from ergoquench.registry import DESCRIPTIONS
from ergoquench.svgplot import line_plot_svg
from reference import closed_form_steady, row_lines


def _config(**kwargs):
    explicit = frozenset(kwargs)
    return ExperimentConfig(**kwargs, explicit=explicit)


def _read(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def test_registry_is_complete():
    expected = {"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9-jc",
                "appB-diss", "appB-deph", "appB-channels", "appC-check", "appD"}
    assert set(EXPERIMENTS) == expected
    assert list(EXPERIMENTS) == list(DESCRIPTIONS) and all(DESCRIPTIONS.values())


@pytest.mark.parametrize("name,overrides,id_cols", [
    ("fig2", dict(t_max=10.0, beta_list=(0.5, 2.0)), 1),
    ("fig3", dict(t_max=10.0, beta_list=(0.2,)), 1),
    ("fig5", dict(t_max=5.0, beta_list=(0.5,)), 1),
    ("fig6", dict(t_max=5.0, beta_list=(0.5,)), 1),
    ("fig8", dict(t_max=5.0, beta_list=(0.5,), n_qubits=2), 2),
])
def test_trajectory_experiments_smoke(tmp_path, name, overrides, id_cols):
    config = _config(experiment=name, output_dir=str(tmp_path), **overrides)
    paths = run_experiment(config)
    header, rows = _read(paths[0])
    betas = overrides["beta_list"]
    steps = int(overrides["t_max"] / 0.5) + 1
    assert len(rows) == len(betas) * steps
    assert header[id_cols] == "time"
    for row in rows:
        values = [float(x) for x in row[id_cols:id_cols + 4]]
        assert all(np.isfinite(values))


def test_experiments_import_no_private_name_from_the_package():
    # the benchmark's tracer wraps public names only: a layer the experiments
    # reach through a private import would read zero calls there
    with open(experiments.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").startswith("ergoquench"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_fig7_rows(tmp_path):
    config = _config(experiment="fig7", output_dir=str(tmp_path))
    header, rows = _read(run_experiment(config)[0])
    assert header == ["beta", "p_dark", "dp_dark_dbeta"]
    assert len(rows) == 51
    assert abs(float(rows[0][1]) - 0.375) <= 1e-12
    p_values = [float(r[1]) for r in rows]
    assert all(b >= a for a, b in zip(p_values, p_values[1:]))


def test_fig7_decomposes_each_operator_once_per_quantity(tmp_path, monkeypatch):
    # p_dark and its derivative each take the 51 betas in one call: one decomposition
    # of H and one of S^+ S^- (the dark subspace) each, where one per beta were made
    from ergoquench import linalg, model
    calls = []
    original = linalg.hermitian_eig_batch

    def counting(ms):  # hermitian_eig and null_space_hermitian come here through linalg
        calls.append(len(ms))
        return original(ms)

    for module in (linalg, model):
        monkeypatch.setattr(module, "hermitian_eig_batch", counting)
    run_experiment(_config(experiment="fig7", output_dir=str(tmp_path)))
    assert calls == [1] * 4


def test_appb_sweeps_smoke(tmp_path):
    config = _config(experiment="appB-diss", output_dir=str(tmp_path),
                     t_max=10.0, beta_list=(0.5,), n_qubits=2)
    header, rows = _read(run_experiment(config)[0])
    assert header == ["n_qubits", "alpha_minus", "beta", "steady_ergotropy"]
    assert len(rows) == 11
    config = _config(experiment="appB-deph", output_dir=str(tmp_path),
                     t_max=10.0, beta_list=(0.5,), n_qubits=2)
    header, rows = _read(run_experiment(config)[0])
    assert header == ["n_qubits", "alpha_z", "beta", "steady_ergotropy"]


def test_steady_rows_do_not_depend_on_the_other_betas(tmp_path):
    def rows_at_half(betas):
        config = _config(experiment="appB-diss", output_dir=str(tmp_path), beta_list=betas)
        _, rows = _read(run_experiment(config)[0])
        return [row for row in rows if float(row[2]) == 0.5]

    alone = rows_at_half((0.5,))
    assert len(alone) == 22  # 11 values of alpha_minus at N=2 and at N=4
    assert rows_at_half((0.2, 0.5, 1.0)) == alone


@pytest.mark.parametrize("overrides", [
    {}, dict(h=0.215, beta_list=(0.595, 0.793, 1.435, 3.434, 4.589)),
    dict(h=0.056, beta_list=(0.554, 1.12, 1.353, 3.418, 4.046)),
], ids=["default", "h=0.215", "h=0.056"])
def test_steady_rows_equal_the_closed_form_limit(tmp_path, overrides):
    # every appB row whose t -> infinity limit has a closed form: all but alpha_minus = 1
    h = overrides.get("h", 0.1)
    hamiltonians = {n: build_hamiltonian(ModelSpec(n_qubits=n, field_h=h)) for n in (2, 4)}
    for name, kind in (("appB-diss", lambda a: (0.0, a, 0.0)),
                       ("appB-deph", lambda a: (1.0, 0.0, a))):
        config = _config(experiment=name, output_dir=str(tmp_path), **overrides)
        _, rows = _read(run_experiment(config)[0])
        covered = 0
        for n, alpha, beta, steady in ((int(r[0]), float(r[1]), float(r[2]), float(r[3]))
                                       for r in rows):
            closed = closed_form_steady(n, h, kind(alpha), beta)
            if closed is not None:
                covered += 1
                limit = ergotropy(closed, hamiltonians[n]).ergotropy
                assert abs(steady - limit) <= 1e-10, (name, n, alpha, beta)
        assert covered == {"appB-diss": 100, "appB-deph": 110}[name]


def test_steady_sweep_decomposes_h_once_per_chain_and_field(tmp_path, monkeypatch):
    # every beta's Gibbs state comes from one decomposition of H, shared by the
    # 11 points of one (n, h)
    from ergoquench import model
    calls = []
    original = model.hermitian_eig_batch

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(model, "hermitian_eig_batch", counting)
    config = _config(experiment="appB-diss", output_dir=str(tmp_path),
                     t_max=10.0, n_qubits=2)
    _, rows = _read(run_experiment(config)[0])
    assert len(rows) == 11 * len(config.beta_list)
    assert len(calls) == 1


@pytest.mark.parametrize("name,rows", [("fig2", 1), ("fig8", 2), ("appB-channels", 18),
                                       ("appC-check", 1), ("appD", 1)])
def test_trajectory_figures_decompose_each_h_once_per_row(tmp_path, monkeypatch, name, rows):
    # a row's Gibbs states over its betas come from one decomposition of H, which the
    # records and appD's populations reuse: fig8 has a row per chain size and
    # appB-channels one per (panel, alpha)
    from ergoquench import linalg, model
    calls = []
    original = linalg.hermitian_eig_batch

    def counting(ms):  # hermitian_eig comes here through linalg
        calls.append(len(ms))
        return original(ms)

    for module in (linalg, model):
        monkeypatch.setattr(module, "hermitian_eig_batch", counting)
    run_experiment(_config(experiment=name, output_dir=str(tmp_path), t_max=5.0,
                           beta_list=(0.2, 0.5, 1.0)))
    assert calls == [1] * rows


def test_steady_sweep_checks_each_gibbs_stack_once(tmp_path, monkeypatch):
    # the 11 points of one chain size are one family on one Gibbs stack
    calls = []
    original = dynamics.check_density_matrix

    def counting(rho, *args, **kwargs):
        calls.append(rho.shape)
        return original(rho, *args, **kwargs)

    monkeypatch.setattr(dynamics, "check_density_matrix", counting)
    config = _config(experiment="appB-diss", output_dir=str(tmp_path), t_max=10.0)
    _, rows = _read(run_experiment(config)[0])
    assert len(rows) == 2 * 11 * len(config.beta_list)
    assert calls == [(5, 4, 4), (5, 16, 16)]


def test_one_steady_pass_keeps_its_checks_and_stacked_expm_calls(tmp_path, monkeypatch):
    # fig4, appB-diss and appB-deph at the default config: one generator family, one
    # Gibbs stack and one check per chain size of each sweep (fig4's 50 fields, N=2 and
    # N=4 of each appB sweep), and one decomposition of each family's H, which the
    # readout reuses; the 60 blocks larger than 1x1 of the 40 alpha < 1 points read
    # their limit, each chunk's bordered blocks that are not exactly singular share one
    # stacked solve, and each family's other blocks go in stacked expm calls of at most
    # EXPM_CHUNK_CELLS cells.  Only the touched blocks are assembled, from the declared
    # labels, one call per chunk of members: no dense generator, no block of a whole
    # family past the chunk size, and no pattern search on a generator or a support
    from ergoquench import linalg, model
    checks, shapes, limits, solved, cells, builds, decompositions = [], [], [], [], [], [], []
    check, expm, block_limits, solve = (dynamics.check_density_matrix, dynamics.expm,
                                        dynamics._block_limits, dynamics.solve)
    block, build, eig_batch = (Liouvillian.block, experiments.build_liouvillian,
                               linalg.hermitian_eig_batch)

    def counting_check(rho, *args, **kwargs):
        checks.append(1)
        return check(rho, *args, **kwargs)

    def counting_expm(matrices):
        shapes.append(np.shape(matrices))
        return expm(matrices)

    def counting_solve(a, b):
        solved.append(len(a))
        return solve(a, b)

    def counting_limits(generators, diagonal):
        passed, found = block_limits(generators, diagonal)
        limits.append(int(np.count_nonzero(passed)))
        return passed, found

    def counting_block(liou, b, *args):
        out = block(liou, b, *args)
        cells.append((liou.dim_state, len(b), out.size))
        return out

    def counting_build(h, spec):
        builds.append(1)
        return build(h, spec)

    def counting_eig_batch(ms):  # hermitian_eig, as the readout would call it, comes here
        decompositions.append(len(ms))
        return eig_batch(ms)

    monkeypatch.setattr(dynamics, "check_density_matrix", counting_check)
    monkeypatch.setattr(dynamics, "expm", counting_expm)
    monkeypatch.setattr(dynamics, "_block_limits", counting_limits)
    monkeypatch.setattr(dynamics, "solve", counting_solve)
    monkeypatch.setattr(Liouvillian, "block", counting_block)
    monkeypatch.setattr(experiments, "build_liouvillian", counting_build)
    for module in (linalg, model):
        monkeypatch.setattr(module, "hermitian_eig_batch", counting_eig_batch)
    for name in ("fig4", "appB-diss", "appB-deph"):
        run_experiment(_config(experiment=name, output_dir=str(tmp_path)))
    assert not any(n == dim ** 2 for dim, n, _ in cells)  # no dense D^2 x D^2 assembly
    # fig4 50 x 6^2; appB-diss 11 x 6^2 + 11 x 70^2; appB-deph 11 x (1 + 4^2 + 1)
    # + 11 x (1 + 16^2 + 36^2 + 16^2 + 1), against 72 x 16^2 + 22 x 256^2 = 1,460,224 dense,
    # in 24 calls: one a block but for appB-diss N=4's 70^2 (one member a call, 11 calls)
    # and appB-deph N=4's 36^2 (three members a call, 4 calls)
    assert len(cells) == 24 and sum(size for *_, size in cells) == 76_204
    assert all(size <= max(dynamics.EXPM_CHUNK_CELLS, n ** 2) for _, n, size in cells)
    assert not hasattr(dynamics, "_invariant_blocks")  # the sectors are declared, not searched
    assert len(checks) == 5
    assert len(builds) == 5
    assert len(decompositions) == 5 and sum(decompositions) == 54  # fig4's 50 H, appB's 4
    assert sum(limits) == 60
    assert len(solved) == 20 and sum(solved) == 112
    assert len(shapes) == 11 and sum(shape[0] for shape in shapes) == 100
    assert sorted(shapes) == sorted(
        [(50, 6, 6), (1, 6, 6), (1, 70, 70)]  # fig4; appB-diss N=2, N=4 at alpha_minus = 1
        + [(11, 1, 1)] * 2 + [(1, 4, 4)]  # appB-deph N=2
        + [(11, 1, 1)] * 2 + [(1, 16, 16)] * 2 + [(1, 36, 36)])  # N=4


def test_appb_channels_smoke(tmp_path):
    config = _config(experiment="appB-channels", output_dir=str(tmp_path),
                     t_max=10.0, dt=0.5)
    header, rows = _read(run_experiment(config)[0])
    assert header[:3] == ["panel", "alpha", "beta"]
    panels = {row[0] for row in rows}
    assert panels == {"parallel-hot", "parallel-cold", "collective-hot"}
    assert len(rows) == 3 * 6 * 21


def test_appc_check_smoke(tmp_path):
    config = _config(experiment="appC-check", output_dir=str(tmp_path),
                     t_max=50.0, beta_list=(0.5,))
    header, rows = _read(run_experiment(config)[0])
    assert header == ["quantity", "beta", "max_abs_deviation"]
    devs = {row[0]: float(row[2]) for row in rows}
    assert devs["parallel_block"] <= 1e-8
    assert devs["collective_sc"] <= 1e-8
    assert devs["dephasing_block"] <= 1e-8


def test_appc_check_builds_each_oracle_propagator_stack_once(tmp_path, monkeypatch):
    calls = []
    taylor = oracles._expm_taylor

    def counted(stack):
        calls.append(np.shape(stack))
        return taylor(stack)

    monkeypatch.setattr(oracles, "_expm_taylor", counted)
    config = _config(experiment="appC-check", output_dir=str(tmp_path),
                     t_max=50.0, beta_list=(0.5, 1.0, 2.0))
    _, rows = _read(run_experiment(config)[0])
    assert len(rows) == 12
    assert calls == [(101, 6, 6), (101, 6, 6)]  # parallel and dephasing generators


def test_appd_smoke(tmp_path):
    config = _config(experiment="appD", output_dir=str(tmp_path),
                     t_max=5.0, dt=0.1, beta_list=(0.2,))
    header, rows = _read(run_experiment(config)[0])
    assert header[:7] == ["beta", "time", "energy", "passive_energy", "ergotropy",
                          "crossing", "crossing_pair"]
    assert len(header) == 7 + 16 + 16
    pops = np.array([[float(x) for x in row[7:23]] for row in rows])
    assert np.abs(pops.sum(axis=1) - 1.0).max() <= 1e-9


@pytest.mark.parametrize("overrides,steps", [({}, 2501), ({"t_max": 5.0}, 51)],
                         ids=["refined", "explicit-t_max"])
def test_appd_refines_its_grid_and_betas_unless_set(tmp_path, overrides, steps):
    # appD's own defaults are t_max 250, dt 0.1 and beta 0.2 and 5; a set key wins
    _, rows = _read(run_experiment(_config(experiment="appD", output_dir=str(tmp_path),
                                           **overrides))[0])
    betas = [float(row[0]) for row in rows]
    times = np.array([float(row[1]) for row in rows]).reshape(2, steps)
    assert betas == [0.2] * steps + [5.0] * steps
    assert np.abs(times - 0.1 * np.arange(steps)).max() <= 1e-9


def test_run_experiment_refuses_a_chain_the_experiment_does_not_run(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="^experiment 'fig7' fixes n_qubits=4$"):
        run_experiment(ExperimentConfig(experiment="fig7", n_qubits=2, output_dir=str(out)))
    assert not out.exists()


def test_fig9_table(tmp_path):
    config = _config(experiment="fig9-jc", output_dir=str(tmp_path))
    header, rows = _read(run_experiment(config)[0])
    assert header == ["kappa_over_g", "max_pee_deviation"]
    ratios = [float(r[0]) for r in rows]
    assert ratios == [1.0, 5.0, 10.0, 20.0, 50.0, 100.0]
    devs = [float(r[1]) for r in rows]
    assert all(b < a for a, b in zip(devs, devs[1:]))


# 4x4, 16x16, steady sweep, the extra-column hooks of fig6 and appD, fixed
# text and float cells (appB-channels) and a fixed int cell over two sizes (fig8)
@pytest.mark.parametrize("name", ["fig2", "fig5", "appB-diss", "fig6", "appD",
                                  "appB-channels", "fig8"])
def test_repeated_run_is_identical(tmp_path, name):
    first, second = (run_experiment(_config(experiment=name, output_dir=str(tmp_path / run),
                                             t_max=10.0, beta_list=(0.2, 0.5, 1.0)))[0]
                     for run in ("first", "second"))
    assert Path(first).read_bytes() == Path(second).read_bytes()


_TRAJECTORY_CASES = {  # (n, channel, grid, lead, with_spectrum, extra columns)
    "fig2": (2, ChannelSpec(gamma=0.05), TimeGrid(t_max=51.2, dt=0.1), (0.5,), True, False),
    # appB-channels' own default grid and fixed text and float cells
    "appB-channels": (2, ChannelSpec(gamma=0.05, alpha=0.5), TimeGrid(t_max=4000.0, dt=1.0),
                      ("parallel-hot", 0.3, 0.2), False, False),
    "appD": (4, ChannelSpec(gamma=0.05), TimeGrid(t_max=51.2, dt=0.1), (0.5,), True, True),
}


@pytest.fixture(scope="module")
def trajectory_cases():
    """case -> (times, records, added columns) of a 513-state (appB-channels: 4001) trajectory."""
    cases = {}
    for case, (n, channel, grid, _, _, extra) in _TRAJECTORY_CASES.items():
        model = ModelSpec(n_qubits=n, field_h=0.1)
        h = build_hamiltonian(model)
        traj = propagate(build_liouvillian(h, channel), gibbs_state(h, 0.5), grid)
        steps = range(len(traj))
        added = ([[k % 2 for k in steps], ["2-3" if k % 3 else "" for k in steps],
                  energy_basis_populations(traj, h)] if extra else [])
        cases[case] = traj.times, trajectory_records(traj, h), added
    return cases


def _counted_float_text(monkeypatch):
    """The cell counts of each call the CSV writer makes to the %.17g kernel."""
    calls = []

    def counted(values, seps):
        calls.append(len(values))
        return float_text(values, seps)

    monkeypatch.setattr(experiments, "float_text", counted)
    return calls


@pytest.mark.parametrize("rows", [1, 255, 256, 257, 513, pytest.param(None, id="all")])
@pytest.mark.parametrize("case", list(_TRAJECTORY_CASES))
def test_trajectory_blocks_equal_the_per_row_reference(trajectory_cases, monkeypatch, case,
                                                        rows):
    _, _, _, lead, with_spectrum, _ = _TRAJECTORY_CASES[case]
    times, rec, added = trajectory_cases[case]
    rows = rows or len(times)
    calls = _counted_float_text(monkeypatch)
    rec = ErgotropyRecord(rec.energy[:rows], rec.passive_energy[:rows], rec.ergotropy[:rows],
                          rec.rho_spectrum[:rows])
    added = [column[:rows] for column in added]
    expected = [[*lead, times[k], rec.energy[k], rec.passive_energy[k], rec.ergotropy[k]]
                + ([added[0][k], added[1][k], *added[2][k]] if added else [])
                + (list(rec.rho_spectrum[k]) if with_spectrum else [])
                for k in range(rows)]
    header = [f"c{k}" for k in range(len(expected[0]))]
    blocks = list(_lines(header, _trajectory_blocks(lead, times[:rows], rec, added,
                                                   with_spectrum)))
    assert "".join(blocks) == "".join(row_lines(header, expected))
    assert [block.count("\n") for block in blocks] == [
        min(CSV_BLOCK_ROWS, rows - start) for start in range(0, rows, CSV_BLOCK_ROWS)]
    # every float array cell goes through the kernel, a batch of at least
    # CSV_BATCH_CELLS cells a call but the last
    assert sum(calls) == rows * (4 + (16 if added else 0) + (rec.rho_spectrum.shape[1]
                                                             if with_spectrum else 0))
    assert all(count >= CSV_BATCH_CELLS for count in calls[:-1])


def test_steady_sweep_blocks_share_one_kernel_call(monkeypatch):
    # the points of appB-diss and appB-deph, 2 sizes x 11 alphas each: one block of 5 betas a point
    rng = np.random.default_rng(3)
    betas = np.array([0.2, 0.5, 1.0, 2.0, 5.0])
    blocks = [(n, alpha, betas, rng.random(5) * rng.choice([1.0, 1e-9, 1e-17, 0.0], 5))
              for _ in ("diss", "deph") for n in (2, 4) for alpha in experiments.INTERP_ALPHA_GRID]
    header = ["n_qubits", "alpha", "beta", "steady_ergotropy"]
    calls = _counted_float_text(monkeypatch)
    text = list(_lines(header, blocks))
    assert len(text) == 44 and calls == [440]
    expected = [(n, alpha, beta, erg) for n, alpha, bs, es in blocks for beta, erg in zip(bs, es)]
    assert "".join(text) == "".join(row_lines(header, expected))


def test_percent_in_text_cells_is_written_verbatim(tmp_path):
    # a fixed cell is written into the block's template as text, so its % must be escaped
    header = ["panel", "alpha", "pair", "x", "y"]
    blocks = [["50%", 0.5, ["a%d", "100%"], np.array([1.0, 2.0]), np.array([[3.0], [4.0]])],
              ["5%s", 0.25, ["%"], np.array([5.0]), np.array([[6.0]])]]
    path = _write_csv(str(tmp_path / "percent.csv"), header, blocks)
    assert Path(path).read_text(encoding="utf-8") == (
        "panel,alpha,pair,x,y\n50%,0.5,a%d,1,3\n50%,0.5,100%,2,4\n5%s,0.25,%,5,6\n")


CELLS = ["panel-a", True, np.False_, 7, np.int64(-3), 0.1, np.float64(2.5e-7),
         float("nan"), float("inf"), -0.0, 5e-324]
# what the per-cell formatter of earlier versions wrote for CELLS
WRITTEN = ["panel-a", "1", "0", "7", "-3", "0.10000000000000001", "2.4999999999999999e-07",
           "nan", "inf", "-0", "4.9406564584124654e-324"]


# CELLS twice: as rows of scalars, and as blocks of list, array and fixed columns
@pytest.mark.parametrize("blocks", [
    [CELLS, tuple(CELLS)],
    [[CELLS[0], np.array([True, True]), [np.False_] * 2, 7, np.array([-3, -3]),
      np.array([CELLS[5:]] * 2)]],
    [CELLS[:5] + [[0.1], CELLS[6], np.array([CELLS[7:]])]] * 2,
], ids=["rows", "one-block", "blocks"])
def test_csv_cells_are_written_like_the_per_cell_formatter(tmp_path, blocks):
    header = [f"c{k}" for k in range(len(CELLS))]
    path = _write_csv(str(tmp_path / "mixed.csv"), header, blocks)
    line = ",".join(WRITTEN) + "\n"
    assert Path(path).read_text(encoding="utf-8") == ",".join(header) + "\n" + line + line


@pytest.mark.parametrize("later", [
    CELLS[:3] + [7.0] + CELLS[4:],    # float in an int column: never truncated by %d
    CELLS[:3] + ["7"] + CELLS[4:],    # string in an int column
    CELLS[:5] + [1] + CELLS[6:],      # int in a float column
    CELLS[1:2] + CELLS[1:],           # bool in a string column
    CELLS[:-1],                       # a cell short
    CELLS + [1.0],                    # a cell too many
    CELLS[:5] + [0, np.full((2, 5), 0.5)],            # block whose fixed float cell is an int
    CELLS[:3] + [np.array([7.0, 8.0])] + CELLS[4:],   # float array in an int column
    CELLS[:3] + [[7, 7.0]] + CELLS[4:],               # list mixing int and float cells
    CELLS[:6] + [np.full((2, 4), 0.5)],               # 2-D column a cell too narrow
    CELLS[:6] + [np.full((2, 6), 0.5)],               # 2-D column a cell too wide
    CELLS[:9] + [np.zeros(2), np.zeros(3)],           # columns of different lengths
    CELLS[:5] + [np.array([0.1 + 1j])] + CELLS[6:],   # complex array: no template
    CELLS[:5] + [np.array([0.1], dtype=object)] + CELLS[6:],  # object array: no template
    CELLS[:5] + [0.1 + 1j] + CELLS[6:],               # complex scalar: no template
    CELLS[:5] + [[0.1 + 1j]] + CELLS[6:],             # list of complex cells: no template
], ids=["float-as-int", "str-as-int", "int-as-float", "bool-as-str", "short", "long",
        "fixed-int-as-float", "float-array-as-int", "mixed-list", "narrow-2d", "wide-2d",
        "ragged", "complex-array", "object-array", "complex-scalar", "complex-list"])
def test_csv_row_that_does_not_fit_its_columns_raises(tmp_path, later):
    header = [f"c{k}" for k in range(len(CELLS))]
    path = str(tmp_path / "bad.csv")
    with pytest.raises(ValueError):
        _write_csv(path, header, [CELLS, CELLS, later])
    assert list(tmp_path.iterdir()) == []
    before = Path(_write_csv(path, header, [CELLS])).read_bytes()
    with pytest.raises(ValueError):
        _write_csv(path, header, [CELLS, CELLS, later])
    assert Path(path).read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["bad.csv"]


def test_csv_array_without_a_template_is_named_in_the_error(tmp_path):
    header = ["time", "energy", "rho"]
    with pytest.raises(ValueError, match="block 0 column 'rho' is a complex128 array"):
        _write_csv(str(tmp_path / "bad.csv"), header,
                   [[np.zeros(3), np.zeros(3), np.zeros(3, complex)]])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("block,fragment", [
    ([0.5, 1j], "block 0 column 'rho' is a complex"),
    ([[0.5, 0.5], [1j, 2j]], "block 0 column 'rho' is a list of complex"),
], ids=["scalar", "list"])
def test_csv_cell_without_a_template_is_named_in_the_error(tmp_path, block, fragment):
    with pytest.raises(ValueError, match=fragment + ", which has no CSV template"):
        _write_csv(str(tmp_path / "bad.csv"), ["time", "rho"], [block])
    assert list(tmp_path.iterdir()) == []


def test_the_kernel_warms_up_before_the_first_block_is_computed(tmp_path, monkeypatch):
    # what its first call keeps for good must not land above a run's state stacks
    events = []
    monkeypatch.setattr(experiments, "warm_up", lambda: events.append("warm up"))

    def blocks():
        events.append("block")
        yield [np.array([0.5, 0.25])]

    _write_csv(str(tmp_path / "warm.csv"), ["x"], blocks())
    assert events == ["warm up", "block"]


def test_csv_first_row_must_match_the_header(tmp_path):
    with pytest.raises(ValueError):
        _write_csv(str(tmp_path / "bad.csv"), ["a", "b"], [[1.0, 2.0, 3.0]])


def test_csv_with_a_bad_row_leaves_no_file(tmp_path):
    header = [f"c{k}" for k in range(len(CELLS))]
    rows = [CELLS] * 5000 + [CELLS[:-1]]  # far past the first buffered write
    with pytest.raises(ValueError):
        _write_csv(str(tmp_path / "bad.csv"), header, rows)
    assert list(tmp_path.iterdir()) == []


def test_csv_with_a_bad_row_leaves_the_older_file_intact(tmp_path):
    header = [f"c{k}" for k in range(len(CELLS))]
    path = _write_csv(str(tmp_path / "kept.csv"), header, [CELLS])
    before = Path(path).read_bytes()
    with pytest.raises(ValueError):
        _write_csv(path, header, [CELLS] * 5000 + [CELLS + [1.0]])
    assert Path(path).read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["kept.csv"]


def test_trajectory_figure_failing_at_its_second_beta_leaves_no_csv(tmp_path, monkeypatch):
    calls = []

    def failing_second(liou, rho0, grid):
        calls.append(1)
        if len(calls) == 2:
            raise InvariantViolation("dynamics: trace defect 1e-3 at step 7 (t=3.5)")
        return propagate(liou, rho0, grid)

    monkeypatch.setattr(experiments, "propagate", failing_second)
    config = _config(experiment="fig2", output_dir=str(tmp_path), t_max=10.0,
                     beta_list=(0.2, 0.5, 1.0))
    with pytest.raises(InvariantViolation, match="step 7"):
        run_experiment(config)
    assert list(tmp_path.iterdir()) == []


def test_steady_sweep_failing_at_its_second_family_leaves_no_csv(tmp_path, monkeypatch):
    calls = []

    def failing_second(rho0, liou, t_max, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise InvariantViolation("family 2")
        return evolve_points(rho0, liou, t_max, **kwargs)

    monkeypatch.setattr(experiments, "evolve_points", failing_second)
    config = _config(experiment="appB-diss", output_dir=str(tmp_path), t_max=10.0,
                     beta_list=(0.5,))
    with pytest.raises(InvariantViolation, match="family 2"):
        run_experiment(config)
    assert list(tmp_path.iterdir()) == []


def test_trajectory_figure_writes_each_trajectory_before_the_next_runs(tmp_path, monkeypatch):
    events = []

    def logged_propagate(liou, rho0, grid):
        events.append("propagate")
        return propagate(liou, rho0, grid)

    def logged_blocks(*args):  # logged when the writer asks for its first block
        events.append("blocks")
        yield from _trajectory_blocks(*args)

    monkeypatch.setattr(experiments, "propagate", logged_propagate)
    monkeypatch.setattr(experiments, "_trajectory_blocks", logged_blocks)
    run_experiment(_config(experiment="fig2", output_dir=str(tmp_path), t_max=10.0,
                           beta_list=(0.2, 0.5, 1.0)))
    assert events == ["propagate", "blocks"] * 3


def test_fig4_svg_draws_the_passivity_boundary_and_leaves_the_csv_alone(tmp_path):
    (plain,) = run_experiment(_config(experiment="fig4", output_dir=str(tmp_path / "plain")))
    drawn, svg = run_experiment(_config(experiment="fig4", output_dir=str(tmp_path / "svg"),
                                        emit_svg=True))
    with open(plain, "rb") as a, open(drawn, "rb") as b:
        assert a.read() == b.read()
    assert os.path.basename(svg) == "fig4.svg"
    with open(svg, encoding="utf-8") as handle:
        text = handle.read()
    assert text.count("<polyline") == 1 and ">beta_c(h)</text>" in text
    points = re.search(r'points="([^"]*)"', text).group(1).split()
    x, y = np.array([p.split(",") for p in points], dtype=float).T
    # pixels are affine in the data, written to 0.01 px: x in beta_c(h), y in h
    fields = np.linspace(0.0, 0.9, 50)
    boundary = np.array([oracles.beta_critical(h) for h in fields])
    for pixels, data in ((x, boundary), (y, fields)):
        fit = np.polyval(np.polyfit(data, pixels, 1), data)
        assert np.abs(fit - pixels).max() <= 0.01
    assert np.all(np.diff(x) > 0) and np.all(np.diff(y) < 0)  # h rises up the page


@pytest.mark.parametrize("xs,ys", [([2.0, 2.0, 2.0], [0.0, 1.0, 4.0]),
                                   ([0.0, 1.0, 4.0], [3.0, 3.0, 3.0])],
                         ids=["constant-x", "constant-y"])
def test_a_constant_series_is_drawn_at_finite_pixels(tmp_path, xs, ys):
    path = tmp_path / "flat.svg"
    line_plot_svg(str(path), [("flat", xs, ys)])
    text = path.read_text(encoding="utf-8")
    assert "nan" not in text
    points = re.search(r'points="([^"]*)"', text).group(1).split()
    pixels = np.array([p.split(",") for p in points], dtype=float)
    assert pixels.shape == (3, 2) and np.all(np.isfinite(pixels))
    assert np.all((pixels >= 0) & (pixels <= [720, 480]))


@pytest.mark.parametrize("name", ["fig5", "fig6", "fig8", "appD"])
def test_n4_experiments_never_build_a_whole_state_stack(tmp_path, monkeypatch, name):
    def refuse(traj):
        raise AssertionError("the whole (T, D, D) stack was built")

    monkeypatch.setattr(Trajectory, "states", property(refuse))
    config = _config(experiment=name, output_dir=str(tmp_path), t_max=30.0, dt=0.1,
                     beta_list=(0.2, 5.0))
    header, rows = _read(run_experiment(config)[0])
    assert len(rows) % 301 == 0 and len(rows) >= 2 * 301  # each trajectory spans two slices


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_default_experiments_read_every_state_on_parity_blocks(tmp_path, monkeypatch, name):
    fallbacks = []
    block_spectra = dynamics._block_spectra

    def counted(entries, blocks, out, closed_twos):
        if not closed_twos:  # the sector pass
            fallbacks.append(len(entries))
        block_spectra(entries, blocks, out, closed_twos)

    monkeypatch.setattr(dynamics, "_block_spectra", counted)
    run_experiment(_config(experiment=name, output_dir=str(tmp_path)))
    if name == "fig9-jc":
        # the atom-cavity basis is not a chain's, and the atom's is 2-dim: no parity blocks
        assert fallbacks
    else:
        assert not fallbacks


def test_default_fig9_jc_reads_no_state_on_parity_blocks(tmp_path, monkeypatch):
    # the mirror belongs to the chain: the atom-cavity states once formed their parity
    # entries and even-odd norm, all to be discarded, before their sectors' blocks
    states = {True: 0, False: 0}  # whether the blocks are parity blocks -> states read
    entries_of = dynamics.block_entries

    def counted(rows, blocks, spare=None):
        states[blocks.off.stop > blocks.off.start] += len(rows)  # only parity's have off
        return entries_of(rows, blocks, spare)

    monkeypatch.setattr(dynamics, "block_entries", counted)
    run_experiment(_config(experiment="fig9-jc", output_dir=str(tmp_path)))
    assert states[True] == 0 and states[False] > 0


def test_default_appd_peaks_near_one_full_state_stack(tmp_path):
    # a (2501, 16, 16) complex stack is 10.2 MB; the trajectory keeps 70 of 256
    # entries per state, and its rows are formatted a slice at a time
    config = _config(experiment="appD", output_dir=str(tmp_path))
    run_experiment(config)
    tracemalloc.start()
    try:
        run_experiment(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 2501 * 16 ** 2 * 16
