import numpy as np
import pytest

from ergoquench.cli import main
from ergoquench.config import (DEFAULT_BETA_GRID, ConfigError, ExperimentConfig,
                               validate_config)
from ergoquench.registry import DESCRIPTIONS, resolve

# the chain size each experiment fixes, as the paper runs it
FIXED_N = {"fig2": 2, "fig3": 2, "fig4": 2, "appB-channels": 2, "appC-check": 2,
           "fig5": 4, "fig6": 4, "fig7": 4, "appD": 4}


def test_empty_config_gives_defaults():
    config = validate_config("")
    assert config.h == 0.1
    assert config.gamma == 0.05
    assert config.dt == 0.5
    assert config.t_max == 800.0
    assert config.beta_list == DEFAULT_BETA_GRID
    assert not config.is_explicit("h")


def test_parse_and_explicit_tracking():
    config = validate_config("""
        # comment
        h = 0.2
        beta_list = 0.5, 1, 2
        emit_svg = true
        n_qubits = 2
    """)
    assert config.h == 0.2
    assert config.beta_list == (0.5, 1.0, 2.0)
    assert config.emit_svg is True
    assert config.n_qubits == 2
    assert config.is_explicit("h") and config.is_explicit("beta_list")
    assert not config.is_explicit("gamma")


def test_string_keys_and_a_false_flag_parse_from_config_text():
    config = validate_config("experiment = fig4\noutput_dir = out/run 1\nemit_svg = false\n")
    assert config.experiment == "fig4"
    assert config.output_dir == "out/run 1"
    assert config.emit_svg is False
    assert config.explicit == {"experiment", "output_dir", "emit_svg"}


@pytest.mark.parametrize("text,fragment", [
    ("alpha = 1.5", "alpha out of [0,1]"),
    ("alpha_minus = -0.1", "alpha_minus out of [0,1]"),
    ("j = 1", "unknown key 'j'"),
    ("beta_list =", "beta_list must not be empty"),
    ("mystery = 3", "unknown key"),
    ("gamma = fast", "expected a number"),
    ("dt = 2.0", "dt must be in (0, 1]"),
    ("h = 0.1\nh = 0.2", "duplicate key"),
    ("n_qubits = 9", "n_qubits must be in 1..4"),
    ("emit_svg = maybe", "expected a boolean"),
    ("just a line", "expected key=value"),
])
def test_config_errors(text, fragment):
    with pytest.raises(ConfigError) as err:
        validate_config(text)
    assert fragment in str(err.value)


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig2", "fig4", "fig9-jc", "appB-channels", "appD"):
        assert name in out


def test_cli_run_fig2_and_determinism(tmp_path, capsys):
    config = tmp_path / "fast.cfg"
    config.write_text("t_max = 10\nbeta_list = 0.5, 2\n")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--experiment", "fig2", "--config", str(config),
                 "--out", str(out_a)]) == 0
    assert main(["run", "--experiment", "fig2", "--config", str(config),
                 "--out", str(out_b)]) == 0
    capsys.readouterr()
    bytes_a = (out_a / "fig2.csv").read_bytes()
    bytes_b = (out_b / "fig2.csv").read_bytes()
    assert bytes_a == bytes_b
    header = bytes_a.decode().splitlines()[0]
    assert header.startswith("beta,time,energy,passive_energy,ergotropy,lambda_0")


def test_cli_svg_flag(tmp_path, capsys):
    config = tmp_path / "fast.cfg"
    config.write_text("t_max = 5\nbeta_list = 0.5\n")
    out = tmp_path / "svg"
    assert main(["run", "--experiment", "fig2", "--config", str(config),
                 "--out", str(out), "--svg"]) == 0
    capsys.readouterr()
    svg = (out / "fig2.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


@pytest.mark.parametrize("name,text,fragment", [
    ("fig2", "alpha = 1.5", "alpha out of [0,1]"),
    ("fig2", "t_max = 10.3", "not a multiple of dt"),
    ("appB-channels", "dt = 0.3", "not a multiple of dt"),  # default t_max 4000
    ("appC-check", "beta_list = 0, 1\nt_max = 10", "needs beta > 0"),
], ids=["alpha-out-of-range", "t_max-off-grid", "dt-off-grid", "appc-beta-zero"])
def test_cli_config_error_exit_code(tmp_path, capsys, name, text, fragment):
    config = tmp_path / "bad.cfg"
    config.write_text(text + "\n")
    assert main(["run", "--experiment", name, "--config", str(config),
                 "--out", str(tmp_path / "out")]) == 2
    assert fragment in capsys.readouterr().err


# the experiments that propagate on a t_max/dt grid
GRID = {"fig2", "fig3", "fig5", "fig6", "fig8", "appB-channels", "appC-check", "appD"}


@pytest.mark.parametrize("name", sorted(DESCRIPTIONS))
def test_resolve_refuses_an_off_grid_t_max_only_where_a_grid_is_built(name):
    config = ExperimentConfig(experiment=name, t_max=1000.0, dt=0.3,
                              explicit=frozenset({"experiment", "t_max", "dt"}))
    if name in GRID:
        with pytest.raises(ConfigError, match=r"^t_max 1000\.0 is not a multiple of dt 0\.3$"):
            resolve(config)
    else:
        assert (resolve(config).t_max, resolve(config).dt) == (1000.0, 0.3)


def test_resolve_refuses_a_zero_beta_for_appc_check_only():
    for name in DESCRIPTIONS:
        config = ExperimentConfig(experiment=name, beta_list=(0.0, 1.0))
        if name == "appC-check":
            with pytest.raises(ConfigError, match="needs beta > 0, got beta_list \\(0.0, 1.0\\)"):
                resolve(config)
        else:
            resolve(config)


def test_cli_fig4_builds_no_grid_and_runs_at_an_off_grid_dt(tmp_path, capsys):
    config = tmp_path / "dt.cfg"
    config.write_text("dt = 0.3\n")  # 800 is no multiple of 0.3
    assert main(["run", "--experiment", "fig4", "--config", str(config),
                 "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"{tmp_path / 'fig4.csv'}\n"
    assert len((tmp_path / "fig4.csv").read_text().splitlines()) == 1 + 50 * 50


@pytest.mark.parametrize("threads", ["abc", "0"], ids=["threads-not-integer",
                                                     "threads-below-one"])
def test_cli_ignores_the_removed_threads_variable(tmp_path, capsys, monkeypatch, threads):
    # every sweep runs serially; a value that once exited with status 2 changes nothing
    monkeypatch.setenv("ERGOQUENCH_THREADS", threads)
    assert main(["run", "--experiment", "fig7", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "fig7.csv").exists()
    assert capsys.readouterr().err == ""


def test_cli_unknown_experiment(tmp_path, capsys):
    assert main(["run", "--experiment", "fig99", "--out", str(tmp_path)]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_cli_missing_config_file(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert main(["run", "--experiment", "fig2", "--config", str(missing)]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_cli_output_directory_that_cannot_be_made(tmp_path, capsys):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    assert main(["run", "--experiment", "fig7", "--out", str(blocker / "sub")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and "Traceback" not in err


def test_cli_csv_that_cannot_be_written(tmp_path, capsys):
    (tmp_path / "fig7.csv").mkdir()  # no file can replace a directory
    assert main(["run", "--experiment", "fig7", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write output: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig7.csv"]


def test_config_rejects_non_finite_values():
    with pytest.raises(ConfigError):
        validate_config("gamma = nan")
    with pytest.raises(ConfigError):
        validate_config("beta_list = 1, inf")


def test_cli_numerical_violation_exit_code(tmp_path, capsys, monkeypatch):
    from ergoquench import cli
    from ergoquench.dynamics import InvariantViolation

    def boom(config):
        raise InvariantViolation("dynamics: positivity defect 1e-3 at step 7 (t=3.5)")

    monkeypatch.setattr(cli, "run_experiment", boom)
    assert main(["run", "--experiment", "fig2", "--out", str(tmp_path)]) == 3
    assert "step 7" in capsys.readouterr().err


def test_cli_mismatched_qubits(tmp_path, capsys):
    config = tmp_path / "n.cfg"
    config.write_text("n_qubits = 4\nt_max = 5\nbeta_list = 0.5\n")
    assert main(["run", "--experiment", "fig2", "--config", str(config),
                 "--out", str(tmp_path / "x")]) == 2
    assert "fixes n_qubits=2" in capsys.readouterr().err


def test_config_dataclass_direct_use():
    config = ExperimentConfig(experiment="fig2", beta_list=(1.0,))
    assert config.experiment == "fig2"
    assert not config.is_explicit("t_max")


@pytest.mark.parametrize("name", sorted(FIXED_N))
def test_resolve_fixes_the_chain_size_of_each_fixed_size_experiment(name):
    n = FIXED_N[name]
    assert resolve(ExperimentConfig(experiment=name)).n_qubits == n
    assert resolve(validate_config(f"n_qubits = {n}\nexperiment = {name}")).n_qubits == n
    other = 6 - n
    for config in (validate_config(f"n_qubits = {other}\nexperiment = {name}"),
                   ExperimentConfig(experiment=name, n_qubits=other)):  # explicit or not
        with pytest.raises(ConfigError, match=f"^experiment {name!r} fixes n_qubits={n}$"):
            resolve(config)


@pytest.mark.parametrize("name", ["fig8", "appB-diss", "appB-deph", "fig9-jc"])
def test_resolve_leaves_the_chain_size_of_the_other_experiments_as_set(name):
    for n in (None, 1, 3):
        assert resolve(ExperimentConfig(experiment=name, n_qubits=n)).n_qubits == n


@pytest.mark.parametrize("text,grid", [
    ("", (250.0, 0.1, (0.2, 5.0))),
    ("t_max = 5", (5.0, 0.1, (0.2, 5.0))),
    ("dt = 0.5\nbeta_list = 1", (250.0, 0.5, (1.0,))),
    ("t_max = 800\ndt = 0.5\nbeta_list = 0.2, 0.5, 1, 2, 5", (800.0, 0.5, DEFAULT_BETA_GRID)),
], ids=["empty", "t_max", "dt-and-betas", "all-at-the-package-defaults"])
def test_resolve_refines_only_the_keys_the_config_leaves_unset(text, grid):
    config = validate_config(text + "\nexperiment = appD")
    resolved = resolve(config)
    assert (resolved.t_max, resolved.dt, resolved.beta_list) == grid
    assert resolved.explicit == config.explicit
    assert resolve(resolved) == resolved


def test_resolve_refinements_of_fig3_and_appb_channels():
    fig3 = resolve(ExperimentConfig(experiment="fig3"))
    assert fig3.beta_list == (0.2, 0.3, 0.4, 0.5, 1.0, 2.0, 5.0)
    assert (fig3.t_max, fig3.dt) == (800.0, 0.5)
    channels = resolve(ExperimentConfig(experiment="appB-channels"))
    assert (channels.t_max, channels.dt, channels.beta_list) == (4000.0, 1.0, DEFAULT_BETA_GRID)
    plain = ExperimentConfig(experiment="fig5", h=0.3)
    assert resolve(plain) == ExperimentConfig(experiment="fig5", h=0.3, n_qubits=4)


@pytest.mark.parametrize("experiment,fragment", [
    (None, "no experiment selected"), ("", "no experiment selected"),
    ("fig99", "unknown experiment 'fig99' (known: appB-channels, "),
])
def test_resolve_refuses_a_missing_or_unknown_name(experiment, fragment):
    with pytest.raises(ConfigError) as info:
        resolve(ExperimentConfig(experiment=experiment))
    assert str(info.value).startswith(fragment)
