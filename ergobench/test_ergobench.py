"""Tests of the benchmark itself: seeding, output checks and the tracer."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

import ergoquench
from ergoquench import EXPERIMENTS, validate_config

from harness import END_TO_END, PER_LAYER, Pass, judge, run_pass
from tracer import Tracer, TracerError
from workloads import DEFAULT_BETAS, OWN_BETA_DEFAULTS, WORKLOADS, config_text, params_for

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_workloads_cover_every_experiment_once():
    names = [e for w in WORKLOADS.values() for e in w.experiments]
    assert sorted(names) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("seed", [0, 1, 2, 17, 2**31])
def test_seed_config_mapping_is_deterministic_and_valid(seed):
    params = params_for(seed)
    assert params == params_for(seed)
    for experiment in EXPERIMENTS:
        text = config_text(experiment, params)
        assert text == config_text(experiment, params_for(seed))
        config = validate_config(text)
        assert (config.t_max, config.dt) == (800.0, 0.5)
        assert config.h == params.h
        if seed == 0:
            assert text == ""
        if experiment in OWN_BETA_DEFAULTS:
            assert not config.is_explicit("beta_list")
        else:
            assert len(config.beta_list) == len(DEFAULT_BETAS)
            assert list(config.beta_list) == sorted(set(config.beta_list))
            assert all(b > 0 for b in config.beta_list)
    assert 0.0 < params.h < 1.0


def test_seeds_draw_different_parameters():
    assert params_for(1) != params_for(2)


@pytest.fixture(scope="module")
def fig2_pass(tmp_path_factory):
    params = params_for(5)
    run = run_pass(["fig2"], params, str(tmp_path_factory.mktemp("fig2")))
    return run, params


def _corrupted(run, edit, tmp_path):
    """Copy the pass-0 CSV, apply edit to its lines, and point a copy of the pass at it."""
    op = run.ops[0]
    lines = Path(op.path).read_text().splitlines()
    copy = tmp_path / "fig2.csv"
    copy.write_text("\n".join(edit(lines)) + "\n")
    return Pass(run.wall_s, [type(op)(**{**vars(op), "path": str(copy)})])


def test_clean_output_passes(fig2_pass):
    run, params = fig2_pass
    assert run.ops[0].error is None
    assert judge([run, run], params) == []


def test_broken_spectrum_sum_is_a_failed_operation(fig2_pass, tmp_path):
    run, params = fig2_pass

    def bump_lambda0(lines):
        cells = lines[100].split(",")
        cells[5] = repr(float(cells[5]) + 1e-6)
        lines[100] = ",".join(cells)
        return lines

    failures = judge([_corrupted(run, bump_lambda0, tmp_path)], params)
    assert len(failures) == 1 and "sum to 1" in failures[0]


def test_dropped_row_is_a_failed_operation(fig2_pass, tmp_path):
    run, params = fig2_pass
    failures = judge([_corrupted(run, lambda lines: lines[:-1], tmp_path)], params)
    assert len(failures) == 1 and "rows" in failures[0]


def test_differing_bytes_across_passes_fail(fig2_pass):
    run, params = fig2_pass
    op = run.ops[0]
    other = Pass(run.wall_s, [type(op)(**{**vars(op), "digest": "0" * 64})])
    failures = judge([run, other], params)
    assert len(failures) == 1 and "differ" in failures[0]


def test_tracer_raises_when_a_wrapped_name_is_missing(monkeypatch):
    original = ergoquench.linalg.expm
    monkeypatch.delattr(ergoquench.linalg, "solve")
    with pytest.raises(TracerError, match="solve"):
        with Tracer().installed():
            pass
    assert ergoquench.linalg.expm is original
    assert ergoquench.dynamics.expm is original


def test_tracer_raises_when_a_name_is_shadowed(monkeypatch):
    monkeypatch.setattr(ergoquench.dynamics, "expm", lambda m: m)
    with pytest.raises(TracerError, match="dynamics.expm"):
        with Tracer().installed():
            pass


def test_tracer_counts_nested_layer_calls_once_and_restores():
    modules = [ergoquench.linalg, ergoquench.model, ergoquench.ergotropy,
               ergoquench.experiments, ergoquench.oracles]
    before = [vars(m).get("hermitian_eig") for m in modules]
    tracer = Tracer()
    with tracer.installed():
        assert ergoquench.experiments.hermitian_eig is not before[3]
        ergoquench.model.gibbs_state(np.diag([1.0, -1.0]).astype(complex), 1.0)
    assert [vars(m).get("hermitian_eig") for m in modules] == before
    eig = tracer.stats["linalg.eig"]
    assert (eig["calls"], eig["matrices"]) == (1, 1)
    gibbs = tracer.stats["model.gibbs_state"]
    assert gibbs["calls"] == 1
    assert gibbs["self_s"] == pytest.approx(gibbs["busy_s"] - eig["busy_s"])


def test_benchmark_json_matches_the_harness():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert all(os.path.isdir(BENCHMARK_JSON.parent / p) for p in spec["paths"])
