"""Timed passes, output checks, the environment record and the result line.

Load shape: one process, closed loop; the next experiment starts when the
previous one returns.  One pass runs every experiment of a workload once;
each experiment run is one operation.  An operation fails if it raises, if
its CSV fails `checks.check_csv`, or if its CSV bytes differ from the first
pass of the same invocation.

End-to-end metrics (tracing off):
  wall_s       median wall time of one pass, CSV writes included
  setup_s      median time for a fresh interpreter to finish `ergoquench list`
  peak_mem_mb  peak resident set size of this process over the timed passes
With --trace 1 one untraced and one traced pass give the per-layer metrics
instead (see `layer_metrics`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import ergoquench
from ergoquench import EXPERIMENTS, run_experiment, validate_config

from checks import check_csv
from tracer import Tracer
from workloads import WORKLOADS, Params, config_text, params_for

MIN_PASSES = 2          # the determinism check compares passes of one invocation
SETUP_LAUNCHES = 9      # timed interpreter launches, after one untimed warm-up
LIST_COMMAND = "import sys; from ergoquench.cli import main; sys.exit(main())"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_mem_mb": "MB"}


def _per_layer_units() -> dict[str, str]:
    units = {}
    for name in ("linalg.expm", "dynamics.propagate", "dynamics.evolve_to",
                 "ergotropy.ergotropy", "ergotropy.trajectory_records",
                 "ergotropy.eigenvalue_crossings"):
        units.update({f"{name}.busy_s": "s", f"{name}.self_s": "s"})
    for name in ("linalg.expm", "linalg.solve", "linalg.eig", "model.gibbs_state",
                 "channels.build_liouvillian", "dynamics.propagate", "dynamics.evolve_to",
                 "ergotropy.ergotropy", "ergotropy.trajectory_records", "oracles"):
        units.update({f"{name}.calls": "count", f"{name}.busy_s": "s"})
    units.update({
        "linalg.expm.dim256_calls": "count",
        "linalg.expm.calls_per_liouvillian": "ratio",
        "linalg.eig.matrices": "count",
        "linalg.eig.matrices_per_state": "ratio",
        "dynamics.propagate.states": "count",
        "ergotropy.energy_basis_populations.busy_s": "s",
        "jc.compare_jc.busy_s": "s",
        "experiments.self_s": "s",
        "trace.overhead_s": "s",
    })
    for name in EXPERIMENTS:
        units.update({f"experiments.{name}.wall_s": "s", f"experiments.{name}.csv_bytes": "B"})
    return dict(sorted(units.items()))


PER_LAYER = _per_layer_units()


@dataclass
class Op:
    experiment: str
    seconds: float
    path: str | None = None
    digest: str | None = None
    size: int = 0
    error: str | None = None


@dataclass
class Pass:
    wall_s: float
    ops: list[Op]


def run_pass(experiments, params: Params, out_dir: str, tracer: Tracer | None = None) -> Pass:
    """Run each experiment once into out_dir, then hash what it wrote."""
    configs = [replace(validate_config(config_text(name, params)), experiment=name,
                       output_dir=out_dir) for name in experiments]
    ops = []
    start = time.perf_counter()
    for config in configs:
        t0 = time.perf_counter()
        paths, error = [], None
        span = tracer.span(f"experiments.{config.experiment}") if tracer else nullcontext()
        try:
            with span:
                paths = run_experiment(config)
        except Exception as exc:  # an operation that raises is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        ops.append(Op(config.experiment, time.perf_counter() - t0, error=error,
                      path=paths[0] if paths else None))
    wall = time.perf_counter() - start
    for op in ops:
        if op.path is not None:
            with open(op.path, "rb") as handle:
                data = handle.read()
            op.digest, op.size = hashlib.sha256(data).hexdigest(), len(data)
    return Pass(wall, ops)


def judge(passes: list[Pass], params: Params) -> list[str]:
    """One message per failed operation; the first pass is the byte reference."""
    reference = {op.experiment: op for op in passes[0].ops}
    verdicts: dict[tuple[str, str], list[str]] = {}
    failures = []
    for index, run in enumerate(passes):
        for op in run.ops:
            ref = reference[op.experiment]
            if op.error is not None:
                failures.append(f"pass {index} {op.experiment}: {op.error}")
            elif op.digest != ref.digest:
                failures.append(f"pass {index} {op.experiment}: CSV bytes differ from pass 0")
            else:
                key = (op.experiment, op.digest)
                if key not in verdicts:
                    verdicts[key] = check_csv(op.experiment, ref.path, params)
                if verdicts[key]:
                    failures.append(f"pass {index} {op.experiment}: "
                                    + "; ".join(verdicts[key]))
    return failures


def measure_setup(src: Path) -> float:
    """Median seconds for a fresh interpreter to import the package and list experiments."""
    env = dict(os.environ, PYTHONPATH=str(src))
    samples = []
    for launch in range(SETUP_LAUNCHES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", LIST_COMMAND, "list"], env=env,
                              capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        listed = [line.split()[0] for line in proc.stdout.splitlines() if line.strip()]
        if proc.returncode != 0 or listed != list(EXPERIMENTS):
            raise RuntimeError(f"`ergoquench list` failed ({proc.returncode}): {proc.stderr}")
        if launch:
            samples.append(elapsed)
    return statistics.median(samples)


def layer_metrics(tracer: Tracer, traced: Pass, untraced: Pass) -> dict[str, float]:
    stats = tracer.stats
    values = {f"{layer}.{key}": value
              for layer, counters in stats.items() for key, value in counters.items()}
    states = stats["dynamics.propagate"]["states"] + stats["dynamics.evolve_to"]["states"]
    liouvillians = stats["channels.build_liouvillian"]["calls"]
    values["linalg.eig.matrices_per_state"] = (
        stats["linalg.eig"]["matrices"] / states if states else 0.0)
    values["linalg.expm.calls_per_liouvillian"] = (
        stats["linalg.expm"]["calls"] / liouvillians if liouvillians else 0.0)
    values["experiments.self_s"] = sum(
        stats[f"experiments.{op.experiment}"]["self_s"] for op in traced.ops)
    for op in untraced.ops:
        values[f"experiments.{op.experiment}.wall_s"] = op.seconds
        values[f"experiments.{op.experiment}.csv_bytes"] = op.size
    values["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}


def environment(root: Path, params: Params, passes: list[Pass]) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except TypeError:  # numpy < 1.26 has no dict mode
        blas = None
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    per_experiment: dict[str, list[float]] = {}
    for run in passes:
        for op in run.ops:
            per_experiment.setdefault(op.experiment, []).append(op.seconds)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "ERGOQUENCH_THREADS": os.environ.get("ERGOQUENCH_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "seed": params.seed,
        "h": params.h,
        "beta_list": params.betas,
        "passes": len(passes),
        "experiment_wall_s": {name: statistics.median(v) for name, v in per_experiment.items()},
    }


def run_workload(name: str, params: Params, seconds: float, trace: bool, root: Path) -> dict:
    experiments = WORKLOADS[name].experiments
    with tempfile.TemporaryDirectory(prefix=".ergobench-", dir=root) as work:
        def one_pass(index, tracer=None):
            out = os.path.join(work, f"pass{index}")
            result = run_pass(experiments, params, out, tracer)
            if index:  # pass 0 stays on disk as the reference the checks read
                shutil.rmtree(out)
            return result

        if trace:
            tracer = Tracer()
            passes = [one_pass(0)]
            with tracer.installed():
                passes.append(one_pass(1, tracer))
            metrics = layer_metrics(tracer, passes[1], passes[0])
            units = PER_LAYER
        else:
            setup_s = measure_setup(root / "src")
            passes = []
            start = time.perf_counter()
            while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
                passes.append(one_pass(len(passes)))
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {"wall_s": statistics.median(p.wall_s for p in passes),
                       "setup_s": setup_s, "peak_mem_mb": peak_mb}
            units = END_TO_END
        failures = judge(passes, params)

    attempted = sum(len(p.ops) for p in passes)
    print(f"workload {name}, seed {params.seed}, {len(passes)} passes"
          + (", traced" if trace else ""))
    for metric, value in metrics.items():
        print(f"  {metric:<42} {value:.6g} {units[metric]}")
    print(f"  {'ops':<42} {attempted}\n  {'ops_failed':<42} {len(failures)}")
    for failure in failures:
        print(f"  FAILED {failure}")
    untraced = passes[:1] if trace else passes
    print(json.dumps({"env": environment(root, params, untraced)}))
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}


def main(argv, root: Path) -> int:
    parser = argparse.ArgumentParser(prog="ergobench")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measuring window; at least two passes run regardless")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(ergoquench.__file__).resolve().parent != (root / "src" / "ergoquench").resolve():
        print(f"error: ergoquench imported from {ergoquench.__file__}", file=sys.stderr)
        return 2
    params = params_for(args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        print(json.dumps(run_workload(name, params, args.seconds, bool(args.trace), root)),
              flush=True)
    return 0
