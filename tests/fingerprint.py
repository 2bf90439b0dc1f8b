"""Fingerprints of the 13 default CSVs, and the script that writes tests/fingerprints.json.

    PYTHONPATH=src python tests/fingerprint.py

runs every registered experiment at its default config into a temporary
directory and records, per CSV: its header and row count, which columns
are float columns, a SHA-256 of its text and integer columns, and for
each float column its count, sum x, sum |x|, min, max and a projection
w.x onto fixed-seed normal weights.  Beside them the file records the
environment it was written in (Python, numpy, BLAS, CPU, BLAS threads),
each whole file's SHA-256, and whether that digest matched the one the
previous fingerprints.json held (null when there was none), so that a
move at rounding level shows in the file's diff even where the
statistics agree.  test_fingerprints.py compares a fresh run against it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

FINGERPRINTS = Path(__file__).with_name("fingerprints.json")
PROJECTION_SEED = 20261020
INTEGER = re.compile(r"-?\d+\Z")
FLOAT = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?\Z")


def run_defaults(out_dir) -> dict:
    """{experiment: CSV path} of every registered experiment run at its default config."""
    from ergoquench.config import validate_config
    from ergoquench.experiments import run_experiment
    from ergoquench.registry import DESCRIPTIONS, resolve

    paths = {}
    for name in DESCRIPTIONS:
        config = replace(validate_config(""), experiment=name, output_dir=str(out_dir),
                         explicit=frozenset({"experiment", "output_dir"}))
        paths[name] = run_experiment(resolve(config))[0]
    return paths


def _kind(cells) -> str:
    """'int' if every cell is an integer literal, 'float' if every cell is a number, else 'text'."""
    if all(INTEGER.match(cell) for cell in cells):
        return "int"
    if all(FLOAT.match(cell) for cell in cells):
        return "float"
    return "text"


def fingerprint(path) -> dict:
    """The fingerprint of one CSV; see the module docstring."""
    data = Path(path).read_bytes()
    header, *rows = data.decode("utf-8").splitlines()
    names = header.split(",")
    columns = list(zip(*(row.split(",") for row in rows))) or [()] * len(names)
    kinds = [_kind(column) for column in columns]
    exact = hashlib.sha256()
    for row in zip(*(column for column, kind in zip(columns, kinds) if kind != "float")):
        exact.update((",".join(row) + "\n").encode())
    weights = np.random.default_rng(PROJECTION_SEED).standard_normal(len(rows))
    floats = {}
    for name, column, kind in zip(names, columns, kinds):
        if kind == "float":
            x = np.array(column, dtype=float)
            floats[name] = {"count": len(x), "sum": math.fsum(x), "abs_sum": math.fsum(np.abs(x)),
                            "min": float(x.min()), "max": float(x.max()),
                            "projection": math.fsum(weights * x)}
    return {"header": names, "rows": len(rows), "kinds": kinds,
            "exact_sha256": exact.hexdigest(), "floats": floats,
            "file_sha256": hashlib.sha256(data).hexdigest()}


def environment() -> dict:
    """Python, numpy and BLAS versions, the CPU and the BLAS thread setting of this process."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}", "cpu": cpu,
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main() -> int:
    previous = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {"files": {}}
    with tempfile.TemporaryDirectory() as out_dir:
        files = {}
        for name, path in run_defaults(out_dir).items():
            record = fingerprint(path)
            old = previous["files"].get(name, {}).get("file_sha256")
            record["file_sha256_matched_previous"] = (None if old is None
                                                      else old == record["file_sha256"])
            files[name] = record
    FINGERPRINTS.write_text(json.dumps({"environment": environment(), "files": files},
                                       indent=1) + "\n")
    print(FINGERPRINTS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
