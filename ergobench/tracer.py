"""Per-layer spans around the package's public functions, installed from outside.

`Tracer.installed()` replaces each traced function, in every loaded
`ergoquench` module that binds it (under any name), by a wrapper that
records calls, inclusive time of the outermost call (`busy_s`) and that
time minus the time spent in wrapped children (`self_s`).  A call into a
layer that is already on the stack (hermitian_eig -> hermitian_eig_batch)
belongs to the outer span and is not counted again.  The originals are put
back on exit.

A layer whose function is missing, or a module that binds a traced name
to a different object, raises `TracerError` instead of silently reporting
zero for that layer.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "ergoquench"

# Public oracle functions the experiments call; summed into one layer.
ORACLE_FUNCTIONS = ("beta_critical", "collective_steady_spectrum", "dark_population_series",
                    "dark_subspace", "dephasing_two_qubit_block", "p_dark",
                    "p_dark_derivative", "steady_state_is_passive", "two_qubit_collective_sc",
                    "two_qubit_parallel_block")


def _expm_counts(args, result):
    return {"dim256_calls": int(len(args[0]) == 256)}


def _eig_counts(args, result):
    vals = result[0]
    return {"matrices": vals.shape[0] if vals.ndim == 2 else 1}


def _propagate_counts(args, result):
    return {"states": len(result)}


def _evolve_counts(args, result):
    return {"states": 1}


# layer -> ((module, function), ...), counter hook
LAYERS = {
    "linalg.expm": ((("linalg", "expm"),), _expm_counts),
    "linalg.solve": ((("linalg", "solve"),), None),
    "linalg.eig": ((("linalg", "hermitian_eig"), ("linalg", "hermitian_eig_batch")),
                   _eig_counts),
    "model.gibbs_state": ((("model", "gibbs_state"),), None),
    "channels.build_liouvillian": ((("channels", "build_liouvillian"),), None),
    "dynamics.propagate": ((("dynamics", "propagate"),), _propagate_counts),
    "dynamics.evolve_to": ((("dynamics", "evolve_to"),), _evolve_counts),
    "ergotropy.ergotropy": ((("ergotropy", "ergotropy"),), None),
    "ergotropy.trajectory_records": ((("ergotropy", "trajectory_records"),), None),
    "ergotropy.energy_basis_populations": ((("ergotropy", "energy_basis_populations"),), None),
    "ergotropy.eigenvalue_crossings": ((("ergotropy", "eigenvalue_crossings"),), None),
    "oracles": (tuple(("oracles", name) for name in ORACLE_FUNCTIONS), None),
    "jc.compare_jc": ((("jc", "compare_jc"),), None),
}


class TracerError(RuntimeError):
    """A traced function is missing or shadowed; the layer cannot be measured."""


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self._stack: list[list[float]] = []   # child time of each open span
        self._open: set[str] = set()

    def _enter(self):
        self._stack.append([0.0])
        return time.perf_counter()

    def _leave(self, layer: str, start: float) -> float:
        elapsed = time.perf_counter() - start
        children = self._stack.pop()[0]
        if self._stack:
            self._stack[-1][0] += elapsed
        stats = self.stats[layer]
        stats["calls"] += 1
        stats["busy_s"] += elapsed
        stats["self_s"] += elapsed - children
        return elapsed

    def _wrap(self, layer: str, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer in self._open:
                return fn(*args, **kwargs)
            self._open.add(layer)
            start = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.discard(layer)
                self._leave(layer, start)
            if counts is not None:
                for key, value in counts(args, result).items():
                    self.stats[layer][key] += value
            return result
        return traced

    @contextmanager
    def span(self, layer: str):
        """Root span (one experiment run); wrapped calls inside are its children."""
        start = self._enter()
        try:
            yield
        finally:
            self._leave(layer, start)

    @contextmanager
    def installed(self):
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        patches = []
        try:
            for layer, (targets, counts) in LAYERS.items():
                for module_name, fn_name in targets:
                    fn = _resolve(module_name, fn_name)
                    _check_not_shadowed(modules, fn_name, fn)
                    wrapper = self._wrap(layer, fn, counts)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is fn:
                                patches.append((mod, attr, fn))
                                setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, fn in reversed(patches):
                setattr(mod, attr, fn)


def _resolve(module_name: str, fn_name: str):
    full = f"{PACKAGE}.{module_name}"
    module = sys.modules.get(full)
    if module is None:
        raise TracerError(f"module {full} is not loaded")
    fn = vars(module).get(fn_name)
    if not callable(fn) or getattr(fn, "__module__", None) != full:
        raise TracerError(f"{full}.{fn_name} is missing or not defined in {full}")
    return fn


def _check_not_shadowed(modules, fn_name: str, fn) -> None:
    for mod in modules:
        value = vars(mod).get(fn_name)
        if value is not None and value is not fn and callable(value):
            raise TracerError(f"{mod.__name__}.{fn_name} is not {fn.__module__}.{fn_name}")
