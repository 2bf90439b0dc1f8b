"""Dissipative quenches of small XX spin-chain batteries.

Gibbs states are propagated under GKSL generators whose dissipative part
interpolates between local and collective dissipation/dephasing channels;
the ergotropy of the resulting trajectories is analyzed and cross-checked
against closed-form sector solutions.

The exports load lazily: `_EXPORTS` names the submodule that defines
each one, and the first access to a name imports that submodule and
caches the name here, so `import ergoquench` loads neither numpy nor any
engine module, and `ergoquench list` answers without them.  A submodule
named in the table resolves the same way.  One name is both: the export
`ergotropy` is the single-state function, and it stays that whichever of
`ergoquench.ergotropy` and the `ergotropy` submodule is imported first,
because the binding of a submodule over an exported name is dropped.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "channels": ("ChannelSpec", "Liouvillian", "build_liouvillian"),
    "config": ("ConfigError", "ExperimentConfig", "validate_config"),
    "dynamics": ("InvariantViolation", "TimeGrid", "Trajectory", "evolve_to", "propagate"),
    "ergotropy": ("ErgotropyRecord", "eigenvalue_crossings", "energy_basis_populations",
                  "ergotropy", "trajectory_records"),
    "jc": ("JCSpec", "compare_jc", "default_jc_spec", "effective_atom_evolution",
           "jc_full_evolution", "jc_hamiltonian"),
    "linalg": ("expm", "hermitian_eig", "hermitian_eig_batch", "kron", "null_space_hermitian"),
    "model": ("ModelSpec", "build_hamiltonian", "check_density_matrix", "collective_operator",
              "gibbs_state", "site_operator"),
    "oracles": ("DarkSubspace", "TwoQubitBlockState", "beta_critical",
                "collective_steady_spectrum", "dark_population_series", "dark_subspace",
                "dephasing_two_qubit_block", "p_dark", "p_dark_derivative", "steady_s_infinity",
                "steady_state_is_passive", "two_qubit_collective_sc", "two_qubit_parallel_block"),
    "experiments": ("EXPERIMENTS", "run_experiment"),
}.items() for name in names}

__all__ = list(_EXPORTS)


class _LazyExports(ModuleType):
    def __getattr__(self, name):
        if name in _EXPORTS:
            value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
            self.__dict__[name] = value
            return value
        if name in _EXPORTS.values():
            return import_module(f".{name}", __name__)
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

    def __setattr__(self, name, value):
        # the import system binds each loaded submodule here; an export of that name wins
        if not (name in _EXPORTS and isinstance(value, ModuleType)):
            super().__setattr__(name, value)

    def __dir__(self):
        return sorted(set(super().__dir__()) | _EXPORTS.keys())


sys.modules[__name__].__class__ = _LazyExports
