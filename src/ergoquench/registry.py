"""The experiment registry, readable without numpy: names, order and descriptions,
the chain size and refined defaults of each experiment, and which ones build a grid.

`ergoquench list` and `resolve` read these tables before the engine loads;
`experiments.EXPERIMENTS` pairs each entry, in this order, with its runner.
"""

from dataclasses import replace

from .config import ConfigError, ExperimentConfig, grid_error

DESCRIPTIONS = {
    "fig2": "N=2 parallel dissipation: ergotropy activation and the 2(1-h) plateau",
    "fig3": "N=2 collective dissipation: temperature-dependent steady ergotropy",
    "fig4": "steady-state passivity phase diagram on a 50x50 (beta, h) grid",
    "fig5": "N=4 parallel dissipation: transient ergotropy crossings",
    "fig6": "N=4 collective dissipation: dark-subspace protected ergotropy",
    "fig7": "dark-subspace thermal occupation p_dark versus beta (N=4)",
    "fig8": "parallel dephasing for N=2 and N=4: no transient crossings",
    "fig9-jc": "lossy-cavity two-level model versus its effective decay equation",
    "appB-diss": "steady ergotropy versus dissipative collectivity alpha_minus",
    "appB-deph": "steady ergotropy versus dephasing collectivity alpha_z",
    "appB-channels": "dissipation/dephasing mixing: same plateau, slower settling",
    "appC-check": "engine versus closed-form sector solutions (max deviations)",
    "appD": "N=4 eigenvalue-crossing analysis with energy-basis populations",
}

# The chain size each experiment fixes.  fig8, appB-diss and appB-deph run
# N=2 and N=4 unless n_qubits is set; fig9-jc has no chain.
CHAIN_SIZES = {"fig2": 2, "fig3": 2, "fig4": 2, "appB-channels": 2, "appC-check": 2,
               "fig5": 4, "fig6": 4, "fig7": 4, "appD": 4}

# Defaults an experiment refines; a key the config sets explicitly wins.
REFINED = {
    "fig3": {"beta_list": (0.2, 0.3, 0.4, 0.5, 1.0, 2.0, 5.0)},  # near-critical beta
    "appB-channels": {"t_max": 4000.0, "dt": 1.0},  # mixing slows relaxation by (1 - alpha)
    "appD": {"t_max": 250.0, "dt": 0.1, "beta_list": (0.2, 5.0)},  # dt resolves the crossings
}

# The experiments that propagate on a t_max/dt grid, so t_max must be a multiple of dt.
GRID_EXPERIMENTS = {"fig2", "fig3", "fig5", "fig6", "fig8", "appB-channels", "appC-check", "appD"}


def resolve(config: ExperimentConfig) -> ExperimentConfig:
    """config as its experiment runs it, with its chain size fixed and unset keys refined.

    Raises ConfigError unless config names a registered experiment, any
    n_qubits agrees with the size it fixes, a grid experiment's t_max is a
    multiple of its dt and appC-check's betas are positive, all read after
    refining.  `explicit` is kept as it is.
    """
    name = config.experiment
    if not name:
        raise ConfigError("no experiment selected")
    if name not in DESCRIPTIONS:
        known = ", ".join(sorted(DESCRIPTIONS))
        raise ConfigError(f"unknown experiment {name!r} (known: {known})")
    n = CHAIN_SIZES.get(name, config.n_qubits)
    if config.n_qubits not in (None, n):
        raise ConfigError(f"experiment {name!r} fixes n_qubits={n}")
    refined = {key: value for key, value in REFINED.get(name, {}).items()
               if not config.is_explicit(key)}
    config = replace(config, n_qubits=n, **refined)
    if name in GRID_EXPERIMENTS and (error := grid_error(config.t_max, config.dt)):
        raise ConfigError(error)
    if name == "appC-check" and min(config.beta_list) <= 0:
        raise ConfigError(f"appC-check's collective steady spectrum needs beta > 0, "
                          f"got beta_list {config.beta_list}")
    return config
