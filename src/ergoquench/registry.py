"""The experiment registry's names, order and descriptions, readable without numpy.

`ergoquench list` and the name check of `ergoquench run` read this table
before the engine loads; `experiments.EXPERIMENTS` pairs each entry, in
this order, with its runner.
"""

from .config import ConfigError

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


def check_experiment(name: str | None) -> None:
    """Raise ConfigError unless name is a registered experiment."""
    if not name:
        raise ConfigError("no experiment selected")
    if name not in DESCRIPTIONS:
        known = ", ".join(sorted(DESCRIPTIONS))
        raise ConfigError(f"unknown experiment {name!r} (known: {known})")
