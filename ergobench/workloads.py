"""Workload definitions and the seed -> experiment-config mapping.

Each workload is a fixed list of registered experiments run in order, one
experiment run per operation.  The seed only redraws the transverse field
`h` and the 5-value inverse-temperature list; every grid, `t_max`, `dt`
and list length stays at the package default, so the work per pass does
not depend on the seed.  Seed 0 is the paper's default parameter set (an
empty config file).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Package defaults the row counts follow; kept here so that the checks do
# not read them back from the program under test.
DEFAULT_H = 0.1
DEFAULT_BETAS = (0.2, 0.5, 1.0, 2.0, 5.0)
OWN_BETA_DEFAULTS = {
    "fig3": (0.2, 0.3, 0.4, 0.5, 1.0, 2.0, 5.0),
    "appD": (0.2, 5.0),
}

# Ranges in which every closed form the checks use holds: h < 1 keeps the
# 2(1-h) plateau of fig2, beta > 0 keeps the collective steady spectrum.
H_RANGE_MILLI = (50, 400)
BETA_RANGE_MILLI = (200, 5000)


@dataclass(frozen=True)
class Workload:
    name: str
    experiments: tuple[str, ...]
    why: str


# The N=2 output/oracle experiments ride with the N=4 trajectories: alone,
# their 5 s passes spread by up to 25% between runs on a shared 2-core host.
WORKLOADS = {w.name: w for w in (
    Workload("steady-sweep", ("fig4", "appB-diss", "appB-deph"),
             "2720 single-state evolve_to jumps: expm/solve bound, few 256x256 "
             "and many 16x16 problems, little CSV"),
    Workload("trajectories", ("fig5", "fig6", "fig8", "appD", "fig2", "fig3",
                              "appB-channels", "appC-check", "fig7", "fig9-jc"),
             "79 propagated trajectories (157k states) and 23 MB of CSV: batched "
             "eigendecomposition, CSV formatting, branch tracking, oracles and jc"),
)}


@dataclass(frozen=True)
class Params:
    """Seeded physical parameters; betas is None for the default list."""

    seed: int
    h: float = DEFAULT_H
    betas: tuple[float, ...] | None = None


def params_for(seed: int) -> Params:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if seed == 0:
        return Params(seed=0)
    rng = random.Random(seed)
    h = rng.randint(*H_RANGE_MILLI) / 1000.0
    betas = tuple(sorted(b / 1000.0 for b in rng.sample(
        range(BETA_RANGE_MILLI[0], BETA_RANGE_MILLI[1] + 1), len(DEFAULT_BETAS))))
    return Params(seed=seed, h=h, betas=betas)


def betas_for(experiment: str, params: Params) -> tuple[float, ...]:
    """Inverse temperatures the experiment sweeps under `config_text`."""
    if experiment in OWN_BETA_DEFAULTS:
        return OWN_BETA_DEFAULTS[experiment]
    return params.betas if params.betas is not None else DEFAULT_BETAS


def config_text(experiment: str, params: Params) -> str:
    """The key=value config the program receives for one experiment run.

    Experiments with their own beta default (fig3, appD) get only `h`, so
    their list length stays the package default.
    """
    if params.betas is None:
        return ""
    lines = [f"h = {params.h!r}"]
    if experiment not in OWN_BETA_DEFAULTS:
        lines.append("beta_list = " + ", ".join(repr(b) for b in params.betas))
    return "\n".join(lines) + "\n"
