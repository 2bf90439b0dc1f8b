"""Flat key=value experiment configuration.

An empty file (or no file) yields the default parameter set, in units of
the chain coupling J = 1: h = 0.1, gamma = 0.05, dt = 0.5, t_max = 800
and the inverse-temperature grid (0.2, 0.5, 1, 2, 5); the `explicit` set
records which keys the file provides.  `registry.resolve` fixes each
experiment's chain size and refines the keys left unset (appD runs at
dt = 0.1, for example).  MAX_QUBITS is the one chain-size limit, and
`grid_error` the one multiple-of-dt rule, read by `registry.resolve` and
`dynamics.TimeGrid`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

DEFAULT_BETA_GRID = (0.2, 0.5, 1.0, 2.0, 5.0)
# Largest chain anything builds: its dense Liouvillian is 256x256 at four qubits.
MAX_QUBITS = 4


class ConfigError(Exception):
    """Unparseable, unknown or out-of-range configuration input."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str | None = None
    n_qubits: int | None = None
    h: float = 0.1
    gamma: float = 0.05
    beta_list: tuple[float, ...] = DEFAULT_BETA_GRID
    alpha: float = 0.0
    alpha_minus: float = 0.0
    alpha_z: float = 0.0
    t_max: float = 800.0
    dt: float = 0.5
    output_dir: str = "results"
    emit_svg: bool = False
    explicit: frozenset = field(default_factory=frozenset, compare=False)

    def is_explicit(self, key: str) -> bool:
        return key in self.explicit


_FLOAT_KEYS = ("h", "gamma", "alpha", "alpha_minus", "alpha_z", "t_max", "dt")
_KNOWN_KEYS = _FLOAT_KEYS + ("experiment", "n_qubits", "beta_list", "output_dir", "emit_svg")


def _parse_float(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from None


def _parse_bool(key: str, text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {text!r}")


def validate_config(raw: str) -> ExperimentConfig:
    """Parse key=value text into a range-checked ExperimentConfig."""
    values: dict = {}
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, text = stripped.partition("=")
        key = key.strip().lower()
        text = text.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key in _FLOAT_KEYS:
            values[key] = _parse_float(key, text)
        elif key == "n_qubits":
            try:
                values[key] = int(text)
            except ValueError:
                raise ConfigError(f"n_qubits: expected an integer, got {text!r}") from None
        elif key == "beta_list":
            parts = [p for p in (piece.strip() for piece in text.split(",")) if p]
            if not parts:
                raise ConfigError("beta_list must not be empty")
            values[key] = tuple(_parse_float("beta_list", p) for p in parts)
        elif key == "emit_svg":
            values[key] = _parse_bool(key, text)
        else:
            values[key] = text

    config = ExperimentConfig(**values, explicit=frozenset(values))
    _check_ranges(config)
    return config


def grid_error(t_max: float, dt: float) -> str | None:
    """Why t_max is no whole number of dt steps (to 1e-9 relative), or None if it is."""
    if abs(round(t_max / dt) * dt - t_max) > 1e-9 * max(1.0, t_max):
        return f"t_max {t_max} is not a multiple of dt {dt}"
    return None


def _check_ranges(config: ExperimentConfig) -> None:
    for name in _FLOAT_KEYS:
        if not math.isfinite(getattr(config, name)):
            raise ConfigError(f"{name} must be finite, got {getattr(config, name)}")
    if any(not math.isfinite(b) for b in config.beta_list):
        raise ConfigError(f"beta values must be finite, got {config.beta_list}")
    for name in ("alpha", "alpha_minus", "alpha_z"):
        value = getattr(config, name)
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{name} out of [0,1]: {value}")
    if config.gamma < 0:
        raise ConfigError(f"gamma must be >= 0, got {config.gamma}")
    if config.h < 0:
        raise ConfigError(f"h must be >= 0, got {config.h}")
    if config.n_qubits is not None and not 1 <= config.n_qubits <= MAX_QUBITS:
        raise ConfigError(f"n_qubits must be in 1..{MAX_QUBITS}, got {config.n_qubits}")
    if not config.beta_list:
        raise ConfigError("beta_list must not be empty")
    if any(b < 0 for b in config.beta_list):
        raise ConfigError(f"beta values must be >= 0, got {config.beta_list}")
    if not 0.0 < config.dt <= 1.0:
        raise ConfigError(f"dt must be in (0, 1], got {config.dt}")
    if config.t_max < config.dt:
        raise ConfigError(f"t_max must be >= dt, got {config.t_max}")
