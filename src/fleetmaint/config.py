"""System configuration: fleet size, horizon, stock, costs and failure laws.

The on-disk format is a YAML file whose keys mirror the configuration
fields.  Per-component characteristics (``C_P``, ``C_C``, ``weibull_shape``,
``weibull_scale``) live under a ``components`` block which is either a single
mapping (broadcast to the whole fleet) or a list of ``n`` mappings.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml


class ConfigError(ValueError):
    """Raised for a malformed or inconsistent configuration."""


_COMPONENT_KEYS = ("C_P", "C_C", "weibull_shape", "weibull_scale")


@dataclass
class SystemConfig:
    """Parameters of the maintenance system.

    Costs are in k euro, durations in years (one time step = ``dt`` years).
    ``delta_default`` is the sentinel stored in the last-failure vectors for
    "no failure recorded"; it must be negative so that it stays at distance
    >= 1 from every valid elapsed time.
    """

    n: int
    T: int
    D: int
    s_init: int
    C_F: float
    C_P: np.ndarray
    C_C: np.ndarray
    weibull_shape: np.ndarray
    weibull_scale: np.ndarray
    dt: float = 1.0
    tau: float = 0.08
    nu: float = 0.9
    delta_default: float = -1.0

    def __post_init__(self):
        for name in _COMPONENT_KEYS:
            arr = np.broadcast_to(np.asarray(getattr(self, name), dtype=float),
                                  (self.n,)).copy()
            object.__setattr__(self, name, arr)
        self.validate()

    def validate(self):
        for name in ("C_F", "dt", "tau", "nu", "delta_default") \
                + _COMPONENT_KEYS:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigError(f"{name} must be finite")
        if self.n < 1 or self.T < 1 or self.D < 1:
            raise ConfigError("n, T and D must all be >= 1")
        if self.s_init < 0:
            raise ConfigError("initial stock must be nonnegative")
        if not 0.0 < self.nu < 1.0:
            raise ConfigError("PM threshold nu must lie in (0, 1)")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.tau <= -1:
            raise ConfigError("discount rate tau must be > -1")
        if self.delta_default >= 0:
            raise ConfigError("delta_default must be negative")
        if self.C_F < 0 or np.any(self.C_P < 0) or np.any(self.C_C < 0):
            raise ConfigError("costs must be nonnegative")
        if np.any(self.weibull_shape <= 0) or np.any(self.weibull_scale <= 0):
            raise ConfigError("Weibull parameters must be positive")

    def discount(self, t) -> np.ndarray | float:
        """Discount factor (1 + tau)^(-t)."""
        return (1.0 + self.tau) ** (-np.asarray(t, dtype=float))


def _component_arrays(block, n: int) -> dict:
    if isinstance(block, dict):
        blocks = [block] * n
    elif isinstance(block, list):
        if len(block) != n:
            raise ConfigError(f"components list has {len(block)} entries, expected {n}")
        blocks = block
    else:
        raise ConfigError("components must be a mapping or a list of mappings")
    out = {}
    for key in _COMPONENT_KEYS:
        try:
            out[key] = np.array([float(b[key]) for b in blocks])
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"missing or invalid component key {key!r}") from exc
    return out


def load_config(path: str | Path) -> SystemConfig:
    """Load a SystemConfig from a YAML file."""
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} is not a mapping")
    if "components" not in raw:
        raise ConfigError("config is missing the 'components' block")
    raw = dict(raw)
    comps = _component_arrays(raw.pop("components"), int(raw.get("n", 0)))
    allowed = {"n", "T", "D", "s_init", "C_F", "dt", "tau", "nu",
               "delta_default"}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        return SystemConfig(
            n=int(raw["n"]), T=int(raw["T"]), D=int(raw["D"]),
            s_init=int(raw["s_init"]), C_F=float(raw["C_F"]),
            dt=float(raw.get("dt", 1.0)), tau=float(raw.get("tau", 0.08)),
            nu=float(raw.get("nu", 0.9)),
            delta_default=float(raw.get("delta_default", -1.0)),
            **comps,
        )
    except KeyError as exc:
        raise ConfigError(f"config is missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def save_config(cfg: SystemConfig, path: str | Path):
    homogeneous = all(np.all(getattr(cfg, k) == getattr(cfg, k)[0])
                      for k in _COMPONENT_KEYS)
    if homogeneous:
        comps = {k: float(getattr(cfg, k)[0]) for k in _COMPONENT_KEYS}
    else:
        comps = [{k: float(getattr(cfg, k)[i]) for k in _COMPONENT_KEYS}
                 for i in range(cfg.n)]
    doc = {
        "n": cfg.n, "T": cfg.T, "dt": cfg.dt, "D": cfg.D,
        "s_init": cfg.s_init, "tau": cfg.tau, "nu": cfg.nu,
        "C_F": cfg.C_F, "delta_default": cfg.delta_default,
        "components": comps,
    }
    Path(path).write_text(yaml.safe_dump(doc, sort_keys=False))


def case1_config(n: int = 80, s_init: int = 16) -> SystemConfig:
    """Reference test-case parameters (short-lived components)."""
    return SystemConfig(n=n, T=40, D=2, s_init=s_init, C_F=10000.0,
                        C_P=50.0, C_C=200.0, weibull_shape=3.0,
                        weibull_scale=10.0)


def small_system_config() -> SystemConfig:
    """Downscaled tuning system: 10 components, 2 spares."""
    return case1_config(n=10, s_init=2)
