"""System configuration: fleet size, horizon, stock, costs and failure laws.

The on-disk format is a YAML file whose keys mirror the configuration
fields.  Per-component characteristics (``C_P``, ``C_C``, ``weibull_shape``,
``weibull_scale``) live under a ``components`` block which is either a single
mapping (broadcast to the whole fleet) or a list of ``n`` mappings; a
mapping holding any other key is rejected.  The other keys are the scalar
fields, read by :func:`typed_fields`.
"""
from __future__ import annotations

import numbers
from dataclasses import MISSING, dataclass, fields
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
        if self.n < 1 or self.T < 1 or self.D < 1:
            raise ConfigError("n, T and D must all be >= 1")
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


def _typed(value, kind: str):
    """``value`` as ``kind``, "int" or "float": a number or a string that
    type parses (PyYAML reads ``1.0e3`` as a string), never a bool, and
    for "int" never a fractional number."""
    if isinstance(value, bool) or not isinstance(value, (numbers.Real, str)):
        raise ValueError
    if kind == "float":
        return float(value)
    if not isinstance(value, str) and value % 1:      # fractional, inf, nan
        raise ValueError
    return int(value)


def typed_fields(cls, raw, what: str, skip=()) -> dict:
    """The fields of dataclass ``cls`` read from the mapping ``raw``, each
    converted to its declared type, ``int`` or ``float``.

    A missing field takes the dataclass default.  Raises ConfigError for a
    key that is not a field, for a missing field without a default and for
    a value of the wrong type.  Fields named in ``skip`` are left to the
    caller and are not accepted as keys.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} is not a mapping")
    declared = [f for f in fields(cls) if f.name not in skip]
    unknown = set(raw) - {f.name for f in declared}
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown, key=str)}")
    out = {}
    for f in declared:
        if f.name not in raw:
            if f.default is MISSING:
                raise ConfigError(f"{what} is missing key {f.name!r}")
            continue
        try:
            out[f.name] = _typed(raw[f.name], f.type)
        except ValueError:
            raise ConfigError(f"{what} key {f.name!r} must be {f.type}, got "
                              f"{raw[f.name]!r}") from None
    return out


def _component_arrays(block, n: int) -> dict:
    if isinstance(block, dict):
        blocks = [block] * n
    elif isinstance(block, list):
        if len(block) != n:
            raise ConfigError(f"components list has {len(block)} entries, expected {n}")
        blocks = block
    else:
        raise ConfigError("components must be a mapping or a list of mappings")
    unknown = {k for b in blocks if isinstance(b, dict) for k in b}
    unknown -= set(_COMPONENT_KEYS)
    if unknown:
        raise ConfigError(f"unknown component keys: {sorted(unknown, key=str)}")
    out = {}
    for key in _COMPONENT_KEYS:
        try:
            out[key] = np.array([_typed(b[key], "float") for b in blocks])
        except (KeyError, TypeError, ValueError) as exc:
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
    block = raw.pop("components")
    scalars = typed_fields(SystemConfig, raw, "config", skip=_COMPONENT_KEYS)
    return SystemConfig(**scalars, **_component_arrays(block, scalars["n"]))


def save_config(cfg: SystemConfig, path: str | Path):
    """Write ``cfg`` as a YAML file that :func:`load_config` reads back."""
    homogeneous = all(np.all(getattr(cfg, k) == getattr(cfg, k)[0])
                      for k in _COMPONENT_KEYS)
    if homogeneous:
        comps = {k: float(getattr(cfg, k)[0]) for k in _COMPONENT_KEYS}
    else:
        comps = [{k: float(getattr(cfg, k)[i]) for k in _COMPONENT_KEYS}
                 for i in range(cfg.n)]
    scalars = {f.name: getattr(cfg, f.name) for f in fields(SystemConfig)
               if f.name not in _COMPONENT_KEYS}
    doc = typed_fields(SystemConfig, scalars, "config", skip=_COMPONENT_KEYS)
    Path(path).write_text(yaml.safe_dump({**doc, "components": comps},
                                         sort_keys=False))


def case1_config(n: int = 80, s_init: int = 16) -> SystemConfig:
    """Reference test-case parameters (short-lived components)."""
    return SystemConfig(n=n, T=40, D=2, s_init=s_init, C_F=10000.0,
                        C_P=50.0, C_C=200.0, weibull_shape=3.0,
                        weibull_scale=10.0)


def small_system_config() -> SystemConfig:
    """Downscaled tuning system: 10 components, 2 spares."""
    return case1_config(n=10, s_init=2)
