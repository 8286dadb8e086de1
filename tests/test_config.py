"""System configuration: validation of the fields."""
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from fleetmaint.config import (ConfigError, SystemConfig, case1_config,
                               load_config)
from fleetmaint.sysmodel import Strategy


def make_cfg(**kw):
    base = dict(n=2, T=3, D=2, s_init=1, C_F=10000.0, C_P=50.0, C_C=200.0,
                weibull_shape=3.0, weibull_scale=10.0)
    base.update(kw)
    return SystemConfig(**base)


def test_valid_config_accepted():
    cfg = make_cfg()
    assert cfg.discount(1) == pytest.approx(1 / 1.08)


@pytest.mark.parametrize("field, value", [
    ("C_F", math.nan),
    ("dt", math.nan),
    ("tau", math.nan),
    ("weibull_shape", math.nan),
    ("weibull_shape", [3.0, math.nan]),
    ("weibull_scale", math.inf),
    ("C_P", [50.0, math.nan]),
    ("delta_default", math.nan),
])
def test_non_finite_fields_rejected(field, value):
    with pytest.raises(ConfigError, match=field):
        make_cfg(**{field: value})


@pytest.mark.parametrize("tau", [-1.0, -2.5])
def test_discount_rate_at_or_below_minus_one_rejected(tau):
    # (1 + tau)^(-t) divides by zero at tau = -1
    with pytest.raises(ConfigError):
        make_cfg(tau=tau)


def test_strategy_rejects_nan():
    u = np.zeros((2, 3))
    u[1, 2] = np.nan
    with pytest.raises(ValueError):
        Strategy(u)


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```yaml\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    path = tmp_path / "readme.yaml"
    path.write_text(blocks[0])
    cfg, ref = load_config(path), case1_config()
    for field in dataclasses.fields(SystemConfig):
        assert np.array_equal(getattr(cfg, field.name),
                              getattr(ref, field.name)), field.name
