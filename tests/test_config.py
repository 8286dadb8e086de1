"""System configuration: validation of the fields."""
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fleetmaint.config import (ConfigError, SystemConfig, case1_config,
                               load_config, save_config)
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


@pytest.mark.parametrize("field", ["n", "T", "D"])
def test_sizes_below_one_rejected(field):
    # checked before n sizes the per-component arrays
    with pytest.raises(ConfigError, match="n, T and D"):
        make_cfg(**{field: -5})


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


@st.composite
def fleets(draw):
    """Configs with per-component costs and failure laws: heterogeneous
    fleets, with a homogeneous one now and then."""
    n = draw(st.integers(1, 6))

    def per_component(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    cost = st.floats(0.0, 1e4)
    law = st.floats(1e-2, 1e3)
    return SystemConfig(
        n=n, T=draw(st.integers(1, 60)), D=draw(st.integers(1, 5)),
        s_init=draw(st.integers(0, 20)), C_F=draw(cost),
        C_P=per_component(cost), C_C=per_component(cost),
        weibull_shape=per_component(law), weibull_scale=per_component(law),
        dt=draw(st.floats(1e-3, 10.0)), tau=draw(st.floats(-0.99, 1.0)),
        nu=draw(st.floats(0.01, 0.99)),
        delta_default=draw(st.floats(-10.0, -1e-3)))


@settings(max_examples=60, deadline=None)
@given(fleets())
def test_config_file_roundtrip(tmp_path_factory, cfg):
    path = tmp_path_factory.mktemp("config") / "config.yaml"
    save_config(cfg, path)
    back = load_config(path)
    for field in dataclasses.fields(SystemConfig):
        assert np.array_equal(getattr(back, field.name),
                              getattr(cfg, field.name)), field.name
