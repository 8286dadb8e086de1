"""Command-line front end: files, sampling, tuning, mode dispatch."""
import dataclasses
import multiprocessing
import os
import re
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from fleetmaint.config import (SystemConfig, load_config, save_config,
                               small_system_config)
from fleetmaint import appdecomp as ad
from fleetmaint import cli
from fleetmaint import evalharness as ev
from fleetmaint import sysmodel as sm
from fleetmaint.sysmodel import Strategy


def small_cfg(**kw):
    base = dict(n=2, T=3, D=2, s_init=1, C_F=10000.0, C_P=50.0, C_C=200.0,
                weibull_shape=3.0, weibull_scale=10.0)
    base.update(kw)
    return SystemConfig(**base)


def param_vector(p):
    """The six decomposition parameters of ``p``, in file order."""
    return np.array([getattr(p, k) for k in cli._PARAM_KEYS])


def run_cli(**flags):
    """``cli.main`` on ``--name value`` for each keyword, underscores in
    the name written as dashes."""
    return cli.main([arg for name, value in flags.items()
                     for arg in (f"--{name.replace('_', '-')}", str(value))])


# ---------------------------------------------------------------------------
# file round-trips


def test_strategy_roundtrip(tmp_path):
    cfg = small_cfg()
    u = np.random.default_rng(0).random((2, 3))
    path = tmp_path / "strategy.csv"
    cli.save_strategy(Strategy(u), cfg, path)
    back = cli.load_strategy(path, cfg)
    assert np.array_equal(back.controls, u)
    header = path.read_text().split("\n")[0]
    assert header.startswith("n=2,T=3,nu=")


def test_strategy_file_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("n=2,T=3,nu=0.9\n0.1,0.2\n")
    with pytest.raises(Exception):
        cli.load_strategy(path, small_cfg())


def test_params_roundtrip(tmp_path):
    p = ad.tuned_params(iterations=7, subproblem_budget=42)
    path = tmp_path / "params.yaml"
    cli.save_params(p, path)
    back = cli.load_params(path)
    assert back == p


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4), st.integers(0, 200),
       st.integers(1, 5000))
def test_lhs_params_roundtrip(tmp_path_factory, seed, count, iterations,
                              budget):
    # Latin hypercube draws hold numpy floats; the file holds plain numbers
    path = tmp_path_factory.mktemp("params") / "params.yaml"
    for p in cli.lhs_sample(ad.PARAM_BOUNDS, count, seed):
        p = dataclasses.replace(p, iterations=iterations,
                                subproblem_budget=budget)
        cli.save_params(p, path)
        back = cli.load_params(path)
        for field in dataclasses.fields(ad.APPParams):
            assert getattr(back, field.name) == getattr(p, field.name)


def test_params_file_rejects_garbage(tmp_path):
    path = tmp_path / "params.yaml"
    path.write_text("gamma_u0: -3\n")
    with pytest.raises(Exception):
        cli.load_params(path)


# ---------------------------------------------------------------------------
# Latin hypercube sampling


def test_lhs_stratification():
    bounds = [(0.0, 1.0)] * 6
    samples = cli.lhs_sample(bounds, 4, seed=1)
    arr = np.array([param_vector(p) for p in samples])
    assert arr.shape == (4, 6)
    for j in range(6):
        strata = np.sort(np.floor(arr[:, j] * 4).astype(int))
        assert np.array_equal(strata, [0, 1, 2, 3])


def test_lhs_respects_bounds():
    samples = cli.lhs_sample(ad.PARAM_BOUNDS, 10, seed=2)
    for p in samples:
        for val, (lo, hi) in zip(param_vector(p), ad.PARAM_BOUNDS):
            assert lo <= val <= hi


def test_lhs_deterministic():
    a = cli.lhs_sample(ad.PARAM_BOUNDS, 5, seed=9)
    b = cli.lhs_sample(ad.PARAM_BOUNDS, 5, seed=9)
    assert all(np.array_equal(param_vector(x), param_vector(y))
               for x, y in zip(a, b))


def test_lhs_maximin_improves_separation(monkeypatch):
    bounds = [(0.0, 1.0)] * 6

    def min_sep(samples):
        arr = np.array([param_vector(p) for p in samples])
        d = np.sqrt(((arr[:, None] - arr[None, :]) ** 2).sum(-1))
        iu = np.triu_indices(len(samples), k=1)
        return d[iu].min()

    monkeypatch.setattr(cli, "LHS_RESTARTS", 1)
    one = cli.lhs_sample(bounds, 8, seed=3)
    monkeypatch.setattr(cli, "LHS_RESTARTS", 40)
    many = cli.lhs_sample(bounds, 8, seed=3)
    assert min_sep(many) >= min_sep(one)


def test_lhs_validation():
    with pytest.raises(ValueError):
        cli.lhs_sample([(0.0, 1.0)] * 6, 0, seed=1)
    with pytest.raises(ValueError):
        cli.lhs_sample([(1.0, 0.0)] * 6, 2, seed=1)


# ---------------------------------------------------------------------------
# tuning


def test_tune_single_sample_wins():
    cfg = small_cfg()
    noises = ev.generate_scenarios(2, 3, 4, seed=0)
    val = ev.generate_scenarios(2, 3, 10, seed=1)
    p = ad.tuned_params(iterations=1, subproblem_budget=5)
    best, board = cli.tune(cfg, [p], noises, val, seed=0)
    assert best is p
    assert len(board) == 1 and board[0]["index"] == 0


def test_tune_leaderboard_sorted():
    cfg = small_cfg(n=3, T=4)
    noises = ev.generate_scenarios(3, 4, 5, seed=0)
    val = ev.generate_scenarios(3, 4, 20, seed=1)
    samples = cli.lhs_sample(ad.PARAM_BOUNDS, 3, seed=5)
    for p in samples:
        p.iterations, p.subproblem_budget = 2, 15
    best, board = cli.tune(cfg, samples, noises, val, seed=0)
    costs = [rec["cost"] for rec in board]
    assert costs == sorted(costs)
    assert best is samples[board[0]["index"]]


def _tune_board(monkeypatch, cores, validation_count):
    """The (index, cost) board of a 2-sample tune with ``cores`` usable
    cores; no worker outlives it, and no tune worker starts a pool."""
    class ParentOnly(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            assert multiprocessing.parent_process() is None, "nested pool"
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(sm, "_usable_cores", lambda: cores)
    monkeypatch.setattr(sm, "ProcessPoolExecutor", ParentOnly)
    cfg = small_cfg()
    noises = ev.generate_scenarios(2, 3, 3, seed=0)
    val = sm.ScenarioSet(2, 3, validation_count, 1)
    samples = cli.lhs_sample(ad.PARAM_BOUNDS, 2, seed=7)
    for p in samples:
        p.iterations, p.subproblem_budget = 1, 8
    _, board = cli.tune(cfg, samples, noises, val, seed=0)
    assert multiprocessing.active_children() == []
    return [(r["index"], r["cost"]) for r in board]


@pytest.mark.parametrize("validation_count", [10, 2049])
def test_tune_boards_equal_across_worker_counts(monkeypatch,
                                                validation_count):
    """One core and two give the same board.  At 2 049 validation
    scenarios each sample's scoring has two engine blocks, which a tune
    worker steps in its own process."""
    assert (_tune_board(monkeypatch, 2, validation_count)
            == _tune_board(monkeypatch, 1, validation_count))


# ---------------------------------------------------------------------------
# run() dispatch


def write_cfg(tmp_path, cfg):
    path = tmp_path / "config.yaml"
    save_config(cfg, path)
    return str(path)


def test_simulate_reproducible(tmp_path):
    cfg_path = write_cfg(tmp_path, small_cfg())
    for sub in ("a", "b"):
        rc = run_cli(mode="simulate", config=cfg_path,
                     seed=3, out=str(tmp_path / sub))
        assert rc == 0
    a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert a == b


def test_optimize_direct_budget_one(tmp_path):
    cfg_path = write_cfg(tmp_path, small_cfg())
    rc = run_cli(mode="optimize-direct", config=cfg_path,
                 seed=1, out=str(tmp_path / "o"),
                 budget=1, scenarios=3)
    assert rc == 0
    strat = cli.load_strategy(tmp_path / "o" / "strategy.csv", small_cfg())
    assert np.all(strat.controls == 0.0)


def test_optimize_app_writes_artifacts(tmp_path):
    cfg_path = write_cfg(tmp_path, small_cfg())
    rc = run_cli(mode="optimize-app", config=cfg_path,
                 seed=1, out=str(tmp_path / "o"),
                 iterations=2, budget=10, scenarios=3)
    assert rc == 0
    out = tmp_path / "o"
    strat = cli.load_strategy(out / "strategy.csv", small_cfg())
    assert strat.controls.shape == (2, 3)
    proj = cli.load_strategy(out / "strategy_projected.csv",
                             small_cfg())
    assert set(np.unique(proj.controls)) <= {0.0, 1.0}
    assert (out / "history.csv").exists()


def test_evaluate_mode(tmp_path):
    cfg = small_cfg()
    cfg_path = write_cfg(tmp_path, cfg)
    spath = tmp_path / "strategy.csv"
    cli.save_strategy(Strategy(np.zeros((2, 3))), cfg, spath)
    rc = run_cli(mode="evaluate", config=cfg_path, seed=2,
                 out=str(tmp_path / "o"),
                 strategy=str(spath),
                 validation_scenarios=30)
    assert rc == 0
    out = tmp_path / "o"
    for name in ("report.csv", "report.txt", "pm_cumulative.csv",
                 "empty_stock.csv"):
        assert (out / name).exists()
    # fractional controls score as the binary schedule they stand for
    frac = Strategy(np.array([[0.95, 0.5, 0.0], [0.9, 0.2, 1.0]]))
    reports = []
    for name, strat in (("frac", frac),
                        ("bin", ev.project_strategy(frac, cfg.nu))):
        cli.save_strategy(strat, cfg, tmp_path / f"{name}.csv")
        rc = run_cli(mode="evaluate", config=cfg_path,
                     seed=2, out=str(tmp_path / name),
                     strategy=str(tmp_path / f"{name}.csv"),
                     validation_scenarios=30)
        assert rc == 0
        reports.append((tmp_path / name / "report.csv").read_bytes())
    assert reports[0] == reports[1]


def test_evaluate_wrong_size_strategy_exit_code(tmp_path):
    cfg_path = write_cfg(tmp_path, small_cfg())
    spath = tmp_path / "strategy.csv"
    cli.save_strategy(Strategy(np.zeros((1, 3))), small_cfg(), spath)
    rc = run_cli(mode="evaluate", config=cfg_path, seed=2,
                 out=str(tmp_path / "o"),
                 strategy=str(spath),
                 validation_scenarios=30)
    assert rc == cli.EXIT_DIMENSION


@pytest.mark.parametrize("text", [
    "garbage\n0.0,0.0\n",                  # header without key=value pairs
    "T=1,nu=0.9\n0.0,0.0\n",               # no n
    "n=2,nu=0.9\n0.0,0.0\n",               # no T
    "n=two,T=1,nu=0.9\n0.0,0.0\n",
    "n=2,T=1,nu=0.9\n0.0,zero\n",
    "n=2,T=1,nu=0.9\n0.0,nan\n",
])
def test_evaluate_malformed_strategy_exit_code(tmp_path, text):
    cfg_path = write_cfg(tmp_path, small_cfg(T=1))
    spath = tmp_path / "strategy.csv"
    spath.write_text(text)
    rc = run_cli(mode="evaluate", config=cfg_path, seed=2,
                 out=str(tmp_path / "o"),
                 strategy=str(spath),
                 validation_scenarios=30)
    assert rc == cli.EXIT_CONFIG


@pytest.mark.parametrize("header", ["n=2,T=1,nu=0.4", "n=2,T=1"])
def test_evaluate_strategy_for_another_nu_exit_code(tmp_path, header):
    # entries of 0.5 are PMs under nu=0.4 and no-ops under the config's
    # nu=0.9, so scoring the file would silently change the schedule
    cfg_path = write_cfg(tmp_path, small_cfg(T=1, nu=0.9))
    spath = tmp_path / "strategy.csv"
    spath.write_text(header + "\n0.5,0.5\n")
    rc = run_cli(mode="evaluate", config=cfg_path, seed=2,
                 out=str(tmp_path / "o"),
                 strategy=str(spath),
                 validation_scenarios=30)
    assert rc == cli.EXIT_CONFIG
    with pytest.raises(cli.ConfigError):
        cli.load_strategy(spath, small_cfg(T=1, nu=0.9))
    if "nu=" in header:
        assert cli.load_strategy(spath, small_cfg(T=1, nu=0.4)).controls \
            .shape == (2, 1)


def test_evaluate_requires_strategy(tmp_path):
    cfg_path = write_cfg(tmp_path, small_cfg())
    rc = run_cli(mode="evaluate", config=cfg_path, seed=2,
                 out=str(tmp_path / "o"))
    assert rc == cli.EXIT_CONFIG


def test_tune_mode(tmp_path):
    cfg_path = write_cfg(tmp_path, small_cfg())
    rc = run_cli(mode="tune", config=cfg_path, seed=4,
                 out=str(tmp_path / "o"), iterations=1,
                 budget=5, scenarios=3,
                 validation_scenarios=10, lhs_count=2)
    assert rc == 0
    board = (tmp_path / "o" / "leaderboard.csv").read_text().strip()
    assert len(board.split("\n")) == 3
    best = cli.load_params(tmp_path / "o" / "best_params.yaml")
    assert isinstance(best, ad.APPParams)


def test_tune_largest_seed(tmp_path):
    # the validation scenarios use the next seed, which wraps round to 0
    out = tmp_path / "o"
    rc = cli.main(["--mode", "tune", "--seed", str((1 << 64) - 1),
                   "--lhs-count", "1", "--iterations", "0", "--budget", "1",
                   "--scenarios", "1", "--validation-scenarios", "1",
                   "--out", str(out)])
    assert rc == 0
    assert (out / "leaderboard.csv").exists()


@pytest.mark.parametrize("key, value", [("gamma_u0", ".nan"),
                                        ("alpha0", ".inf")])
def test_non_finite_params_exit_code(tmp_path, capsys, key, value):
    p = ad.tuned_params()
    path = tmp_path / "params.yaml"
    path.write_text("".join(f"{k}: {value if k == key else getattr(p, k)}\n"
                            for k in cli._PARAM_KEYS))
    rc = cli.main(["--mode", "optimize-app", "--params", str(path),
                   "--iterations", "1", "--budget", "1", "--scenarios", "1",
                   "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and "finite" in err
    assert not (tmp_path / "o" / "history.csv").exists()


@pytest.mark.parametrize("flag, content", [
    ("--config", b"\xff\xfe\x00bad"),
    ("--strategy", b"\xff\xfe\x00bad"),
    ("--params", b"\xff\xfe\x00bad"),
    ("--params", b"gamma_u0: [1\n"),
], ids=["binary-config", "binary-strategy", "binary-params", "yaml-params"])
def test_unreadable_input_file_exit_code(tmp_path, capsys, flag, content):
    # a file that is not UTF-8, or not YAML, is a bad input file: exit 3
    # with one line on stderr
    path = tmp_path / "input"
    path.write_bytes(content)
    mode = "evaluate" if flag == "--strategy" else "optimize-app"
    rc = cli.main(["--mode", mode, flag, str(path), "--iterations", "1",
                   "--budget", "1", "--scenarios", "1",
                   "--validation-scenarios", "1",
                   "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error: bad config")


def test_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("n: -5\n")
    rc = run_cli(mode="simulate", config=str(bad), seed=0,
                 out=str(tmp_path / "o"))
    assert rc == cli.EXIT_CONFIG


def set_key(path, key, text):
    """Give ``key`` of the YAML file at ``path`` (top level or in its
    components mapping) the YAML text ``text``; append the key at the top
    level when the file has no line for it.  ``components.<key>`` adds the
    key to the single components mapping, ``components.<i>.<key>`` to the
    i-th mapping of a components list."""
    if key.startswith("components."):
        doc = yaml.safe_load(path.read_text())
        *entry, name = key.split(".")[1:]
        block = doc["components"]
        (block[int(entry[0])] if entry else block)[name] = yaml.safe_load(text)
        path.write_text(yaml.safe_dump(doc))
        return
    body = path.read_text()
    body, found = re.subn(rf"(?m)^(\s*){key}: .*$",
                          lambda m: f"{m.group(1)}{key}: {text}", body)
    path.write_text(body if found else body + f"{key}: {text}\n")


@pytest.mark.parametrize("flag, key, text", [
    ("--config", "n", "2.7"),
    ("--config", "n", "true"),
    ("--config", "n", "abc"),
    ("--config", "T", '"2.5"'),
    ("--config", "weibull_shape", "abc"),
    ("--config", "C_F", "true"),
    ("--config", "components.weibul_scale", "99.0"),
    ("--config", "components.1.weibul_scale", "99.0"),
    # the failure-record sentinel is a constant, no longer a config key
    ("--config", "delta_default", "-0.01"),
    ("--params", "iterations", "1.7"),
    ("--params", "d_alpha", "true"),
    ("--params", "typo_key", "5"),
])
def test_mistyped_input_file_key_exit_code(tmp_path, capsys, flag, key,
                                           text):
    # counts are whole numbers, values are numbers and never booleans, and
    # every key is a field of SystemConfig or APPParams, or a per-component
    # key in a components mapping: anything else is a bad input file, exit
    # 3 with one stderr line naming the key
    path = tmp_path / "input.yaml"
    if flag == "--config":
        # two Weibull scales make save_config write a components list
        save_config(small_cfg(weibull_scale=[10.0, 12.0] if key.count(".") == 2
                              else 10.0), path)
    else:
        cli.save_params(ad.tuned_params(), path)
    set_key(path, key, text)
    mode = "simulate" if flag == "--config" else "optimize-app"
    rc = cli.main(["--mode", mode, flag, str(path), "--iterations", "1",
                   "--budget", "1", "--scenarios", "1",
                   "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and f"'{key.rsplit('.', 1)[-1]}'" in err


@pytest.mark.parametrize("key, text", [("weibull_scale", "1.0e3"),
                                       ("n", "10.0"), ("n", '"10"')])
def test_numbers_written_otherwise_load(tmp_path, key, text):
    # PyYAML reads 1.0e3 as a string; a whole-number float and a string of
    # digits are counts
    plain = small_cfg(n=10, weibull_scale=1000.0)
    path = tmp_path / "config.yaml"
    save_config(plain, path)
    set_key(path, key, text)
    cfg = load_config(path)
    for field in dataclasses.fields(SystemConfig):
        assert np.array_equal(getattr(cfg, field.name),
                              getattr(plain, field.name)), field.name
    assert type(cfg.n) is int


def test_config_with_scenario_count_exit_code(tmp_path, capsys):
    # the scenario count is a run flag, not a config key
    cfg_path = write_cfg(tmp_path, small_cfg())
    with open(cfg_path, "a") as fh:
        fh.write("Q: 7\n")
    rc = run_cli(mode="optimize-app", config=cfg_path,
                 seed=0, out=str(tmp_path / "o"),
                 iterations=1, budget=2, scenarios=2)
    assert rc == cli.EXIT_CONFIG
    assert "unknown config keys: ['Q']" in capsys.readouterr().err


def test_unwritable_output_exit_code(tmp_path):
    cfg_path = write_cfg(tmp_path, small_cfg())
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory")
    rc = run_cli(mode="simulate", config=cfg_path, seed=0,
                 out=str(blocker))
    assert rc == cli.EXIT_OUTPUT


def test_unknown_mode_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--mode", "explode", "--seed", "0", "--out", "x"])
    assert exc.value.code == cli.EXIT_USAGE


@pytest.mark.parametrize("mode, flag, value", [
    ("optimize-direct", "--scenarios", "0"),
    ("optimize-app", "--budget", "0"),
    ("simulate", "--seed", "-1"),
    ("tune", "--lhs-count", "0"),
])
def test_out_of_range_flag_is_usage_error(tmp_path, capsys, mode, flag,
                                          value):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--mode", mode, flag, value, "--out", str(tmp_path / "o")])
    assert exc.value.code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and flag in err
    assert not (tmp_path / "o").exists()


def test_main_entry(tmp_path):
    cfg_path = write_cfg(tmp_path, small_cfg())
    rc = cli.main(["--mode", "simulate", "--config", cfg_path,
                   "--seed", "1", "--out", str(tmp_path / "o")])
    assert rc == 0


def test_default_config_is_small_system():
    cfg = small_system_config()
    assert cfg.n == 10 and cfg.s_init == 2


def test_compare_arms_direct_arm_is_optimize_direct(tmp_path):
    # scripts/compare_arms.py gives its direct arm the total budget of the
    # decomposition arm: iterations * n * budget evaluations.  A PM
    # threshold of 0.01 lets the search's first polls reach it, so the
    # strategy moves off the do-nothing start.
    import fleetmaint
    cfg = dataclasses.replace(small_system_config(), nu=0.01)
    cfg_path = write_cfg(tmp_path, cfg)
    root = Path(__file__).resolve().parents[1]
    src = str(Path(fleetmaint.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    subprocess.run([sys.executable, str(root / "scripts" / "compare_arms.py"),
                    "--config", cfg_path, "--seed", "5",
                    "--out", str(tmp_path / "compare"), "--iterations", "1",
                    "--budget", "3", "--scenarios", "2",
                    "--validation-scenarios", "10"],
                   check=True, env=env, capture_output=True)
    rc = run_cli(mode="optimize-direct", config=cfg_path,
                 seed=5, out=str(tmp_path / "direct"),
                 budget=1 * cfg.n * 3, scenarios=2)
    assert rc == 0
    direct = (tmp_path / "direct" / "strategy.csv").read_bytes()
    assert (tmp_path / "compare" / "direct_strategy.csv").read_bytes() \
        == direct
    assert cli.load_strategy(tmp_path / "direct" / "strategy.csv",
                             cfg).controls.any()
