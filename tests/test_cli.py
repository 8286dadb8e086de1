"""Command-line front end: files, sampling, tuning, mode dispatch."""
import dataclasses
import mmap
import os
import pickle
import re
import subprocess
import sys

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


def test_table_writers_exact_bytes(tmp_path):
    path = tmp_path / "table.csv"
    cli.write_csv(path, ["a", "b", "c"],
                  [(0.1, 3, "x"), (np.float64(2.0), np.int64(7), 1 / 3)])
    assert path.read_bytes() == (b"a,b,c\n0.10000000000000001,3,x\n"
                                 b"2,7,0.33333333333333331\n")

    cols = b"k,alpha,gamma_u,gamma_x,gamma_s,saa_relaxed,best_1,best_2\n"
    cli.history_to_csv([{"k": 4, "alpha": 0.1, "gamma_u": 2.0,
                         "gamma_x": 0.5, "gamma_s": 1e5, "saa_relaxed": 1 / 3,
                         "subproblem_best": [0.1, -1.25]}], path, 2)
    assert path.read_bytes() == cols + (
        b"4,0.10000000000000001,2,0.5,100000,0.33333333333333331,"
        b"0.10000000000000001,-1.25\n")
    cli.history_to_csv([], path, 2)
    assert path.read_bytes() == cols

    report = ev.EvaluationReport(
        scenario_count=3, mean_cost=0.1,
        quantiles=np.array([0.0, 0.0, 0.05, 0.1, 0.1, 0.15, 0.2]),
        breakdown={"pm": 0.1, "cm": 0.0, "fo": 0.0}, total_pm=2.0,
        mean_pm_per_component=1.0, mean_failures_per_component=1 / 3,
        fo_onsets_mean=0.5, fo_onsets_total=np.int64(2), fo_steps_mean=1.5,
        fo_scenarios=1, pm_cumulative_curve=np.array([0.0, 0.1]),
        empty_stock_curve=np.array([0.0, 0.5, 1.0]))
    cli.report_to_csv(report, path)
    assert path.read_bytes() == (
        b"metric,value\nscenario_count,3\nmean_cost,0.10000000000000001\n"
        b"quantile_1,0\nquantile_5,0\nquantile_25,0.050000000000000003\n"
        b"quantile_50,0.10000000000000001\nquantile_75,0.10000000000000001\n"
        b"quantile_95,0.14999999999999999\nquantile_99,0.20000000000000001\n"
        b"mean_pm_cost,0.10000000000000001\nmean_cm_cost,0\nmean_fo_cost,0\n"
        b"mean_pm_count,2\nmean_pm_per_component,1\n"
        b"mean_failures_per_component,0.33333333333333331\n"
        b"fo_onsets_total,2\nfo_onsets_mean,0.5\nfo_steps_mean,1.5\n"
        b"fo_scenarios,1\n")
    cli.curves_to_csv(report, tmp_path / "pm.csv", tmp_path / "stock.csv")
    assert (tmp_path / "pm.csv").read_bytes() == (
        b"t,mean_cumulative_pm\n0,0\n1,0.10000000000000001\n")
    assert (tmp_path / "stock.csv").read_bytes() == (
        b"t,empty_stock_probability\n0,0\n1,0.5\n2,1\n")


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


def assert_no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _tune_board(monkeypatch, cores, validation_count):
    """The (index, cost) board of a 2-sample tune with ``cores`` usable
    cores; no worker outlives it, and no tune worker forks workers of its
    own: a fork in a worker raises there, and the map raises it here."""
    real_fork, me = os.fork, os.getpid()

    def parent_only_fork():
        assert os.getpid() == me, "nested pool"
        return real_fork()

    monkeypatch.setattr(sm, "_usable_cores", lambda: cores)
    monkeypatch.setattr(os, "fork", parent_only_fork)
    cfg = small_cfg()
    noises = ev.generate_scenarios(2, 3, 3, seed=0)
    val = sm.ScenarioSet(2, 3, validation_count, 1)
    samples = cli.lhs_sample(ad.PARAM_BOUNDS, 2, seed=7)
    for p in samples:
        p.iterations, p.subproblem_budget = 1, 8
    _, board = cli.tune(cfg, samples, noises, val, seed=0)
    assert_no_child_left()
    return [(r["index"], r["cost"]) for r in board]


@pytest.mark.parametrize("validation_count", [10, 2049])
def test_tune_boards_equal_across_worker_counts(monkeypatch,
                                                validation_count):
    """One core and two give the same board.  At 2 049 validation
    scenarios each sample's scoring has two engine blocks, which a tune
    worker steps in its own process."""
    assert (_tune_board(monkeypatch, 2, validation_count)
            == _tune_board(monkeypatch, 1, validation_count))


#: run in a fresh interpreter with an output directory as its argument
_IMPORT_PROBE = """
import sys
from fleetmaint import cli, sysmodel

def loaded(*names):
    return [name for name in names if name in sys.modules]

out = sys.argv[1]
pool = ("multiprocessing", "concurrent.futures")
assert not loaded("yaml", *pool), loaded("yaml", *pool)
assert cli.main(["--mode", "optimize-direct", "--budget", "2",
                 "--scenarios", "2", "--out", out + "/direct"]) == 0
strategy = out + "/direct/strategy.csv"
assert cli.main(["--mode", "evaluate", "--strategy", strategy,
                 "--validation-scenarios", "10", "--out", out + "/a"]) == 0
assert not loaded("yaml", *pool), loaded("yaml", *pool)
sysmodel._usable_cores = lambda: 2
assert cli.main(["--mode", "evaluate", "--strategy", strategy,
                 "--validation-scenarios", "2049", "--out", out + "/b"]) == 0
assert not loaded(*pool), loaded(*pool)
"""


def test_modes_import_neither_a_pool_nor_yaml(tmp_path):
    """A fresh interpreter that imports the CLI and runs optimize-direct
    and evaluate, reading no YAML file, never imports ``yaml``,
    ``multiprocessing`` or ``concurrent.futures``; an evaluate on two
    engine blocks in two forked workers imports neither of the last
    two."""
    run = subprocess.run([sys.executable, "-c", _IMPORT_PROBE,
                          str(tmp_path)], capture_output=True, text=True,
                         timeout=300, env={**os.environ, "PYTHONPATH":
                                           os.pathsep.join(sys.path)})
    assert run.returncode == 0, run.stderr


def split_cfg():
    """A heterogeneous 12-component fleet (D = 3, T = 15): at 200 scenarios
    a lockstep round steps 2 400 columns, more than LOCKSTEP_COLUMNS, so
    optimize-app cuts its rows into ranges."""
    rng = np.random.default_rng(5)
    return SystemConfig(n=12, T=15, D=3, s_init=3, C_F=5000.0,
                        C_P=rng.uniform(20, 80, 12),
                        C_C=rng.uniform(100, 300, 12),
                        weibull_shape=rng.uniform(1.5, 4, 12),
                        weibull_scale=rng.uniform(5, 12, 12))


def _record_row_ranges(monkeypatch):
    """A list that gets the row ranges of every component search."""
    ranges, real_map = [], sm.parallel_map

    def recording_map(fn, *iterables):
        tasks = list(zip(*iterables))
        if fn is ad._solve_one:
            ranges.append([task[0][0] for task in tasks])
        return real_map(fn, *zip(*tasks))

    monkeypatch.setattr(sm, "parallel_map", recording_map)
    return ranges


def _record_unpickled(monkeypatch):
    """A list that gets everything this process unpickles from a file:
    every reply of a worker of the map."""
    unpickled, real_load = [], pickle.load

    def recording_load(*args, **kwargs):
        unpickled.append(real_load(*args, **kwargs))
        return unpickled[-1]

    monkeypatch.setattr(pickle, "load", recording_load)
    return unpickled


def _split_app_run(monkeypatch, tmp_path, cores):
    """optimize-app on :func:`split_cfg` at 200 scenarios with ``cores``
    usable cores: its three files, the row ranges of each iteration's
    search and every reply its workers pickled back."""
    monkeypatch.setattr(sm, "_usable_cores", lambda: cores)
    ranges, pickled = (_record_row_ranges(monkeypatch),
                       _record_unpickled(monkeypatch))
    out = tmp_path / f"cores{cores}"
    assert run_cli(mode="optimize-app", config=write_cfg(tmp_path,
                                                         split_cfg()),
                   seed=2, iterations=2, budget=4, scenarios=200,
                   out=str(out)) == 0
    assert_no_child_left()
    files = {name: (out / name).read_bytes() for name in
             ("strategy.csv", "strategy_projected.csv", "history.csv")}
    return files, ranges, pickled


def test_optimize_app_rows_split_across_cores(monkeypatch, tmp_path):
    """A round of more than LOCKSTEP_COLUMNS columns cuts the rows into
    one near-equal range per usable core, each searched in a forked
    worker: the files are those of one process, no worker outlives the
    run, and no row array crosses by pickle, only each range's
    evaluation count."""
    one, ranges, pickled = _split_app_run(monkeypatch, tmp_path, 1)
    assert ranges == [[(0, 12)]] * 2 and pickled == []
    cuts = {2: [(0, 6), (6, 12)], 3: [(0, 4), (4, 8), (8, 12)]}
    for cores, want in cuts.items():
        files, ranges, pickled = _split_app_run(monkeypatch, tmp_path, cores)
        assert files == one, cores
        assert ranges == [want] * 2
        assert len(pickled) == 2 * cores
        assert all(ok is True and type(evals) is int
                   for ok, evals in pickled), pickled


def test_small_rounds_stay_in_process(monkeypatch):
    """A round within LOCKSTEP_COLUMNS stays one range, in this process,
    whatever the number of cores."""
    monkeypatch.setattr(sm, "_usable_cores", lambda: 2)
    ranges = _record_row_ranges(monkeypatch)
    cfg = split_cfg()
    noises = ev.generate_scenarios(cfg.n, cfg.T, 170, seed=1)   # 2 040
    ad.app_fixed_point(cfg, ad.tuned_params(iterations=1,
                                            subproblem_budget=2), noises, 0)
    assert ranges == [[(0, 12)]]


def test_split_ranges_keep_the_fleet_chunk_cap(monkeypatch):
    """A range of 4 rows on 200 scenarios steps 800 columns a round, but
    each round of the fleet steps one candidate per row, as in one
    process: the cap comes from the fleet's n Q, not the range's."""
    real_minimize = ad.minimize

    def capped(*args, max_chunk, **kwargs):
        assert max_chunk == 1, f"chunk cap {max_chunk} in a range"
        return real_minimize(*args, max_chunk=max_chunk, **kwargs)

    monkeypatch.setattr(sm, "_usable_cores", lambda: 3)
    monkeypatch.setattr(ad, "minimize", capped)
    cfg = split_cfg()
    noises = ev.generate_scenarios(cfg.n, cfg.T, 200, seed=1)
    ad.app_fixed_point(cfg, ad.tuned_params(iterations=1,
                                            subproblem_budget=3), noises, 0)


def _split_search(monkeypatch, cores):
    """solve_component_subproblems on :func:`split_cfg` at 200 scenarios
    with ``cores`` usable cores, from the do-nothing iterate with random
    bar multipliers; returns the iterate, its cache and the results."""
    monkeypatch.setattr(sm, "_usable_cores", lambda: cores)
    cfg = split_cfg()
    noises = ev.generate_scenarios(cfg.n, cfg.T, 200, seed=1)
    it = ad.initial_iterate(cfg, ad.tuned_params(), noises)
    rng = np.random.default_rng(3)
    it.Lam, it.LamS = rng.normal(size=it.X.shape), rng.normal(size=it.S.shape)
    cache = ad.build_iteration_cache(it, noises, cfg)
    out = ad.solve_component_subproblems(it, noises, cfg, 3, range(cfg.n),
                                         cache)
    assert_no_child_left()
    return cfg, noises, it, cache, out


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_split_multipliers_equal_the_fleet_recursion(monkeypatch, cores):
    """Each range's multipliers, formed after its search, are bit for bit
    those of one fleet-wide recursion on the search's X and U."""
    cfg, noises, it, cache, (X, U, _, Lam, _) = _split_search(monkeypatch,
                                                                cores)
    assert np.any(Lam != 0)
    assert np.array_equal(Lam, ad.component_multiplier_backward(
        X, U, it, noises, cfg, cache))


@pytest.mark.parametrize("cores", [1, 2])
def test_only_split_results_sit_in_shared_memory(monkeypatch, cores):
    """Ranges in workers hand their rows back through shared maps; the one
    range of a single core returns its own arrays, so a run in one
    process holds no shared copy of its states and multipliers."""
    *_, out = _split_search(monkeypatch, cores)
    views = [getattr(a.base, "base", None) for a in out[:4]]
    shared = [isinstance(getattr(v, "obj", None), mmap.mmap) for v in views]
    assert shared == [cores > 1] * 4


def test_split_multipliers_are_formed_in_the_workers(monkeypatch, tmp_path):
    """On two cores the component recursion runs once in each worker and
    never in this process."""
    real, log = ad.component_multiplier_backward, tmp_path / "pids"

    def logged(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args)

    monkeypatch.setattr(ad, "component_multiplier_backward", logged)
    _split_search(monkeypatch, 2)
    pids = log.read_text().split()
    assert len(pids) == len(set(pids)) == 2
    assert str(os.getpid()) not in pids


def test_split_worker_exception_reaches_caller(monkeypatch):
    """A search that raises in a forked worker raises in the caller, and
    no worker is left behind."""
    real_minimize, me = ad.minimize, os.getpid()

    def failing(*args, **kwargs):
        if os.getpid() != me:
            raise RuntimeError("search failed in a worker")
        return real_minimize(*args, **kwargs)

    monkeypatch.setattr(sm, "_usable_cores", lambda: 2)
    monkeypatch.setattr(ad, "minimize", failing)
    cfg = split_cfg()
    noises = ev.generate_scenarios(cfg.n, cfg.T, 200, seed=1)
    with pytest.raises(RuntimeError, match="search failed in a worker"):
        ad.app_fixed_point(cfg, ad.tuned_params(iterations=1,
                                                subproblem_budget=2),
                           noises, 0)
    assert_no_child_left()


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


def test_optimize_direct_on_more_scenarios_than_a_stack_block(tmp_path):
    # each evaluation is a stack of one candidate, stepped in two blocks
    rc = run_cli(mode="optimize-direct", seed=1, out=str(tmp_path / "o"),
                 budget=2, scenarios=sm.STACK_BLOCK + 1)
    assert rc == 0
    assert (tmp_path / "o" / "strategy_projected.csv").exists()


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


def test_evaluate_mode(tmp_path, capsys):
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
    # the text report is what the run printed
    assert (out / "report.txt").read_text() == capsys.readouterr().out
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
    assert not (tmp_path / "o").exists()


def test_failed_run_keeps_only_directories_it_did_not_make(tmp_path):
    """A failed run removes the empty output directory it made, and the
    parents it made for it, leaf first; a directory that was there before
    the run stays.  An ``--out`` through ``..`` makes its parent on the
    way, and that goes too."""
    for out in (tmp_path / "o", tmp_path / "new" / "a" / "b",
                tmp_path / "a" / ".." / "b"):
        assert run_cli(mode="evaluate", seed=2,
                       out=str(out)) == cli.EXIT_CONFIG
        assert not any(tmp_path.iterdir())
    kept = tmp_path / "kept"
    kept.mkdir()
    for out in (kept, kept / "a" / "b"):
        assert run_cli(mode="evaluate", seed=2,
                       out=str(out)) == cli.EXIT_CONFIG
        assert kept.is_dir() and not any(kept.iterdir())


@pytest.mark.parametrize("mode", ["optimize-app", "tune", "compare"])
def test_decomposition_rejects_weibull_shape_below_one(tmp_path, capsys,
                                                      mode):
    """Below shape 1 the failure law's slope is infinite at age 0 and the
    multipliers would be NaN: the decomposition's modes exit 3, while the
    exact-engine modes take the fleet."""
    cfg = small_cfg(n=3, T=6, weibull_shape=[3.0, 0.8, 2.0])
    cfg_path = write_cfg(tmp_path, cfg)
    rc = run_cli(mode=mode, config=cfg_path, seed=1, out=str(tmp_path / "o"),
                 iterations=2, budget=5, scenarios=4, validation_scenarios=10,
                 lhs_count=2)
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Weibull shape" in err
    assert not (tmp_path / "o").exists()
    assert run_cli(mode="optimize-direct", config=cfg_path, seed=1,
                   out=str(tmp_path / "d"), budget=5, scenarios=4) == 0
    for other in ("evaluate", "simulate"):
        assert run_cli(mode=other, config=cfg_path, seed=1,
                       strategy=tmp_path / "d" / "strategy_projected.csv",
                       validation_scenarios=10,
                       out=str(tmp_path / other)) == 0
    assert "RuntimeWarning" not in capsys.readouterr().err


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


@pytest.mark.parametrize("mode, flag, content", [
    ("optimize-app", "--config", b"\xff\xfe\x00bad"),
    ("evaluate", "--strategy", b"\xff\xfe\x00bad"),
    ("optimize-app", "--params", b"\xff\xfe\x00bad"),
    ("optimize-app", "--params", b"gamma_u0: [1\n"),
    ("compare", "--config", b"\xff\xfe\x00bad"),
], ids=["binary-config", "binary-strategy", "binary-params", "yaml-params",
        "compare-binary-config"])
def test_unreadable_input_file_exit_code(tmp_path, capsys, mode, flag,
                                         content):
    # a file that is not UTF-8, or not YAML, is a bad input file: exit 3
    # with one line on stderr
    path = tmp_path / "input"
    path.write_bytes(content)
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
    for mode in ("simulate", "compare"):
        rc = run_cli(mode=mode, config=cfg_path, seed=0, out=str(blocker))
        assert rc == cli.EXIT_OUTPUT


def test_unknown_mode_rejected(tmp_path):
    # so is a flag that is gone: the maximin restarts are now the constant
    # cli.LHS_RESTARTS; tiny sizes in case the flag were taken
    tiny_tune = ["--lhs-count", "1", "--iterations", "0", "--budget", "1",
                 "--scenarios", "1", "--validation-scenarios", "1"]
    for argv in (["--mode", "explode"],
                 ["--mode", "tune", "--lhs-restarts", "2", *tiny_tune]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--seed", "0", "--out", str(tmp_path / "o")])
        assert exc.value.code == cli.EXIT_USAGE
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mode, flag, value", [
    ("optimize-direct", "--scenarios", "0"),
    ("optimize-app", "--budget", "0"),
    ("simulate", "--seed", "-1"),
    ("tune", "--lhs-count", "0"),
    ("compare", "--scenarios", "0"),
    ("compare", "--budget", "0"),
    ("compare", "--seed", "-1"),
    ("compare", "--validation-scenarios", "0"),
    ("simulate", "--threads", "0"),
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


#: each mode's flags at tiny sizes
TINY_RUNS = {
    "simulate": {},
    "optimize-direct": dict(budget=2, scenarios=2),
    "optimize-app": dict(iterations=1, budget=2, scenarios=2),
    "evaluate": dict(validation_scenarios=10),
    "tune": dict(lhs_count=2, iterations=1, budget=2, scenarios=2,
                 validation_scenarios=10),
    "compare": dict(iterations=1, budget=2, scenarios=2,
                    validation_scenarios=10),
}


@pytest.mark.parametrize("mode", sorted(TINY_RUNS))
def test_threads_flag_changes_no_output(tmp_path, mode):
    """Every mode takes ``--threads``, which the benchmark's optimize-app
    job passes, and writes the same bytes with it as without."""
    cfg = small_cfg()
    flags = dict(TINY_RUNS[mode], mode=mode, config=write_cfg(tmp_path, cfg),
                 seed=1)
    if mode in ("simulate", "evaluate"):
        flags["strategy"] = tmp_path / "strategy.csv"
        cli.save_strategy(Strategy(np.array([[0.95, 0.5, 0.0],
                                             [0.9, 0.2, 1.0]])),
                          cfg, flags["strategy"])
    outputs = []
    for threads in ({}, {"threads": 2}):
        out = tmp_path / f"o{len(outputs)}"
        assert run_cli(out=str(out), **flags, **threads) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outputs[0] == outputs[1]


def test_main_entry(tmp_path):
    cfg_path = write_cfg(tmp_path, small_cfg())
    rc = cli.main(["--mode", "simulate", "--config", cfg_path,
                   "--seed", "1", "--out", str(tmp_path / "o")])
    assert rc == 0


def test_default_config_is_small_system():
    cfg = small_system_config()
    assert cfg.n == 10 and cfg.s_init == 2


def test_compare_arms_direct_arm_is_optimize_direct(tmp_path):
    # compare gives its direct arm the total budget of the decomposition
    # arm: iterations * n * budget evaluations.  A PM threshold of 0.01 lets
    # the search's first polls reach it, so the strategy moves off the
    # do-nothing start.
    cfg = dataclasses.replace(small_system_config(), nu=0.01)
    cfg_path = write_cfg(tmp_path, cfg)
    rc = run_cli(mode="compare", config=cfg_path, seed=5,
                 out=str(tmp_path / "compare"), iterations=1, budget=3,
                 scenarios=2, validation_scenarios=10)
    assert rc == 0
    assert sorted(path.name for path in (tmp_path / "compare").iterdir()) \
        == ["app_history.csv", "app_report.csv", "app_strategy.csv",
            "direct_report.csv", "direct_strategy.csv", "summary.csv"]
    assert re.fullmatch(r"arm,mean_cost\napp,[^,]+\ndirect,[^,]+\n",
                        (tmp_path / "compare" / "summary.csv").read_text())
    rc = run_cli(mode="optimize-direct", config=cfg_path,
                 seed=5, out=str(tmp_path / "direct"),
                 budget=1 * cfg.n * 3, scenarios=2)
    assert rc == 0
    direct = (tmp_path / "direct" / "strategy.csv").read_bytes()
    assert (tmp_path / "compare" / "direct_strategy.csv").read_bytes() \
        == direct
    assert cli.load_strategy(tmp_path / "direct" / "strategy.csv",
                             cfg).controls.any()


@pytest.mark.parametrize("source", ["flag", "params"])
def test_compare_zero_iterations_is_usage_error(tmp_path, capsys, source):
    # zero iterations leave the direct arm no budget
    path = tmp_path / "params.yaml"
    cli.save_params(ad.tuned_params(iterations=0), path)
    flags = {"iterations": 0} if source == "flag" else {"params": path}
    rc = run_cli(mode="compare", budget=1, scenarios=1,
                 out=str(tmp_path / "o"), **flags)
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()
