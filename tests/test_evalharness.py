"""Scenario generation, SAA objectives, projection, evaluation reports."""
import dataclasses
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fleetmaint.config import SystemConfig, small_system_config
from fleetmaint import cli
from fleetmaint import evalharness as ev
from fleetmaint import sysmodel as sm
import scalar_reference as ref
from scalar_points import band_hits


def make_cfg(**kw):
    base = dict(n=2, T=3, D=2, s_init=1, C_F=10000.0, C_P=50.0, C_C=200.0,
                weibull_shape=3.0, weibull_scale=10.0)
    base.update(kw)
    return SystemConfig(**base)


# ---------------------------------------------------------------------------
# scenario generation


def test_scenarios_reproducible_and_order_independent():
    a = ev.generate_scenarios(3, 4, 10, seed=42)
    b = ev.generate_scenarios(3, 4, 10, seed=42)
    assert np.array_equal(a, b)
    prefix = ev.generate_scenarios(3, 4, 4, seed=42)
    assert np.array_equal(a[:4], prefix)


def test_scenarios_seed_disjoint():
    a = ev.generate_scenarios(2, 5, 50, seed=1)
    b = ev.generate_scenarios(2, 5, 50, seed=2)
    assert not np.any(np.isin(a, b))


def test_scenarios_uniform_moments():
    s = ev.generate_scenarios(10, 20, 500, seed=3)
    m = s.mean()
    sigma = np.sqrt(1.0 / 12.0 / s.size)
    assert abs(m - 0.5) < 3 * sigma
    assert np.all((s >= 0) & (s < 1))


def test_scenarios_count_validation():
    with pytest.raises(ValueError):
        ev.generate_scenarios(2, 3, 0, seed=1)


@pytest.mark.parametrize("seed", [0, 42, 2 ** 63, 2 ** 64 - 1])
def test_scenarios_are_the_keyed_philox_streams(seed):
    """Scenario q is Generator(Philox(key=(seed << 64) + q)).random((n, T)),
    also past the first few thousand scenarios."""
    s = ev.generate_scenarios(3, 5, 2100, seed)
    for q in (0, 1, 2, 1023, 2048, 2049, 2099):
        ref = np.random.Generator(np.random.Philox(key=(seed << 64) + q))
        assert np.array_equal(s[q], ref.random((3, 5))), q


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_scenarios_seed_range(seed):
    with pytest.raises(ValueError):
        ev.generate_scenarios(2, 3, 4, seed)


def test_scenario_set_blocks_are_slices_of_the_panel():
    """Blocks that straddle the 64-scenario fill buffer and the engine's
    BLOCK hold the same bits as the materialized panel, which is stored
    step-major."""
    count = sm.BLOCK + 70
    panel = ev.generate_scenarios(3, 5, count, seed=7)
    assert panel.flags.f_contiguous and panel.shape == (count, 3, 5)
    scen = sm.ScenarioSet(3, 5, count, 7)
    assert scen.shape == panel.shape
    for lo, hi in [(0, 1), (63, 65), (60, 200), (sm.BLOCK - 70, sm.BLOCK + 3),
                   (sm.BLOCK - 1, count), (0, count)]:
        block = scen.block(lo, hi)
        assert block.flags.f_contiguous
        assert block.tobytes() == panel[lo:hi].tobytes(), (lo, hi)


# ---------------------------------------------------------------------------
# SAA objective


def test_saa_zero_for_no_failures_zero_strategy():
    cfg = make_cfg()
    scen = np.ones((4, 2, 3))
    strat = sm.Strategy(np.zeros((2, 3)))
    assert ev.saa_objective(strat, scen, cfg) == 0.0


def test_saa_single_scenario_matches_total_cost():
    cfg = make_cfg()
    rng = np.random.default_rng(0)
    scen = rng.random((1, 2, 3))
    strat = sm.Strategy(np.ones((2, 3)))
    traj = ref.simulate(strat, ref.Scenario(scen[0]), cfg)
    got = ev.saa_objective(strat, scen, cfg)
    assert got == pytest.approx(ref.total_cost(traj, strat, cfg)["total"],
                                rel=1e-12)


def test_saa_exact_vs_relaxed_binary_strategy():
    cfg = make_cfg(n=3, T=6)
    rng = np.random.default_rng(5)
    scen = rng.random((30, 3, 6))
    u = (rng.random((3, 6)) > 0.6).astype(float)
    strat = sm.Strategy(u)
    from fleetmaint import relax as rx
    band = band_hits(strat, scen, 1e6, cfg)
    keep = scen[~band]
    exact = ev.saa_objective(strat, keep, cfg)
    relaxed = float(np.mean(rx.simulate_relaxed_batch(strat, keep, 1e6,
                                                      cfg).total_cost))
    assert exact == relaxed


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("count", [1, 2047, 2049, 4097])
def test_scenario_set_scores_equal_the_panel(monkeypatch, count, workers):
    """A ScenarioSet, generated block by block in the engine's workers,
    gives the bits of its materialized panel in every report field and
    objective value, for a Strategy and for a stack."""
    monkeypatch.setattr(sm, "_usable_cores", lambda: workers)
    cfg = small_system_config()
    rng = np.random.default_rng(count)
    U = (rng.random((2, cfg.n, cfg.T)) > 0.7).astype(float)
    strat = sm.Strategy(U[0])
    scen = sm.ScenarioSet(cfg.n, cfg.T, count, 13)
    panel = ev.generate_scenarios(cfg.n, cfg.T, count, 13)
    lazy = ev.evaluate_strategy(strat, scen, cfg)
    eager = ev.evaluate_strategy(strat, panel, cfg)
    for field in dataclasses.fields(ev.EvaluationReport):
        a, b = getattr(lazy, field.name), getattr(eager, field.name)
        if isinstance(a, np.ndarray):
            a, b = a.tobytes(), b.tobytes()
        assert a == b, field.name
    assert lazy.scenario_count == count
    assert ev.saa_objective(strat, scen, cfg) \
        == ev.saa_objective(strat, panel, cfg)
    if count <= 2049:
        assert (ev.saa_objective(U, scen, cfg).tobytes()
                == ev.saa_objective(U, panel, cfg).tobytes())


@pytest.mark.parametrize("workers", [1, 2])
def test_scenario_set_is_never_materialized(monkeypatch, workers):
    """Evaluating 20 000 scenarios never holds the 64 MB panel.  On one
    worker the blocks are made in this process, where tracemalloc sees
    them: below a quarter of the panel.  On two, each task ships the set
    as four ints, not its scenarios: below 1 % of the panel pickled."""
    monkeypatch.setattr(sm, "_usable_cores", lambda: workers)
    cfg = small_system_config()
    scen = sm.ScenarioSet(cfg.n, cfg.T, 20_000, 3)
    panel_bytes = 8 * np.prod(scen.shape)
    strat = sm.Strategy(np.zeros((cfg.n, cfg.T)))
    if workers == 1:
        tracemalloc.start()
        try:
            ev.evaluate_strategy(strat, scen, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < panel_bytes / 4, peak
        return

    payloads = []

    class Recording(ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            payloads.append(len(ForkingPickler.dumps((fn, args, kwargs))))
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(sm, "ProcessPoolExecutor", Recording)
    ev.evaluate_strategy(strat, scen, cfg)
    assert len(payloads) == -(-scen.count // sm.BLOCK)
    assert max(payloads) < panel_bytes / 100, payloads


# ---------------------------------------------------------------------------
# projection


def test_projection_threshold_and_idempotence():
    u = np.array([[0.95, 0.89, 0.9], [0.0, 1.0, 0.5]])
    p = ev.project_strategy(sm.Strategy(u), nu=0.9)
    assert np.array_equal(p.controls,
                          [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    pp = ev.project_strategy(p, nu=0.9)
    assert np.array_equal(pp.controls, p.controls)


def test_projection_rejects_out_of_range():
    with pytest.raises(ValueError):
        ev.project_strategy(sm.Strategy(np.array([[1.5]])), nu=0.9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_projection_binary(seed):
    rng = np.random.default_rng(seed)
    u = rng.random((3, 4))
    p = ev.project_strategy(sm.Strategy(u), nu=0.9)
    assert set(np.unique(p.controls)) <= {0.0, 1.0}


# ---------------------------------------------------------------------------
# evaluation report


def test_zero_report_on_no_failure_set():
    cfg = make_cfg()
    scen = np.ones((5, 2, 3))
    rep = ev.evaluate_strategy(sm.Strategy(np.zeros((2, 3))), scen, cfg)
    assert rep.mean_cost == 0.0
    assert np.all(rep.quantiles == 0.0)
    assert rep.fo_onsets_total == 0
    assert rep.total_pm == 0.0
    assert np.all(rep.empty_stock_curve == 0.0)


def test_constant_cost_quantiles():
    cfg = make_cfg()
    scen = np.ones((7, 2, 3))
    rep = ev.evaluate_strategy(sm.Strategy(np.ones((2, 3))), scen, cfg)
    assert rep.mean_cost > 0
    # all scenarios cost the same, so every quantile equals that value
    assert np.all(rep.quantiles == rep.quantiles[0])
    assert rep.mean_cost == pytest.approx(rep.quantiles[0], rel=1e-12)


def test_hand_traced_report():
    # one component, two steps, D=1: scenario A fails at t=0 and is
    # repaired (cm cost at t=1), scenario B never fails.
    cfg = make_cfg(n=1, T=2, D=1, s_init=1)
    p0 = sm.failure_probability(0.0, 3.0, 10.0, 1.0)
    scen = np.array([[[p0 / 2, 0.99]], [[0.99, 0.99]]])
    rep = ev.evaluate_strategy(sm.Strategy(np.zeros((1, 2))), scen, cfg)
    cost_a = cfg.C_C[0] / 1.08
    assert rep.scenario_count == 2
    assert rep.mean_cost == pytest.approx(cost_a / 2)
    assert rep.breakdown == {"pm": 0.0, "cm": pytest.approx(cost_a / 2),
                             "fo": 0.0}
    # nearest-rank on [0, cost_a]: ranks ceil(l/100*2) -> 1,1,1,1,2,2,2
    assert np.array_equal(rep.quantiles,
                          [0, 0, 0, 0, cost_a, cost_a, cost_a])
    assert rep.mean_failures_per_component == 0.5
    assert rep.fo_onsets_total == 0
    # with a one-step resupply delay the replacement order arrives in the
    # same step the spare is consumed, so the stock never empties
    assert np.array_equal(rep.empty_stock_curve, [0.0, 0.0, 0.0])


def test_nearest_rank_reference():
    vals = np.sort(np.array([3.0, 1.0, 2.0, 4.0]))
    assert ev._nearest_rank(vals, 25) == 1.0
    assert ev._nearest_rank(vals, 50) == 2.0
    assert ev._nearest_rank(vals, 51) == 3.0
    assert ev._nearest_rank(vals, 100) == 4.0
    assert ev._nearest_rank(vals, 1) == 1.0


def test_report_consistency_random():
    cfg = make_cfg(n=3, T=8, s_init=1)
    scen = ev.generate_scenarios(3, 8, 40, seed=9)
    u = (np.random.default_rng(1).random((3, 8)) > 0.5).astype(float)
    rep = ev.evaluate_strategy(sm.Strategy(u), scen, cfg)
    rep.validate()
    assert rep.mean_cost == pytest.approx(sum(rep.breakdown.values()),
                                          rel=1e-9)
    assert np.all(np.diff(rep.pm_cumulative_curve) >= 0)
    assert rep.fo_scenarios <= rep.scenario_count
    assert rep.fo_steps_mean >= rep.fo_onsets_mean


def test_report_serialization(tmp_path):
    cfg = make_cfg(n=2, T=4)
    scen = ev.generate_scenarios(2, 4, 10, seed=8)
    rep = ev.evaluate_strategy(sm.Strategy(np.ones((2, 4))), scen, cfg)
    text = cli.report_to_text(rep)
    assert "mean cost" in text and "q50" in text
    csv_path = tmp_path / "report.csv"
    cli.report_to_csv(rep, csv_path)
    body = csv_path.read_text()
    assert body.startswith("metric,value")
    assert "quantile_99" in body
    cli.curves_to_csv(rep, tmp_path / "pm.csv", tmp_path / "stock.csv")
    pm_lines = (tmp_path / "pm.csv").read_text().strip().split("\n")
    assert len(pm_lines) == cfg.T + 1          # header + T rows
    stock_lines = (tmp_path / "stock.csv").read_text().strip().split("\n")
    assert len(stock_lines) == cfg.T + 2
