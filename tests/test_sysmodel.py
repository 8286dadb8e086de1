"""Tests for the exact dynamics, hand-traced oracles and invariants."""
import csv
import dataclasses
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fleetmaint.config import SystemConfig, case1_config, small_system_config
from fleetmaint import cli
from fleetmaint import evalharness as ev
from fleetmaint import relax as rx
from fleetmaint import sysmodel as sm
import scalar_reference as ref


def make_cfg(n=1, T=4, D=2, s_init=1, **kw):
    base = dict(n=n, T=T, D=D, s_init=s_init, C_F=10000.0, C_P=50.0,
                C_C=200.0, weibull_shape=3.0, weibull_scale=10.0)
    base.update(kw)
    return SystemConfig(**base)


# ---------------------------------------------------------------------------
# failure law


def test_failure_probability_reference_values():
    # hand-computed: 1 - exp(-(1/10)^3) and 1 - exp(1 - 1.1^3)
    assert sm.failure_probability(3, 10, 0.0, 1.0) == pytest.approx(
        9.9950016662e-4, rel=1e-9)
    assert sm.failure_probability(3, 10, 10.0, 1.0) == pytest.approx(
        1.0 - math.exp(-0.331), rel=1e-12)


def test_failure_probability_monotone_and_bounded():
    ages = np.linspace(0, 60, 200)
    p = sm.failure_probability(3, 10, ages, 1.0)
    assert np.all(np.diff(p) > 0)
    assert np.all((p >= 0) & (p <= 1))


def test_failure_probability_degenerate_tail():
    # far in the tail 1 - F(age) underflows; the conditional law returns 1
    assert sm.failure_probability(3, 10, 1e6, 1.0) == 1.0


def test_failure_probability_negative_age_rejected():
    with pytest.raises(ValueError):
        sm.failure_probability(3, 10, -0.5, 1.0)


def test_failure_probability_derivative_matches_fd():
    for age in [0.5, 3.0, 9.0, 15.0]:
        h = 1e-6
        fd = (sm.failure_probability(3, 10, age + h, 1.0)
              - sm.failure_probability(3, 10, age - h, 1.0)) / (2 * h)
        p = sm.failure_probability(3, 10, age, 1.0)
        assert sm.failure_probability_derivative(3, 10, age, 1.0, p) == \
            pytest.approx(fd, rel=1e-6)


def failure_probability_oracle(shape, scale, age, dt):
    """The failure law as plain array expressions, each step a new array:
    the oracle of the in-place :func:`sysmodel.failure_probability`."""
    age_arr = np.asarray(age, dtype=float)
    if np.any(age_arr < 0):
        raise ValueError("age must be nonnegative")
    h0 = np.power(age_arr / scale, shape)
    h1 = np.power((age_arr + dt) / scale, shape)
    with np.errstate(over="ignore"):
        p = -np.expm1(h0 - h1)
    p = np.where(np.isfinite(p), p, 1.0)
    p = np.clip(p, 0.0, 1.0)
    return float(p) if np.isscalar(age) or age_arr.ndim == 0 else p


def test_failure_probability_grid_matches_oracle_bit_for_bit():
    """A fixed grid of zero, fractional, whole and tail ages, scalar and
    per-component laws; a negative age anywhere in an array raises."""
    ages = np.array([0.0, 0.25, 0.5, 1.0, 1.5, 7.3, 12.0, 39.75, 1e6])
    for shape in (0.8, 1.0, 2.0, 3.0, 7.5):
        for dt in (1.0, 0.25):
            got = sm.failure_probability(shape, 10.0, ages, dt)
            assert got.tobytes() == failure_probability_oracle(
                shape, 10.0, ages, dt).tobytes()
    law = (np.array([[1.0], [2.0], [3.0]]), np.array([[4.0], [8.0], [12.0]]))
    grid = np.broadcast_to(ages, (3, len(ages)))
    assert sm.failure_probability(*law, grid, 1.0).tobytes() \
        == failure_probability_oracle(*law, grid, 1.0).tobytes()
    with pytest.raises(ValueError):
        sm.failure_probability(*law, grid - 1e-300 * (grid == 0), 1.0)


# zero, fractional and whole ages, ages where age + dt rounds to age (p is
# -0.0) and ages whose hazard overflows (p is 1)
_AGES = st.one_of(st.sampled_from([0.0, 0.5, 3.0, 10.0, 1e20, 1e103, 1e300]),
                  st.floats(0.0, 60.0), st.integers(0, 60).map(float),
                  st.floats(0.0, 1e300))


@settings(max_examples=300, deadline=None)
@given(shape=st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                       st.floats(0.2, 8.0)),
       scale=st.floats(0.5, 40.0),
       dt=st.sampled_from([1.0, 0.25, 2.0]),
       ages=st.lists(_AGES, min_size=1, max_size=12), n=st.integers(1, 3),
       form=st.sampled_from(["scalar", "0-d", "column", "matrix"]))
# np.power written over its own input differs here in the last bit
@example(shape=0.5, scale=17.666015625, dt=1.0, ages=[0.0], n=1,
         form="column")
def test_failure_probability_matches_oracle_bit_for_bit(shape, scale, dt,
                                                        ages, n, form):
    # scalar ages, and (n, 1) laws over (n, 1) or (n, w) ages as the fleet
    # step passes them; equal bytes include the sign of zero
    if form in ("scalar", "0-d"):
        age = ages[0] if form == "scalar" else np.array(ages[0])
        law = (shape, scale)
    else:
        w = 1 if form == "column" else len(ages)
        age = np.resize(np.array(ages), (n, w))
        law = (np.full((n, 1), shape),
               np.linspace(scale, 2 * scale, n)[:, None])
    with np.errstate(all="ignore"):
        got = sm.failure_probability(*law, age, dt)
        want = failure_probability_oracle(*law, age, dt)
    assert type(got) is type(want)
    assert type(got) is (float if form in ("scalar", "0-d") else np.ndarray)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_weibull_mttf_closed_form():
    assert ref.weibull_mttf(3, 10) == pytest.approx(10 * math.gamma(4 / 3),
                                                    rel=1e-12)
    # reference value for the short-lived component law
    assert ref.weibull_mttf(3, 10) == pytest.approx(8.9298, abs=1e-4)


def test_sampled_mttf_matches_closed_form():
    times = ref.sample_time_to_first_failure(3, 10, draws=200_000, seed=7)
    assert times.mean() == pytest.approx(ref.weibull_mttf(3, 10), abs=0.05)


# ---------------------------------------------------------------------------
# hand-traced trajectories, on the reference simulator and on the product
# path (the batch engine and the trajectory file of ``--mode simulate``)


class Run(NamedTuple):
    """One trajectory as either engine reports it."""

    regime: np.ndarray          # (T+1, n)
    age: np.ndarray             # (T+1, n)
    last_failures: np.ndarray   # (T+1, n, D)
    stock: np.ndarray           # (T+1,)
    pm: np.ndarray              # (n, T) bool
    failure: np.ndarray         # (n, T+1) bool
    cm: np.ndarray              # (n, T) bool
    forced_outage: np.ndarray   # (T+1,) bool
    cost: dict


def reference_run(traj: ref.Trajectory, strategy, cfg) -> Run:
    comps = [s.components for s in traj.states]
    return Run(np.array([[c.regime for c in cs] for cs in comps]),
               np.array([[c.age for c in cs] for cs in comps]),
               np.array([[c.last_failures for c in cs] for cs in comps]),
               traj.stock_series(), traj.pm_performed, traj.failure,
               traj.cm_performed, traj.forced_outage,
               ref.total_cost(traj, strategy, cfg))


def read_trajectory_csv(path, cfg):
    """The columns of a trajectory file: stock (T+1,), then regime, age,
    pm, failure and cm as (T+1, n), and forced_outage (T+1,)."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["t"]) for r in rows] == list(range(cfg.T + 1))

    def per_component(name):
        return np.array([[float(r[f"{name}_{i}"]) for i in
                          range(1, cfg.n + 1)] for r in rows])

    cols = {"stock": np.array([float(r["stock"]) for r in rows]),
            "forced_outage": np.array([int(r["forced_outage"])
                                       for r in rows])}
    for name in ("regime", "age", "pm", "failure", "cm"):
        cols[name] = per_component(name)
    # PMs and repairs are decisions of a step, and the last row has none
    assert not cols["pm"][-1].any() and not cols["cm"][-1].any()
    return cols


def product_run(stats: sm.BatchStats, strategy, cfg, path) -> Run:
    """Scenario 0 of a recorded exact batch run, states and events read from
    the trajectory file that ``--mode simulate`` writes."""
    cli.trajectory_to_csv(stats, strategy, cfg, path)
    cols = read_trajectory_csv(path, cfg)
    return Run(cols["regime"], cols["age"],
               stats.states[:, :, 2:, 0].transpose(1, 0, 2),
               cols["stock"], cols["pm"][:-1].T == 1,
               cols["failure"].T == 1, cols["cm"][:-1].T == 1,
               cols["forced_outage"] == 1,
               {"pm": stats.pm_cost[0], "cm": stats.cm_cost[0],
                "fo": stats.fo_cost[0], "total": stats.total_cost[0]})


@pytest.fixture
def both_engines(tmp_path):
    """Run one (n, T) noise panel under a strategy on the reference
    simulator and on the product path; returns the two Runs.  A hand trace
    loops over them, so that each trace keeps one test id."""

    def runs(strategy, noises, cfg) -> list[Run]:
        traj = ref.simulate(strategy, ref.Scenario(noises), cfg)
        stats = sm.simulate_batch(strategy, np.asarray(noises)[None], cfg,
                                  record_states=True)
        return [reference_run(traj, strategy, cfg),
                product_run(stats, strategy, cfg, tmp_path / "traj.csv")]

    return runs


def test_failure_then_repair_trace(both_engines):
    cfg = make_cfg()
    u = sm.Strategy(np.zeros((1, 4)))
    for run in both_engines(u, np.array([[0.0, 1.0, 1.0, 1.0]]), cfg):
        comp = [(run.regime[t, 0], run.age[t, 0],
                 tuple(run.last_failures[t, 0])) for t in range(5)]
        assert comp[0] == (1.0, 0.0, (-1.0, -1.0))
        assert comp[1] == (0.0, 0.0, (0.0, -1.0))   # failed, order placed
        assert comp[2] == (1.0, 1.0, (1.0, -1.0))   # repaired from stock
        assert comp[3] == (1.0, 2.0, (2.0, -1.0))
        assert comp[4] == (1.0, 3.0, (3.0, -1.0))
        assert run.stock.tolist() == [1.0, 1.0, 0.0, 1.0, 1.0]
        assert run.failure[0].tolist() == [False, True, False, False, False]
        assert run.cm[0].tolist() == [False, True, False, False]
        assert not run.forced_outage.any()

        cost = run.cost
        assert cost["pm"] == 0.0
        assert cost["cm"] == pytest.approx(200.0 / 1.08, rel=1e-12)
        assert cost["fo"] == 0.0
        assert cost["total"] == cost["cm"]


def test_pm_cost_and_age_reset(both_engines):
    cfg = make_cfg()
    controls = np.zeros((1, 4))
    controls[0, 1] = 1.0
    u = sm.Strategy(controls)
    for run in both_engines(u, np.ones((1, 4)), cfg):
        # a full PM resets the age
        assert run.age[:, 0].tolist() == [0.0, 1.0, 1.0, 2.0, 3.0]
        cost = run.cost
        assert cost["pm"] == pytest.approx(50.0 / 1.08, rel=1e-12)
        assert cost["total"] == cost["pm"]
        assert run.pm[0].tolist() == [False, True, False, False]


def test_partial_pm_rejuvenates(both_engines):
    cfg = make_cfg(T=3)
    controls = np.zeros((1, 3))
    controls[0, 2] = 0.9
    for run in both_engines(sm.Strategy(controls), np.ones((1, 3)), cfg):
        # age 2 before the PM, (1 - 0.9) * 2 + 1 = 1.2 after
        assert run.age[3, 0] == pytest.approx(1.2)


def test_pm_threshold_is_inclusive(both_engines):
    cfg = make_cfg(T=1)
    controls = np.full((1, 1), cfg.nu)
    # the noise would fail the component without the PM
    for run in both_engines(sm.Strategy(controls), np.zeros((1, 1)), cfg):
        assert run.pm[0, 0]
        assert run.regime[1, 0] == 1.0


def test_noise_equal_to_hazard_means_no_failure(both_engines):
    cfg = make_cfg(T=1)
    p = sm.failure_probability(3, 10, 0.0, cfg.dt)
    for run in both_engines(sm.Strategy(np.zeros((1, 1))), np.array([[p]]),
                            cfg):
        assert run.regime[1, 0] == 1.0


def test_forced_outage_when_no_spares(both_engines):
    cfg = make_cfg(n=2, T=3, s_init=0)
    u = sm.Strategy(np.zeros((2, 3)))
    beta = cfg.discount(np.arange(4))
    for run in both_engines(u, np.array([[0.0, 1.0, 1.0], [0.0, 1.0, 1.0]]),
                            cfg):
        assert run.forced_outage.tolist() == [False, False, True, True]
        assert run.stock.tolist() == [0.0, 0.0, 0.0, 2.0]
        cost = run.cost
        assert cost["cm"] == pytest.approx(2 * 200.0 * beta[1], rel=1e-12)
        # one lump penalty per step with any component waiting, not per
        # component
        assert cost["fo"] == pytest.approx(10000.0 * (beta[2] + beta[3]),
                                           rel=1e-12)


def test_spares_served_in_index_order(both_engines):
    # one spare, both components broken: only the lower index is repaired
    cfg = make_cfg(n=2, T=2, s_init=1)
    for run in both_engines(sm.Strategy(np.zeros((2, 2))),
                            np.array([[0.0, 1.0], [0.0, 1.0]]), cfg):
        assert (run.regime[2, 0], run.age[2, 0]) == (1.0, 1.0)
        assert (run.regime[2, 1], run.age[2, 1]) == (0.0, 1.0)


def test_full_failure_record_discards_oldest():
    cfg = make_cfg(T=3, s_init=0, D=2)
    # fail every step; with no spares the component stays broken, so force
    # repeated failures via a fresh state instead
    st0 = [ref.ComponentState(1.0, 0.0, np.array([1.0, 3.0]))]
    nxt = ref.step_component(st0, 0.0, 0.0, 0.0, cfg)
    assert nxt.last_failures.tolist() == [4.0, 0.0]


def test_failure_insert_uses_first_free_slot():
    cfg = make_cfg(D=3)
    st0 = [ref.ComponentState(1.0, 5.0, np.array([2.0, -1.0, -1.0]))]
    nxt = ref.step_component(st0, 0.0, 0.0, 0.0, cfg)
    assert nxt.last_failures.tolist() == [3.0, 0.0, -1.0]


# ---------------------------------------------------------------------------
# batch engine agrees with the scalar path


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 30), st.integers(0, 3),
       st.sampled_from([1, 2, 3]))
def test_batch_matches_scalar_simulation(tmp_path_factory, seed, n, s_init,
                                         D):
    # a random heterogeneous fleet: per-component failure laws and costs
    rng = np.random.default_rng(seed)
    cfg = make_cfg(n=n, T=8, s_init=s_init, D=D,
                   weibull_shape=rng.uniform(1.0, 4.5, n),
                   weibull_scale=rng.uniform(3.0, 15.0, n),
                   C_P=rng.uniform(0.0, 100.0, n),
                   C_C=rng.uniform(0.0, 400.0, n))
    u = sm.Strategy(rng.random((n, 8)))
    noises = rng.random((3, n, 8))
    stats = sm.simulate_batch(u, noises, cfg, record_states=True)
    again = sm.simulate_batch(u, noises, cfg, record_states=True)
    for field in dataclasses.fields(stats):
        assert np.array_equal(getattr(stats, field.name),
                              getattr(again, field.name)), field.name
    # spare-parts conservation: stock + parts on order - broken components
    broken = np.sum(stats.states[:, :, 0] == 0.0, axis=0)
    records = stats.states[:, :, 2:]
    on_order = np.sum((records >= 0) & (records <= D - 1), axis=(0, 2))
    assert np.all(stats.stock + on_order - broken == s_init)
    for q in range(3):
        traj = ref.simulate(u, ref.Scenario(noises[q]), cfg)
        cost = ref.total_cost(traj, u, cfg)
        assert stats.total_cost[q] == pytest.approx(cost["total"], rel=1e-12)
        assert stats.pm_cost[q] == pytest.approx(cost["pm"], rel=1e-12)
        assert stats.cm_cost[q] == pytest.approx(cost["cm"], rel=1e-12)
        assert stats.fo_cost[q] == pytest.approx(cost["fo"], rel=1e-12)
        for t in range(cfg.T + 1):
            stq = traj.states[t]
            assert stats.stock[t, q] == stq.stock
            for i, c in enumerate(stq.components):
                assert stats.states[i, t, 0, q] == c.regime
                assert stats.states[i, t, 1, q] == c.age
                assert stats.states[i, t, 2:, q].tolist() == \
                    c.last_failures.tolist()
        if q == 0:
            # the trajectory file carries the same states and events
            path = tmp_path_factory.mktemp("traj") / "trajectory.csv"
            product = product_run(stats, u, cfg, path)
            expected = reference_run(traj, u, cfg)
            for name in ("regime", "age", "stock", "pm", "failure", "cm",
                         "forced_outage"):
                assert np.array_equal(getattr(product, name),
                                      getattr(expected, name)), name


def test_blocked_batch_matches_scalar_and_slices():
    # three near-equal blocks of the batch driver, cut at Q // 3 and
    # 2 * Q // 3
    cfg = make_cfg(n=3, T=6, s_init=1, D=2, weibull_scale=3.0)
    rng = np.random.default_rng(21)
    Q = 2 * sm.BLOCK + 37
    u = sm.Strategy(rng.random((3, 6)))
    noises = rng.random((Q, 3, 6))
    stats = sm.simulate_batch(u, noises, cfg, record_states=True)
    picks = [0, 5, Q // 3 - 1, Q // 3, sm.BLOCK, sm.BLOCK + 11,
             2 * Q // 3, Q - 1]
    for q in picks:
        traj = ref.simulate(u, ref.Scenario(noises[q]), cfg)
        cost = ref.total_cost(traj, u, cfg)
        assert stats.total_cost[q] == pytest.approx(cost["total"], rel=1e-12)
        for t in range(cfg.T + 1):
            stq = traj.states[t]
            assert stats.stock[t, q] == stq.stock
            for i, c in enumerate(stq.components):
                assert stats.states[i, t, 0, q] == c.regime
                assert stats.states[i, t, 1, q] == c.age
                assert np.array_equal(stats.states[i, t, 2:, q],
                                      c.last_failures)
    # slices that do not line up with the blocks give the same scenarios
    cuts = [0, 1000, 3000, Q]
    parts = [sm.simulate_batch(u, noises[a:b], cfg)
             for a, b in zip(cuts[:-1], cuts[1:])]
    for name in ("total_cost", "cm_cost", "fo_cost", "pm_count",
                 "failure_count", "fo_onsets", "fo_steps"):
        assert np.array_equal(getattr(stats, name),
                              np.concatenate([getattr(p, name)
                                              for p in parts]))
    assert np.array_equal(stats.pm_cumulative,
                          sum(p.pm_cumulative for p in parts))
    assert np.array_equal(stats.empty_stock,
                          sum(p.empty_stock for p in parts))
    assert stats.failure_count.sum() > 0 and stats.fo_steps.sum() > 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1),
       laws=st.lists(st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                               st.floats(0.2, 8.0)), min_size=1, max_size=4),
       dt=st.sampled_from([0.25, 1.0, 2.0]), n=st.sampled_from([1, 2, 3, 80]),
       width=st.one_of(st.sampled_from([1, 2, sm.BLOCK]),
                       st.integers(1, sm.BLOCK)),
       K=st.sampled_from([None, 2, 3]),
       pm=st.sampled_from(["whole", "fractional"]),
       ramp=st.sampled_from([False, True]))
# one-element steps on which the tabled law would differ in the last bit
@example(seed=9, laws=[2.0], dt=1.0, n=1, width=1, K=None, pm="whole",
         ramp=False)
@example(seed=19, laws=[0.5], dt=1.0, n=1, width=1, K=None, pm="whole",
         ramp=False)
def test_failure_law_table_matches_direct_calls(seed, laws, dt, n, width, K,
                                                pm, ramp):
    """The engine looks the failure law up in a per-block table at whole
    ages; computed on every step instead, every field of a Strategy's and
    of a stack's run is the same to the bit, exact or relaxed.  A PM on a
    control in [nu, 1) leaves a fractional age, and so does a relaxed step
    inside a ramp: that step computes the law."""
    rng = np.random.default_rng(seed)
    T = 6
    cfg = make_cfg(n=n, T=T, s_init=1, dt=dt,
                   weibull_shape=rng.choice(laws, n),
                   weibull_scale=rng.uniform(2.0, 15.0, n),
                   C_P=rng.uniform(0.0, 100.0, n),
                   C_C=rng.uniform(0.0, 400.0, n))
    shape = (n, T) if K is None else (K, n, T)
    # controls below nu change nothing; whole PMs keep every age whole
    u = np.where(rng.random(shape) < 0.3, 1.0, cfg.nu * rng.random(shape))
    if pm == "fractional":
        u = np.where(u == 1.0, cfg.nu + (1.0 - cfg.nu) * rng.random(shape),
                     u)
    controls = sm.Strategy(u) if K is None else u
    # half the noises sit on the law of a component never renewed, as a
    # one-element step computes it: there the last bit of p decides
    law = [[sm.failure_probability(cfg.weibull_shape[i:i + 1, None],
                                   cfg.weibull_scale[i:i + 1, None],
                                   np.full((1, 1), float(t)), dt)[0, 0]
            for t in range(T)] for i in range(n)]
    noises = np.where(rng.random((width, n, T)) < 0.5, law,
                      rng.random((width, n, T)))
    ind = rx._ramps(3.7) if ramp else sm.HARD
    table = sm._simulate(controls, noises, cfg, True, ind)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sm, "_tabled_law", lambda table, rows, A: None)
        direct = sm._simulate(controls, noises, cfg, True, ind)
    for field in dataclasses.fields(sm.BatchStats):
        a, b = getattr(table, field.name), getattr(direct, field.name)
        assert (a is None) == (b is None), field.name
        if a is not None:
            assert a.tobytes() == b.tobytes(), field.name


_CUMSUM_INPUTS = {
    "ramp": lambda rng, shape: rx._ind_singleton(
        0.0, rng.uniform(-0.1, 1.1, shape), 3.7),
    "signed": lambda rng, shape: np.where(
        rng.random(shape) < 0.1, -0.0,
        rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, shape))}


@pytest.mark.parametrize("values", sorted(_CUMSUM_INPUTS))
@pytest.mark.parametrize("shape", [(1, 1), (1, 37), (10, sm.BLOCK), (80, 50),
                                   (80, 40, 50)])
def test_exclusive_cumsum_equals_cumsum_bit_for_bit(shape, values):
    # relaxed broken indicators, and signed values with negative zeros;
    # the decomposition also passes a reversed view
    rng = np.random.default_rng(len(shape) + shape[-1])
    x = _CUMSUM_INPUTS[values](rng, shape)
    for rows in (x, x[::-1]):
        want = np.zeros_like(rows)
        np.cumsum(rows[:-1], axis=0, out=want[1:])
        assert sm.exclusive_cumsum(rows).tobytes() == want.tobytes()


@pytest.mark.parametrize("K, Q, widths", [
    (None, 1, [1]), (None, sm.BLOCK, [sm.BLOCK]),
    (None, sm.BLOCK + 1, [1024, 1025]), (None, 2 * sm.BLOCK + 1,
                                         [1365, 1366, 1366]),
    (3, 171, [256, 257]), (2, sm.STACK_BLOCK // 2, [sm.STACK_BLOCK])])
def test_columns_split_into_near_equal_blocks(monkeypatch, K, Q, widths):
    """A call steps the fewest blocks of at most BLOCK (Strategy) or
    STACK_BLOCK (stack) columns, none shorter than the others by more than
    one column: a short remainder would cost a Strategy a worker of its
    own."""
    cfg = make_cfg(n=2, T=3)
    steps = []
    block = sm._run_block

    def spy(u, noises, cfg, ind, record_states, lo, hi):
        steps.append(hi - lo)
        return block(u, noises, cfg, ind, record_states, lo, hi)

    monkeypatch.setattr(sm, "_run_block", spy)
    monkeypatch.setattr(sm, "_usable_cores", lambda: 1)
    controls = (sm.Strategy(np.zeros((2, 3))) if K is None
                else np.zeros((K, 2, 3)))
    sm.simulate_batch(controls, sm.ScenarioSet(2, 3, Q, 1), cfg)
    assert steps == widths


def _blocks_in_workers(monkeypatch, workers, run):
    """``run()`` with the batch driver allowed ``workers`` worker
    processes; none of them outlives the call."""
    monkeypatch.setattr(sm, "_usable_cores", lambda: workers)
    result = run()
    assert multiprocessing.active_children() == []
    return result


def test_outputs_identical_across_worker_counts(monkeypatch, tmp_path):
    # three blocks of scenario columns: one worker and several give the
    # same bytes in every field and output file, on an array of noises and
    # on a ScenarioSet
    cfg = small_system_config()
    rng = np.random.default_rng(12)
    Q = 2 * sm.BLOCK + 52
    sources = {"array": rng.random((Q, cfg.n, cfg.T)),
               "set": sm.ScenarioSet(cfg.n, cfg.T, Q, 12)}
    strategy = sm.Strategy(rng.random((cfg.n, cfg.T)))
    for source, noises in sources.items():
        runs = {
            "exact": lambda: sm.simulate_batch(strategy, noises, cfg,
                                               record_states=True),
            "relaxed": lambda: rx.simulate_relaxed_batch(strategy, noises,
                                                         1.5, cfg,
                                                         record_states=True),
        }
        ones = {}
        for name, run in runs.items():
            one = ones[name] = _blocks_in_workers(monkeypatch, 1, run)
            many = _blocks_in_workers(monkeypatch, 3, run)
            for field in dataclasses.fields(sm.BatchStats):
                a, b = getattr(one, field.name), getattr(many, field.name)
                assert (a is None) == (b is None), (source, name, field.name)
                if a is not None:
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes(), (source, name,
                                                        field.name)
        # the relaxed run enters its ramps: some scenario leaves the exact
        # run
        assert np.any(ones["relaxed"].total_cost != ones["exact"].total_cost)

    spath = tmp_path / "strategy.csv"
    cli.save_strategy(strategy, cfg, spath)
    outputs = []
    for workers in (1, 3):
        out = tmp_path / f"eval-{workers}"
        rc = _blocks_in_workers(monkeypatch, workers, lambda: cli.main([
            "--mode", "evaluate", "--seed", "4", "--strategy", str(spath),
            "--validation-scenarios", str(Q), "--out", str(out)]))
        assert rc == 0
        outputs.append({f: (out / f).read_bytes() for f in (
            "report.csv", "pm_cumulative.csv", "empty_stock.csv")})
    assert outputs[0] == outputs[1]


def test_worker_exception_reaches_the_caller(monkeypatch):
    """An exception raised inside a worker process is raised by the call,
    and the pool is shut down with it.  The planted function reaches the
    workers because :func:`sm.parallel_map` forks them through an explicit
    fork context, whatever the platform's default start method."""
    def broken(*args, **kwargs):
        raise FloatingPointError(f"planted in process {os.getpid()}")

    monkeypatch.setattr(sm, "_component_forward", broken)
    monkeypatch.setattr(sm, "_usable_cores", lambda: 2)
    cfg = small_system_config()
    scen = sm.ScenarioSet(cfg.n, cfg.T, 2 * sm.BLOCK + 1, 0)
    with pytest.raises(FloatingPointError, match="planted") as err:
        sm.simulate_batch(sm.Strategy(np.zeros((cfg.n, cfg.T))), scen, cfg)
    assert str(err.value) != f"planted in process {os.getpid()}"
    assert multiprocessing.active_children() == []


def _pid_of(_):
    return os.getpid()


def _inner_pids(_):
    """This worker's pid, and the pids of the tasks of a map it starts."""
    return os.getpid(), list(sm.parallel_map(_pid_of, range(3)))


def test_parallel_map_never_nests(monkeypatch):
    """The map yields in task order from forked workers, and a task that
    maps again runs every inner task in its own process."""
    contexts = []

    class Recording(ProcessPoolExecutor):
        def __init__(self, *args, mp_context, **kwargs):
            contexts.append(mp_context.get_start_method())
            super().__init__(*args, mp_context=mp_context, **kwargs)

    monkeypatch.setattr(sm, "_usable_cores", lambda: 2)
    monkeypatch.setattr(sm, "ProcessPoolExecutor", Recording)
    assert list(sm.parallel_map(pow, range(5), [2] * 5)) == [0, 1, 4, 9, 16]
    outer = list(sm.parallel_map(_inner_pids, range(2)))
    assert contexts == ["fork", "fork"]
    for pid, inner in outer:
        assert pid != os.getpid()
        assert inner == [pid] * 3
    assert multiprocessing.active_children() == []


def _inherited_row(i):
    """Row i of the inherited array, and the process that read it."""
    return os.getpid(), sm.inherited()[i].tolist()


@pytest.mark.parametrize("cores", [1, 2])
def test_parallel_map_hands_inherit_to_every_task(monkeypatch, cores):
    """Every task, in a forked worker or in this process, finds the
    ``inherit`` object as ``sm.inherited()``, and no pickle carries it:
    a ``__reduce__`` that raises would fail a pickled hand-off.  The slot
    is empty again after the map."""
    class Unpicklable(np.ndarray):
        def __reduce__(self):
            raise AssertionError("the inherited object was pickled")

    monkeypatch.setattr(sm, "_usable_cores", lambda: cores)
    rows = np.arange(12.0).reshape(4, 3).view(Unpicklable)
    out = list(sm.parallel_map(_inherited_row, range(4), inherit=rows))
    assert [row for _, row in out] == rows.tolist()
    assert (len({pid for pid, _ in out} - {os.getpid()}) > 0) == (cores > 1)
    assert sm.inherited() is None
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("K", [None, 3])
def test_memory_order_of_the_noises_does_not_matter(K):
    """The step-major panel of generate_scenarios and a C-ordered copy of
    it give the same bytes in every field, for a Strategy over three
    blocks and for a stack over three stack blocks."""
    cfg = small_system_config()
    rng = np.random.default_rng(17)
    Q = 2 * sm.BLOCK + 52 if K is None else sm.STACK_BLOCK - 1
    panel = ev.generate_scenarios(cfg.n, cfg.T, Q, seed=6)
    copy = np.ascontiguousarray(panel)
    assert panel.flags.f_contiguous and copy.flags.c_contiguous
    controls = (sm.Strategy(rng.random((cfg.n, cfg.T))) if K is None
                else _candidates(rng, K, cfg.n, cfg.T))
    runs = [sm.simulate_batch(controls, noises, cfg, record_states=True)
            for noises in (panel, copy)]
    for field in dataclasses.fields(sm.BatchStats):
        a, b = (getattr(r, field.name) for r in runs)
        if a is None:       # a stack's curves
            assert b is None and K is not None, field.name
        else:
            assert a.tobytes() == b.tobytes(), field.name
    assert runs[0].failure_count.sum() > 0


@pytest.mark.parametrize("shape", [(1, 40), (10, 1), (10, 43)])
@pytest.mark.parametrize("engine", ["exact", "relaxed", "evaluate"])
def test_strategy_shape_checked(engine, shape):
    cfg = small_system_config()
    strat = sm.Strategy(np.zeros(shape))
    noises = np.random.default_rng(0).random((4, cfg.n, cfg.T))
    run = {"exact": lambda: sm.simulate_batch(strat, noises, cfg),
           "relaxed": lambda: rx.simulate_relaxed_batch(strat, noises, 50.0,
                                                        cfg),
           "evaluate": lambda: ev.evaluate_strategy(strat, noises, cfg)}
    with pytest.raises(sm.DimensionError):
        run[engine]()


def test_zero_size_batch_raises():
    cfg = small_system_config()
    strat = sm.Strategy(np.zeros((cfg.n, cfg.T)))
    none = np.zeros((0, cfg.n, cfg.T))
    noises = np.random.default_rng(0).random((4, cfg.n, cfg.T))
    for run in (lambda: sm.simulate_batch(strat, none, cfg),
                lambda: sm.simulate_batch(none, noises, cfg),
                lambda: rx.simulate_relaxed_batch(strat, none, 50.0, cfg)):
        with pytest.raises(sm.DimensionError):
            run()


# ---------------------------------------------------------------------------
# stacked candidates


def _assert_stack_equals_own_runs(U, noises, cfg, record_states):
    stats = sm.simulate_batch(U, noises, cfg, record_states=record_states)
    values = ev.saa_objective(U, noises, cfg)
    assert values.shape == (len(U),)
    for k in range(len(U)):
        own = sm.simulate_batch(sm.Strategy(U[k]), noises, cfg,
                                record_states=record_states)
        for name in sm.BatchStats.__dataclass_fields__:
            mine = getattr(own, name)
            if mine is None or name in ("pm_cumulative", "empty_stock"):
                # a stack reports no curves, whatever a candidate's run has
                assert getattr(stats, name) is None, name
            else:
                assert np.array_equal(getattr(stats, name)[k], mine), \
                    (name, k)
        assert values[k] == ev.saa_objective(sm.Strategy(U[k]), noises, cfg)
    return stats


def _candidates(rng, K, n, T):
    """Fractional controls with PMs at every third step; candidate 0 is
    the do-nothing schedule."""
    U = rng.random((K, n, T))
    U[:, :, ::3] = 1.0
    U[0] = 0.0
    return U


def test_stack_equals_each_candidate_run():
    # K·Q = 1110 columns: three stack blocks, the first two boundaries
    # inside candidates 13 and 27
    cfg = make_cfg(n=4, T=10, s_init=1, D=2, weibull_scale=4.0)
    rng = np.random.default_rng(41)
    K, Q = 30, 37
    assert sm.STACK_BLOCK % Q and K * Q > 2 * sm.STACK_BLOCK
    stats = _assert_stack_equals_own_runs(_candidates(rng, K, 4, 10),
                                          rng.random((Q, 4, 10)), cfg, True)
    assert stats.total_cost.shape == (K, Q)
    assert stats.states.shape == (K, 4, 11, 4, Q)
    assert stats.stock.shape == (K, 11, Q)
    assert stats.failure_count.sum() > 0 and stats.fo_steps.sum() > 0


@pytest.mark.parametrize("shape", [2.0, 3.0])
def test_stack_of_two_over_more_than_one_block_of_scenarios(shape):
    # each candidate alone spans two Strategy blocks; shape 2.0 checks that
    # the power of the failure law does not depend on the block layout
    cfg = dataclasses.replace(small_system_config(), weibull_shape=shape,
                              weibull_scale=8.0)
    rng = np.random.default_rng(42)
    noises = ev.generate_scenarios(cfg.n, cfg.T, sm.BLOCK + 52, seed=5)
    _assert_stack_equals_own_runs(_candidates(rng, 2, cfg.n, cfg.T), noises,
                                  cfg, False)


def test_stack_rows_equal_own_runs_on_one_scenario():
    # on one scenario a candidate's own run is a block one column wide and
    # a stack's block K columns wide; the components' costs are added in
    # index order at both widths, which a fleet with unequal repair costs
    # would show in the last bit
    rng = np.random.default_rng(47)
    for seed in range(100):
        cfg = make_cfg(n=12, T=10, s_init=2, weibull_scale=4.0,
                       C_C=rng.uniform(50.0, 500.0, 12))
        noises = rng.random((1, 12, 10))
        for K in (1, 2, 3):
            _assert_stack_equals_own_runs(_candidates(rng, K, 12, 10),
                                          noises, cfg, False)


def test_stack_of_one_and_case1_fleet():
    cfg = case1_config()
    rng = np.random.default_rng(43)
    noises = rng.random((9, cfg.n, cfg.T))
    _assert_stack_equals_own_runs(_candidates(rng, 1, cfg.n, cfg.T), noises,
                                  cfg, True)
    _assert_stack_equals_own_runs(_candidates(rng, 3, cfg.n, cfg.T), noises,
                                  cfg, False)


@pytest.mark.parametrize("source", ["array", "set"])
def test_stack_of_one_over_more_than_one_block(source):
    # one candidate on three stack blocks of scenarios: each block reads
    # its own, as a Strategy's blocks do
    rng = np.random.default_rng(49)
    cfg = make_cfg(n=12, T=10, s_init=2, weibull_scale=4.0,
                   C_C=rng.uniform(50.0, 500.0, 12))
    noises = sm.ScenarioSet(12, 10, 2 * sm.STACK_BLOCK + 37, seed=3)
    _assert_stack_equals_own_runs(
        _candidates(rng, 2, 12, 10)[1:],
        noises if source == "set" else noises.block(0, noises.count), cfg,
        True)


def test_malformed_stack_rejected():
    cfg = small_system_config()
    noises = np.random.default_rng(0).random((4, cfg.n, cfg.T))
    for shape in [(cfg.n, cfg.T), (2, 1, cfg.T), (2, cfg.n, cfg.T + 1),
                  (1, 2, cfg.n, cfg.T)]:
        with pytest.raises(sm.DimensionError):
            sm.simulate_batch(np.zeros(shape), noises, cfg)
    for bad in (-0.1, 1.5, np.nan):
        U = np.zeros((3, cfg.n, cfg.T))
        U[1, 2, 3] = bad
        with pytest.raises(ValueError):
            sm.simulate_batch(U, noises, cfg)
        with pytest.raises(ValueError):
            ev.saa_objective(U, noises, cfg)


@pytest.mark.parametrize("bad", [-0.1, 7.0, np.nan])
def test_out_of_range_noises_rejected(bad):
    """Noises outside [0, 1] fail, for a Strategy and for a stack."""
    cfg = small_system_config()
    noises = np.random.default_rng(0).random((4, cfg.n, cfg.T))
    noises[2, 1, 3] = bad
    for controls in (sm.Strategy(np.zeros((cfg.n, cfg.T))),
                     np.zeros((2, cfg.n, cfg.T))):
        with pytest.raises(ValueError, match="noises"):
            sm.simulate_batch(controls, noises, cfg)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_conservation_of_parts(seed):
    rng = np.random.default_rng(seed)
    cfg = make_cfg(n=5, T=12, s_init=int(rng.integers(0, 4)),
                   D=int(rng.integers(1, 4)))
    u = sm.Strategy((rng.random((5, 12)) > 0.8) * 1.0)
    traj = ref.simulate(u, ref.Scenario(rng.random((5, 12))), cfg)
    for t, state in enumerate(traj.states):
        broken = sum(1 for c in state.components if c.regime == 0.0)
        # orders placed but not yet arrived: entries with 0 <= P^d <= D-1
        in_flight = sum(int(np.sum((c.last_failures >= 0)
                                   & (c.last_failures <= cfg.D - 1)))
                        for c in state.components)
        assert state.stock + in_flight - broken == cfg.s_init, \
            f"conservation broken at t={t}"


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_state_invariants(seed):
    rng = np.random.default_rng(seed)
    cfg = make_cfg(n=3, T=10, s_init=2)
    u = sm.Strategy(rng.random((3, 10)))
    traj = ref.simulate(u, ref.Scenario(rng.random((3, 10))), cfg)
    for state in traj.states:
        assert state.stock >= 0
        for c in state.components:
            assert c.regime in (0.0, 1.0)
            assert c.age >= 0
            recorded = c.last_failures[c.last_failures != sm.NO_FAILURE]
            # elapsed times since distinct failures strictly decrease in d
            assert np.all(np.diff(recorded) < 0) or recorded.size <= 1


def test_simulate_is_deterministic():
    cfg = case1_config(n=8, s_init=2)
    rng = np.random.default_rng(0)
    u = sm.Strategy(rng.random((8, 40)))
    noises = rng.random((5, 8, 40))
    a = sm.simulate_batch(u, noises, cfg)
    b = sm.simulate_batch(u, noises, cfg)
    assert np.array_equal(a.total_cost, b.total_cost)
    assert np.array_equal(a.pm_cumulative, b.pm_cumulative)


def test_dimension_mismatch_raises():
    cfg = make_cfg()
    with pytest.raises(sm.DimensionError):
        ref.simulate(sm.Strategy(np.zeros((2, 4))),
                     ref.Scenario(np.zeros((1, 4))), cfg)
    with pytest.raises(sm.DimensionError):
        sm.simulate_batch(sm.Strategy(np.zeros((1, 4))),
                          np.zeros((3, 1, 5)), cfg)


def test_trajectory_csv_roundtrip(tmp_path):
    cfg = make_cfg(n=2, T=3, s_init=1)
    rng = np.random.default_rng(3)
    strategy = sm.Strategy(rng.random((2, 3)))
    stats = sm.simulate_batch(strategy, rng.random((1, 2, 3)), cfg,
                              record_states=True)
    path = tmp_path / "traj.csv"
    cli.trajectory_to_csv(stats, strategy, cfg, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == cfg.T + 2
    header = lines[0].split(",")
    assert header[0] == "t" and header[1] == "stock"
    assert header[-1] == "forced_outage"
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 1.0
