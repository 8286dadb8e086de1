"""The scalar reference simulator: one scenario, one component at a time.

A readable model of the exact dynamics, kept apart from the package's fleet
step kernel so that the batch engine has an independent oracle to be
checked against.  :func:`simulate` rolls a single scenario through
per-component steps (:func:`step_component`, :func:`step_stock`) over
:class:`ComponentState`/:class:`SystemState` records and returns a full
:class:`Trajectory` with event logs; :func:`total_cost` prices it.  The
failure-law helpers :func:`weibull_mttf` and
:func:`sample_time_to_first_failure` check the Weibull law by Monte Carlo.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fleetmaint.config import SystemConfig
from fleetmaint.sysmodel import DimensionError, Strategy, failure_probability


# ---------------------------------------------------------------------------
# domain types


@dataclass
class ComponentState:
    regime: float          # 1.0 healthy, 0.0 broken (exact mode)
    age: float
    last_failures: np.ndarray   # length D, delta sentinel or elapsed time

    def copy(self) -> "ComponentState":
        return ComponentState(self.regime, self.age, self.last_failures.copy())


@dataclass
class SystemState:
    components: list[ComponentState]
    stock: float

    def copy(self) -> "SystemState":
        return SystemState([c.copy() for c in self.components], self.stock)


@dataclass
class Scenario:
    """Uniform failure noises; entry (i, t) drives the step from t to t+1."""

    noises: np.ndarray     # (n, T), entries in [0, 1]

    def __post_init__(self):
        self.noises = np.asarray(self.noises, dtype=float)
        if self.noises.ndim != 2:
            raise DimensionError("scenario noises must be an n x T matrix")


@dataclass
class Trajectory:
    states: list[SystemState]          # length T+1
    pm_performed: np.ndarray           # (n, T) bool, decision step t
    failure: np.ndarray                # (n, T+1) bool, state-based at t
    cm_performed: np.ndarray           # (n, T) bool, repair during step t
    forced_outage: np.ndarray          # (T+1,) bool

    @property
    def horizon(self) -> int:
        return len(self.states) - 1

    def stock_series(self) -> np.ndarray:
        return np.array([s.stock for s in self.states])


# ---------------------------------------------------------------------------
# failure law


def weibull_mttf(shape, scale) -> float:
    """Mean time to failure of a Weibull(shape, scale) law."""
    return scale * math.gamma(1.0 + 1.0 / shape)


def sample_time_to_first_failure(shape, scale, draws, seed, dt=0.01,
                                 horizon=100.0) -> np.ndarray:
    """Discrete-hazard Monte-Carlo sampling of the first failure time.

    A never-maintained healthy component is aged in steps of ``dt``; at each
    step it fails with probability ``failure_probability(age)``.  Matches the
    simulator's failure mechanism, refined to a small dt.
    """
    rng = np.random.default_rng(seed)
    times = np.full(draws, np.nan)
    alive = np.arange(draws)
    t = 0.0
    while alive.size and t < horizon:
        p = failure_probability(shape, scale, t, dt)
        w = rng.random(alive.size)
        failed = w < p
        times[alive[failed]] = t + dt
        alive = alive[~failed]
        t += dt
    times[np.isnan(times)] = horizon
    return times


# ---------------------------------------------------------------------------
# single-scenario dynamics


def spare_available(states: list[ComponentState], stock: float, i: int) -> bool:
    """True iff a spare is left for component i (1-based) at this step.

    Broken components are served in index order, so component i is served
    iff the stock covers every broken component with index <= i.
    """
    if not 1 <= i <= len(states):
        raise IndexError("component index out of range")
    broken = sum(1 for c in states[:i] if c.regime == 0)
    return stock >= broken


def step_component(states: list[ComponentState], stock: float, u: float,
                   w: float, cfg: SystemConfig) -> ComponentState:
    """Advance the last component of ``states`` by one time step.

    ``states`` holds components 1..i at time t (the stepped component is the
    last one); the earlier entries only matter through the spare-allocation
    order.  Ties: u == nu counts as a PM, w == p counts as no failure.
    """
    i = len(states)
    me = states[-1]
    delta = cfg.delta_default
    if me.regime == 1.0:
        if u >= cfg.nu:
            regime, age = 1.0, (1.0 - u) * me.age + 1.0
            failed = False
        else:
            p = failure_probability(cfg.weibull_shape[i - 1],
                                    cfg.weibull_scale[i - 1], me.age, cfg.dt)
            if w < p:
                regime, age = 0.0, 0.0
                failed = True
            else:
                regime, age = 1.0, me.age + 1.0
                failed = False
    else:
        if spare_available(states, stock, i):
            regime, age = 1.0, 1.0
        else:
            regime, age = 0.0, me.age + 1.0
        failed = False

    P = me.last_failures
    if not failed:
        newP = np.where(P == delta, delta, P + 1.0)
    elif P[-1] == delta:
        # fewer than D recorded failures: shift existing dates, append 0
        newP = np.where(P == delta, delta, P + 1.0)
        newP[int(np.sum(P != delta))] = 0.0
    else:
        # full record: the oldest order has arrived, discard it
        newP = np.concatenate([P[1:] + 1.0, [0.0]])
    return ComponentState(regime, age, newP)


def step_stock(states: list[ComponentState], stock: float,
               cfg: SystemConfig) -> float:
    """One step of the stock: ordered parts arrive, CMs consume spares."""
    arrivals = sum(int(np.sum(c.last_failures == cfg.D - 1)) for c in states)
    broken = sum(1 for c in states if c.regime == 0)
    return stock + arrivals - min(stock, broken)


def initial_state(cfg: SystemConfig) -> SystemState:
    comps = [ComponentState(1.0, 0.0, np.full(cfg.D, cfg.delta_default))
             for _ in range(cfg.n)]
    return SystemState(comps, float(cfg.s_init))


def simulate(strategy: Strategy, scenario: Scenario,
             cfg: SystemConfig) -> Trajectory:
    """Roll one scenario forward and record states and maintenance events."""
    u, w = strategy.controls, scenario.noises
    if u.shape != (cfg.n, cfg.T) or w.shape != (cfg.n, cfg.T):
        raise DimensionError(
            f"expected {(cfg.n, cfg.T)} matrices, got {u.shape} and {w.shape}")
    states = [initial_state(cfg)]
    pm = np.zeros((cfg.n, cfg.T), dtype=bool)
    cm = np.zeros((cfg.n, cfg.T), dtype=bool)
    fail = np.zeros((cfg.n, cfg.T + 1), dtype=bool)
    fo = np.zeros(cfg.T + 1, dtype=bool)
    for t in range(cfg.T):
        cur = states[-1]
        new_comps = []
        for i in range(cfg.n):
            before = cur.components[i]
            nxt = step_component(cur.components[:i + 1], cur.stock,
                                 u[i, t], w[i, t], cfg)
            pm[i, t] = before.regime == 1.0 and u[i, t] >= cfg.nu
            fail[i, t + 1] = nxt.regime == 0.0 and nxt.age == 0.0
            cm[i, t] = before.regime == 0.0 and nxt.regime == 1.0
            new_comps.append(nxt)
        new_stock = step_stock(cur.components, cur.stock, cfg)
        states.append(SystemState(new_comps, new_stock))
        fo[t + 1] = any(c.regime == 0.0 and c.age > 0.0 for c in new_comps)
    return Trajectory(states, pm, fail, cm, fo)


def total_cost(traj: Trajectory, strategy: Strategy, cfg: SystemConfig) -> dict:
    """Discounted PM / CM / forced-outage cost breakdown of a trajectory."""
    T = traj.horizon
    beta = cfg.discount(np.arange(T + 1))
    pm = float(np.sum(beta[:T][None, :] * cfg.C_P[:, None]
                      * strategy.controls ** 2))
    cm = 0.0
    fo = 0.0
    for t in range(T + 1):
        st = traj.states[t]
        waiting = 0
        for i, c in enumerate(st.components):
            if c.regime == 0.0 and c.age == 0.0:
                cm += beta[t] * cfg.C_C[i]
            if c.regime == 0.0 and c.age > 0.0:
                waiting += 1
        fo += beta[t] * cfg.C_F * min(1, waiting)
    return {"pm": pm, "cm": cm, "fo": fo, "total": pm + cm + fo}
