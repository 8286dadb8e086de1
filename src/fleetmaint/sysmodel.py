"""Exact (integer-regime) fleet dynamics, failure law and cost functions.

State of one component: regime (1 healthy / 0 broken), age (age while
healthy, downtime while broken) and the vector of elapsed times since the
last D undiscarded failures, which drives stock replenishment.  All
components share a single stock of spare parts; broken components are
repaired in index order while spares last.

Two simulation entry points are provided: :func:`simulate` rolls a single
scenario through readable per-component steps and produces a full
:class:`Trajectory` with event logs; :func:`simulate_batch` is a vectorized
engine over many scenarios used by the Monte-Carlo layers.  Both implement
the same dynamics and are cross-checked in the tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig


class DimensionError(ValueError):
    """Strategy / scenario dimensions do not match the configuration."""


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
class Strategy:
    """Maintenance controls, one row per component, one column per step."""

    controls: np.ndarray   # (n, T), entries in [0, 1]

    def __post_init__(self):
        self.controls = np.asarray(self.controls, dtype=float)
        if self.controls.ndim != 2:
            raise DimensionError("strategy controls must be an n x T matrix")
        if np.any(self.controls < 0) or np.any(self.controls > 1):
            raise ValueError("strategy entries must lie in [0, 1]")

    @classmethod
    def zeros(cls, cfg: SystemConfig) -> "Strategy":
        return cls(np.zeros((cfg.n, cfg.T)))


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


def weibull_cdf(shape, scale, x):
    x = np.asarray(x, dtype=float)
    return -np.expm1(-np.power(np.maximum(x, 0.0) / scale, shape))


def failure_probability(shape, scale, age, dt):
    """Conditional probability of failing within the next dt given age.

    Computed as (F(age+dt) - F(age)) / (1 - F(age)) with F the Weibull CDF.
    Returns 1 when the denominator degenerates numerically.
    """
    age_arr = np.asarray(age, dtype=float)
    if np.any(age_arr < 0):
        raise ValueError("age must be nonnegative")
    # 1 - p = exp(h(age) - h(age + dt)) with h(x) = (x / scale)^shape
    h0 = np.power(age_arr / scale, shape)
    h1 = np.power((age_arr + dt) / scale, shape)
    with np.errstate(over="ignore"):
        p = -np.expm1(h0 - h1)
    p = np.where(np.isfinite(p), p, 1.0)
    p = np.clip(p, 0.0, 1.0)
    return float(p) if np.isscalar(age) or age_arr.ndim == 0 else p


def failure_probability_derivative(shape, scale, age, dt):
    """d/d(age) of failure_probability, used by the relaxed sensitivities."""
    age_arr = np.asarray(age, dtype=float)
    hp0 = shape * np.power(np.maximum(age_arr, 0.0), shape - 1.0) / scale ** shape
    hp1 = shape * np.power(age_arr + dt, shape - 1.0) / scale ** shape
    p = failure_probability(shape, scale, age, dt)
    out = (1.0 - p) * (hp1 - hp0)
    return float(out) if np.isscalar(age) or age_arr.ndim == 0 else out


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


def in_flight_orders(state: SystemState, cfg: SystemConfig) -> int:
    """Orders placed but not yet arrived: entries with 0 <= P^d <= D-1."""
    count = 0
    for c in state.components:
        count += int(np.sum((c.last_failures >= 0)
                            & (c.last_failures <= cfg.D - 1)))
    return count


# ---------------------------------------------------------------------------
# vectorized batch engine


@dataclass
class BatchStats:
    """Per-scenario aggregates of an exact batch simulation."""

    pm_cost: np.ndarray        # (Q,)
    cm_cost: np.ndarray
    fo_cost: np.ndarray
    total_cost: np.ndarray
    pm_count: np.ndarray       # (Q,) PM events actually performed
    failure_count: np.ndarray
    fo_onsets: np.ndarray      # forced-outage onset events per scenario
    fo_steps: np.ndarray       # steps spent in forced outage
    pm_cumulative: np.ndarray  # (T,) PM events summed over scenarios
    empty_stock: np.ndarray    # (T+1,) count of scenarios with stock == 0
    # full state history, only kept on request
    regimes: np.ndarray | None = None        # (T+1, n, Q)
    ages: np.ndarray | None = None
    last_failures: np.ndarray | None = None  # (T+1, n, D, Q)
    stock: np.ndarray | None = None          # (T+1, Q)


def simulate_batch(strategy: Strategy, noises: np.ndarray, cfg: SystemConfig,
                   record_states: bool = False) -> BatchStats:
    """Simulate the exact dynamics for a batch of scenarios.

    ``noises`` has shape (Q, n, T).  Costs use fixed-order summation over t
    so results are reproducible regardless of chunking.
    """
    u = strategy.controls
    noises = np.asarray(noises, dtype=float)
    if noises.ndim != 3 or noises.shape[1:] != (cfg.n, cfg.T):
        raise DimensionError(
            f"noises must have shape (Q, {cfg.n}, {cfg.T}), got {noises.shape}")
    Q = noises.shape[0]
    n, T, D = cfg.n, cfg.T, cfg.D
    delta = cfg.delta_default
    beta = cfg.discount(np.arange(T + 1))

    E = np.ones((n, Q))
    A = np.zeros((n, Q))
    P = np.full((n, D, Q), delta)
    S = np.full(Q, float(cfg.s_init))

    pm_cost = np.full(Q, float(np.sum(beta[:T][None, :] * cfg.C_P[:, None]
                                      * u ** 2)))
    cm_cost = np.zeros(Q)
    fo_cost = np.zeros(Q)
    pm_count = np.zeros(Q)
    failure_count = np.zeros(Q)
    fo_onsets = np.zeros(Q)
    fo_steps = np.zeros(Q)
    pm_cumulative = np.zeros(T)
    empty_stock = np.zeros(T + 1)
    fo_prev = np.zeros(Q, dtype=bool)

    if record_states:
        regimes = np.empty((T + 1, n, Q))
        ages = np.empty((T + 1, n, Q))
        lf = np.empty((T + 1, n, D, Q))
        stock_hist = np.empty((T + 1, Q))
        regimes[0], ages[0], lf[0], stock_hist[0] = E, A, P, S

    empty_stock[0] = np.sum(S == 0)

    for t in range(T):
        w = noises[:, :, t].T                       # (n, Q)
        healthy = E == 1.0
        broken = ~healthy
        cum_broken = np.cumsum(broken, axis=0)
        avail = S[None, :] >= cum_broken

        do_pm = healthy & (u[:, t][:, None] >= cfg.nu)
        p = failure_probability(cfg.weibull_shape[:, None],
                                cfg.weibull_scale[:, None], A, cfg.dt)
        fails = healthy & ~do_pm & (w < p)
        do_cm = broken & avail

        E_new = np.where(do_pm | do_cm | (healthy & ~do_pm & ~fails), 1.0, 0.0)
        A_new = np.where(do_pm, (1.0 - u[:, t][:, None]) * A + 1.0,
                         np.where(fails, 0.0,
                                  np.where(do_cm, 1.0, A + 1.0)))

        arrivals = np.sum(P == D - 1, axis=(0, 1))
        S_new = S + arrivals - np.minimum(S, np.sum(broken, axis=0))

        P_shift = np.where(P == delta, delta, P + 1.0)
        full = P[:, D - 1, :] != delta             # (n, Q)
        # failure with a free slot: insert 0 at the first sentinel position
        nrec = np.minimum(np.sum(P != delta, axis=1), D - 1)   # (n, Q)
        P_insert = P_shift.copy()
        np.put_along_axis(P_insert, nrec[:, None, :].astype(int), 0.0, axis=1)
        # failure with a full record: discard the oldest, append 0
        P_discard = np.concatenate([P[:, 1:, :] + 1.0,
                                    np.zeros((n, 1, Q))], axis=1)
        fail3 = fails[:, None, :]
        P_new = np.where(fail3, np.where(full[:, None, :], P_discard, P_insert),
                         P_shift)

        E, A, P, S = E_new, A_new, P_new, S_new

        cm_cost += np.sum(beta[t + 1] * cfg.C_C[:, None] * fails, axis=0)
        waiting = (E == 0.0) & (A > 0.0)
        fo_now = np.any(waiting, axis=0)
        fo_cost += beta[t + 1] * cfg.C_F * fo_now
        fo_steps += fo_now
        fo_onsets += fo_now & ~fo_prev
        fo_prev = fo_now
        pm_count += np.sum(do_pm, axis=0)
        failure_count += np.sum(fails, axis=0)
        pm_cumulative[t] = np.sum(do_pm)
        empty_stock[t + 1] = np.sum(S == 0)

        if record_states:
            regimes[t + 1], ages[t + 1], lf[t + 1], stock_hist[t + 1] = E, A, P, S

    stats = BatchStats(
        pm_cost=pm_cost, cm_cost=cm_cost, fo_cost=fo_cost,
        total_cost=pm_cost + cm_cost + fo_cost,
        pm_count=pm_count, failure_count=failure_count,
        fo_onsets=fo_onsets, fo_steps=fo_steps,
        pm_cumulative=np.cumsum(pm_cumulative),
        empty_stock=empty_stock,
    )
    if record_states:
        stats.regimes, stats.ages = regimes, ages
        stats.last_failures, stats.stock = lf, stock_hist
    return stats


# ---------------------------------------------------------------------------
# trajectory export


def trajectory_to_csv(traj: Trajectory, cfg: SystemConfig, path):
    """Write one row per time step: stock, per-component regime/age, events."""
    n, T = cfg.n, traj.horizon
    header = ["t", "stock"]
    for i in range(1, n + 1):
        header += [f"regime_{i}", f"age_{i}", f"pm_{i}", f"failure_{i}",
                   f"cm_{i}"]
    header.append("forced_outage")
    lines = [",".join(header)]
    for t in range(T + 1):
        st = traj.states[t]
        row = [str(t), f"{st.stock:.17g}"]
        for i in range(n):
            c = st.components[i]
            pm = int(traj.pm_performed[i, t]) if t < T else 0
            cm = int(traj.cm_performed[i, t]) if t < T else 0
            row += [f"{c.regime:.17g}", f"{c.age:.17g}", str(pm),
                    str(int(traj.failure[i, t])), str(cm)]
        row.append(str(int(traj.forced_outage[t])))
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
