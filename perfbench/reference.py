"""Reference simulator of the exact fleet model, written apart from the package.

It re-derives the model from its definition and shares no code with
``fleetmaint.sysmodel`` or ``fleetmaint.relax``; the benchmark re-scores the
program's outputs with it.  The model, per time step t -> t+1:

* a healthy component with control u >= nu gets a PM: its age becomes
  (1 - u) * age + 1 and it cannot fail during the step;
* otherwise it fails when the noise w is below the Weibull conditional
  failure probability of its age; a failure sets regime 0, age 0, costs
  C_C and orders a spare;
* broken components are served in index order while spares last (the stock
  at time t covers the broken components of lowest index); a served one is
  healthy at age 1, an unserved one keeps waiting and its downtime grows;
* the failure record keeps the elapsed times of the last D failures; a
  failure with a full record discards the oldest entry; a spare ordered on
  a failure arrives D steps later;
* the system pays C_F at every time at which some component waits for a
  spare (a forced outage);
* stage costs at time t are discounted by (1 + tau)^-t, PM costs are
  C_P * u^2 at every decision step whatever the state.

``cfg`` is any object with the attributes n, T, D, s_init, C_F, C_P, C_C,
weibull_shape, weibull_scale, dt, tau and nu (per-component values as
length-n sequences).
"""
from __future__ import annotations

import numpy as np


def scenarios(n: int, T: int, count: int, seed: int) -> np.ndarray:
    """Uniform noises (count, n, T): scenario q reads the Philox stream
    keyed by seed * 2**64 + q, component-major.  Scenario q therefore does
    not depend on ``count``."""
    out = np.empty((count, n, T))
    for q in range(count):
        gen = np.random.Generator(np.random.Philox(key=(int(seed) << 64) + q))
        out[q] = gen.random((n, T))
    return out


def discount(cfg, t):
    return (1.0 + cfg.tau) ** (-np.asarray(t, dtype=float))


def failure_probability(shape, scale, age, dt):
    """P(fail within dt | healthy at ``age``) under a Weibull law."""
    p = -np.expm1((age / scale) ** shape - ((age + dt) / scale) ** shape)
    return np.clip(np.where(np.isfinite(p), p, 1.0), 0.0, 1.0)


def pm_cost(u, cfg) -> float:
    """Closed form sum_t beta_t sum_i C_P[i] u[i, t]^2."""
    u = np.asarray(u, dtype=float)
    beta = discount(cfg, np.arange(cfg.T))
    return float(np.sum(beta[None, :] * np.asarray(cfg.C_P)[:, None] * u ** 2))


def simulate(u, noises, cfg, record: bool = False):
    """Discounted total cost of controls ``u`` (n, T) on each scenario.

    ``noises`` has shape (Q, n, T).  Returns the (Q,) costs, or with
    ``record`` the costs and the list of states at t = 0..T, each a dict of
    ``healthy`` (n, Q) bool, ``age`` (n, Q), ``record`` (a list per
    component of (Q, D) arrays, NaN where no failure is recorded, oldest
    first) and ``stock`` (Q,).
    """
    u = np.asarray(u, dtype=float)
    noises = np.asarray(noises, dtype=float)
    Q = noises.shape[0]
    n, T, D = cfg.n, cfg.T, cfg.D
    beta = discount(cfg, np.arange(T + 1))
    C_C = np.asarray(cfg.C_C, dtype=float)
    shape = np.asarray(cfg.weibull_shape, dtype=float)
    scale = np.asarray(cfg.weibull_scale, dtype=float)

    healthy = np.ones((n, Q), dtype=bool)
    age = np.zeros((n, Q))
    fail_rec = [np.full((Q, D), np.nan) for _ in range(n)]
    stock = np.full(Q, float(cfg.s_init))
    cost = np.full(Q, pm_cost(u, cfg))
    history = []

    def snapshot():
        history.append({"healthy": healthy.copy(), "age": age.copy(),
                        "record": [r.copy() for r in fail_rec],
                        "stock": stock.copy()})

    if record:
        snapshot()
    for t in range(T):
        arrivals = sum(np.sum(r == D - 1, axis=1) for r in fail_rec)
        spares = stock.copy()        # spares left for this step's service
        broken_now = np.sum(~healthy, axis=0)
        new_healthy = healthy.copy()
        new_age = age.copy()
        for i in range(n):
            w = noises[:, i, t]
            pm = healthy[i] & (u[i, t] >= cfg.nu)
            p = failure_probability(shape[i], scale[i], age[i], cfg.dt)
            fails = healthy[i] & ~pm & (w < p)
            served = ~healthy[i] & (spares >= 1)
            spares = spares - served
            new_healthy[i] = (healthy[i] & ~fails) | served
            new_age[i] = np.select(
                [pm, fails, served], [(1.0 - u[i, t]) * age[i] + 1.0, 0.0, 1.0],
                default=age[i] + 1.0)
            rec = fail_rec[i] + 1.0          # NaN slots stay NaN
            full = ~np.isnan(rec[:, D - 1])
            shift = fails & full
            rec[shift] = np.column_stack([rec[shift, 1:],
                                          np.zeros(np.count_nonzero(shift))])
            insert = np.flatnonzero(fails & ~full)
            rec[insert, np.argmax(np.isnan(rec[insert]), axis=1)] = 0.0
            fail_rec[i] = rec
            cost += beta[t + 1] * C_C[i] * fails
        stock = stock + arrivals - np.minimum(stock, broken_now)
        healthy, age = new_healthy, new_age
        waiting = np.any(~healthy & (age > 0.0), axis=0)
        cost += beta[t + 1] * cfg.C_F * waiting
        if record:
            snapshot()
    return (cost, history) if record else cost
