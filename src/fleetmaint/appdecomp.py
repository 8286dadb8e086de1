"""Auxiliary-problem decomposition of the fleet maintenance problem.

The full stochastic control problem couples all components through the
spare-parts stock and the lump forced-outage penalty.  Following the
auxiliary problem principle, each fixed-point iteration freezes the current
trajectories, controls and multipliers (the "bar" point) and solves one
small problem per component plus one for the stock:

* the component subproblem optimizes the T preventive-maintenance controls
  of one component against the relaxed dynamics with frozen surroundings,
  a proximal pull toward the bar point, and linear coordination terms built
  from the frozen multipliers;
* the stock subproblem has a single feasible point (its relaxed dynamics is
  fully determined by the fresh component states), so solving it is just a
  simulation.

Multipliers are recovered from stationarity of the Lagrangian by backward
adjoint recursions.  States, stocks and multipliers are random processes
and are stored per scenario; expectations are empirical means over the Q
fixed scenarios.

The fixed-point driver implements the mixed parallel/sequential strategy:
all component subproblems of an iteration are solved against the OLD bars
(hence in parallel), then the stock subproblem and its multiplier run on
the freshly installed component solutions.

Sign convention used throughout: the dynamics constraint is written as
X_{t+1} - f(X_t, ...) = 0, so its Jacobian with respect to time-t inputs is
minus the Jacobian of f, and with respect to the time-t state itself it is
the identity.
"""
from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .sysmodel import Strategy, DimensionError
from . import relax as rx
from .dsearch import SearchBudget, minimize


# ---------------------------------------------------------------------------
# parameters and iterates


#: tuned decomposition parameters (gamma_u0, r_x, r_s, d_gamma, alpha0,
#: d_alpha) found by derivative-free search on the 10-component system
TUNED_PARAMS = (17.32, 7434.0, 815.3, 0.1360, 46.51, 135.5)

#: search bounds for the six tunable parameters, same order as TUNED_PARAMS
PARAM_BOUNDS = ((1.0, 100.0), (1.0, 1e4), (1.0, 1e3),
                (0.0, 100.0), (2.0, 200.0), (0.0, 200.0))


@dataclass
class APPParams:
    """Schedule and budget parameters of the fixed-point algorithm."""

    gamma_u0: float
    r_x: float
    r_s: float
    d_gamma: float
    alpha0: float
    d_alpha: float
    iterations: int = 50
    subproblem_budget: int = 1000

    def __post_init__(self):
        if min(self.gamma_u0, self.r_x, self.r_s, self.alpha0) <= 0:
            raise ValueError("gamma_u0, r_x, r_s and alpha0 must be positive")
        if self.d_gamma < 0 or self.d_alpha < 0:
            raise ValueError("schedule increments must be nonnegative")
        if self.iterations < 0 or self.subproblem_budget < 1:
            raise ValueError("invalid iteration or budget count")

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.gamma_u0, self.r_x, self.r_s,
                         self.d_gamma, self.alpha0, self.d_alpha])


def tuned_params(iterations: int = 50,
                 subproblem_budget: int = 1000) -> APPParams:
    return APPParams(*TUNED_PARAMS, iterations=iterations,
                     subproblem_budget=subproblem_budget)


def update_schedules(k: int, p: APPParams):
    """Schedule values at iteration k: additive in k, ratios fixed.

    Returns (gamma_x, gamma_s, gamma_u, alpha).
    """
    if k < 0:
        raise ValueError("iteration index must be nonnegative")
    gamma_u = p.gamma_u0 + k * p.d_gamma
    alpha = p.alpha0 + k * p.d_alpha
    return gamma_u / p.r_x, gamma_u / p.r_s, gamma_u, alpha


@dataclass
class Iterate:
    """One fixed-point iterate: bar trajectories, controls, multipliers.

    ``X`` has shape (n, T+1, D+2, Q) with state coordinates ordered
    (regime, age, failure record); ``S`` is (T+1, Q); ``u`` is the shared
    deterministic control matrix (n, T); ``Lam``/``LamS`` mirror X/S.
    """

    X: np.ndarray
    S: np.ndarray
    u: np.ndarray
    Lam: np.ndarray
    LamS: np.ndarray
    k: int
    gamma_x: float
    gamma_s: float
    gamma_u: float
    alpha: float


def initial_iterate(cfg: SystemConfig, p: APPParams, noises) -> Iterate:
    """Do-nothing start: no PM anywhere, zero multipliers, simulated bars."""
    noises = np.asarray(noises, dtype=float)
    Q = noises.shape[0]
    u = np.zeros((cfg.n, cfg.T))
    gamma_x, gamma_s, gamma_u, alpha = update_schedules(0, p)
    X, S = _relaxed_system_arrays(Strategy(u), noises, alpha, cfg)
    return Iterate(X=X, S=S, u=u, Lam=np.zeros_like(X),
                   LamS=np.zeros_like(S), k=0, gamma_x=gamma_x,
                   gamma_s=gamma_s, gamma_u=gamma_u, alpha=alpha)


def _relaxed_system_arrays(strategy, noises, alpha, cfg):
    stats = rx.simulate_relaxed_batch(strategy, noises, alpha, cfg,
                                      record_states=True)
    # (T+1, n, Q) -> (n, T+1, Q); records (T+1, n, D, Q) -> (n, T+1, D, Q)
    X = np.concatenate([
        stats.regimes.transpose(1, 0, 2)[:, :, None, :],
        stats.ages.transpose(1, 0, 2)[:, :, None, :],
        stats.last_failures.transpose(1, 0, 2, 3),
    ], axis=2)
    return X, stats.stock.copy()


# ---------------------------------------------------------------------------
# per-iteration frozen quantities


@dataclass
class IterationCache:
    """Bar-point quantities shared by all subproblems of one iteration.

    ``bprev[i, t]`` is the relaxed count of broken components below i;
    ``sigma_others[i, t]`` the relaxed waiting count excluding i;
    ``coord[i, t]`` the linear coordination coefficients multiplying
    X_{i,t} in subproblem i (already including the minus sign from the
    constraint convention): the stock term, plus the spare-order term
    d1{0}(E_{i,t}) * sum_{j>i} d_S_j . Lam_{j,t+1}, a reverse cumulative
    sum over the component axis.
    """

    bprev: np.ndarray           # (n, T, Q)
    sigma_others: np.ndarray    # (n, T+1, Q)
    coord: np.ndarray           # (n, T, D+2, Q)


def _stock_sensitivity(E_t, A_t, P_t, S_t, u_t, w_t, Lam_next, alpha,
                       cfg: SystemConfig) -> np.ndarray:
    """Per-component d_S . Lam_{t+1} of the fleet's step at time t, (n, Q).

    Takes (n, Q) regimes and ages, (n, D, Q) records, (Q,) stock, (n,)
    controls, (Q, n) noises and the (n, D+2, Q) multipliers at t+1.
    """
    b_prev = rx.exclusive_cumsum(rx._ind_singleton(0.0, E_t, alpha))
    cp = rx.component_step_partials(
        E_t, A_t, P_t.transpose(1, 0, 2), S_t, b_prev, u_t[:, None], w_t.T,
        alpha, cfg.weibull_shape[:, None], cfg.weibull_scale[:, None], cfg)
    return np.einsum("ojq,joq->jq", cp.d_S, Lam_next)


def build_iteration_cache(it: Iterate, noises, cfg: SystemConfig
                          ) -> IterationCache:
    """Frozen bar-point quantities of iteration ``it``; see IterationCache.

    Regime E_p enters component j > p only through ``b_prev``, with slope
    -d_S_j * d1{0}(E_p): one fleet-wide partials call per step suffices.
    """
    n, T, D = cfg.n, cfg.T, cfg.D
    Q = it.S.shape[1]
    alpha = it.alpha
    E = it.X[:, :, 0, :]                      # (n, T+1, Q)
    A = it.X[:, :, 1, :]
    P = it.X[:, :, 2:, :]                     # (n, T+1, D, Q)
    i0E = rx._ind_singleton(0.0, E, alpha)
    waiting = i0E * rx._ind_strict_pos(A, alpha)
    sigma_others = np.sum(waiting, axis=0)[None] - waiting
    bprev = rx.exclusive_cumsum(i0E[:, :T, :])

    coord = np.zeros((n, T, D + 2, Q))
    for t in range(T):
        sp = rx.stock_step_partials(E[:, t], P[:, t], it.S[t], alpha, cfg)
        lam_s = it.LamS[t + 1]
        coord[:, t, 0] -= sp.d_E * lam_s
        coord[:, t, 2:] -= sp.d_P * lam_s
        h = _stock_sensitivity(E[:, t], A[:, t], P[:, t], it.S[t],
                               it.u[:, t], noises[:, :, t],
                               it.Lam[:, t + 1], alpha, cfg)
        above = rx.exclusive_cumsum(h[::-1])[::-1]
        coord[:, t, 0] += rx._dind_singleton(0.0, E[:, t], alpha) * above
    return IterationCache(bprev=bprev, sigma_others=sigma_others, coord=coord)


# ---------------------------------------------------------------------------
# component subproblem


def _component_traj(i, u_i, it: Iterate, noises, cfg, cache):
    return rx.simulate_component_relaxed(
        u_i, noises[:, i, :], cache.bprev[i], it.S, it.alpha, cfg, i)


def _objective_from_traj(i, u_i, X_i, it: Iterate, cfg, cache):
    T = cfg.T
    beta = cfg.discount(np.arange(T + 1))
    alpha = it.alpha
    E, A = X_i[:, 0, :], X_i[:, 1, :]
    own_cm = beta[:, None] * cfg.C_C[i] * (
        rx._ind_singleton(0.0, E, alpha) * rx._ind_singleton(0.0, A, alpha))
    sigma = cache.sigma_others[i] + (rx._ind_singleton(0.0, E, alpha)
                                     * rx._ind_strict_pos(A, alpha))
    fo = beta[:, None] * cfg.C_F * np.minimum(1.0, sigma)
    prox = 0.5 * it.gamma_x * np.sum((X_i - it.X[i]) ** 2, axis=(0, 1))
    coupling = np.einsum("tcq,tcq->q", cache.coord[i], X_i[:T])
    per_scenario = np.sum(own_cm + fo, axis=0) + prox + coupling
    pm = float(np.sum(beta[:T] * cfg.C_P[i] * np.asarray(u_i) ** 2))
    prox_u = 0.5 * it.gamma_u * float(np.sum((u_i - it.u[i]) ** 2))
    return pm + prox_u + float(np.mean(per_scenario))


def component_subproblem_objective(i, u_i, it: Iterate, noises,
                                   cfg: SystemConfig,
                                   cache: IterationCache | None = None
                                   ) -> float:
    """Auxiliary objective of component i at candidate controls ``u_i``."""
    u_i = np.asarray(u_i, dtype=float)
    if u_i.shape != (cfg.T,):
        raise DimensionError(f"u_i must have shape ({cfg.T},)")
    if cache is None:
        cache = build_iteration_cache(it, noises, cfg)
    X_i = _component_traj(i, u_i, it, noises, cfg, cache)
    return _objective_from_traj(i, u_i, X_i, it, cfg, cache)


def solve_component_subproblem(i, it: Iterate, noises, cfg: SystemConfig,
                               budget: SearchBudget,
                               cache: IterationCache | None = None):
    """Minimize the auxiliary objective of component i over its controls.

    Warm-started at the bar controls.  Returns (X_i, u_i, best value,
    evaluations used); the trajectory satisfies the frozen-surroundings
    relaxed dynamics by construction.
    """
    if cache is None:
        cache = build_iteration_cache(it, noises, cfg)

    def objective(u_i):
        X_i = _component_traj(i, u_i, it, noises, cfg, cache)
        return _objective_from_traj(i, u_i, X_i, it, cfg, cache)

    lo, hi = np.zeros(cfg.T), np.ones(cfg.T)
    u_best, f_best, evals = minimize(objective, it.u[i].copy(), (lo, hi),
                                     budget)
    X_best = _component_traj(i, u_best, it, noises, cfg, cache)
    return X_best, u_best, f_best, evals


# ---------------------------------------------------------------------------
# stock subproblem


def solve_stock_subproblem(X_fresh, noises, alpha, cfg: SystemConfig
                           ) -> np.ndarray:
    """Relaxed stock trajectory driven by the fresh component states.

    The constraint fixes the whole trajectory, so this is the unique
    feasible (hence optimal) point whatever the proximal and coordination
    terms are.
    """
    T = cfg.T
    Q = X_fresh.shape[-1]
    S = np.empty((T + 1, Q))
    S[0] = float(cfg.s_init)
    E = X_fresh[:, :, 0, :]
    P = X_fresh[:, :, 2:, :]
    for t in range(T):
        S[t + 1] = rx.stock_step_core(E[:, t], P[:, t], S[t], alpha, cfg)
    return S


# ---------------------------------------------------------------------------
# multiplier recursions


def _component_partials(i, X_i, u_i, t, it: Iterate, noises,
                        cfg: SystemConfig, cache: IterationCache
                        ) -> rx.ComponentStepPartials:
    """Partials of component i's step at time t against the frozen bar."""
    return rx.component_step_partials(
        X_i[t, 0], X_i[t, 1], X_i[t, 2:], it.S[t], cache.bprev[i, t],
        u_i[t], noises[:, i, t], it.alpha, cfg.weibull_shape[i],
        cfg.weibull_scale[i], cfg)


def _own_cost_gradient(i, E, A, sigma_others_t, t, alpha,
                       cfg: SystemConfig):
    """Gradient in X_i of the stage cost with the others at the bar.

    Returns an array (D+2, Q); failure-record coordinates never enter the
    costs.  The FO min tie takes the derivative of the constant branch.
    """
    beta = float(cfg.discount(t))
    i0E = rx._ind_singleton(0.0, E, alpha)
    di0E = rx._dind_singleton(0.0, E, alpha)
    i0A = rx._ind_singleton(0.0, A, alpha)
    di0A = rx._dind_singleton(0.0, A, alpha)
    ipos = rx._ind_strict_pos(A, alpha)
    dipos = rx._dind_strict_pos(A, alpha)
    sigma = sigma_others_t + i0E * ipos
    active = np.where(sigma < 1.0, 1.0, 0.0)
    g = np.zeros((2 + cfg.D,) + np.shape(E))
    g[0] = beta * cfg.C_C[i] * di0E * i0A \
        + beta * cfg.C_F * active * di0E * ipos
    g[1] = beta * cfg.C_C[i] * i0E * di0A \
        + beta * cfg.C_F * active * i0E * dipos
    return g


def component_multiplier_backward(i, X_i, u_i, it: Iterate, noises,
                                  cfg: SystemConfig,
                                  cache: IterationCache | None = None
                                  ) -> np.ndarray:
    """Adjoint multipliers of component i's dynamics, per scenario.

    Backward recursion from stationarity of the Lagrangian: cross terms
    (other components, stock) are evaluated at the bar point and enter
    through the cached coordination coefficients; the self term uses the
    Jacobian of the relaxed step along the fresh trajectory.
    """
    if cache is None:
        cache = build_iteration_cache(it, noises, cfg)
    T, D = cfg.T, cfg.D
    Q = X_i.shape[-1]
    alpha = it.alpha
    Lam = np.zeros((T + 1, D + 2, Q))
    g_T = _own_cost_gradient(i, X_i[T, 0], X_i[T, 1],
                             cache.sigma_others[i][T], T, alpha, cfg)
    Lam[T] = -g_T - it.gamma_x * (X_i[T] - it.X[i, T])
    for t in range(T - 1, -1, -1):
        cp = _component_partials(i, X_i, u_i, t, it, noises, cfg, cache)
        g = _own_cost_gradient(i, X_i[t, 0], X_i[t, 1],
                               cache.sigma_others[i][t], t, alpha, cfg)
        carry = np.einsum("ocq,oq->cq", cp.d_own, Lam[t + 1])
        Lam[t] = (-g - it.gamma_x * (X_i[t] - it.X[i, t])
                  - cache.coord[i, t] + carry)
    return Lam


def stock_multiplier_backward(S_new, X_new, u_new, Lam_new, S_bar, noises,
                              cfg: SystemConfig, alpha, gamma_s
                              ) -> np.ndarray:
    """Adjoint multipliers of the stock dynamics, per scenario.

    Called after the component solutions of the iteration are installed:
    the component partials are taken at the fresh (X, u) with the stock
    still at its old bar trajectory, matching the mixed strategy.
    """
    T = cfg.T
    Q = S_new.shape[-1]
    E, A, P = X_new[:, :, 0, :], X_new[:, :, 1, :], X_new[:, :, 2:, :]
    LamS = np.zeros((T + 1, Q))
    LamS[T] = -gamma_s * (S_new[T] - S_bar[T])
    for t in range(T - 1, -1, -1):
        acc = np.sum(_stock_sensitivity(
            E[:, t], A[:, t], P[:, t], S_bar[t], u_new[:, t],
            noises[:, :, t], Lam_new[:, t + 1], alpha, cfg), axis=0)
        sp = rx.stock_step_partials(E[:, t], P[:, t], S_new[t], alpha, cfg)
        LamS[t] = -gamma_s * (S_new[t] - S_bar[t]) + acc + sp.d_S * LamS[t + 1]
    return LamS


# ---------------------------------------------------------------------------
# stationarity diagnostics and reduced gradient


def component_stationarity_residual(i, X_i, u_i, Lam_i, it: Iterate, noises,
                                    cfg: SystemConfig,
                                    cache: IterationCache | None = None
                                    ) -> float:
    """Max abs value of the Lagrangian state gradient at (X_i, Lam_i)."""
    if cache is None:
        cache = build_iteration_cache(it, noises, cfg)
    T = cfg.T
    worst = 0.0
    for t in range(T + 1):
        g = _own_cost_gradient(i, X_i[t, 0], X_i[t, 1],
                               cache.sigma_others[i][t], t, it.alpha, cfg)
        r = g + it.gamma_x * (X_i[t] - it.X[i, t]) + Lam_i[t]
        if t < T:
            cp = _component_partials(i, X_i, u_i, t, it, noises, cfg, cache)
            r = r + cache.coord[i, t] \
                - np.einsum("ocq,oq->cq", cp.d_own, Lam_i[t + 1])
        worst = max(worst, float(np.max(np.abs(r))))
    return worst


def stock_stationarity_residual(S_new, X_new, u_new, Lam_new, LamS, S_bar,
                                noises, cfg: SystemConfig, alpha, gamma_s
                                ) -> float:
    """Max abs value of the Lagrangian stock gradient at (S_new, LamS)."""
    T = cfg.T
    E, A, P = X_new[:, :, 0, :], X_new[:, :, 1, :], X_new[:, :, 2:, :]
    worst = float(np.max(np.abs(gamma_s * (S_new[T] - S_bar[T]) + LamS[T])))
    for t in range(T - 1, -1, -1):
        acc = np.sum(_stock_sensitivity(
            E[:, t], A[:, t], P[:, t], S_bar[t], u_new[:, t],
            noises[:, :, t], Lam_new[:, t + 1], alpha, cfg), axis=0)
        sp = rx.stock_step_partials(E[:, t], P[:, t], S_new[t], alpha, cfg)
        r = (gamma_s * (S_new[t] - S_bar[t]) - acc
             - sp.d_S * LamS[t + 1] + LamS[t])
        worst = max(worst, float(np.max(np.abs(r))))
    return worst


class _InteriorKinkProbe(rx._Probe):
    """Kink probe that ignores arguments sitting exactly on a kink.

    Off the indicator bands the surrogate dynamics is locally constant, so
    states on the binary/integer lattice land exactly on singleton peaks
    without ever being pushed across them by a small control perturbation.
    Only strictly positive small distances signal that a finite-difference
    step could cross a kink.
    """

    def add(self, value, dist):
        dist = np.where(np.asarray(dist, dtype=float) == 0.0, np.inf, dist)
        super().add(value, dist)

    def add_tie(self, dist):
        dist = np.abs(np.asarray(dist, dtype=float))
        super().add_tie(np.where(dist == 0.0, np.inf, dist))


def subproblem_kink_distance(i, u_i, it: Iterate, noises,
                             cfg: SystemConfig,
                             cache: IterationCache | None = None) -> float:
    """Distance to the nearest surrogate kink along the trajectory of u_i.

    Minimized over time steps and scenarios; covers the step indicators and
    the forced-outage min tie.  Useful to decide where finite differences of
    the subproblem objective are trustworthy.
    """
    if cache is None:
        cache = build_iteration_cache(it, noises, cfg)
    probe = _InteriorKinkProbe(())
    X_i = rx.simulate_component_relaxed(
        np.asarray(u_i, dtype=float), noises[:, i, :], cache.bprev[i],
        it.S, it.alpha, cfg, i, probe=probe)
    alpha = it.alpha
    E, A = X_i[:, 0, :], X_i[:, 1, :]
    probe.add(rx._ind_singleton(0.0, E, alpha),
              rx._kinks_singleton(0.0, E, alpha))
    probe.add(rx._ind_singleton(0.0, A, alpha),
              rx._kinks_singleton(0.0, A, alpha))
    probe.add(rx._ind_strict_pos(A, alpha), rx._kinks_strict_pos(A, alpha))
    sigma = cache.sigma_others[i] + (rx._ind_singleton(0.0, E, alpha)
                                     * rx._ind_strict_pos(A, alpha))
    probe.add_tie(sigma - 1.0)
    return float(probe.kink)


def reduced_gradient(i, u_i, it: Iterate, noises, cfg: SystemConfig,
                     cache: IterationCache | None = None) -> np.ndarray:
    """Gradient of the subproblem objective in u_i via the adjoint state.

    Valid at any control point (not only at a minimizer): the adjoint
    recursion is run along the trajectory of ``u_i`` itself.
    """
    if cache is None:
        cache = build_iteration_cache(it, noises, cfg)
    T = cfg.T
    X_i = _component_traj(i, u_i, it, noises, cfg, cache)
    Lam = component_multiplier_backward(i, X_i, u_i, it, noises, cfg, cache)
    beta = cfg.discount(np.arange(T))
    grad = 2.0 * beta * cfg.C_P[i] * np.asarray(u_i, dtype=float) \
        + it.gamma_u * (np.asarray(u_i) - it.u[i])
    for t in range(T):
        cp = _component_partials(i, X_i, u_i, t, it, noises, cfg, cache)
        grad[t] -= float(np.mean(np.einsum("oq,oq->q", cp.d_u, Lam[t + 1])))
    return grad


# ---------------------------------------------------------------------------
# fixed-point driver


def _subproblem_seed(seed: int, k: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, k, i]).generate_state(1)[0])


def _solve_one(payload):
    """Worker for one component subproblem plus its multiplier."""
    (i, it, noises, cfg, cache, budget) = payload
    X_i, u_i, best, evals = solve_component_subproblem(
        i, it, noises, cfg, budget, cache)
    Lam_i = component_multiplier_backward(i, X_i, u_i, it, noises, cfg,
                                          cache)
    return i, X_i, u_i, Lam_i, best, evals


def app_fixed_point(cfg: SystemConfig, p: APPParams, noises, seed: int,
                    workers: int = 1, progress=None):
    """Run the mixed parallel/sequential fixed-point loop.

    ``noises`` has shape (Q, n, T).  Returns (Strategy, history) where the
    history holds one record per iteration with schedule values, the mean
    relaxed sample cost of the fresh controls, per-subproblem best values
    and the wall time.  Output is a deterministic function of (cfg, p,
    noises, seed) regardless of ``workers``.
    """
    noises = np.asarray(noises, dtype=float)
    if noises.ndim != 3 or noises.shape[1:] != (cfg.n, cfg.T):
        raise DimensionError(
            f"noises must have shape (Q, {cfg.n}, {cfg.T}), got {noises.shape}")
    it = initial_iterate(cfg, p, noises)
    history = []
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for k in range(p.iterations):
            tic = time.perf_counter()
            gamma_x, gamma_s, gamma_u, alpha = update_schedules(k, p)
            it.k, it.alpha = k, alpha
            it.gamma_x, it.gamma_s, it.gamma_u = gamma_x, gamma_s, gamma_u
            cache = build_iteration_cache(it, noises, cfg)
            payloads = [
                (i, it, noises, cfg, cache,
                 SearchBudget(max_evals=p.subproblem_budget,
                              seed=_subproblem_seed(seed, k, i)))
                for i in range(cfg.n)]
            if pool is None:
                results = [_solve_one(pl) for pl in payloads]
            else:
                results = list(pool.map(_solve_one, payloads))
            results.sort(key=lambda r: r[0])

            X_new = np.empty_like(it.X)
            u_new = np.empty_like(it.u)
            Lam_new = np.empty_like(it.Lam)
            bests = []
            for i, X_i, u_i, Lam_i, best, _ in results:
                X_new[i], u_new[i], Lam_new[i] = X_i, u_i, Lam_i
                bests.append(best)
            S_new = solve_stock_subproblem(X_new, noises, alpha, cfg)
            LamS_new = stock_multiplier_backward(
                S_new, X_new, u_new, Lam_new, it.S, noises, cfg, alpha,
                gamma_s)
            it.X, it.u, it.Lam = X_new, u_new, Lam_new
            it.S, it.LamS = S_new, LamS_new

            relaxed = rx.simulate_relaxed_batch(Strategy(u_new), noises,
                                                alpha, cfg)
            record = {
                "k": k, "alpha": alpha, "gamma_u": gamma_u,
                "gamma_x": gamma_x, "gamma_s": gamma_s,
                "saa_relaxed": float(np.mean(relaxed.total_cost)),
                "subproblem_best": bests,
                "wall_time": time.perf_counter() - tic,
            }
            history.append(record)
            if progress is not None:
                progress(record)
    finally:
        if pool is not None:
            pool.shutdown()
    return Strategy(it.u.copy()), history


def history_to_csv(history, path, n: int):
    # wall_time stays out of the file so outputs are byte-reproducible
    cols = ["k", "alpha", "gamma_u", "gamma_x", "gamma_s", "saa_relaxed"] \
        + [f"best_{i + 1}" for i in range(n)]
    lines = [",".join(cols)]
    for rec in history:
        row = [str(rec["k"])] + [
            f"{rec[c]:.17g}" for c in cols[1:6]
        ] + [f"{b:.17g}" for b in rec["subproblem_best"]]
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
