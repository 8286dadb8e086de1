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
all component subproblems of an iteration are solved against the OLD bars,
so they are independent and run in lockstep: one row-wise direct search
whose every round steps a chunk of candidate controls per component, all
on one stack of scenario columns with one fleet-wide relaxed step call per
time step, and one fleet-wide multiplier recursion.
Then the stock subproblem and its multiplier run on the freshly installed
component solutions.

Sign convention used throughout: the dynamics constraint is written as
X_{t+1} - f(X_t, ...) = 0, so its Jacobian with respect to time-t inputs is
minus the Jacobian of f, and with respect to the time-t state itself it is
the identity.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .config import SystemConfig
from .sysmodel import Strategy, DimensionError
from . import relax as rx
from . import sysmodel as sm
from .dsearch import minimize


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
        if not np.all(np.isfinite(astuple(self)[:6])):
            raise ValueError("the six decomposition parameters must be finite")
        if min(self.gamma_u0, self.r_x, self.r_s, self.alpha0) <= 0:
            raise ValueError("gamma_u0, r_x, r_s and alpha0 must be positive")
        if self.d_gamma < 0 or self.d_alpha < 0:
            raise ValueError("schedule increments must be nonnegative")
        if self.iterations < 0 or self.subproblem_budget < 1:
            raise ValueError("invalid iteration or budget count")


def tuned_params(**counts) -> APPParams:
    """:data:`TUNED_PARAMS`, with ``iterations`` and ``subproblem_budget``
    as given or at their defaults."""
    return APPParams(*TUNED_PARAMS, **counts)


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
    gamma_x: float
    gamma_u: float
    alpha: float


def initial_iterate(cfg: SystemConfig, p: APPParams, noises) -> Iterate:
    """Do-nothing start: no PM anywhere, zero multipliers, simulated bars."""
    u = np.zeros((cfg.n, cfg.T))
    gamma_x, _, gamma_u, alpha = update_schedules(0, p)
    stats = rx.simulate_relaxed_batch(Strategy(u), noises, alpha, cfg,
                                      record_states=True)
    return Iterate(X=stats.states, S=stats.stock, u=u,
                   Lam=np.zeros_like(stats.states),
                   LamS=np.zeros_like(stats.stock), gamma_x=gamma_x,
                   gamma_u=gamma_u, alpha=alpha)


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


def _fleet_partials(X, U, t, S_t, b_prev, noises, alpha, cfg: SystemConfig
                    ) -> rx.ComponentStepPartials:
    """Partials of every component's relaxed step at time t, in one call.

    Takes the states (n, T+1, D+2, Q), controls (n, T) and noises
    (Q, n, T) of all times, and the (Q,) stock and (n, Q) broken-below
    counts at t.
    """
    return rx.component_step_partials(
        X[:, t, 0], X[:, t, 1], X[:, t, 2:].transpose(1, 0, 2), S_t, b_prev,
        U[:, t, None], noises[:, :, t].T, alpha, cfg.weibull_shape[:, None],
        cfg.weibull_scale[:, None], cfg)


def _stock_sensitivity(X, U, t, S_t, b_prev, noises, Lam_next, alpha,
                       cfg: SystemConfig) -> np.ndarray:
    """Per-component d_S . Lam_{t+1} of the fleet's step at time t, (n, Q).

    Takes the arguments of :func:`_fleet_partials` and the (n, D+2, Q)
    multipliers at t+1.
    """
    cp = _fleet_partials(X, U, t, S_t, b_prev, noises, alpha, cfg)
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
    bprev = sm.exclusive_cumsum(i0E[:, :T, :])

    coord = np.zeros((n, T, D + 2, Q))
    for t in range(T):
        sp = rx.stock_step_partials(E[:, t], P[:, t], it.S[t], alpha, cfg)
        lam_s = it.LamS[t + 1]
        coord[:, t, 0] -= sp.d_E * lam_s
        coord[:, t, 2:] -= sp.d_P * lam_s
        h = _stock_sensitivity(it.X, it.u, t, it.S[t], bprev[:, t], noises,
                               it.Lam[:, t + 1], alpha, cfg)
        above = sm.exclusive_cumsum(h[::-1])[::-1]
        coord[:, t, 0] += rx._dind_singleton(0.0, E[:, t], alpha) * above
    return IterationCache(bprev=bprev, sigma_others=sigma_others, coord=coord)


# ---------------------------------------------------------------------------
# component subproblems, all n in lockstep


def component_trajectories(U, it: Iterate, noises, cfg: SystemConfig,
                           cache: IterationCache) -> np.ndarray:
    """Relaxed trajectories of all components against frozen surroundings.

    Row i of the (n, K, T) stack ``U`` holds K candidate controls of
    component i, which sees the bar stock and its bar broken-below count;
    rows never mix.  The candidates are stepped together on K*Q scenario
    columns, candidate-major, one fleet step call per time step, and give
    states (n, K, T+1, D+2, Q), each candidate's those of a stack of one.
    """
    T, D = cfg.T, cfg.D
    U = np.asarray(U, dtype=float)
    if U.ndim != 3 or U.shape[0] != cfg.n or U.shape[-1] != T or U.size == 0:
        raise DimensionError(f"controls must have shape {(cfg.n, 'K', T)}, "
                             f"got {U.shape}")
    Uc = U.transpose(1, 0, 2)                 # (K, n, T)
    K, Q = len(Uc), noises.shape[0]
    # candidate k's states are the contiguous block X[k]
    X = np.empty((K, cfg.n, T + 1, D + 2, Q))
    E = np.ones((K, cfg.n, Q))
    A = np.zeros((K, cfg.n, Q))
    P = np.full((D, K, cfg.n, Q), sm.NO_FAILURE)
    ind = rx._ramps(it.alpha)
    shape, scale = cfg.weibull_shape[:, None], cfg.weibull_scale[:, None]
    for t in range(T + 1):
        X[:, :, t, 0], X[:, :, t, 1] = E, A
        X[:, :, t, 2:] = P.transpose(1, 2, 0, 3)
        if t < T:
            E, A, P = sm.component_step_core(
                E, A, P, it.S[t], cache.bprev[:, t], Uc[:, :, t, None],
                noises[:, :, t].T, shape, scale, cfg, ind)
    return X.transpose(1, 0, 2, 3, 4)


def component_subproblem_objective(U, it: Iterate, noises, cfg: SystemConfig,
                                   cache: IterationCache) -> np.ndarray:
    """Auxiliary objective of every component i at its K candidate controls.

    ``U`` has shape (n, K, T) and gives (n, K) values.  Every row and every
    candidate is reduced on its own, on its own Q scenario columns, so each
    value is the one a single-component, single-candidate evaluation gives.
    """
    X = component_trajectories(U, it, noises, cfg, cache)
    U = np.asarray(U, dtype=float)
    return np.stack([_subproblem_values(U[:, k], X[:, k], it, cfg, cache)
                     for k in range(U.shape[1])], axis=1)


def _subproblem_values(U, X, it: Iterate, cfg: SystemConfig,
                       cache: IterationCache) -> np.ndarray:
    """The n objective values of controls (n, T) with states X."""
    T = cfg.T
    beta = cfg.discount(np.arange(T + 1))
    alpha = it.alpha
    E, A = X[:, :, 0, :], X[:, :, 1, :]
    i0E = rx._ind_singleton(0.0, E, alpha)
    own_cm = beta[:, None] * cfg.C_C[:, None, None] * (
        i0E * rx._ind_singleton(0.0, A, alpha))
    sigma = cache.sigma_others + i0E * rx._ind_strict_pos(A, alpha)
    fo = beta[:, None] * cfg.C_F * np.minimum(1.0, sigma)
    dev = X - it.X
    prox = 0.5 * it.gamma_x * np.sum(np.square(dev, out=dev), axis=(1, 2))
    coupling = np.einsum("itcq,itcq->iq", cache.coord, X[:, :T])
    per_scenario = np.sum(own_cm + fo, axis=1) + prox + coupling
    pm = np.sum(beta[:T] * cfg.C_P[:, None] * U ** 2, axis=1)
    prox_u = 0.5 * it.gamma_u * np.sum((U - it.u) ** 2, axis=1)
    return pm + prox_u + np.mean(per_scenario, axis=1)


#: scenario columns one lockstep round steps, summed over the rows: each
#: row's chunk is capped at max(1, LOCKSTEP_COLUMNS // (n Q)) candidates.
#: That is ten on the 10-component system with 20 scenarios, where a round
#: of one candidate per row is dispatch-bound (see ``dsearch``), and one on
#: the 80-component fleet with 50 scenarios or more.
LOCKSTEP_COLUMNS = sm.BLOCK


def solve_component_subproblems(it: Iterate, noises, cfg: SystemConfig,
                                max_evals: int, seeds,
                                cache: IterationCache):
    """Minimize every component's auxiliary objective over its controls.

    One row-wise lockstep search, row i warm-started at the bar controls of
    component i with ``max_evals`` evaluations and generator seed
    ``seeds[i]``; each round steps a chunk of up to
    max(1, LOCKSTEP_COLUMNS // (n Q)) candidates per row.  Returns (X, U,
    best values (n,), evaluations used over all rows); the trajectories
    satisfy the frozen-surroundings relaxed dynamics by construction.
    """
    lo, hi = np.zeros(cfg.T), np.ones(cfg.T)
    U, best, evals = minimize(
        lambda U: component_subproblem_objective(U, it, noises, cfg, cache),
        it.u.copy(), (lo, hi), max_evals, seeds,
        max_chunk=max(1, LOCKSTEP_COLUMNS // (cfg.n * noises.shape[0])))
    X = component_trajectories(U[:, None], it, noises, cfg, cache)[:, 0]
    return X, U, best, evals


# ---------------------------------------------------------------------------
# stock subproblem


def solve_stock_subproblem(X_fresh, alpha, cfg: SystemConfig
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
    ind = rx._ramps(alpha)
    for t in range(T):
        S[t + 1] = sm.stock_step_core(E[:, t], P[:, t], S[t], cfg, ind)
    return S


# ---------------------------------------------------------------------------
# multiplier recursions


def _own_cost_gradient(X, sigma_others, alpha, cfg: SystemConfig
                       ) -> np.ndarray:
    """Gradient in X of every component's stage costs, others at the bar.

    ``X`` holds the states (n, T'+1, D+2, Q) of times 0..T' and
    ``sigma_others`` the frozen waiting counts (n, T'+1, Q); returns an
    array shaped like ``X``.  Failure-record coordinates never enter the
    costs.  The FO min tie takes the derivative of the constant branch.
    """
    beta = cfg.discount(np.arange(X.shape[1]))[:, None]
    c_c = cfg.C_C[:, None, None]
    E, A = X[:, :, 0], X[:, :, 1]
    i0E = rx._ind_singleton(0.0, E, alpha)
    di0E = rx._dind_singleton(0.0, E, alpha)
    i0A = rx._ind_singleton(0.0, A, alpha)
    di0A = rx._dind_singleton(0.0, A, alpha)
    ipos = rx._ind_strict_pos(A, alpha)
    dipos = rx._dind_strict_pos(A, alpha)
    sigma = sigma_others + i0E * ipos
    active = np.where(sigma < 1.0, 1.0, 0.0)
    g = np.zeros_like(X)
    g[:, :, 0] = beta * c_c * di0E * i0A \
        + beta * cfg.C_F * active * di0E * ipos
    g[:, :, 1] = beta * c_c * i0E * di0A \
        + beta * cfg.C_F * active * i0E * dipos
    return g


def component_multiplier_backward(X, U, it: Iterate, noises,
                                  cfg: SystemConfig, cache: IterationCache
                                  ) -> np.ndarray:
    """Adjoint multipliers of every component's dynamics, per scenario.

    Backward recursion from stationarity of the Lagrangian: cross terms
    (other components, stock) are evaluated at the bar point and enter
    through the cached coordination coefficients; the self term uses the
    Jacobian of the relaxed step along the fresh trajectories ``X`` of the
    controls ``U``.  One fleet-wide partials call per time step; returns
    (n, T+1, D+2, Q).
    """
    T = cfg.T
    g = _own_cost_gradient(X, cache.sigma_others, it.alpha, cfg)
    Lam = np.empty_like(X)
    Lam[:, T] = -g[:, T] - it.gamma_x * (X[:, T] - it.X[:, T])
    for t in range(T - 1, -1, -1):
        cp = _fleet_partials(X, U, t, it.S[t], cache.bprev[:, t], noises,
                             it.alpha, cfg)
        carry = np.einsum("ocjq,joq->jcq", cp.d_own, Lam[:, t + 1])
        Lam[:, t] = (-g[:, t] - it.gamma_x * (X[:, t] - it.X[:, t])
                     - cache.coord[:, t] + carry)
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
    E, P = X_new[:, :, 0, :], X_new[:, :, 2:, :]
    LamS = np.zeros((T + 1, Q))
    LamS[T] = -gamma_s * (S_new[T] - S_bar[T])
    for t in range(T - 1, -1, -1):
        b_prev = sm.exclusive_cumsum(rx._ind_singleton(0.0, E[:, t], alpha))
        acc = np.sum(_stock_sensitivity(X_new, u_new, t, S_bar[t], b_prev,
                                        noises, Lam_new[:, t + 1], alpha,
                                        cfg), axis=0)
        sp = rx.stock_step_partials(E[:, t], P[:, t], S_new[t], alpha, cfg)
        LamS[t] = -gamma_s * (S_new[t] - S_bar[t]) + acc + sp.d_S * LamS[t + 1]
    return LamS


# ---------------------------------------------------------------------------
# fixed-point driver


def _subproblem_seed(seed: int, k: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, k, i]).generate_state(1)[0])


def app_fixed_point(cfg: SystemConfig, p: APPParams, noises, seed: int):
    """Run the mixed parallel/sequential fixed-point loop.

    ``noises`` has shape (Q, n, T).  Returns (Strategy, history) where the
    history holds one record per iteration with schedule values, the mean
    relaxed sample cost of the fresh controls and per-subproblem best
    values.  Output is a deterministic function of (cfg, p, noises, seed).
    """
    noises = np.asarray(noises, dtype=float)
    it = initial_iterate(cfg, p, noises)
    history = []
    for k in range(p.iterations):
        gamma_x, gamma_s, gamma_u, alpha = update_schedules(k, p)
        it.alpha = alpha
        it.gamma_x, it.gamma_u = gamma_x, gamma_u
        cache = build_iteration_cache(it, noises, cfg)
        seeds = [_subproblem_seed(seed, k, i) for i in range(cfg.n)]
        X_new, u_new, bests, _ = solve_component_subproblems(
            it, noises, cfg, p.subproblem_budget, seeds, cache)
        Lam_new = component_multiplier_backward(X_new, u_new, it, noises,
                                                cfg, cache)
        S_new = solve_stock_subproblem(X_new, alpha, cfg)
        LamS_new = stock_multiplier_backward(
            S_new, X_new, u_new, Lam_new, it.S, noises, cfg, alpha, gamma_s)
        it.X, it.u, it.Lam = X_new, u_new, Lam_new
        it.S, it.LamS = S_new, LamS_new

        relaxed = rx.simulate_relaxed_batch(Strategy(u_new), noises, alpha,
                                            cfg)
        history.append({
            "k": k, "alpha": alpha, "gamma_u": gamma_u,
            "gamma_x": gamma_x, "gamma_s": gamma_s,
            "saa_relaxed": float(np.mean(relaxed.total_cost)),
            "subproblem_best": bests.tolist(),
        })
    return Strategy(it.u.copy()), history


def history_to_csv(history, path, n: int):
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
