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
time step, and which keeps the states of each row's best controls.  Where
a round is compute-bound, its rows are cut into ranges searched in
parallel, one forked worker per usable core.  The component multiplier
recursion reads nothing across rows either, so each range forms its rows'
multipliers after its search; the stock multiplier recursion is
fleet-wide and serial.  Both take the step Jacobians of
max(1, LOCKSTEP_COLUMNS // (n Q)) steps in one call.
Then the stock subproblem and its multiplier run on the freshly installed
component solutions.  Only a later iteration reads the multipliers: the
cache skips its sweep where they are all zero, as at the do-nothing start,
and the last iteration forms none, so it runs neither recursion nor the
stock subproblem.  An iteration holds only what its current phase or a
later one reads: the bar multipliers go once the cache has read them, the
cache once the component multipliers are formed, and the old bar states
before the stock phase.  The driver returns the strategy and a per-iteration
history as values; ``cli`` writes them out.

Sign convention used throughout: the dynamics constraint is written as
X_{t+1} - f(X_t, ...) = 0, so its Jacobian with respect to time-t inputs is
minus the Jacobian of f, and with respect to the time-t state itself it is
the identity.
"""
from __future__ import annotations

import mmap
import numbers
from dataclasses import astuple, dataclass, replace
from itertools import repeat

import numpy as np

from .config import ConfigError, SystemConfig
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
        counts = (self.iterations, self.subproblem_budget)
        if not all(isinstance(c, numbers.Integral) for c in counts):
            raise ValueError("iterations and subproblem_budget must be "
                             f"integers, got {counts}")
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
    The driver drops both multipliers (None) once the iteration cache,
    their only reader, has read them; its two recursions install new ones,
    except after the last search, which leaves them None.
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


def _fleet_partials(block, X, U, S, b_prev, noises, alpha,
                    cfg: SystemConfig):
    """One Jacobian block of every component's relaxed step
    (``relax.component_step_d_own`` or ``_d_S``), one call per block of
    max(1, LOCKSTEP_COLUMNS // (n Q)) steps: yields, latest block first,
    the block's slice of steps and its partials, whose trailing axes are
    (n, steps, Q).

    Takes the states (n, T+1, D+2, Q), controls (n, T), stock (T+1, Q),
    broken-below counts (n, T, Q) and noises (Q, n, T) of all times.
    """
    size = max(1, LOCKSTEP_COLUMNS // (cfg.n * X.shape[-1]))
    for t0 in reversed(range(0, cfg.T, size)):
        t = slice(t0, min(t0 + size, cfg.T))
        yield t, block(
            X[:, t, 0], X[:, t, 1], X[:, t, 2:].transpose(2, 0, 1, 3), S[t],
            b_prev[:, t], U[:, t, None], noises[:, :, t].transpose(1, 2, 0),
            alpha, cfg.weibull_shape[:, None, None],
            cfg.weibull_scale[:, None, None], cfg)


def build_iteration_cache(it: Iterate, noises, cfg: SystemConfig
                          ) -> IterationCache:
    """Frozen bar-point quantities of iteration ``it``; see IterationCache.

    Regime E_p enters component j > p only through ``b_prev``, with slope
    -d_S_j * d1{0}(E_p): one fleet-wide partials call per block of steps
    suffices.  Multipliers left None raise ValueError.

    Where every entry of ``it.Lam`` and ``it.LamS`` is zero, as at the
    do-nothing start, ``coord`` is ``np.zeros`` and no partial is formed.
    The sweep would give the same bytes: ``coord`` starts at +0.0, and
    each update adds or subtracts a product of a finite partial with a
    +-0.0 multiplier, which is +-0.0, so every entry stays +0.0 with no
    sign bit set.  The partials are finite wherever every Weibull shape
    is at least 1, which :func:`app_fixed_point` checks.
    """
    if it.Lam is None or it.LamS is None:
        raise ValueError("the iterate's multipliers were never formed")
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
    del i0E, waiting

    coord = np.zeros((n, T, D + 2, Q))
    if not (np.any(it.Lam) or np.any(it.LamS)):
        return IterationCache(bprev=bprev, sigma_others=sigma_others,
                              coord=coord)
    for t, d_S in _fleet_partials(rx.component_step_d_S, it.X, it.u, it.S,
                                  bprev, noises, alpha, cfg):
        sp = rx.stock_step_partials(E[:, t], P[:, t], it.S[t], alpha, cfg)
        lam_s = it.LamS[t.start + 1:t.stop + 1]
        coord[:, t, 0] -= sp.d_E * lam_s
        coord[:, t, 2:] -= sp.d_P * lam_s[:, None]
        h = np.stack([np.einsum("ojq,joq->jq", d_S[:, :, ts - t.start],
                                it.Lam[:, ts + 1])
                      for ts in range(t.start, t.stop)], axis=1)
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
    g = ind.singleton(0.0, E)
    shape, scale = cfg.weibull_shape[:, None], cfg.weibull_scale[:, None]
    for t in range(T + 1):
        X[:, :, t, 0], X[:, :, t, 1] = E, A
        X[:, :, t, 2:] = P.transpose(1, 2, 0, 3)
        if t < T:
            f = sm._component_forward(
                E, A, P, it.S[t], cache.bprev[:, t], Uc[:, :, t, None],
                noises[:, :, t].T, shape, scale, cfg, ind, g)
            E, A, P, g = f.E_new, f.A_new, f.P_new, f.I0n
            del f   # the step's other intermediates go before the next's
    return X.transpose(1, 0, 2, 3, 4)


def component_subproblem_objective(U, it: Iterate, noises, cfg: SystemConfig,
                                   cache: IterationCache):
    """Auxiliary objective of every component i at its K candidate controls.

    ``U`` has shape (n, K, T) and gives (n, K) values, returned with the
    candidates' states (n, K, T+1, D+2, Q) of :func:`component_trajectories`.
    Every row and every candidate is reduced on its own, on its own Q
    scenario columns, so each value is the one a single-component,
    single-candidate evaluation gives.
    """
    X = component_trajectories(U, it, noises, cfg, cache)
    U = np.asarray(U, dtype=float)
    return np.stack([_subproblem_values(U[:, k], X[:, k], it, cfg, cache)
                     for k in range(U.shape[1])], axis=1), X


def _subproblem_values(U, X, it: Iterate, cfg: SystemConfig,
                       cache: IterationCache) -> np.ndarray:
    """The n objective values of controls (n, T) with states X."""
    T = cfg.T
    beta = cfg.discount(np.arange(T + 1))
    alpha = it.alpha
    E, A = X[:, :, 0, :], X[:, :, 1, :]
    # in place, with the operands of beta C_C (1{0}(E) 1{0}(A))
    # + beta C_F min(1, sigma_others + 1{0}(E) 1(0,inf)(A))
    i0E = rx._ind_singleton(0.0, E, alpha)
    own_cm = rx._ind_singleton(0.0, A, alpha)
    own_cm *= i0E
    own_cm *= beta[:, None] * cfg.C_C[:, None, None]
    fo = rx._ind_strict_pos(A, alpha)
    fo *= i0E
    fo += cache.sigma_others
    np.minimum(fo, 1.0, out=fo)
    fo *= beta[:, None] * cfg.C_F
    own_cm += fo
    dev = X - it.X
    prox = 0.5 * it.gamma_x * np.sum(np.square(dev, out=dev), axis=(1, 2))
    coupling = np.einsum("itcq,itcq->iq", cache.coord, X[:, :T])
    per_scenario = np.sum(own_cm, axis=1) + prox + coupling
    pm = np.sum(beta[:T] * cfg.C_P[:, None] * U ** 2, axis=1)
    prox_u = 0.5 * it.gamma_u * np.sum((U - it.u) ** 2, axis=1)
    return pm + prox_u + np.mean(per_scenario, axis=1)


#: (row, candidate, scenario) columns one lockstep round steps: each row's
#: chunk holds max(1, LOCKSTEP_COLUMNS // (n Q)) candidates from a poll's
#: first trial, the start point included in the first, so a small fleet
#: fills a dispatch-bound round with several candidates per row and a large
#: one steps one.  Not an engine block: a round keeps (T+1)(D+2) floats of
#: states per column.  A Jacobian call of the adjoint recursions takes as
#: many (row, step, scenario) columns (:func:`_fleet_partials`).
LOCKSTEP_COLUMNS = 2048


def solve_component_subproblems(it: Iterate, noises, cfg: SystemConfig,
                                max_evals: int, seeds,
                                cache: IterationCache, *,
                                multipliers: bool = True):
    """Minimize every component's auxiliary objective over its controls.

    One row-wise lockstep search, row i warm-started at the bar controls of
    component i with ``max_evals`` evaluations and generator seed
    ``seeds[i]``; each round steps a chunk of
    max(1, LOCKSTEP_COLUMNS // (n Q)) candidates per row, cut only by a
    poll's end and the budget.  Returns (X, U, best values (n,),
    multipliers, evaluations used over all rows), with X the states the
    search kept for each row's best controls: those of its
    frozen-surroundings relaxed trajectories, as a stack of one gives
    them; and the multipliers those of
    :func:`component_multiplier_backward` at X and U, or None with
    ``multipliers=False``, which forms none.

    Rows never mix, so a range of rows is a search and a recursion of its
    own.  A round of more than LOCKSTEP_COLUMNS columns, one candidate per
    row, cuts the rows into near-equal ranges, one per usable core, through
    ``sysmodel.parallel_map``, except in a worker of a map, whose tasks run
    one after another anyway: a worker reads a range's task, inputs
    included, through the fork and writes the range's rows of the results
    into shared memory, the multipliers only where they are formed; only
    its evaluation count crosses by pickle.  A single range keeps its own
    arrays.
    """
    n, Q = cfg.n, noises.shape[0]
    split = n * Q > LOCKSTEP_COLUMNS and not sm._in_worker
    count = min(sm._usable_cores(), n) if split else 1
    cuts = [j * n // count for j in range(count + 1)]
    out = None if count == 1 else (
        _shared_empty(it.X.shape), _shared_empty(it.u.shape),
        _shared_empty(n), _shared_empty(it.X.shape) if multipliers else None)
    job = (it, noises, cfg, max_evals, seeds, cache,
           max(1, LOCKSTEP_COLUMNS // (n * Q)), multipliers, out)
    parts = list(sm.parallel_map(_solve_one,
                                 zip(zip(cuts[:-1], cuts[1:]), repeat(job))))
    return parts[0] if out is None else (*out, sum(parts))


def _shared_empty(shape) -> np.ndarray:
    """An uninitialized float array in anonymous shared memory, which
    forked workers write into for their parent."""
    size = int(np.prod(shape))
    return np.frombuffer(mmap.mmap(-1, 8 * max(size, 1)),
                         count=size).reshape(shape)


def _solve_one(task):
    """Rows lo..hi-1 of :func:`solve_component_subproblems`' search, for
    the task ((lo, hi), job), on their slices of the job's inputs and with
    its chunk cap, then, where the job asks for multipliers, their
    recursion on the same slices; writes their X, U, best values and any
    multipliers into the shared outputs and returns their evaluations, or,
    without outputs, returns all five, the multipliers None if unformed."""
    rows, (it, noises, cfg, max_evals, seeds, cache, cap, multipliers,
           out) = task
    r = slice(*rows)
    part = replace(cfg, n=r.stop - r.start, C_P=cfg.C_P[r], C_C=cfg.C_C[r],
                   weibull_shape=cfg.weibull_shape[r],
                   weibull_scale=cfg.weibull_scale[r])
    bar = replace(it, X=it.X[r], u=it.u[r])
    frozen = IterationCache(bprev=cache.bprev[r],
                            sigma_others=cache.sigma_others[r],
                            coord=cache.coord[r])
    noises = noises[:, r]
    U, best, evals, X = minimize(
        lambda U: component_subproblem_objective(U, bar, noises, part,
                                                 frozen),
        bar.u.copy(), (np.zeros(cfg.T), np.ones(cfg.T)), max_evals,
        seeds[r], max_chunk=cap)
    Lam = (component_multiplier_backward(X, U, bar, noises, part, frozen)
           if multipliers else None)
    if out is None:     # the only range: its own arrays, no shared copies
        return X, U, best, Lam, evals
    for whole, rows_of in zip(out, (X, U, best, Lam)):
        if whole is not None:
            whole[r] = rows_of
    return evals


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


def _own_cost_gradient(X, t0, sigma_others, alpha, cfg: SystemConfig
                       ) -> np.ndarray:
    """Gradient in X of every component's stage costs, others at the bar.

    ``X`` holds the states (n, steps, D+2, Q) of one block of times from
    ``t0`` on, which set the discount, and ``sigma_others`` their frozen
    waiting counts (n, steps, Q); returns an array shaped like ``X``.
    Failure-record coordinates never enter the costs.  The FO min tie
    takes the derivative of the constant branch.
    """
    beta = cfg.discount(np.arange(t0, t0 + X.shape[1]))[:, None]
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
    controls ``U``.  Rows never mix: a range of rows, on its slices of
    every input, gets its rows' multipliers.  One own-state block call
    over all rows per block of steps, the carry taken step by step, and
    the stage-cost gradient of each block formed with its Jacobian;
    returns (n, T+1, D+2, Q).
    """
    T, sigma = cfg.T, cache.sigma_others
    Lam = np.empty_like(X)
    g = _own_cost_gradient(X[:, T:], T, sigma[:, T:], it.alpha, cfg)
    Lam[:, T] = -g[:, 0] - it.gamma_x * (X[:, T] - it.X[:, T])
    for t, d_own in _fleet_partials(rx.component_step_d_own, X, U, it.S,
                                    cache.bprev, noises, it.alpha, cfg):
        g = _own_cost_gradient(X[:, t], t.start, sigma[:, t], it.alpha, cfg)
        base = -g - it.gamma_x * (X[:, t] - it.X[:, t]) - cache.coord[:, t]
        for ts in reversed(range(t.start, t.stop)):
            carry = np.einsum("ocjq,joq->jcq", d_own[..., ts - t.start, :],
                              Lam[:, ts + 1])
            Lam[:, ts] = base[:, ts - t.start] + carry
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
    bprev = sm.exclusive_cumsum(rx._ind_singleton(0.0, E[:, :T], alpha))
    LamS = np.zeros((T + 1, Q))
    LamS[T] = -gamma_s * (S_new[T] - S_bar[T])
    for t, d_S in _fleet_partials(rx.component_step_d_S, X_new, u_new, S_bar,
                                  bprev, noises, alpha, cfg):
        sp = rx.stock_step_partials(E[:, t], P[:, t], S_new[t], alpha, cfg)
        base = -gamma_s * (S_new[t] - S_bar[t])
        for ts in reversed(range(t.start, t.stop)):
            s = ts - t.start
            acc = np.sum(np.einsum("ojq,joq->jq", d_S[:, :, s],
                                   Lam_new[:, ts + 1]), axis=0)
            LamS[ts] = base[s] + acc + sp.d_S[s] * LamS[ts + 1]
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
    A Weibull shape below 1 raises ConfigError: the failure law's slope in
    the age, which the multipliers read, is then infinite at age 0.

    An iteration's multipliers have one reader, the next iteration's
    cache, so the last iteration forms none: its search skips the
    component recursion, and the stock subproblem and its recursion do not
    run.  Its relaxed re-score, which the history reads, does.
    """
    if np.any(cfg.weibull_shape < 1):
        raise ConfigError("the decomposition needs every Weibull shape "
                          f">= 1, got {cfg.weibull_shape.min():g}")
    noises = np.asarray(noises, dtype=float)
    it = initial_iterate(cfg, p, noises)
    history = []
    for k in range(p.iterations):
        gamma_x, gamma_s, gamma_u, alpha = update_schedules(k, p)
        it.alpha = alpha
        it.gamma_x, it.gamma_u = gamma_x, gamma_u
        cache = build_iteration_cache(it, noises, cfg)
        it.Lam = it.LamS = None
        seeds = [_subproblem_seed(seed, k, i) for i in range(cfg.n)]
        last = k == p.iterations - 1
        X_new, u_new, bests, it.Lam, _ = solve_component_subproblems(
            it, noises, cfg, p.subproblem_budget, seeds, cache,
            multipliers=not last)
        del cache
        it.X, it.u = X_new, u_new
        if not last:
            S_new = solve_stock_subproblem(X_new, alpha, cfg)
            it.LamS = stock_multiplier_backward(
                S_new, X_new, u_new, it.Lam, it.S, noises, cfg, alpha,
                gamma_s)
            it.S = S_new

        relaxed = rx.simulate_relaxed_batch(Strategy(u_new), noises, alpha,
                                            cfg)
        history.append({
            "k": k, "alpha": alpha, "gamma_u": gamma_u,
            "gamma_x": gamma_x, "gamma_s": gamma_s,
            "saa_relaxed": float(np.mean(relaxed.total_cost)),
            "subproblem_best": bests.tolist(),
        })
    return Strategy(it.u.copy()), history
