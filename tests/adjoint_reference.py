"""Adjoint quantities only the tests compute: the control block of the
relaxed step's Jacobian, the stationarity residuals of the two multiplier
recursions and the reduced gradient of the component subproblems.

The package's recursions solve the stationarity conditions of the
Lagrangian step by step, so their residuals vanish by construction; the
functions here evaluate those conditions and the chain rule in controls
on their own, for the tests to check the recursions and the step
Jacobians against finite differences.

The package forms only the multipliers a later iteration reads; the
reference cache and fixed point here form all of them, for the tests to
check that skipping the rest changes no bit.
"""
from dataclasses import dataclass

import numpy as np

from fleetmaint import appdecomp as ad
from fleetmaint import relax as rx
from fleetmaint import sysmodel as sm
from fleetmaint.config import SystemConfig


def control_partials(E, A, P, S, b_prev, u, w, alpha, shape, scale,
                     cfg: SystemConfig) -> np.ndarray:
    """Derivative of the relaxed component step in the control, (D+2, ...).

    Takes the arguments of ``relax.component_step_d_own`` and broadcasts
    them the same way; 0 exactly at every kink.
    """
    f = sm._component_forward(E, A, P, S, b_prev, u, w, shape, scale, cfg,
                              rx._ramps(alpha))
    dm = rx._dind_nonneg(u - cfg.nu, alpha)
    fE_u = dm * (1.0 - f.nf) * f.one_g
    fA_u = f.one_g * (-(A + 1.0) * f.nf * dm
                      + ((1.0 - u) * A + 1.0) * dm - A * f.m)
    # the failure-record switch c = 1{1}(E) * 1{0}(E_new) moves with E_new
    c_u = f.I1 * rx._dind_singleton(0.0, f.E_new, alpha) * fE_u
    batch = np.broadcast_shapes(f.E_new.shape, f.A_new.shape,
                                f.P_new.shape[1:])
    d_u = np.zeros((cfg.D + 2,) + batch)
    d_u[0], d_u[1] = fE_u, fA_u
    d_u[2:] = (f.record - f.keep) * c_u[None]
    return d_u


@dataclass
class StepPartials:
    """The package's blocks of the relaxed component step's Jacobian and
    the control block ``d_u``."""

    d_own: np.ndarray              # (D+2, D+2, ...)
    d_S: np.ndarray                # (D+2, ...)
    d_u: np.ndarray                # (D+2, ...)


def step_partials(*args) -> StepPartials:
    """The package's two Jacobian blocks of the relaxed component step,
    ``relax.component_step_d_own`` and ``relax.component_step_d_S``, with
    the control block added."""
    return StepPartials(rx.component_step_d_own(*args),
                        rx.component_step_d_S(*args), control_partials(*args))


def component_stationarity_residual(X, U, Lam, it: ad.Iterate, noises,
                                    cfg: SystemConfig,
                                    cache: ad.IterationCache) -> np.ndarray:
    """Per component, max abs value of the Lagrangian state gradient at
    (X, Lam), shape (n,)."""
    r = (ad._own_cost_gradient(X, 0, cache.sigma_others, it.alpha, cfg)
         + it.gamma_x * (X - it.X) + Lam)
    for t, d_own in ad._fleet_partials(rx.component_step_d_own, X, U, it.S,
                                       cache.bprev, noises, it.alpha, cfg):
        r[:, t] += cache.coord[:, t] - np.einsum(
            "ocjtq,jtoq->jtcq", d_own, Lam[:, t.start + 1:t.stop + 1])
    return np.max(np.abs(r), axis=(1, 2, 3))


def stock_stationarity_residual(S_new, X_new, u_new, Lam_new, LamS, S_bar,
                                noises, cfg: SystemConfig, alpha, gamma_s
                                ) -> float:
    """Max abs value of the Lagrangian stock gradient at (S_new, LamS)."""
    T = cfg.T
    E, P = X_new[:, :, 0, :], X_new[:, :, 2:, :]
    worst = float(np.max(np.abs(gamma_s * (S_new[T] - S_bar[T]) + LamS[T])))
    b_prev = sm.exclusive_cumsum(rx._ind_singleton(0.0, E[:, :T], alpha))
    for t, d_S in ad._fleet_partials(rx.component_step_d_S, X_new, u_new,
                                     S_bar, b_prev, noises, alpha, cfg):
        t1 = slice(t.start + 1, t.stop + 1)
        acc = np.sum(np.einsum("ojtq,jtoq->jtq", d_S, Lam_new[:, t1]),
                     axis=0)
        sp = rx.stock_step_partials(E[:, t], P[:, t], S_new[t], alpha, cfg)
        r = (gamma_s * (S_new[t] - S_bar[t]) - acc
             - sp.d_S * LamS[t1] + LamS[t])
        worst = max(worst, float(np.max(np.abs(r))))
    return worst


def reduced_gradient(U, it: ad.Iterate, noises, cfg: SystemConfig,
                     cache: ad.IterationCache) -> np.ndarray:
    """Gradient of each subproblem objective in U[i] via the adjoint state.

    Valid at any control point (not only at a minimizer): the adjoint
    recursion is run along the trajectories of ``U`` itself.  Returns
    (n, T).
    """
    T = cfg.T
    X = ad.component_trajectories(U[:, None], it, noises, cfg, cache)[:, 0]
    Lam = ad.component_multiplier_backward(X, U, it, noises, cfg, cache)
    beta = cfg.discount(np.arange(T))
    grad = 2.0 * beta * cfg.C_P[:, None] * U + it.gamma_u * (U - it.u)
    for t, d_u in ad._fleet_partials(control_partials, X, U, it.S,
                                     cache.bprev, noises, it.alpha, cfg):
        grad[:, t] -= np.mean(np.einsum(
            "ojtq,jtoq->jtq", d_u, Lam[:, t.start + 1:t.stop + 1]), axis=-1)
    return grad


def reference_iteration_cache(it: ad.Iterate, noises, cfg: SystemConfig
                              ) -> ad.IterationCache:
    """``appdecomp.build_iteration_cache`` with its coordination sweep run
    whatever the multipliers, zero ones included."""
    T = cfg.T
    E, P = it.X[:, :, 0, :], it.X[:, :, 2:, :]
    i0E = rx._ind_singleton(0.0, E, it.alpha)
    waiting = i0E * rx._ind_strict_pos(it.X[:, :, 1, :], it.alpha)
    sigma_others = np.sum(waiting, axis=0)[None] - waiting
    bprev = sm.exclusive_cumsum(i0E[:, :T, :])
    coord = np.zeros((cfg.n, T, cfg.D + 2, it.S.shape[1]))
    for t, d_S in ad._fleet_partials(rx.component_step_d_S, it.X, it.u,
                                     it.S, bprev, noises, it.alpha, cfg):
        sp = rx.stock_step_partials(E[:, t], P[:, t], it.S[t], it.alpha, cfg)
        lam_s = it.LamS[t.start + 1:t.stop + 1]
        coord[:, t, 0] -= sp.d_E * lam_s
        coord[:, t, 2:] -= sp.d_P * lam_s[:, None]
        h = np.stack([np.einsum("ojq,joq->jq", d_S[:, :, ts - t.start],
                                it.Lam[:, ts + 1])
                      for ts in range(t.start, t.stop)], axis=1)
        above = sm.exclusive_cumsum(h[::-1])[::-1]
        coord[:, t, 0] += rx._dind_singleton(0.0, E[:, t], it.alpha) * above
    return ad.IterationCache(bprev=bprev, sigma_others=sigma_others,
                             coord=coord)


def reference_fixed_point(cfg: SystemConfig, p: ad.APPParams, noises,
                          seed: int):
    """``appdecomp.app_fixed_point`` forming every multiplier in every
    iteration, the last included, each cache by the full sweep of
    :func:`reference_iteration_cache`; returns (Strategy, history)."""
    it = ad.initial_iterate(cfg, p, noises)
    history = []
    for k in range(p.iterations):
        gamma_x, gamma_s, gamma_u, alpha = ad.update_schedules(k, p)
        it.alpha, it.gamma_x, it.gamma_u = alpha, gamma_x, gamma_u
        cache = reference_iteration_cache(it, noises, cfg)
        seeds = [ad._subproblem_seed(seed, k, i) for i in range(cfg.n)]
        X_new, u_new, bests, Lam, _ = ad.solve_component_subproblems(
            it, noises, cfg, p.subproblem_budget, seeds, cache)
        S_new = ad.solve_stock_subproblem(X_new, alpha, cfg)
        it.LamS = ad.stock_multiplier_backward(
            S_new, X_new, u_new, Lam, it.S, noises, cfg, alpha, gamma_s)
        it.X, it.u, it.S, it.Lam = X_new, u_new, S_new, Lam
        relaxed = rx.simulate_relaxed_batch(sm.Strategy(u_new), noises,
                                            alpha, cfg)
        history.append({
            "k": k, "alpha": alpha, "gamma_u": gamma_u,
            "gamma_x": gamma_x, "gamma_s": gamma_s,
            "saa_relaxed": float(np.mean(relaxed.total_cost)),
            "subproblem_best": bests.tolist(),
        })
    return sm.Strategy(it.u.copy()), history
