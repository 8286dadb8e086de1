"""Adjoint quantities only the tests compute: the control block of the
relaxed step's Jacobian, the stationarity residuals of the two multiplier
recursions and the reduced gradient of the component subproblems.

The package's recursions solve the stationarity conditions of the
Lagrangian step by step, so their residuals vanish by construction; the
functions here evaluate those conditions and the chain rule in controls
on their own, for the tests to check the recursions and the step
Jacobians against finite differences.
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

    Takes the arguments of ``relax.component_step_partials`` and broadcasts
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
    """``relax.component_step_partials`` with the control block added."""
    cp = rx.component_step_partials(*args)
    return StepPartials(cp.d_own, cp.d_S, control_partials(*args))


def _fleet_control_partials(X, U, t, S_t, b_prev, noises, alpha,
                            cfg: SystemConfig) -> np.ndarray:
    """Control block of every component's step at time t, the arguments
    taken as ``appdecomp._fleet_partials`` takes them."""
    return control_partials(
        X[:, t, 0], X[:, t, 1], X[:, t, 2:].transpose(1, 0, 2), S_t, b_prev,
        U[:, t, None], noises[:, :, t].T, alpha, cfg.weibull_shape[:, None],
        cfg.weibull_scale[:, None], cfg)


def component_stationarity_residual(X, U, Lam, it: ad.Iterate, noises,
                                    cfg: SystemConfig,
                                    cache: ad.IterationCache) -> np.ndarray:
    """Per component, max abs value of the Lagrangian state gradient at
    (X, Lam), shape (n,)."""
    T = cfg.T
    r = (ad._own_cost_gradient(X, cache.sigma_others, it.alpha, cfg)
         + it.gamma_x * (X - it.X) + Lam)
    for t in range(T):
        cp = ad._fleet_partials(X, U, t, it.S[t], cache.bprev[:, t], noises,
                                it.alpha, cfg)
        r[:, t] += cache.coord[:, t] \
            - np.einsum("ocjq,joq->jcq", cp.d_own, Lam[:, t + 1])
    return np.max(np.abs(r), axis=(1, 2, 3))


def stock_stationarity_residual(S_new, X_new, u_new, Lam_new, LamS, S_bar,
                                noises, cfg: SystemConfig, alpha, gamma_s
                                ) -> float:
    """Max abs value of the Lagrangian stock gradient at (S_new, LamS)."""
    T = cfg.T
    E, P = X_new[:, :, 0, :], X_new[:, :, 2:, :]
    worst = float(np.max(np.abs(gamma_s * (S_new[T] - S_bar[T]) + LamS[T])))
    for t in range(T - 1, -1, -1):
        b_prev = sm.exclusive_cumsum(rx._ind_singleton(0.0, E[:, t], alpha))
        acc = np.sum(ad._stock_sensitivity(X_new, u_new, t, S_bar[t], b_prev,
                                           noises, Lam_new[:, t + 1], alpha,
                                           cfg), axis=0)
        sp = rx.stock_step_partials(E[:, t], P[:, t], S_new[t], alpha, cfg)
        r = (gamma_s * (S_new[t] - S_bar[t]) - acc
             - sp.d_S * LamS[t + 1] + LamS[t])
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
    for t in range(T):
        d_u = _fleet_control_partials(X, U, t, it.S[t], cache.bprev[:, t],
                                      noises, it.alpha, cfg)
        grad[:, t] -= np.mean(np.einsum("ojq,joq->jq", d_u, Lam[:, t + 1]),
                              axis=1)
    return grad
