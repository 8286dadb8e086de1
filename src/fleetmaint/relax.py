"""Continuous relaxation of the fleet dynamics and its analytic partials.

The fleet step kernel lives in :mod:`fleetmaint.sysmodel` and is written
over three indicator functions: of singleton sets {a}, of the closed half
line [0, inf) and of the open half line (0, inf).  The exact engine passes
hard comparisons; this module passes piecewise-linear surrogates of slope
2*alpha (:func:`_ramps`), which makes trajectories and costs differentiable
almost everywhere in states and controls while agreeing with the exact
quantities on integer points once alpha >= 1.  The open half line gets a
ramp through the origin (0 at x <= 0, slope 2*alpha, 1 beyond 1/(2*alpha))
so that it still vanishes at 0 in the limit.  For most alpha a ramp is a
scaled clip with the bits of its comparison form (:func:`_clips`).

Complementary conditions are always encoded as 1 minus the same surrogate,
never as two independently relaxed indicators, so that branch weights sum
to 1 by construction.  The only exception is the regime pair inside the
failure-record update, which relaxes 1{1}(E) directly; the update still
reduces to the exact one on integer states.

Components are coupled through the stock and the spare-allocation order;
the latter enters a component's step only through ``b_prev``, the relaxed
count of broken components with a lower index.  The step reads ``S`` and
``b_prev`` only through ``S - b_prev``, so its derivative in ``b_prev`` is
``-d_S`` and in a lower regime E_j it is ``-d_S * d1{0}(E_j)``.  The whole
fleet steps in one vectorized call per time step, and is differentiated in
one call per time step or per block of steps: every argument broadcasts.
Each Jacobian block has its own function, the own-state block
(:func:`component_step_d_own`) and the stock column
(:func:`component_step_d_S`), so an adjoint recursion builds only the
block it reads.

Derivatives are taken to be exactly zero at the kinks.  The relaxed batch
is the exact batch driver of :mod:`fleetmaint.sysmodel` run with the ramps
in place of the hard indicators.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import SystemConfig
from . import sysmodel as sm
from .sysmodel import Strategy, failure_probability_derivative


def _alpha_of(alpha) -> float:
    alpha = float(alpha)
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    return alpha


# ---------------------------------------------------------------------------
# indicator surrogates


def _clips(alpha) -> bool:
    """Whether the ramps at ``alpha`` give the bits of their comparison
    form as a scaled clip: rounding is monotone, so with this product
    exact, (2 alpha) d >= 1 exactly when d >= 0.5 / alpha."""
    return (2.0 * alpha) * (0.5 / alpha) == 1.0


def _ind_singleton(a, x, alpha):
    if _clips(alpha):
        # max(1 - 2 alpha |x - a|, 0) in one array, 0-d for a scalar
        r = np.subtract(x, a, out=np.empty(np.shape(x)))
        np.multiply(np.abs(r, out=r), 2.0 * alpha, out=r)
        return np.maximum(np.subtract(1.0, r, out=r), 0.0, out=r)
    d = np.abs(np.asarray(x, dtype=float) - a)
    half = 0.5 / alpha
    return np.where(d >= half, 0.0, 1.0 - (2.0 * alpha) * d)


def _ind_nonneg(x, alpha):
    if _clips(alpha):
        # min(max(2 alpha x + 1, 0), 1)
        r = np.multiply(x, 2.0 * alpha, out=np.empty(np.shape(x)))
        r += 1.0
        return np.minimum(np.maximum(r, 0.0, out=r), 1.0, out=r)
    x = np.asarray(x, dtype=float)
    half = 0.5 / alpha
    return np.where(x >= 0.0, 1.0,
                    np.where(x <= -half, 0.0, (2.0 * alpha) * x + 1.0))


def _ind_strict_pos(x, alpha):
    if _clips(alpha):
        # min(max(2 alpha x, 0), 1); max(r, 0.0), not max(0.0, r), turns
        # the -0.0 of x = -0.0 into the comparison form's +0.0
        r = np.multiply(x, 2.0 * alpha, out=np.empty(np.shape(x)))
        return np.minimum(np.maximum(r, 0.0, out=r), 1.0, out=r)
    x = np.asarray(x, dtype=float)
    half = 0.5 / alpha
    return np.where(x <= 0.0, 0.0,
                    np.where(x >= half, 1.0, (2.0 * alpha) * x))


def _dind_singleton(a, x, alpha):
    s = np.asarray(x, dtype=float) - a
    return _dind_nonneg(s, alpha) - _dind_strict_pos(s, alpha)


def _dind_nonneg(x, alpha):
    x = np.asarray(x, dtype=float)
    half = 0.5 / alpha
    return np.where((x > -half) & (x < 0.0), 2.0 * alpha, 0.0)


def _dind_strict_pos(x, alpha):
    x = np.asarray(x, dtype=float)
    half = 0.5 / alpha
    return np.where((x > 0.0) & (x < half), 2.0 * alpha, 0.0)


def _ramps(alpha) -> sm.Indicators:
    """The surrogates at sharpness ``alpha``, as picklable partials."""
    return sm.Indicators(partial(_ind_singleton, alpha=alpha),
                         partial(_ind_nonneg, alpha=alpha),
                         partial(_ind_strict_pos, alpha=alpha))


# ---------------------------------------------------------------------------
# analytic partial derivatives of the relaxed steps


@dataclass
class StockStepPartials:
    d_S: np.ndarray                # (...)
    d_E: np.ndarray                # (n, ...)
    d_P: np.ndarray                # (n, D, ...)


def component_step_d_own(E, A, P, S, b_prev, u, w, alpha, shape, scale,
                         cfg: SystemConfig) -> np.ndarray:
    """Jacobian of the relaxed component step in its own state,
    (D+2, D+2, ...), output coordinate first.

    Takes the arguments of ``sysmodel._component_forward``, with the
    sharpness ``alpha`` in place of the indicators, and broadcasts them
    the same way, so one call covers a whole fleet.  Derivatives are 0
    exactly at every kink.
    """
    alpha = _alpha_of(alpha)
    delta = sm.NO_FAILURE
    D = cfg.D
    f = sm._component_forward(E, A, P, S, b_prev, u, w, shape, scale, cfg,
                              _ramps(alpha))
    g, V, Vp, m, nf, c = f.g, f.V, f.Vp, f.m, f.nf, f.c
    batch = f.P_new.shape[1:]           # the step's broadcast shape

    dg = _dind_singleton(0.0, E, alpha)
    dV = _dind_nonneg(S - f.b, alpha)
    dVp = _dind_strict_pos(f.b - S, alpha)
    dp = failure_probability_derivative(shape, scale, A, cfg.dt, f.p)
    dnf = _dind_nonneg(w - f.p, alpha)
    nf_A = -dnf * dp
    one_g = 1.0 - g

    # regime row
    fE_E = V * dg - dV * dg * g - (m + nf * (1.0 - m)) * dg
    fE_A = nf_A * (1.0 - m) * one_g

    # age row
    brk = Vp * g + nf * (1.0 - m) * one_g
    fA_E = ((A + 1.0) * (dVp * dg * g + Vp * dg - nf * (1.0 - m) * dg)
            - dVp * dg * g + (1.0 - Vp) * dg
            - ((1.0 - u) * A + 1.0) * m * dg)
    fA_A = (brk + (A + 1.0) * nf_A * (1.0 - m) * one_g
            + (1.0 - u) * m * one_g)

    # failure-record rows: switch c = 1{1}(E) * 1{0}(E_new)
    dI1 = _dind_singleton(1.0, E, alpha)
    dI0n = _dind_singleton(0.0, f.E_new, alpha)
    chain = f.I1 * dI0n          # multiplies d(E_new)/dx for every input x
    c_E = dI1 * f.I0n + chain * fE_E
    c_A = chain * fE_A

    Idel, IdelD = f.Idel, f.Idel[-1]
    dIdel = _dind_singleton(delta, P, alpha)
    dIdelD = dIdel[-1]
    gap = f.record - f.keep

    dkeep = (1.0 - Idel) - (P + 1.0 - delta) * dIdel    # diagonal only
    drec = np.zeros((D, D) + batch)
    for k in range(D):
        drec[k, k] += ((1.0 - Idel[k]) * IdelD
                       - (P[k] + 1.0) * dIdel[k] * IdelD)
        drec[k, D - 1] += (P[k] + 1.0) * (1.0 - Idel[k]) * dIdelD
        if k >= 1:
            drec[k, k - 1] += delta * dIdel[k - 1]
        if k <= D - 2:
            drec[k, k + 1] += 1.0 - IdelD
            drec[k, D - 1] += -(P[k + 1] + 1.0) * dIdelD

    d_own = np.zeros((D + 2, D + 2) + batch)
    d_own[0, 0], d_own[0, 1] = fE_E, fE_A
    d_own[1, 0], d_own[1, 1] = fA_E, fA_A
    d_own[2:, 0] = gap * c_E[None]
    d_own[2:, 1] = gap * c_A[None]
    for k in range(D):
        d_own[2 + k, 2:] = drec[k] * c[None]
        d_own[2 + k, 2 + k] += dkeep[k] * (1.0 - c)
    return d_own


def component_step_d_S(E, A, P, S, b_prev, u, w, alpha, shape, scale,
                       cfg: SystemConfig) -> np.ndarray:
    """Derivative of the relaxed component step in the stock, (D+2, ...);
    takes the arguments of :func:`component_step_d_own`.

    Lower components enter only through ``b_prev`` and ``S - b_prev``, so
    no block is built for them: the derivative in ``b_prev`` is ``-d_S``,
    and the one in a lower component's regime E_j is ``-d_S * d1{0}(E_j)``.
    """
    alpha = _alpha_of(alpha)
    f = sm._component_forward(E, A, P, S, b_prev, u, w, shape, scale, cfg,
                              _ramps(alpha))
    fE_S = _dind_nonneg(S - f.b, alpha) * f.g
    chain = f.I1 * _dind_singleton(0.0, f.E_new, alpha)
    d_S = np.zeros((cfg.D + 2,) + f.P_new.shape[1:])
    d_S[0] = fE_S
    d_S[1] = -A * f.g * _dind_strict_pos(f.b - S, alpha)
    d_S[2:] = (f.record - f.keep) * (chain * fE_S)[None]
    return d_S


def stock_step_partials(E_all, P_all, S, alpha,
                        cfg: SystemConfig) -> StockStepPartials:
    """Analytic partials of the relaxed stock step.

    The min operator is differentiated with the left-branch convention: at
    a tie between the stock and the relaxed broken count, the derivative is
    taken from the stock argument.
    """
    alpha = _alpha_of(alpha)
    E_all = np.asarray(E_all, dtype=float)
    P_all = np.asarray(P_all, dtype=float)
    S = np.asarray(S, dtype=float)
    B = np.sum(_ind_singleton(0.0, E_all, alpha), axis=0)
    s_branch = np.where(S <= B, 1.0, 0.0)       # tie goes to the S branch
    d_S = 1.0 - s_branch
    d_E = -(1.0 - s_branch)[None] * _dind_singleton(0.0, E_all, alpha)
    d_P = _dind_singleton(cfg.D - 1.0, P_all, alpha)
    return StockStepPartials(d_S, d_E, d_P)


# ---------------------------------------------------------------------------
# relaxed batch simulation


def simulate_relaxed_batch(strategy: Strategy, noises, alpha,
                           cfg: SystemConfig,
                           record_states: bool = False) -> sm.BatchStats:
    """Relaxed analogue of the exact batch simulator.

    The exact driver stepped with the ramps at sharpness ``alpha``.  On a
    scenario where no surrogate takes a value strictly between 0 and 1,
    which binary controls and noises off the bands give, the trajectory
    coincides bit for bit with the exact one.
    """
    return sm._simulate(strategy, noises, cfg, record_states,
                        _ramps(_alpha_of(alpha)))
