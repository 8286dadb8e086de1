"""Continuous relaxation of the fleet dynamics and costs.

The exact dynamics is driven by indicator functions of the state (broken or
not, sentinel or not, spare left or not).  Here every indicator is replaced
by a piecewise-linear surrogate of slope 2*alpha, which makes trajectories
and costs differentiable almost everywhere in states and controls while
agreeing with the exact quantities on integer points once alpha >= 1.

Three surrogate families are needed: singleton sets {a}, the closed half
line [0, inf) and the open half line (0, inf).  The open half line gets a
ramp through the origin (0 at x <= 0, slope 2*alpha, 1 beyond 1/(2*alpha))
so that it still vanishes at 0 in the limit.

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
fleet steps, and is differentiated, in one vectorized call per time step.

Derivatives are taken to be exactly zero at the kinks.  All step functions
can report which surrogate arguments fell strictly inside a ramp (band
hits) and how far every argument was from the nearest kink, which the
higher layers use to filter scenarios and validation points.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .sysmodel import ComponentState, Strategy, DimensionError, \
    failure_probability, failure_probability_derivative


@dataclass(frozen=True)
class SetDescriptor:
    """One of the three relaxable sets: {a}, [0, inf) or (0, inf)."""

    kind: str                  # "singleton" | "nonneg" | "strict_pos"
    a: float = 0.0

    def __post_init__(self):
        if self.kind not in ("singleton", "nonneg", "strict_pos"):
            raise ValueError(f"unknown set kind {self.kind!r}")


def singleton(a: float) -> SetDescriptor:
    return SetDescriptor("singleton", float(a))


NONNEG = SetDescriptor("nonneg")
STRICT_POS = SetDescriptor("strict_pos")


@dataclass(frozen=True)
class RelaxationContext:
    alpha: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")


def _alpha_of(alpha) -> float:
    if isinstance(alpha, RelaxationContext):
        return alpha.alpha
    alpha = float(alpha)
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    return alpha


# ---------------------------------------------------------------------------
# indicator surrogates


def _ind_singleton(a, x, alpha):
    d = np.abs(np.asarray(x, dtype=float) - a)
    half = 0.5 / alpha
    return np.where(d >= half, 0.0, 1.0 - (2.0 * alpha) * d)


def _ind_nonneg(x, alpha):
    x = np.asarray(x, dtype=float)
    half = 0.5 / alpha
    return np.where(x >= 0.0, 1.0,
                    np.where(x <= -half, 0.0, (2.0 * alpha) * x + 1.0))


def _ind_strict_pos(x, alpha):
    x = np.asarray(x, dtype=float)
    half = 0.5 / alpha
    return np.where(x <= 0.0, 0.0,
                    np.where(x >= half, 1.0, (2.0 * alpha) * x))


def _dind_singleton(a, x, alpha):
    s = np.asarray(x, dtype=float) - a
    half = 0.5 / alpha
    slope = 2.0 * alpha
    return (np.where((s > 0.0) & (s < half), -slope, 0.0)
            + np.where((s < 0.0) & (s > -half), slope, 0.0))


def _dind_nonneg(x, alpha):
    x = np.asarray(x, dtype=float)
    half = 0.5 / alpha
    return np.where((x > -half) & (x < 0.0), 2.0 * alpha, 0.0)


def _dind_strict_pos(x, alpha):
    x = np.asarray(x, dtype=float)
    half = 0.5 / alpha
    return np.where((x > 0.0) & (x < half), 2.0 * alpha, 0.0)


def relaxed_indicator(set_: SetDescriptor, x, alpha):
    """Piecewise-linear surrogate of the indicator of ``set_`` at ``x``."""
    alpha = _alpha_of(alpha)
    if set_.kind == "singleton":
        out = _ind_singleton(set_.a, x, alpha)
    elif set_.kind == "nonneg":
        out = _ind_nonneg(x, alpha)
    else:
        out = _ind_strict_pos(x, alpha)
    return float(out) if np.ndim(x) == 0 else out


def relaxed_indicator_derivative(set_: SetDescriptor, x, alpha):
    """Slope of the surrogate; exactly 0 at kinks and on flat regions."""
    alpha = _alpha_of(alpha)
    if set_.kind == "singleton":
        out = _dind_singleton(set_.a, x, alpha)
    elif set_.kind == "nonneg":
        out = _dind_nonneg(x, alpha)
    else:
        out = _dind_strict_pos(x, alpha)
    return float(out) if np.ndim(x) == 0 else out


def _kinks_singleton(a, x, alpha):
    d = np.abs(np.asarray(x, dtype=float) - a)
    half = 0.5 / alpha
    return np.minimum(d, np.abs(d - half))


def _kinks_nonneg(x, alpha):
    x = np.asarray(x, dtype=float)
    half = 0.5 / alpha
    return np.minimum(np.abs(x), np.abs(x + half))


def _kinks_strict_pos(x, alpha):
    x = np.asarray(x, dtype=float)
    half = 0.5 / alpha
    return np.minimum(np.abs(x), np.abs(x - half))


class _Probe:
    """Collects band hits and kink distances across indicator evaluations.

    ``band`` is a boolean array OR-accumulated over evaluations (reduced
    over any leading axes down to its own shape); ``kink`` is the distance
    from each surrogate argument to the nearest nondifferentiable point,
    min-accumulated the same way.
    """

    def __init__(self, shape=()):
        self.band = np.zeros(shape, dtype=bool)
        self.kink = np.full(shape, np.inf)

    def _reduce_or(self, mask):
        while np.ndim(mask) > self.band.ndim:
            mask = np.any(mask, axis=0)
        return mask

    def _reduce_min(self, dist):
        while np.ndim(dist) > self.kink.ndim:
            dist = np.min(dist, axis=0)
        return dist

    def add(self, value, dist):
        self.band = self.band | self._reduce_or((value > 0.0) & (value < 1.0))
        self.kink = np.minimum(self.kink, self._reduce_min(dist))

    def add_tie(self, dist):
        """Record a kink coming from a min-operator tie (no band notion)."""
        self.kink = np.minimum(self.kink, self._reduce_min(np.abs(dist)))


def _p_sing(a, x, alpha, probe):
    v = _ind_singleton(a, x, alpha)
    if probe is not None:
        probe.add(v, _kinks_singleton(a, x, alpha))
    return v


def _p_nonneg(x, alpha, probe):
    v = _ind_nonneg(x, alpha)
    if probe is not None:
        probe.add(v, _kinks_nonneg(x, alpha))
    return v


def _p_spos(x, alpha, probe):
    v = _ind_strict_pos(x, alpha)
    if probe is not None:
        probe.add(v, _kinks_strict_pos(x, alpha))
    return v


# ---------------------------------------------------------------------------
# relaxed component and stock steps (vectorized cores)


def exclusive_cumsum(x):
    """Sum of the rows of ``x`` strictly below each index of axis 0.

    On a fleet's relaxed broken indicators this is every ``b_prev``; rows
    are added in index order, as a loop over the components would.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    np.cumsum(x[:-1], axis=0, out=out[1:])
    return out


_Forward = namedtuple("_Forward", "g b V Vp m p nf E_new A_new I1 I0n c "
                                  "Idel keep record P_new")


def _component_forward(E, A, P, S, b_prev, u, w, alpha, shape, scale,
                       cfg: SystemConfig, probe: _Probe | None) -> _Forward:
    """Surrogate values of one relaxed component step (see the core)."""
    delta = cfg.delta_default
    g = _p_sing(0.0, E, alpha, probe)
    b = b_prev + g
    V = _p_nonneg(S - b, alpha, probe)
    Vp = _p_spos(b - S, alpha, probe)
    m = _p_nonneg(u - cfg.nu, alpha, probe)
    p = failure_probability(shape, scale, A, cfg.dt)
    nf = _p_nonneg(w - p, alpha, probe)
    one_g = 1.0 - g

    E_new = V * g + (m + nf * (1.0 - m)) * one_g
    A_new = ((A + 1.0) * (Vp * g + nf * (1.0 - m) * one_g)
             + (1.0 - Vp) * g
             + ((1.0 - u) * A + 1.0) * m * one_g)

    # failure-record update, switched by c = 1{healthy now, broken next}
    I1 = _p_sing(1.0, E, alpha, probe)
    I0n = _p_sing(0.0, E_new, alpha, probe)
    c = I1 * I0n
    Idel = _p_sing(delta, P, alpha, probe)
    IdelD = Idel[-1]
    keep = (P + 1.0) * (1.0 - Idel) + delta * Idel
    record = (P + 1.0) * (1.0 - Idel) * IdelD
    record[1:] = record[1:] + delta * Idel[:-1]
    record[:-1] = record[:-1] + (P[1:] + 1.0) * (1.0 - IdelD)
    P_new = keep * (1.0 - c) + record * c
    return _Forward(g, b, V, Vp, m, p, nf, E_new, A_new, I1, I0n, c, Idel,
                    keep, record, P_new)


def component_step_core(E, A, P, S, b_prev, u, w, alpha, shape, scale,
                        cfg: SystemConfig, probe: _Probe | None = None):
    """Relaxed one-step update of one component, or of a whole fleet.

    ``P`` carries the failure-record axis first (shape (D, ...)); all other
    arguments broadcast to the trailing shape (for a fleet, components
    first and Weibull ``shape``/``scale`` of shape (n, 1)).  ``b_prev`` is
    the relaxed count of broken components with lower index, frozen or live
    depending on the caller.  Returns (E', A', P').
    """
    f = _component_forward(E, A, P, S, b_prev, u, w, alpha, shape, scale,
                           cfg, probe)
    return f.E_new, f.A_new, f.P_new


def stock_step_core(E_all, P_all, S, alpha, cfg: SystemConfig,
                    probe: _Probe | None = None):
    """Relaxed stock update; arrivals and consumption from relaxed counts.

    ``E_all`` has shape (n, ...), ``P_all`` shape (n, D, ...).  The min
    operator is continuous already and is kept exact.
    """
    arrivals = _p_sing(cfg.D - 1.0, P_all, alpha, probe)
    broken = _p_sing(0.0, E_all, alpha, probe)
    B = np.sum(broken, axis=0)
    if probe is not None:
        probe.add_tie(S - B)
    return S + np.sum(arrivals, axis=(0, 1)) - np.minimum(S, B)


def _last_component_args(states: list[ComponentState], stock, u, w, alpha,
                         cfg: SystemConfig) -> tuple:
    """Step arguments of the last component in ``states`` at a scalar point."""
    i = len(states) - 1
    me = states[-1]
    E_all = np.array([c.regime for c in states])
    b_prev = exclusive_cumsum(_ind_singleton(0.0, E_all, alpha))[i]
    return (np.float64(me.regime), np.float64(me.age),
            me.last_failures.astype(float), np.float64(stock), b_prev,
            np.float64(u), np.float64(w), alpha,
            cfg.weibull_shape[i], cfg.weibull_scale[i], cfg)


def step_component_relaxed(states: list[ComponentState], stock, u, w, alpha,
                           cfg: SystemConfig) -> ComponentState:
    """Scalar relaxed step of the last component in ``states``."""
    alpha = _alpha_of(alpha)
    E, A, P = component_step_core(
        *_last_component_args(states, stock, u, w, alpha, cfg))
    return ComponentState(float(E), float(A), np.asarray(P, dtype=float))


def step_stock_relaxed(states: list[ComponentState], stock, alpha,
                       cfg: SystemConfig) -> float:
    alpha = _alpha_of(alpha)
    E = np.array([c.regime for c in states])
    P = np.stack([c.last_failures for c in states]).astype(float)
    return float(stock_step_core(E, P, np.float64(stock), alpha, cfg))


# ---------------------------------------------------------------------------
# relaxed costs


def relaxed_maintenance_cost(E, A, u, t, alpha, cfg: SystemConfig, i=None):
    """Relaxed PM + repair cost term of one component (or all) at step t.

    ``u`` is None at the final step (no control there).  When ``i`` is None
    the inputs carry a leading component axis and per-component costs are
    returned.
    """
    alpha = _alpha_of(alpha)
    beta = cfg.discount(t)
    C_P = cfg.C_P if i is None else cfg.C_P[i]
    C_C = cfg.C_C if i is None else cfg.C_C[i]
    cm = beta * C_C * (_ind_singleton(0.0, E, alpha)
                       * _ind_singleton(0.0, A, alpha))
    if u is None:
        return cm
    return beta * C_P * np.asarray(u, dtype=float) ** 2 + cm


def relaxed_fo_cost(E_all, A_all, t, alpha, cfg: SystemConfig):
    """Relaxed lump forced-outage cost at step t (components on axis 0)."""
    alpha = _alpha_of(alpha)
    waiting = (_ind_singleton(0.0, E_all, alpha)
               * _ind_strict_pos(A_all, alpha))
    sigma = np.sum(waiting, axis=0)
    return cfg.discount(t) * cfg.C_F * np.minimum(1.0, sigma)


def relaxed_costs(states: list[ComponentState], u, t, alpha,
                  cfg: SystemConfig) -> float:
    """Total relaxed stage cost at t: per-component terms plus the lump FO."""
    E = np.array([c.regime for c in states])
    A = np.array([c.age for c in states])
    uu = None if u is None else np.asarray(u, dtype=float)
    comp = relaxed_maintenance_cost(E, A, uu, t, alpha, cfg)
    return float(np.sum(comp) + relaxed_fo_cost(E, A, t, alpha, cfg))


def maintenance_cost_gradient(E, A, u, t, alpha, cfg: SystemConfig, i):
    """Gradient of the relaxed component stage cost in (E, A, u)."""
    alpha = _alpha_of(alpha)
    beta = cfg.discount(t)
    i0E = _ind_singleton(0.0, E, alpha)
    i0A = _ind_singleton(0.0, A, alpha)
    dE = beta * cfg.C_C[i] * _dind_singleton(0.0, E, alpha) * i0A
    dA = beta * cfg.C_C[i] * i0E * _dind_singleton(0.0, A, alpha)
    du = None if u is None else 2.0 * beta * cfg.C_P[i] * np.asarray(u, float)
    return dE, dA, du


def fo_cost_gradient(E_all, A_all, t, alpha, cfg: SystemConfig):
    """Gradient of the relaxed FO cost in every (E_i, A_i).

    At a min tie (relaxed waiting count exactly 1) the derivative comes
    from the constant branch, hence 0.
    """
    alpha = _alpha_of(alpha)
    i0 = _ind_singleton(0.0, E_all, alpha)
    ipos = _ind_strict_pos(A_all, alpha)
    sigma = np.sum(i0 * ipos, axis=0)
    active = np.where(sigma < 1.0, 1.0, 0.0)
    scale = cfg.discount(t) * cfg.C_F * active
    dE = scale * _dind_singleton(0.0, E_all, alpha) * ipos
    dA = scale * i0 * _dind_strict_pos(A_all, alpha)
    return dE, dA


# ---------------------------------------------------------------------------
# analytic partial derivatives of the relaxed steps


@dataclass
class ComponentStepPartials:
    """Jacobian blocks of one relaxed component step (or a fleet's).

    State coordinates are ordered (E, A, P^1..P^D), so every block carries
    a leading axis of size D+2 for the output coordinate.  Lower components
    enter only through ``b_prev`` and ``S - b_prev``, so no block is stored
    for them: the derivative in ``b_prev`` is ``-d_S``, and the one in a
    lower component's regime E_j is ``-d_S * d1{0}(E_j)``.
    """

    new_state: np.ndarray          # (D+2, ...)
    d_own: np.ndarray              # (D+2, D+2, ...)
    d_S: np.ndarray                # (D+2, ...)
    d_u: np.ndarray                # (D+2, ...)


@dataclass
class StockStepPartials:
    new_stock: np.ndarray          # (...)
    d_S: np.ndarray                # (...)
    d_E: np.ndarray                # (n, ...)
    d_P: np.ndarray                # (n, D, ...)


def component_step_partials(E, A, P, S, b_prev, u, w, alpha, shape, scale,
                            cfg: SystemConfig, probe: _Probe | None = None
                            ) -> ComponentStepPartials:
    """Analytic Jacobians of the relaxed component step.

    Takes the arguments of ``component_step_core`` and broadcasts them the
    same way, so one call covers a whole fleet.  Derivatives are 0 exactly
    at every kink.
    """
    alpha = _alpha_of(alpha)
    delta = cfg.delta_default
    D = cfg.D
    f = _component_forward(E, A, P, S, b_prev, u, w, alpha, shape, scale,
                           cfg, probe)
    g, V, Vp, m, nf, c = f.g, f.V, f.Vp, f.m, f.nf, f.c
    batch = np.broadcast_shapes(f.E_new.shape, f.A_new.shape,
                                f.P_new.shape[1:])

    dg = _dind_singleton(0.0, E, alpha)
    dV = _dind_nonneg(S - f.b, alpha)
    dVp = _dind_strict_pos(f.b - S, alpha)
    dm = _dind_nonneg(u - cfg.nu, alpha)
    dp = failure_probability_derivative(shape, scale, A, cfg.dt)
    dnf = _dind_nonneg(w - f.p, alpha)
    nf_A = -dnf * dp
    one_g = 1.0 - g

    # regime row
    fE_E = V * dg - dV * dg * g - (m + nf * (1.0 - m)) * dg
    fE_A = nf_A * (1.0 - m) * one_g
    fE_S = dV * g
    fE_u = dm * (1.0 - nf) * one_g

    # age row
    brk = Vp * g + nf * (1.0 - m) * one_g
    fA_E = ((A + 1.0) * (dVp * dg * g + Vp * dg - nf * (1.0 - m) * dg)
            - dVp * dg * g + (1.0 - Vp) * dg
            - ((1.0 - u) * A + 1.0) * m * dg)
    fA_A = (brk + (A + 1.0) * nf_A * (1.0 - m) * one_g
            + (1.0 - u) * m * one_g)
    fA_S = -A * g * dVp
    fA_u = one_g * (-(A + 1.0) * nf * dm
                    + ((1.0 - u) * A + 1.0) * dm - A * m)

    # failure-record rows: switch c = 1{1}(E) * 1{0}(E_new)
    dI1 = _dind_singleton(1.0, E, alpha)
    dI0n = _dind_singleton(0.0, f.E_new, alpha)
    chain = f.I1 * dI0n          # multiplies d(E_new)/dx for every input x
    c_E = dI1 * f.I0n + chain * fE_E
    c_A = chain * fE_A
    c_S = chain * fE_S
    c_u = chain * fE_u

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

    # assemble blocks
    dim = D + 2
    new_state = np.concatenate([f.E_new[None], f.A_new[None], f.P_new])
    d_own = np.zeros((dim, dim) + batch)
    d_own[0, 0], d_own[0, 1] = fE_E, fE_A
    d_own[1, 0], d_own[1, 1] = fA_E, fA_A
    d_own[2:, 0] = gap * c_E[None]
    d_own[2:, 1] = gap * c_A[None]
    for k in range(D):
        d_own[2 + k, 2:] = drec[k] * c[None]
        d_own[2 + k, 2 + k] += dkeep[k] * (1.0 - c)
    d_S = np.zeros((dim,) + batch)
    d_S[0], d_S[1] = fE_S, fA_S
    d_S[2:] = gap * c_S[None]
    d_u = np.zeros((dim,) + batch)
    d_u[0], d_u[1] = fE_u, fA_u
    d_u[2:] = gap * c_u[None]
    return ComponentStepPartials(new_state, d_own, d_S, d_u)


def stock_step_partials(E_all, P_all, S, alpha, cfg: SystemConfig,
                        probe: _Probe | None = None) -> StockStepPartials:
    """Analytic partials of the relaxed stock step.

    The min operator is differentiated with the left-branch convention: at
    a tie between the stock and the relaxed broken count, the derivative is
    taken from the stock argument.
    """
    alpha = _alpha_of(alpha)
    E_all = np.asarray(E_all, dtype=float)
    P_all = np.asarray(P_all, dtype=float)
    S = np.asarray(S, dtype=float)
    i0 = _p_sing(0.0, E_all, alpha, probe)
    arrivals = _p_sing(cfg.D - 1.0, P_all, alpha, probe)
    B = np.sum(i0, axis=0)
    if probe is not None:
        probe.add_tie(S - B)
    new_stock = S + np.sum(arrivals, axis=(0, 1)) - np.minimum(S, B)
    s_branch = np.where(S <= B, 1.0, 0.0)       # tie goes to the S branch
    d_S = 1.0 - s_branch
    d_E = -(1.0 - s_branch)[None] * _dind_singleton(0.0, E_all, alpha)
    d_P = _dind_singleton(cfg.D - 1.0, P_all, alpha)
    return StockStepPartials(new_stock, d_S, d_E, d_P)


def relaxed_partials(states: list[ComponentState], stock, u, w, alpha,
                     cfg: SystemConfig) -> dict:
    """Convenience bundle of every Jacobian block at one scalar point.

    ``states`` holds components 1..i; the stepped component is the last.
    Returns the component blocks, the stock-step blocks over all supplied
    components, and the stage-cost gradients.
    """
    alpha = _alpha_of(alpha)
    i = len(states) - 1
    me = states[-1]
    comp = component_step_partials(
        *_last_component_args(states, stock, u, w, alpha, cfg))
    E_all = np.array([c.regime for c in states])
    A_all = np.array([c.age for c in states])
    P_all = np.stack([c.last_failures for c in states]).astype(float)
    sto = stock_step_partials(E_all, P_all, np.float64(stock), alpha, cfg)
    dE_cost, dA_cost, du_cost = maintenance_cost_gradient(
        me.regime, me.age, u, 0, alpha, cfg, i)
    dE_fo, dA_fo = fo_cost_gradient(E_all, A_all, 0, alpha, cfg)
    return {
        "component": comp,
        "stock": sto,
        "cost_dE": dE_cost, "cost_dA": dA_cost, "cost_du": du_cost,
        "fo_dE": dE_fo, "fo_dA": dA_fo,
    }


def kink_distance(states: list[ComponentState], stock, u, w, alpha,
                  cfg: SystemConfig) -> float:
    """Distance from the nearest nondifferentiable point at a scalar input.

    Runs the same indicator evaluations as the step partials and reports
    the minimum distance of any surrogate argument to its kink set (ties of
    the min operators included).
    """
    alpha = _alpha_of(alpha)
    probe = _Probe()
    component_step_partials(
        *_last_component_args(states, stock, u, w, alpha, cfg), probe=probe)
    E_all = np.array([c.regime for c in states])
    A_all = np.array([c.age for c in states])
    P_all = np.stack([c.last_failures for c in states]).astype(float)
    stock_step_partials(E_all, P_all, np.float64(stock), alpha, cfg,
                        probe=probe)
    ipos = _ind_strict_pos(A_all, alpha)
    i0 = _ind_singleton(0.0, E_all, alpha)
    probe.add_tie(np.sum(i0 * ipos) - 1.0)
    probe.add(i0, _kinks_singleton(0.0, E_all, alpha))
    probe.add(ipos, _kinks_strict_pos(A_all, alpha))
    probe.add(_ind_singleton(0.0, A_all, alpha),
              _kinks_singleton(0.0, A_all, alpha))
    return float(probe.kink)


# ---------------------------------------------------------------------------
# relaxed batch simulation


@dataclass
class RelaxedBatchStats:
    """Per-scenario outcome of a relaxed full-system simulation."""

    pm_cost: np.ndarray
    cm_cost: np.ndarray
    fo_cost: np.ndarray
    total_cost: np.ndarray
    band_hit: np.ndarray               # (Q,) bool: some surrogate was fractional
    regimes: np.ndarray | None = None  # (T+1, n, Q)
    ages: np.ndarray | None = None
    last_failures: np.ndarray | None = None   # (T+1, n, D, Q)
    stock: np.ndarray | None = None           # (T+1, Q)


def simulate_relaxed_batch(strategy: Strategy, noises, alpha,
                           cfg: SystemConfig,
                           record_states: bool = False) -> RelaxedBatchStats:
    """Relaxed analogue of the exact batch simulator.

    On binary controls and off-band noises the trajectory coincides bit for
    bit with the exact one; scenarios where any surrogate evaluated to a
    fractional value are flagged in ``band_hit``.
    """
    alpha = _alpha_of(alpha)
    u = strategy.controls
    noises = np.asarray(noises, dtype=float)
    if noises.ndim != 3 or noises.shape[1:] != (cfg.n, cfg.T):
        raise DimensionError(
            f"noises must have shape (Q, {cfg.n}, {cfg.T}), got {noises.shape}")
    Q = noises.shape[0]
    n, T, D = cfg.n, cfg.T, cfg.D
    beta = cfg.discount(np.arange(T + 1))
    probe = _Probe((Q,))

    E = np.ones((n, Q))
    A = np.zeros((n, Q))
    P = np.full((n, D, Q), cfg.delta_default)
    S = np.full(Q, float(cfg.s_init))

    pm_cost = np.full(Q, float(np.sum(beta[:T][None, :] * cfg.C_P[:, None]
                                      * u ** 2)))
    cm_cost = np.zeros(Q)
    fo_cost = np.zeros(Q)
    if record_states:
        regimes = np.empty((T + 1, n, Q))
        ages = np.empty((T + 1, n, Q))
        lf = np.empty((T + 1, n, D, Q))
        stock_hist = np.empty((T + 1, Q))
        regimes[0], ages[0], lf[0], stock_hist[0] = E, A, P, S

    for t in range(T + 1):
        i0E = _p_sing(0.0, E, alpha, probe)
        i0A = _ind_singleton(0.0, A, alpha)
        cm_cost += np.sum(beta[t] * cfg.C_C[:, None] * (i0E * i0A), axis=0)
        sigma = np.sum(i0E * _ind_strict_pos(A, alpha), axis=0)
        fo_cost += beta[t] * cfg.C_F * np.minimum(1.0, sigma)
        if t == T:
            break
        E_new, A_new, P_new = component_step_core(
            E, A, P.transpose(1, 0, 2), S, exclusive_cumsum(i0E),
            u[:, t, None], noises[:, :, t].T, alpha,
            cfg.weibull_shape[:, None], cfg.weibull_scale[:, None], cfg,
            probe)
        S = stock_step_core(E, P, S, alpha, cfg, probe)
        E, A, P = E_new, A_new, P_new.transpose(1, 0, 2)
        if record_states:
            regimes[t + 1], ages[t + 1], lf[t + 1], stock_hist[t + 1] = \
                E, A, P, S

    stats = RelaxedBatchStats(
        pm_cost=pm_cost, cm_cost=cm_cost, fo_cost=fo_cost,
        total_cost=pm_cost + cm_cost + fo_cost, band_hit=probe.band)
    if record_states:
        stats.regimes, stats.ages = regimes, ages
        stats.last_failures, stats.stock = lf, stock_hist
    return stats


def simulate_component_relaxed(u_i, noises_i, b_prev_bar, S_bar, alpha,
                               cfg: SystemConfig, i: int,
                               probe: _Probe | None = None) -> np.ndarray:
    """Relaxed trajectory of component ``i`` against frozen surroundings.

    ``u_i`` has shape (T,), ``noises_i`` (Q, T); ``b_prev_bar`` and
    ``S_bar`` give the frozen broken-below count and stock level for
    t = 0..T-1, shaped (T, Q) or (T,).  Returns states (T+1, D+2, Q).
    """
    alpha = _alpha_of(alpha)
    T, D = cfg.T, cfg.D
    noises_i = np.asarray(noises_i, dtype=float)
    Q = noises_i.shape[0]
    out = np.empty((T + 1, D + 2, Q))
    E = np.ones(Q)
    A = np.zeros(Q)
    P = np.full((D, Q), cfg.delta_default)
    out[0, 0], out[0, 1], out[0, 2:] = E, A, P
    b_prev_bar = np.asarray(b_prev_bar, dtype=float)
    S_bar = np.asarray(S_bar, dtype=float)
    for t in range(T):
        E, A, P = component_step_core(
            E, A, P, S_bar[t], b_prev_bar[t], u_i[t], noises_i[:, t], alpha,
            cfg.weibull_shape[i], cfg.weibull_scale[i], cfg, probe)
        out[t + 1, 0], out[t + 1, 1], out[t + 1, 2:] = E, A, P
    return out
