"""Scalar points of the relaxed fleet step, kink distances along the
subproblem trajectories for the finite-difference tests, and the band hits
of a relaxed batch run.

A point is a list of ``scalar_reference.ComponentState`` for components
1..i (the stepped component is the last; the lower ones enter through
``b_prev``), a stock level, a control and a noise.  Every helper calls
the kernel or the partials of the package directly; only the control
block of the component partials comes from ``adjoint_reference``.

The relaxed dynamics has kinks where a surrogate's ramp starts or ends and
where the min operators tie; derivatives are taken to be 0 there, so a
finite difference is trusted only away from them.  :class:`KinkProbe`
records how far the arguments of every surrogate evaluation were from the
nearest kink, through indicators built by :func:`kink_indicators`.  Where
no surrogate takes a value strictly between 0 and 1, the relaxed dynamics
is the exact one; :func:`band_hits` finds the scenarios where one does.
"""
import numpy as np

from fleetmaint import appdecomp as ad
from fleetmaint import relax as rx
from fleetmaint import sysmodel as sm
from adjoint_reference import step_partials


def kinks_singleton(a, x, alpha):
    d = np.abs(np.asarray(x, dtype=float) - a)
    half = 0.5 / alpha
    return np.minimum(d, np.abs(d - half))


def kinks_nonneg(x, alpha):
    x = np.asarray(x, dtype=float)
    half = 0.5 / alpha
    return np.minimum(np.abs(x), np.abs(x + half))


def kinks_strict_pos(x, alpha):
    x = np.asarray(x, dtype=float)
    half = 0.5 / alpha
    return np.minimum(np.abs(x), np.abs(x - half))


class KinkProbe:
    """Distance to the nearest kink, min-accumulated over evaluations.

    ``kink`` has the probe's shape; a distance array with more axes is
    reduced over its leading ones first.  An ``interior`` probe ignores
    arguments sitting exactly on a kink: off the indicator bands the
    surrogate dynamics is locally constant, so states on the binary/integer
    lattice land exactly on singleton peaks without ever being pushed
    across them by a small control perturbation.  Only strictly positive
    small distances signal that a finite-difference step could cross a kink.
    """

    def __init__(self, shape=(), interior=False):
        self.kink = np.full(shape, np.inf)
        self.interior = interior

    def add(self, dist):
        dist = np.asarray(dist, dtype=float)
        if self.interior:
            dist = np.where(dist == 0.0, np.inf, dist)
        while dist.ndim > self.kink.ndim:
            dist = np.min(dist, axis=0)
        self.kink = np.minimum(self.kink, dist)

    def add_tie(self, dist):
        """Record a kink coming from a min-operator tie."""
        self.add(np.abs(dist))


def kink_indicators(alpha, probe: KinkProbe) -> sm.Indicators:
    """The surrogates of ``relax`` at sharpness ``alpha``, recording the
    kink distance of every argument in ``probe``."""

    def singleton(a, x):
        probe.add(kinks_singleton(a, x, alpha))
        return rx._ind_singleton(a, x, alpha)

    def nonneg(x):
        probe.add(kinks_nonneg(x, alpha))
        return rx._ind_nonneg(x, alpha)

    def strict_pos(x):
        probe.add(kinks_strict_pos(x, alpha))
        return rx._ind_strict_pos(x, alpha)

    return sm.Indicators(singleton, nonneg, strict_pos)


def band_hits(strategy, noises, alpha, cfg):
    """Per scenario of a relaxed batch run of ``strategy``, whether some
    surrogate took a value strictly inside its ramp (a band hit).

    The run steps the ramps of ``relax`` through the batch driver, in one
    block of columns, so every value ends in the scenario axis, or in 1 for
    a control, which then counts for every scenario.
    """
    assert len(noises) <= sm.BLOCK, "the probe sees one block of columns"
    hit = np.zeros(len(noises), dtype=bool)
    ramps = rx._ramps(alpha)

    def seen(value):
        inside = (value > 0.0) & (value < 1.0)
        hit[:] |= np.any(inside, axis=tuple(range(np.ndim(inside) - 1)))
        return value

    sm._simulate(strategy, noises, cfg, False, sm.Indicators(
        lambda a, x: seen(ramps.singleton(a, x)),
        lambda x: seen(ramps.nonneg(x)),
        lambda x: seen(ramps.strict_pos(x))))
    return hit


def stock_kinks(E_all, P_all, S, alpha, cfg, probe: KinkProbe):
    """Record the kinks of the relaxed stock step: its indicators, and the
    tie of its min operator between the stock and the broken count."""
    sm.stock_step_core(E_all, P_all, S, cfg, kink_indicators(alpha, probe))
    probe.add_tie(S - np.sum(rx._ind_singleton(0.0, E_all, alpha), axis=0))


def _arrays(states):
    E = np.array([c.regime for c in states])
    A = np.array([c.age for c in states])
    P = np.stack([c.last_failures for c in states]).astype(float)
    return E, A, P


def _last(states, stock, u, w, alpha, cfg):
    """Kernel arguments of the last component, up to the indicators."""
    i = len(states) - 1
    E, A, P = _arrays(states)
    b_prev = np.sum(rx._ind_singleton(0.0, E[:i], alpha))
    return (E[i], A[i], P[i], stock, b_prev, u, w, cfg.weibull_shape[i],
            cfg.weibull_scale[i], cfg)


def step_last(states, stock, u, w, alpha, cfg):
    """Relaxed step of the last component, as (E', A', P'^1..P'^D)."""
    E, A, P = sm.component_step_core(*_last(states, stock, u, w, alpha, cfg),
                                     rx._ramps(alpha))
    return np.concatenate([[E, A], P])


def step_stock(states, stock, alpha, cfg):
    """Relaxed stock step over the components of the point."""
    E, _, P = _arrays(states)
    return float(sm.stock_step_core(E, P, stock, cfg, rx._ramps(alpha)))


def partials_at(states, stock, u, w, alpha, cfg):
    """Component partials (with the control block) and stock partials at
    the point, and its distance to the nearest kink of any surrogate that
    the step or the stage cost reads."""
    E, A, P = _arrays(states)
    args = _last(states, stock, u, w, alpha, cfg)
    comp = step_partials(*args[:7], alpha, *args[7:])
    sto = rx.stock_step_partials(E, P, stock, alpha, cfg)
    probe = KinkProbe()
    sm._component_forward(*args, kink_indicators(alpha, probe))
    stock_kinks(E, P, stock, alpha, cfg, probe)
    i0 = rx._ind_singleton(0.0, E, alpha)
    ipos = rx._ind_strict_pos(A, alpha)
    probe.add_tie(np.sum(i0 * ipos) - 1.0)
    probe.add(kinks_singleton(0.0, E, alpha))
    probe.add(kinks_strict_pos(A, alpha))
    probe.add(kinks_singleton(0.0, A, alpha))
    return comp, sto, float(probe.kink)


def subproblem_kink_distance(U, it, noises, cfg, cache):
    """Distance to the nearest surrogate kink along each trajectory of U.

    Per component, minimized over time steps and scenarios; covers the
    step indicators and the forced-outage min tie.  Useful to decide where
    finite differences of the subproblem objective are trustworthy.
    Returns (n,).
    """
    probe = KinkProbe((cfg.n, noises.shape[0]), interior=True)
    X = ad.component_trajectories(U[:, None], it, noises, cfg, cache)[:, 0]
    alpha = it.alpha
    ind = kink_indicators(alpha, probe)
    # every step again, at the states, stock, broken-below counts, controls
    # and noises the trajectories' steps saw
    for t in range(cfg.T):
        sm._component_forward(
            X[:, t, 0], X[:, t, 1], X[:, t, 2:].transpose(1, 0, 2), it.S[t],
            cache.bprev[:, t], U[:, t, None], noises[:, :, t].T,
            cfg.weibull_shape[:, None], cfg.weibull_scale[:, None], cfg, ind)
    # time first, so that the probe reduces it away
    E, A = X[:, :, 0].transpose(1, 0, 2), X[:, :, 1].transpose(1, 0, 2)
    probe.add(kinks_singleton(0.0, E, alpha))
    probe.add(kinks_singleton(0.0, A, alpha))
    probe.add(kinks_strict_pos(A, alpha))
    sigma = cache.sigma_others.transpose(1, 0, 2) + (
        rx._ind_singleton(0.0, E, alpha) * rx._ind_strict_pos(A, alpha))
    probe.add_tie(sigma - 1.0)
    return np.min(probe.kink, axis=1)
