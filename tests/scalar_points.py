"""Scalar points of the relaxed fleet step, and kink distances along the
subproblem trajectories, for the finite-difference tests.

A point is a list of ``ComponentState`` for components 1..i (the stepped
component is the last; the lower ones enter through ``b_prev``), a stock
level, a control and a noise.  Every helper calls the kernel, the partials
or a probe of the package directly.
"""
import numpy as np

from fleetmaint import appdecomp as ad
from fleetmaint import relax as rx
from fleetmaint import sysmodel as sm


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
    """Component and stock partials at the point, and its distance to the
    nearest kink of any surrogate that the step or the stage cost reads."""
    E, A, P = _arrays(states)
    probe = rx._Probe()
    args = _last(states, stock, u, w, alpha, cfg)
    comp = rx.component_step_partials(*args[:7], alpha, *args[7:],
                                      probe=probe)
    sto = rx.stock_step_partials(E, P, stock, alpha, cfg, probe=probe)
    i0 = rx._ind_singleton(0.0, E, alpha)
    ipos = rx._ind_strict_pos(A, alpha)
    probe.add_tie(np.sum(i0 * ipos) - 1.0)
    probe.add(i0, rx._kinks_singleton(0.0, E, alpha))
    probe.add(ipos, rx._kinks_strict_pos(A, alpha))
    probe.add(rx._ind_singleton(0.0, A, alpha),
              rx._kinks_singleton(0.0, A, alpha))
    return comp, sto, float(probe.kink)


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


def subproblem_kink_distance(U, it, noises, cfg, cache=None):
    """Distance to the nearest surrogate kink along each trajectory of U.

    Per component, minimized over time steps and scenarios; covers the
    step indicators and the forced-outage min tie.  Useful to decide where
    finite differences of the subproblem objective are trustworthy.
    Returns (n,).
    """
    if cache is None:
        cache = ad.build_iteration_cache(it, noises, cfg)
    probe = _InteriorKinkProbe((cfg.n, noises.shape[0]))
    X = ad.component_trajectories(U, it, noises, cfg, cache, probe)
    alpha = it.alpha
    # time first, so that the probe reduces it away
    E, A = X[:, :, 0].transpose(1, 0, 2), X[:, :, 1].transpose(1, 0, 2)
    probe.add(rx._ind_singleton(0.0, E, alpha),
              rx._kinks_singleton(0.0, E, alpha))
    probe.add(rx._ind_singleton(0.0, A, alpha),
              rx._kinks_singleton(0.0, A, alpha))
    probe.add(rx._ind_strict_pos(A, alpha), rx._kinks_strict_pos(A, alpha))
    sigma = cache.sigma_others.transpose(1, 0, 2) + (
        rx._ind_singleton(0.0, E, alpha) * rx._ind_strict_pos(A, alpha))
    probe.add_tie(sigma - 1.0)
    return np.min(probe.kink, axis=1)
