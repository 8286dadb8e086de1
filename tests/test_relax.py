"""Relaxed dynamics: surrogate values, exact agreement, analytic partials."""
import pickle
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fleetmaint.config import SystemConfig
from fleetmaint import appdecomp as ad
from fleetmaint import relax as rx
from fleetmaint import sysmodel as sm
import scalar_reference as ref
from adjoint_reference import step_partials
from scalar_points import (band_hits, kinks_singleton, kinks_strict_pos,
                           partials_at, step_last, step_stock)


def make_cfg(n=1, T=4, D=2, s_init=1, **kw):
    base = dict(n=n, T=T, D=D, s_init=s_init, C_F=10000.0, C_P=50.0,
                C_C=200.0, weibull_shape=3.0, weibull_scale=10.0)
    base.update(kw)
    return SystemConfig(**base)


# ---------------------------------------------------------------------------
# indicator surrogates


def test_indicator_reference_values():
    assert rx._ind_singleton(0.0, 0.0, 7.3) == 1.0
    assert rx._ind_singleton(0.0, 0.1, 2.0) == pytest.approx(0.6)
    assert rx._ind_strict_pos(0.0, 5.0) == 0.0
    assert rx._ind_strict_pos(0.05, 2.0) == pytest.approx(0.2)
    assert rx._ind_nonneg(-0.1, 2.0) == pytest.approx(0.6)
    assert rx._ind_nonneg(0.0, 2.0) == 1.0


def test_indicator_derivative_reference_values():
    assert rx._dind_singleton(0.0, 0.1, 2.0) == -4.0
    assert rx._dind_singleton(0.0, -0.1, 2.0) == 4.0
    assert rx._dind_nonneg(5.0, 2.0) == 0.0
    # derivative is 0 exactly at every kink
    assert rx._dind_singleton(0.0, 0.25, 2.0) == 0.0
    assert rx._dind_singleton(0.0, 0.0, 2.0) == 0.0
    assert rx._dind_nonneg(0.0, 2.0) == 0.0
    assert rx._dind_strict_pos(0.0, 2.0) == 0.0


_SURROGATES = {
    "singleton": lambda x, alpha: rx._ind_singleton(0.25, x, alpha),
    "nonneg": rx._ind_nonneg,
    "strict_pos": rx._ind_strict_pos,
}


@settings(max_examples=80, deadline=None)
@given(st.floats(-3, 3), st.floats(0.5, 50),
       st.sampled_from(sorted(_SURROGATES)))
def test_indicator_range_and_lipschitz(x, alpha, kind):
    ind = _SURROGATES[kind]
    v = float(ind(x, alpha))
    assert 0.0 <= v <= 1.0
    h = 1e-5
    v2 = float(ind(x + h, alpha))
    assert abs(v2 - v) <= 2 * alpha * h + 1e-12


def test_indicator_pointwise_limit():
    for x in [0.3, -0.2, 1.5]:
        assert rx._ind_singleton(0.0, x, 1e8) == 0.0
    assert rx._ind_singleton(0.0, 0.0, 1e8) == 1.0
    assert rx._ind_nonneg(1e-9, 1e12) == 1.0


def test_ramps_pickle_to_the_same_bits():
    """The ramps pickle, and give back the bits they give here, on both
    sides of every kink."""
    ramps = rx._ramps(3.0)
    back = pickle.loads(pickle.dumps(ramps))
    half = 0.5 / 3.0
    x = np.concatenate([np.linspace(-0.4, 0.4, 97),
                        [-half, half, np.nextafter(-half, 0.0),
                         np.nextafter(half, 0.0), 0.0]])
    for kind, args in (("singleton", (1.0, x + 1.0)), ("nonneg", (x,)),
                       ("strict_pos", (x,))):
        here = getattr(ramps, kind)(*args)
        there = getattr(back, kind)(*args)
        assert here.tobytes() == there.tobytes(), kind
        # the input crosses the kinks: values at 0, inside the ramp and at 1
        assert here.min() == 0.0 and here.max() == 1.0, kind
        assert np.any((here > 0.0) & (here < 1.0)), kind


# the comparison form of the ramps, which the package keeps for the alpha
# where the scaled clip is not exact: the oracle of the clip form
def _where_singleton(a, x, alpha):
    d = np.abs(np.asarray(x, dtype=float) - a)
    half = 0.5 / alpha
    return np.where(d >= half, 0.0, 1.0 - (2.0 * alpha) * d)


def _where_nonneg(x, alpha):
    x = np.asarray(x, dtype=float)
    half = 0.5 / alpha
    return np.where(x >= 0.0, 1.0,
                    np.where(x <= -half, 0.0, (2.0 * alpha) * x + 1.0))


def _where_strict_pos(x, alpha):
    x = np.asarray(x, dtype=float)
    half = 0.5 / alpha
    return np.where(x <= 0.0, 0.0,
                    np.where(x >= half, 1.0, (2.0 * alpha) * x))


#: sharpnesses whose scaled clip is exact (the tuned schedule's first four
#: among them) and some whose is not, so both forms of the ramps run
CLIP_ALPHAS = (2.0, 3.0, 46.51, 182.01, 317.51, 453.01, 1e8)
WHERE_ALPHAS = tuple(a for a in np.random.default_rng(3).uniform(2, 200, 40)
                     if (2.0 * a) * (0.5 / a) != 1.0)


def _kink_points(a, alpha):
    """Points around the kinks of a ramp centred on ``a``: +-0 and the
    non-finite values, a, a +- 0.5/alpha, a +- 1 -+ 0.5/alpha, and the
    neighbours of each finite one."""
    half = 0.5 / alpha
    centre = np.array([a, a + half, a - half, a + 1.0 - half, a - 1.0 + half,
                       a + 1.0, a - 1.0, a + 0.25 * half, a - 0.25 * half])
    near = np.concatenate([centre, np.nextafter(centre, np.inf),
                           np.nextafter(centre, -np.inf)])
    return np.concatenate([near, [0.0, -0.0, np.nan, np.inf, -np.inf,
                                  np.nextafter(0.0, 1.0),
                                  np.nextafter(-0.0, -1.0)]])


@pytest.mark.parametrize("alpha", CLIP_ALPHAS + WHERE_ALPHAS)
def test_ramps_equal_comparison_form_bit_for_bit(alpha):
    """Both forms of the ramps give the comparison form's bits, signed
    zeros and NaN included, on arrays and on 0-d inputs.  Caught:
    ``np.maximum(0.0, r)`` in the clip form of ``_ind_strict_pos``, which
    keeps the -0.0 of x = -0.0 where the comparison form gives +0.0."""
    assert len(WHERE_ALPHAS) >= 3 and rx._clips(alpha) == (
        alpha in CLIP_ALPHAS)
    cases = [("singleton", a, partial(rx._ind_singleton, a),
              partial(_where_singleton, a)) for a in (0.0, 1.0, sm.NO_FAILURE)]
    cases += [("nonneg", 0.0, rx._ind_nonneg, _where_nonneg),
              ("strict_pos", 0.0, rx._ind_strict_pos, _where_strict_pos)]
    for kind, a, ramp, oracle in cases:
        x = _kink_points(a, alpha)
        got, want = ramp(x, alpha), oracle(x, alpha)
        assert got.tobytes() == want.tobytes(), (kind, a)
        for xi in x:
            for point in (xi, float(xi), np.array(xi), np.array([xi])):
                got, want = ramp(point, alpha), oracle(point, alpha)
                assert np.shape(got) == np.shape(want), (kind, a, xi)
                assert got.tobytes() == want.tobytes(), (kind, a, xi)


def test_alpha_validation():
    cfg = make_cfg()
    strat = sm.Strategy(np.zeros((1, 4)))
    noises = np.ones((2, 1, 4))
    for alpha in (0.0, -1.0):
        with pytest.raises(ValueError):
            rx.simulate_relaxed_batch(strat, noises, alpha, cfg)
    for block in (rx.component_step_d_own, rx.component_step_d_S):
        with pytest.raises(ValueError):
            block(1.0, 0.0, np.full(2, -1.0), 1.0, 0.0, 0.0, 0.5, 0.0, 3.0,
                  10.0, cfg)


@pytest.mark.parametrize("bad", [-0.1, 7.0, np.nan])
def test_out_of_range_noises_rejected(bad):
    cfg = make_cfg()
    noises = np.full((2, 1, 4), 0.5)
    noises[1, 0, 2] = bad
    with pytest.raises(ValueError, match="noises"):
        rx.simulate_relaxed_batch(sm.Strategy(np.zeros((1, 4))), noises,
                                  1.0, cfg)


# ---------------------------------------------------------------------------
# relaxed steps agree with the exact ones on integer points


def _random_integer_system(rng, cfg):
    states = []
    for _ in range(cfg.n):
        regime = float(rng.integers(0, 2))
        age = float(rng.integers(0, 10)) if regime == 1 else \
            float(rng.integers(0, 4))
        nrec = int(rng.integers(0, cfg.D + 1))
        P = np.full(cfg.D, sm.NO_FAILURE)
        if nrec:
            dates = np.sort(rng.choice(np.arange(0, 15), nrec,
                                       replace=False))[::-1]
            P[:nrec] = dates.astype(float)
        states.append(ref.ComponentState(regime, age, P))
    return states, float(rng.integers(0, 4))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_relaxed_step_matches_exact_on_integers(seed):
    rng = np.random.default_rng(seed)
    cfg = make_cfg(n=4, D=int(rng.integers(1, 4)))
    states, stock = _random_integer_system(rng, cfg)
    u = float(rng.integers(0, 2))
    w = float(rng.random())
    alpha = 1e6
    i = int(rng.integers(1, 5))
    p = sm.failure_probability(3, 10, states[i - 1].age, 1.0)
    if abs(w - p) < 0.5 / alpha:
        w = min(w + 1e-3, 1.0)
    exact = ref.step_component(states[:i], stock, u, w, cfg)
    relaxed = step_last(states[:i], stock, u, w, alpha, cfg)
    assert relaxed[0] == exact.regime
    assert relaxed[1] == exact.age
    assert np.array_equal(relaxed[2:], exact.last_failures)
    assert step_stock(states, stock, alpha, cfg) == \
        ref.step_stock(states, stock, cfg)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_relaxed_batch_matches_exact_batch(seed):
    rng = np.random.default_rng(seed)
    cfg = make_cfg(n=5, T=15, s_init=2,
                   weibull_shape=rng.uniform(1.5, 4.5, 5),
                   weibull_scale=rng.uniform(6.0, 14.0, 5))
    u = sm.Strategy((rng.random((5, 15)) > 0.7).astype(float))
    # at alpha = 50 about half the scenarios touch a band, hence 40 of them
    noises = rng.random((40, 5, 15))
    exact = sm.simulate_batch(u, noises, cfg, record_states=True)
    for alpha in (1e6, 50.0):
        relaxed = rx.simulate_relaxed_batch(u, noises, alpha, cfg,
                                            record_states=True)
        ok = ~band_hits(u, noises, alpha, cfg)
        assert ok.any()
        for name in ("states", "stock", "pm_cost", "cm_cost", "fo_cost",
                     "total_cost", "pm_count", "failure_count", "fo_onsets",
                     "fo_steps"):
            assert np.array_equal(getattr(exact, name)[..., ok],
                                  getattr(relaxed, name)[..., ok]), name


def test_band_hit_is_flagged():
    cfg = make_cfg(n=1, T=1)
    p = sm.failure_probability(3, 10, 0.0, 1.0)
    noises = np.array([[[p - 1e-9]], [[0.9]]])    # first scenario in band
    hit = band_hits(sm.Strategy(np.zeros((1, 1))), noises, 1e6, cfg)
    assert hit.tolist() == [True, False]


def test_pm_branch_weight_on_fractional_regime():
    # regime 0.5 at alpha=2: broken weight is 0, so a full PM keeps it up
    cfg = make_cfg()
    state = ref.ComponentState(0.5, 2.0, np.full(2, -1.0))
    out = step_last([state], 1.0, 1.0, 0.5, 2.0, cfg)
    assert out[0] == pytest.approx(1.0)


def test_relaxed_stock_fractional_regime():
    cfg = make_cfg(n=1)
    state = ref.ComponentState(0.9, 1.0, np.full(2, -1.0))
    # broken count = relaxed 1{0}(0.9) = 0 at alpha=2, so stock is unchanged
    assert step_stock([state], 3.0, 2.0, cfg) == 3.0


def test_relaxed_costs_examples():
    # the relaxed batch's stage costs at hand-traced states
    cfg = make_cfg(n=2, T=1)
    none = rx.simulate_relaxed_batch(sm.Strategy(np.zeros((2, 1))),
                                     np.ones((1, 2, 1)), 10.0, cfg)
    assert none.cm_cost[0] == 0.0 and none.fo_cost[0] == 0.0
    # component 1 fails in step 0 and waits for its spare at t = 1: one
    # repair cost, and no forced outage since its downtime is still 0
    fail = rx.simulate_relaxed_batch(sm.Strategy(np.zeros((2, 1))),
                                     np.array([[[0.0], [1.0]]]), 1e6, cfg)
    assert fail.cm_cost[0] == pytest.approx(200.0 / 1.08, rel=1e-12)
    assert fail.fo_cost[0] == 0.0
    assert fail.total_cost[0] == fail.cm_cost[0]


# ---------------------------------------------------------------------------
# analytic partials against central finite differences


def _random_relaxed_point(rng, cfg, i):
    """Random fuzzy system state for components 1..i plus stock/control."""
    states = []
    for _ in range(i):
        regime = rng.uniform(-0.2, 1.2)
        age = rng.uniform(0.0, 12.0)
        P = np.where(rng.random(cfg.D) < 0.4, sm.NO_FAILURE,
                     rng.uniform(-1.5, cfg.D + 1.0, cfg.D))
        states.append(ref.ComponentState(regime, age, P))
    stock = rng.uniform(-1.0, 4.0)
    u = rng.uniform(0.0, 1.0)
    w = rng.uniform(0.0, 1.0)
    return states, stock, u, w


def _fd_component(states, stock, u, w, alpha, cfg, bump, h=1e-7):
    """Central FD of the relaxed component step along one input direction."""
    def value(eps):
        st = [c.copy() for c in states]
        s, uu, ww = stock, u, w
        kind, idx = bump
        if kind == "E":
            st[idx].regime += eps
        elif kind == "A":
            st[-1].age += eps
        elif kind == "P":
            st[-1].last_failures[idx] += eps
        elif kind == "S":
            s += eps
        elif kind == "u":
            uu += eps
        return step_last(st, s, uu, ww, alpha, cfg)

    return (value(h) - value(-h)) / (2 * h)


def test_component_partials_match_fd():
    cfg = make_cfg(n=4, D=2)
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 200:
        i = int(rng.integers(1, 5))
        alpha = float(rng.choice([2.0, 8.0]))
        states, stock, u, w = _random_relaxed_point(rng, cfg, i)
        comp, _, kink = partials_at(states, stock, u, w, alpha, cfg)
        if kink < 1e-2:
            continue
        labels = ([("E", i - 1)] + [("A", None)]
                  + [("P", d) for d in range(cfg.D)]
                  + [("S", None), ("u", None)]
                  + [("E", j) for j in range(i - 1)])
        for kind, idx in labels:
            fd = _fd_component(states, stock, u, w, alpha, cfg, (kind, idx))
            if kind == "E" and idx == i - 1:
                got = comp.d_own[:, 0]
            elif kind == "A":
                got = comp.d_own[:, 1]
            elif kind == "P":
                got = comp.d_own[:, 2 + idx]
            elif kind == "S":
                got = comp.d_S
            elif kind == "u":
                got = comp.d_u
            else:
                # a lower regime enters only through b_prev: -d_S d1{0}(E_j)
                got = -comp.d_S * rx._dind_singleton(
                    0.0, states[idx].regime, alpha)
            assert np.allclose(got, fd, atol=1e-6), \
                f"partial {kind}/{idx} mismatch: {got} vs {fd}"
        checked += 1


def test_stock_partials_match_fd():
    cfg = make_cfg(n=4, D=2)
    rng = np.random.default_rng(11)
    checked = 0
    h = 1e-7
    while checked < 120:
        alpha = float(rng.choice([2.0, 8.0]))
        states, stock, u, w = _random_relaxed_point(rng, cfg, 4)
        _, sto, kink = partials_at(states, stock, u, w, alpha, cfg)
        if kink < 1e-2:
            continue

        def val(sts, s):
            return step_stock(sts, s, alpha, cfg)

        fd_S = (val(states, stock + h) - val(states, stock - h)) / (2 * h)
        assert sto.d_S == pytest.approx(fd_S, abs=1e-6)
        for j in range(4):
            hi = [c.copy() for c in states]
            lo = [c.copy() for c in states]
            hi[j].regime += h
            lo[j].regime -= h
            fd = (val(hi, stock) - val(lo, stock)) / (2 * h)
            assert sto.d_E[j] == pytest.approx(fd, abs=1e-6)
            for d in range(cfg.D):
                hi = [c.copy() for c in states]
                lo = [c.copy() for c in states]
                hi[j].last_failures[d] += h
                lo[j].last_failures[d] -= h
                fd = (val(hi, stock) - val(lo, stock)) / (2 * h)
                assert sto.d_P[j, d] == pytest.approx(fd, abs=1e-6)
        checked += 1


def test_cost_gradients_match_fd():
    # the stage-cost gradient the adjoint recursion uses, one component at
    # a time with the others' waiting count frozen
    cfg = make_cfg(n=3)
    no_repair = make_cfg(n=3, C_C=0.0)
    rng = np.random.default_rng(2)
    h = 1e-7
    checked = 0
    while checked < 100:
        alpha = float(rng.choice([2.0, 8.0]))
        E = rng.uniform(-0.2, 1.2, 3)
        A = rng.uniform(0.0, 8.0, 3)
        rng.uniform(0, 1, 3)            # controls: the PM term is not here
        t = int(rng.integers(0, 5))
        dists = [kinks_singleton(0.0, E, alpha),
                 kinks_singleton(0.0, A, alpha),
                 kinks_strict_pos(A, alpha)]
        waiting = rx._ind_singleton(0.0, E, alpha) \
            * rx._ind_strict_pos(A, alpha)
        if min(np.min(d) for d in dists) < 1e-2 \
                or abs(float(np.sum(waiting)) - 1.0) < 1e-2:
            continue
        beta = float(cfg.discount(t))

        def repair(j, e, a):
            return beta * cfg.C_C[j] * float(
                rx._ind_singleton(0.0, e, alpha)
                * rx._ind_singleton(0.0, a, alpha))

        def fo(E, A):
            return beta * cfg.C_F * min(1.0, float(np.sum(
                rx._ind_singleton(0.0, E, alpha)
                * rx._ind_strict_pos(A, alpha))))

        # the states sit at time t of a one-scenario trajectory
        X = np.zeros((3, t + 1, cfg.D + 2, 1))
        X[:, t, 0, 0], X[:, t, 1, 0] = E, A
        # two others waiting saturate the FO term: repair cost only
        g_rep = ad._own_cost_gradient(X, 0, np.full((3, t + 1, 1), 2.0),
                                      alpha, cfg)[:, t, :, 0]
        # no repair cost: FO cost of the fleet only
        g_fo = ad._own_cost_gradient(
            X, 0, np.broadcast_to((np.sum(waiting) - waiting)[:, None, None],
                                  (3, t + 1, 1)), alpha, no_repair)[:, t, :, 0]
        for j in range(3):
            g = g_rep[j]
            fd = (repair(j, E[j] + h, A[j]) - repair(j, E[j] - h, A[j])) \
                / (2 * h)
            assert g[0] == pytest.approx(fd, abs=1e-5)
            fd = (repair(j, E[j], A[j] + h) - repair(j, E[j], A[j] - h)) \
                / (2 * h)
            assert g[1] == pytest.approx(fd, abs=1e-5)
            assert np.all(g[2:] == 0.0)
            g = g_fo[j]
            Ep, Em = E.copy(), E.copy()
            Ep[j] += h
            Em[j] -= h
            assert g[0] == pytest.approx((fo(Ep, A) - fo(Em, A)) / (2 * h),
                                         abs=1e-3)
            Ap, Am = A.copy(), A.copy()
            Ap[j] += h
            Am[j] -= h
            assert g[1] == pytest.approx((fo(E, Ap) - fo(E, Am)) / (2 * h),
                                         abs=1e-3)
        checked += 1


def test_partials_vanish_far_from_bands():
    cfg = make_cfg(n=2)
    states = [ref.ComponentState(1.0, 3.0, np.full(2, -1.0)),
              ref.ComponentState(1.0, 5.0, np.array([4.0, -1.0]))]
    comp, _, _ = partials_at(states, 3.0, 0.0, 0.99, 10.0, cfg)
    # healthy ageing far from every band: the only surviving partial is the
    # structural age carry and failure-record shift
    expect = np.zeros((4, 4))
    expect[1, 1] = 1.0     # d(age+1)/d(age)
    expect[2, 2] = 1.0     # recorded date shifts by one
    assert np.allclose(comp.d_own, expect, atol=1e-12)
    assert np.allclose(comp.d_S, 0.0)
    assert np.allclose(comp.d_u, 0.0)


def test_component_partials_batch_shape():
    cfg = make_cfg(n=2)
    rng = np.random.default_rng(9)
    Q = 6
    E = rng.uniform(0, 1, Q)
    A = rng.uniform(0, 8, Q)
    P = rng.uniform(-1.5, 3, (2, Q))
    S = rng.uniform(0, 3, Q)
    u = rng.uniform(0, 1, Q)
    w = rng.uniform(0, 1, Q)
    E_prev = rng.uniform(0, 1, (1, Q))
    b_prev = rx._ind_singleton(0.0, E_prev[0], 4.0)
    out = step_partials(E, A, P, S, b_prev, u, w, 4.0, cfg.weibull_shape[1],
                        cfg.weibull_scale[1], cfg)
    assert out.d_own.shape == (4, 4, Q)
    assert out.d_S.shape == (4, Q)
    assert out.d_u.shape == (4, Q)
    # batch results agree with the scalar path
    for q in range(Q):
        states = [ref.ComponentState(E_prev[0, q], 1.0, np.full(2, -1.0)),
                  ref.ComponentState(E[q], A[q], P[:, q])]
        scal, _, _ = partials_at(states, S[q], u[q], w[q], 4.0, cfg)
        assert np.allclose(scal.d_own, out.d_own[..., q])
        assert np.allclose(scal.d_S, out.d_S[..., q])
        assert np.allclose(scal.d_u, out.d_u[..., q])


def test_fleet_partials_match_per_component_calls():
    # one call with components on the first trailing axis equals n calls,
    # up to the last bits numpy's scalar-exponent power paths may change
    n, Q = 5, 7
    rng = np.random.default_rng(19)
    cfg = make_cfg(n=n, D=3, weibull_shape=rng.uniform(1.5, 4.5, n),
                   weibull_scale=rng.uniform(6.0, 14.0, n))
    E = rng.uniform(-0.2, 1.2, (n, Q))
    A = rng.uniform(0, 8, (n, Q))
    P = rng.uniform(-1.5, 3, (cfg.D, n, Q))
    S = rng.uniform(0, 3, Q)
    u = rng.uniform(0, 1, n)
    w = rng.uniform(0, 1, (n, Q))
    b_prev = sm.exclusive_cumsum(rx._ind_singleton(0.0, E, 2.0))
    fleet = step_partials(
        E, A, P, S, b_prev, u[:, None], w, 2.0, cfg.weibull_shape[:, None],
        cfg.weibull_scale[:, None], cfg)
    core = sm._component_forward(
        E, A, P, S, b_prev, u[:, None], w, cfg.weibull_shape[:, None],
        cfg.weibull_scale[:, None], cfg, rx._ramps(2.0))

    def close(x, y):
        return np.allclose(x, y, rtol=1e-12, atol=1e-12)

    for i in range(n):
        one = step_partials(
            E[i], A[i], P[:, i], S, b_prev[i], u[i], w[i], 2.0,
            cfg.weibull_shape[i], cfg.weibull_scale[i], cfg)
        one_core = sm._component_forward(
            E[i], A[i], P[:, i], S, b_prev[i], u[i], w[i],
            cfg.weibull_shape[i], cfg.weibull_scale[i], cfg, rx._ramps(2.0))
        assert np.array_equal(b_prev[i],
                              np.sum(rx._ind_singleton(0.0, E[:i], 2.0),
                                     axis=0))
        assert close(fleet.d_own[:, :, i], one.d_own)
        assert close(fleet.d_S[:, i], one.d_S)
        assert close(fleet.d_u[:, i], one.d_u)
        assert close(core.E_new[i], one_core.E_new)
        assert close(core.A_new[i], one_core.A_new)
        assert close(core.P_new[:, i], one_core.P_new)
