"""Relaxed dynamics: surrogate values, exact agreement, analytic partials."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fleetmaint.config import SystemConfig
from fleetmaint import relax as rx
from fleetmaint import sysmodel as sm


def make_cfg(n=1, T=4, D=2, s_init=1, **kw):
    base = dict(n=n, T=T, D=D, s_init=s_init, C_F=10000.0, C_P=50.0,
                C_C=200.0, weibull_shape=3.0, weibull_scale=10.0)
    base.update(kw)
    return SystemConfig(**base)


# ---------------------------------------------------------------------------
# indicator surrogates


def test_indicator_reference_values():
    s0 = rx.singleton(0.0)
    assert rx.relaxed_indicator(s0, 0.0, 7.3) == 1.0
    assert rx.relaxed_indicator(s0, 0.1, 2.0) == pytest.approx(0.6)
    assert rx.relaxed_indicator(rx.STRICT_POS, 0.0, 5.0) == 0.0
    assert rx.relaxed_indicator(rx.STRICT_POS, 0.05, 2.0) == pytest.approx(0.2)
    assert rx.relaxed_indicator(rx.NONNEG, -0.1, 2.0) == pytest.approx(0.6)
    assert rx.relaxed_indicator(rx.NONNEG, 0.0, 2.0) == 1.0


def test_indicator_derivative_reference_values():
    s0 = rx.singleton(0.0)
    assert rx.relaxed_indicator_derivative(s0, 0.1, 2.0) == -4.0
    assert rx.relaxed_indicator_derivative(s0, -0.1, 2.0) == 4.0
    assert rx.relaxed_indicator_derivative(rx.NONNEG, 5.0, 2.0) == 0.0
    # derivative is 0 exactly at every kink
    assert rx.relaxed_indicator_derivative(s0, 0.25, 2.0) == 0.0
    assert rx.relaxed_indicator_derivative(s0, 0.0, 2.0) == 0.0
    assert rx.relaxed_indicator_derivative(rx.NONNEG, 0.0, 2.0) == 0.0
    assert rx.relaxed_indicator_derivative(rx.STRICT_POS, 0.0, 2.0) == 0.0


@settings(max_examples=80, deadline=None)
@given(st.floats(-3, 3), st.floats(0.5, 50),
       st.sampled_from(["singleton", "nonneg", "strict_pos"]))
def test_indicator_range_and_lipschitz(x, alpha, kind):
    set_ = rx.SetDescriptor(kind, 0.25 if kind == "singleton" else 0.0)
    v = rx.relaxed_indicator(set_, x, alpha)
    assert 0.0 <= v <= 1.0
    h = 1e-5
    v2 = rx.relaxed_indicator(set_, x + h, alpha)
    assert abs(v2 - v) <= 2 * alpha * h + 1e-12


def test_indicator_pointwise_limit():
    s0 = rx.singleton(0.0)
    for x in [0.3, -0.2, 1.5]:
        assert rx.relaxed_indicator(s0, x, 1e8) == 0.0
    assert rx.relaxed_indicator(s0, 0.0, 1e8) == 1.0
    assert rx.relaxed_indicator(rx.NONNEG, 1e-9, 1e12) == 1.0


def test_alpha_validation():
    with pytest.raises(ValueError):
        rx.relaxed_indicator(rx.NONNEG, 0.0, 0.0)
    with pytest.raises(ValueError):
        rx.RelaxationContext(-1.0)
    ctx = rx.RelaxationContext(2.0)
    assert rx.relaxed_indicator(rx.NONNEG, -0.1, ctx) == pytest.approx(0.6)


# ---------------------------------------------------------------------------
# relaxed steps agree with the exact ones on integer points


def _random_integer_system(rng, cfg):
    states = []
    for _ in range(cfg.n):
        regime = float(rng.integers(0, 2))
        age = float(rng.integers(0, 10)) if regime == 1 else \
            float(rng.integers(0, 4))
        nrec = int(rng.integers(0, cfg.D + 1))
        P = np.full(cfg.D, cfg.delta_default)
        if nrec:
            dates = np.sort(rng.choice(np.arange(0, 15), nrec,
                                       replace=False))[::-1]
            P[:nrec] = dates.astype(float)
        states.append(sm.ComponentState(regime, age, P))
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
    exact = sm.step_component(states[:i], stock, u, w, cfg)
    relaxed = rx.step_component_relaxed(states[:i], stock, u, w, alpha, cfg)
    assert relaxed.regime == exact.regime
    assert relaxed.age == exact.age
    assert np.array_equal(relaxed.last_failures, exact.last_failures)
    assert rx.step_stock_relaxed(states, stock, alpha, cfg) == \
        sm.step_stock(states, stock, cfg)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_relaxed_batch_matches_exact_batch(seed):
    rng = np.random.default_rng(seed)
    cfg = make_cfg(n=5, T=15, s_init=2,
                   weibull_shape=rng.uniform(1.5, 4.5, 5),
                   weibull_scale=rng.uniform(6.0, 14.0, 5))
    u = sm.Strategy((rng.random((5, 15)) > 0.7).astype(float))
    noises = rng.random((8, 5, 15))
    exact = sm.simulate_batch(u, noises, cfg, record_states=True)
    relaxed = rx.simulate_relaxed_batch(u, noises, 1e6, cfg,
                                        record_states=True)
    ok = ~relaxed.band_hit
    assert ok.any()
    for arr_e, arr_r in [(exact.regimes, relaxed.regimes),
                         (exact.ages, relaxed.ages),
                         (exact.last_failures, relaxed.last_failures),
                         (exact.stock, relaxed.stock)]:
        assert np.array_equal(arr_e[..., ok], arr_r[..., ok])
    assert np.array_equal(exact.pm_cost[ok], relaxed.pm_cost[ok])
    assert np.array_equal(exact.cm_cost[ok], relaxed.cm_cost[ok])
    assert np.array_equal(exact.fo_cost[ok], relaxed.fo_cost[ok])
    assert np.array_equal(exact.total_cost[ok], relaxed.total_cost[ok])


def test_band_hit_is_flagged():
    cfg = make_cfg(n=1, T=1)
    p = sm.failure_probability(3, 10, 0.0, 1.0)
    noises = np.array([[[p - 1e-9]], [[0.9]]])    # first scenario in band
    stats = rx.simulate_relaxed_batch(sm.Strategy(np.zeros((1, 1))), noises,
                                      1e6, cfg)
    assert stats.band_hit.tolist() == [True, False]


def test_pm_branch_weight_on_fractional_regime():
    # regime 0.5 at alpha=2: broken weight is 0, so a full PM keeps it up
    cfg = make_cfg()
    state = sm.ComponentState(0.5, 2.0, np.full(2, -1.0))
    out = rx.step_component_relaxed([state], 1.0, 1.0, 0.5, 2.0, cfg)
    assert out.regime == pytest.approx(1.0)


def test_relaxed_stock_fractional_regime():
    cfg = make_cfg(n=1)
    state = sm.ComponentState(0.9, 1.0, np.full(2, -1.0))
    # broken count = relaxed 1{0}(0.9) = 0 at alpha=2, so stock is unchanged
    assert rx.step_stock_relaxed([state], 3.0, 2.0, cfg) == 3.0


# ---------------------------------------------------------------------------
# relaxed costs


def test_relaxed_costs_examples():
    cfg = make_cfg(n=2)
    healthy = [sm.ComponentState(1.0, 3.0, np.full(2, -1.0)),
               sm.ComponentState(1.0, 1.0, np.full(2, -1.0))]
    assert float(rx.relaxed_fo_cost(np.array([1.0, 1.0]),
                                    np.array([3.0, 1.0]), 0, 10.0, cfg)) == 0.0
    just_failed = sm.ComponentState(0.0, 0.0, np.array([0.0, -1.0]))
    cost = rx.relaxed_costs([just_failed, healthy[1]], np.zeros(2), 0, 1e6, cfg)
    assert cost == pytest.approx(200.0)
    # fractional regime kills the repair term at alpha=2
    frac = sm.ComponentState(0.5, 0.0, np.full(2, -1.0))
    assert rx.relaxed_costs([frac], np.zeros(1), 0, 2.0,
                            make_cfg(n=1)) == 0.0


def test_relaxed_cost_matches_exact_on_trajectory():
    cfg = make_cfg(n=3, T=10, s_init=0)
    rng = np.random.default_rng(5)
    u = sm.Strategy((rng.random((3, 10)) > 0.8).astype(float))
    scen = sm.Scenario(rng.random((3, 10)))
    traj = sm.simulate(u, scen, cfg)
    exact = sm.total_cost(traj, u, cfg)
    relaxed = 0.0
    for t in range(cfg.T + 1):
        ut = u.controls[:, t] if t < cfg.T else None
        relaxed += rx.relaxed_costs(traj.states[t].components, ut, t, 50.0,
                                    cfg)
    assert relaxed == pytest.approx(exact["total"], rel=1e-12)


# ---------------------------------------------------------------------------
# analytic partials against central finite differences


def _random_relaxed_point(rng, cfg, i):
    """Random fuzzy system state for components 1..i plus stock/control."""
    states = []
    for _ in range(i):
        regime = rng.uniform(-0.2, 1.2)
        age = rng.uniform(0.0, 12.0)
        P = np.where(rng.random(cfg.D) < 0.4, cfg.delta_default,
                     rng.uniform(-1.5, cfg.D + 1.0, cfg.D))
        states.append(sm.ComponentState(regime, age, P))
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
        out = rx.step_component_relaxed(st, s, uu, ww, alpha, cfg)
        return np.concatenate([[out.regime, out.age], out.last_failures])

    return (value(h) - value(-h)) / (2 * h)


def test_component_partials_match_fd():
    cfg = make_cfg(n=4, D=2)
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 200:
        i = int(rng.integers(1, 5))
        alpha = float(rng.choice([2.0, 8.0]))
        states, stock, u, w = _random_relaxed_point(rng, cfg, i)
        if rx.kink_distance(states, stock, u, w, alpha, cfg) < 1e-2:
            continue
        blocks = rx.relaxed_partials(states, stock, u, w, alpha, cfg)
        comp = blocks["component"]
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
        if rx.kink_distance(states, stock, u, w, alpha, cfg) < 1e-2:
            continue
        sto = rx.relaxed_partials(states, stock, u, w, alpha, cfg)["stock"]

        def val(sts, s):
            return rx.step_stock_relaxed(sts, s, alpha, cfg)

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
    cfg = make_cfg(n=3)
    rng = np.random.default_rng(2)
    h = 1e-7
    checked = 0
    while checked < 100:
        alpha = float(rng.choice([2.0, 8.0]))
        E = rng.uniform(-0.2, 1.2, 3)
        A = rng.uniform(0.0, 8.0, 3)
        u = rng.uniform(0, 1, 3)
        t = int(rng.integers(0, 5))
        dists = [rx._kinks_singleton(0.0, E, alpha),
                 rx._kinks_singleton(0.0, A, alpha),
                 rx._kinks_strict_pos(A, alpha)]
        sigma = float(np.sum(rx._ind_singleton(0.0, E, alpha)
                             * rx._ind_strict_pos(A, alpha)))
        if min(np.min(d) for d in dists) < 1e-2 or abs(sigma - 1.0) < 1e-2:
            continue
        for j in range(3):
            dE, dA, du = rx.maintenance_cost_gradient(E[j], A[j], u[j], t,
                                                      alpha, cfg, j)
            fd = (rx.relaxed_maintenance_cost(E[j] + h, A[j], u[j], t, alpha,
                                              cfg, j)
                  - rx.relaxed_maintenance_cost(E[j] - h, A[j], u[j], t,
                                                alpha, cfg, j)) / (2 * h)
            assert dE == pytest.approx(fd, abs=1e-5)
            fd = (rx.relaxed_maintenance_cost(E[j], A[j] + h, u[j], t, alpha,
                                              cfg, j)
                  - rx.relaxed_maintenance_cost(E[j], A[j] - h, u[j], t,
                                                alpha, cfg, j)) / (2 * h)
            assert dA == pytest.approx(fd, abs=1e-5)
            fd = (rx.relaxed_maintenance_cost(E[j], A[j], u[j] + h, t, alpha,
                                              cfg, j)
                  - rx.relaxed_maintenance_cost(E[j], A[j], u[j] - h, t,
                                                alpha, cfg, j)) / (2 * h)
            assert du == pytest.approx(fd, abs=1e-5)
        dE_fo, dA_fo = rx.fo_cost_gradient(E, A, t, alpha, cfg)
        for j in range(3):
            Ep, Em = E.copy(), E.copy()
            Ep[j] += h
            Em[j] -= h
            fd = float(rx.relaxed_fo_cost(Ep, A, t, alpha, cfg)
                       - rx.relaxed_fo_cost(Em, A, t, alpha, cfg)) / (2 * h)
            assert dE_fo[j] == pytest.approx(fd, abs=1e-3)
            Ap, Am = A.copy(), A.copy()
            Ap[j] += h
            Am[j] -= h
            fd = float(rx.relaxed_fo_cost(E, Ap, t, alpha, cfg)
                       - rx.relaxed_fo_cost(E, Am, t, alpha, cfg)) / (2 * h)
            assert dA_fo[j] == pytest.approx(fd, abs=1e-3)
        checked += 1


def test_partials_vanish_far_from_bands():
    cfg = make_cfg(n=2)
    states = [sm.ComponentState(1.0, 3.0, np.full(2, -1.0)),
              sm.ComponentState(1.0, 5.0, np.array([4.0, -1.0]))]
    blocks = rx.relaxed_partials(states, 3.0, 0.0, 0.99, 10.0, cfg)
    comp = blocks["component"]
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
    out = rx.component_step_partials(E, A, P, S, b_prev, u, w, 4.0,
                                     cfg.weibull_shape[1],
                                     cfg.weibull_scale[1], cfg)
    assert out.new_state.shape == (4, Q)
    assert out.d_own.shape == (4, 4, Q)
    assert out.d_S.shape == (4, Q)
    # batch results agree with the scalar path
    for q in range(Q):
        states = [sm.ComponentState(E_prev[0, q], 1.0, np.full(2, -1.0)),
                  sm.ComponentState(E[q], A[q], P[:, q])]
        scal = rx.relaxed_partials(states, S[q], u[q], w[q], 4.0, cfg)
        assert np.allclose(scal["component"].d_own, out.d_own[..., q])
        assert np.allclose(scal["component"].d_S, out.d_S[..., q])
        assert np.allclose(scal["component"].d_u, out.d_u[..., q])


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
    b_prev = rx.exclusive_cumsum(rx._ind_singleton(0.0, E, 2.0))
    fleet = rx.component_step_partials(
        E, A, P, S, b_prev, u[:, None], w, 2.0, cfg.weibull_shape[:, None],
        cfg.weibull_scale[:, None], cfg)
    core = rx.component_step_core(
        E, A, P, S, b_prev, u[:, None], w, 2.0, cfg.weibull_shape[:, None],
        cfg.weibull_scale[:, None], cfg)

    def close(x, y):
        return np.allclose(x, y, rtol=1e-12, atol=1e-12)

    for i in range(n):
        one = rx.component_step_partials(
            E[i], A[i], P[:, i], S, b_prev[i], u[i], w[i], 2.0,
            cfg.weibull_shape[i], cfg.weibull_scale[i], cfg)
        assert np.array_equal(b_prev[i],
                              np.sum(rx._ind_singleton(0.0, E[:i], 2.0),
                                     axis=0))
        assert close(fleet.new_state[:, i], one.new_state)
        assert close(fleet.d_own[:, :, i], one.d_own)
        assert close(fleet.d_S[:, i], one.d_S)
        assert close(fleet.d_u[:, i], one.d_u)
        assert close(core[0][i], one.new_state[0])
        assert close(core[1][i], one.new_state[1])
        assert close(core[2][:, i], one.new_state[2:])
