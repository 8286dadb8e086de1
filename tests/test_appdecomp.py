"""Decomposition layer: schedules, subproblems, multipliers, fixed point."""
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fleetmaint.config import SystemConfig, case1_config
from fleetmaint import appdecomp as ad
from fleetmaint import cli
from fleetmaint import relax as rx
from fleetmaint import sysmodel as sm
from adjoint_reference import (component_stationarity_residual,
                               reduced_gradient, reference_iteration_cache,
                               stock_stationarity_residual)
from scalar_points import (KinkProbe, band_hits, kink_indicators,
                           stock_kinks, subproblem_kink_distance)


def make_cfg(n=2, T=3, D=2, s_init=1, **kw):
    base = dict(n=n, T=T, D=D, s_init=s_init, C_F=10000.0, C_P=50.0,
                C_C=200.0, weibull_shape=3.0, weibull_scale=10.0)
    base.update(kw)
    return SystemConfig(**base)


def make_params(**kw):
    base = dict(gamma_u0=17.32, r_x=7434.0, r_s=815.3, d_gamma=0.1360,
                alpha0=46.51, d_alpha=135.5)
    base.update(kw)
    return ad.APPParams(**base)


def relaxed_bars(strategy, noises, alpha, cfg):
    """The recorded states and stock of a relaxed run: the bar
    trajectories X and S of an iterate at ``strategy``."""
    stats = rx.simulate_relaxed_batch(strategy, noises, alpha, cfg,
                                      record_states=True)
    return stats.states, stats.stock


def make_iterate(cfg, noises, p=None, **overrides):
    it = ad.initial_iterate(cfg, p or make_params(), noises)
    for key, val in overrides.items():
        setattr(it, key, val)
    return it


# ---------------------------------------------------------------------------
# schedules


def test_update_schedules_reference():
    p = make_params()
    gx, gs, gu, alpha = ad.update_schedules(0, p)
    assert gu == pytest.approx(17.32)
    assert alpha == pytest.approx(46.51)
    assert gx == pytest.approx(17.32 / 7434.0)
    assert gs == pytest.approx(17.32 / 815.3)
    _, _, gu1, alpha1 = ad.update_schedules(1, p)
    assert gu1 == pytest.approx(17.32 + 0.1360)
    assert alpha1 == pytest.approx(46.51 + 135.5)
    p0 = make_params(d_gamma=0.0, d_alpha=0.0)
    assert ad.update_schedules(7, p0) == ad.update_schedules(0, p0)


def test_params_validation():
    with pytest.raises(ValueError):
        make_params(gamma_u0=0.0)
    with pytest.raises(ValueError):
        make_params(d_alpha=-1.0)
    with pytest.raises(ValueError):
        ad.update_schedules(-1, make_params())


@pytest.mark.parametrize("counts", [dict(iterations=1.5, subproblem_budget=2),
                                    dict(subproblem_budget=2.5)])
def test_params_reject_fractional_counts(counts):
    with pytest.raises(ValueError, match="integers"):
        ad.tuned_params(**counts)


def test_params_accept_numpy_counts():
    cfg = make_cfg()
    noises = np.random.default_rng(1).random((2, cfg.n, cfg.T))
    p = ad.tuned_params(iterations=np.int64(2), subproblem_budget=np.int32(3))
    _, history = ad.app_fixed_point(cfg, p, noises, seed=1)
    assert len(history) == 2


# ---------------------------------------------------------------------------
# component subproblem objective


def test_objective_at_bar_with_zero_multipliers():
    cfg = make_cfg(n=2, T=4)
    rng = np.random.default_rng(0)
    noises = rng.random((5, 2, 4))
    it = make_iterate(cfg, noises, gamma_x=0.0, gamma_u=0.0)
    # with zero multipliers and no proximal pull, the objective at the bar
    # controls is the mean relaxed cost seen by component i
    stats = rx.simulate_relaxed_batch(sm.Strategy(it.u), noises, it.alpha,
                                      cfg, record_states=True)
    beta = cfg.discount(np.arange(cfg.T + 1))
    cache = ad.build_iteration_cache(it, noises, cfg)
    got = ad.component_subproblem_objective(it.u[:, None], it, noises, cfg,
                                            cache)[0][:, 0]
    for i in range(2):
        E, A = stats.states[i, :, 0], stats.states[i, :, 1]
        cm = np.sum(beta[:, None] * cfg.C_C[i]
                    * rx._ind_singleton(0.0, E, it.alpha)
                    * rx._ind_singleton(0.0, A, it.alpha), axis=0)
        expect = float(np.mean(cm + stats.fo_cost))
        assert got[i] == pytest.approx(expect, rel=1e-9)


def test_objective_proximal_terms():
    cfg = make_cfg(n=1, T=3)
    noises = np.ones((2, 1, 3))      # no failures
    it = make_iterate(cfg, noises, gamma_x=0.0, gamma_u=4.0)
    cache = ad.build_iteration_cache(it, noises, cfg)
    base = ad.component_subproblem_objective(it.u[:, None], it, noises, cfg,
                                             cache)[0][0, 0]
    shifted = it.u + 0.1
    got = ad.component_subproblem_objective(shifted[:, None], it, noises, cfg,
                                            cache)[0][0, 0]
    beta = cfg.discount(np.arange(3))
    pm = float(np.sum(beta * cfg.C_P[0] * shifted[0] ** 2))
    assert got == pytest.approx(base + pm + 0.5 * 4.0 * 3 * 0.1 ** 2,
                                rel=1e-9)


def test_objective_dimension_check():
    cfg = make_cfg()
    noises = np.ones((2, 2, 3))
    it = make_iterate(cfg, noises)
    cache = ad.build_iteration_cache(it, noises, cfg)
    # controls are an (n, K, T) stack: one (n, T) matrix is rejected too
    for shape in ((3,), (2, 3), (2, 5), (1, 3)):
        with pytest.raises(sm.DimensionError):
            ad.component_subproblem_objective(np.zeros(shape), it, noises,
                                              cfg, cache)


def test_objective_is_deterministic():
    cfg = make_cfg(n=2, T=4)
    rng = np.random.default_rng(3)
    noises = rng.random((4, 2, 4))
    it = make_iterate(cfg, noises)
    u = rng.random((2, 4))[:, None]
    cache = ad.build_iteration_cache(it, noises, cfg)
    fa, Xa = ad.component_subproblem_objective(u, it, noises, cfg, cache)
    fb, Xb = ad.component_subproblem_objective(u, it, noises, cfg, cache)
    assert np.array_equal(fa, fb) and np.array_equal(Xa, Xb)


def test_subproblem_trajectories_at_bar_equal_relaxed_batch():
    # shapes of exactly 2.0: numpy's power takes its square fast path for a
    # scalar exponent 2.0 but not for an (n, 1) column, so a per-component
    # trajectory with scalar Weibull parameters would differ in the last bits
    cfg = make_cfg(n=5, T=8, s_init=1,
                   weibull_shape=[2.0, 3.0, 2.0, 1.5, 2.0],
                   weibull_scale=[4.0, 5.0, 6.0, 7.0, 8.0])
    rng = np.random.default_rng(8)
    noises = rng.random((40, 5, 8))
    it = make_iterate(cfg, noises, make_params(alpha0=2.0))
    it.u = rng.random((5, 8))
    stats = rx.simulate_relaxed_batch(sm.Strategy(it.u), noises, it.alpha,
                                      cfg, record_states=True)
    it.X, it.S = stats.states, stats.stock
    cache = ad.build_iteration_cache(it, noises, cfg)
    X = ad.component_trajectories(it.u[:, None], it, noises, cfg,
                                  cache)[:, 0]
    assert np.array_equal(X, stats.states)
    # rows never mix: other rows' controls leave row 0 unchanged
    U = it.u.copy()
    U[1:] = rng.random((4, 8))
    assert np.array_equal(ad.component_trajectories(
        U[:, None], it, noises, cfg, cache)[0, 0], X[0])
    assert ad.component_subproblem_objective(
        U[:, None], it, noises, cfg, cache)[0][0, 0] \
        == ad.component_subproblem_objective(
            it.u[:, None], it, noises, cfg, cache)[0][0, 0]


def _stacked_case(cfg, Q, K, seed):
    """An iterate with fractional bars and nonzero multipliers, and an
    (n, K, T) stack of candidates: the bar controls, controls straddling
    the renewal threshold and uniform ones."""
    rng = np.random.default_rng(seed)
    noises = rng.random((Q, cfg.n, cfg.T))
    it = make_iterate(cfg, noises, make_params(alpha0=2.0))
    it.u = rng.random((cfg.n, cfg.T))
    it.X, it.S = relaxed_bars(sm.Strategy(it.u), noises, it.alpha, cfg)
    it.Lam = rng.standard_normal(it.X.shape)
    it.LamS = rng.standard_normal(it.S.shape)
    U = rng.random((cfg.n, K, cfg.T))
    U[:, 0] = it.u
    U[:, 1] = np.clip(cfg.nu + rng.uniform(-0.3, 0.3, (cfg.n, cfg.T)), 0, 1)
    return noises, it, ad.build_iteration_cache(it, noises, cfg), U


@pytest.mark.parametrize("case", ["small", "shape2", "fleet80"])
def test_stacked_candidates_equal_separate_calls(case):
    from fleetmaint.config import case1_config, small_system_config
    if case == "small":
        cfg, Q, K = small_system_config(), 20, 10
    elif case == "shape2":
        # Weibull shapes of exactly 2.0, where numpy's power may take a
        # squaring path
        cfg, Q, K = make_cfg(n=5, T=8, weibull_shape=[2.0, 3.0, 2.0, 1.5,
                                                      2.0],
                             weibull_scale=[4.0, 5.0, 6.0, 7.0, 8.0]), 30, 7
    else:
        cfg, Q, K = case1_config(), 4, 3
    noises, it, cache, U = _stacked_case(cfg, Q, K, seed=len(case))
    X = ad.component_trajectories(U, it, noises, cfg, cache)
    F, XF = ad.component_subproblem_objective(U, it, noises, cfg, cache)
    assert np.array_equal(XF, X)
    assert X.shape == (cfg.n, K, cfg.T + 1, cfg.D + 2, Q)
    assert F.shape == (cfg.n, K)
    # candidate k of the stack is the stack of candidate k alone
    for k in range(K):
        Xk = ad.component_trajectories(U[:, k:k + 1], it, noises, cfg, cache)
        assert np.array_equal(X[:, k], Xk[:, 0]), k
        fk, _ = ad.component_subproblem_objective(U[:, k:k + 1], it, noises,
                                                  cfg, cache)
        assert np.array_equal(F[:, k], fk[:, 0]), k


def test_stacked_objective_dimension_check():
    cfg = make_cfg()
    noises = np.ones((2, 2, 3))
    it = make_iterate(cfg, noises)
    cache = ad.build_iteration_cache(it, noises, cfg)
    for shape in ((2, 0, 3), (3, 2, 3), (2, 2, 4), (2, 1, 1, 3)):
        with pytest.raises(sm.DimensionError):
            ad.component_subproblem_objective(np.zeros(shape), it, noises,
                                              cfg, cache)


# ---------------------------------------------------------------------------
# subproblem solvers


def test_budget_one_returns_warm_start():
    cfg = make_cfg()
    rng = np.random.default_rng(1)
    noises = rng.random((3, 2, 3))
    it = make_iterate(cfg, noises)
    cache = ad.build_iteration_cache(it, noises, cfg)
    X, u, best, _, evals = ad.solve_component_subproblems(
        it, noises, cfg, 1, range(2), cache)
    assert np.array_equal(u, it.u)
    assert evals == 2
    assert np.array_equal(best, ad.component_subproblem_objective(
        it.u[:, None], it, noises, cfg, cache)[0][:, 0])


def test_subproblem_never_worse_than_warm_start():
    cfg = make_cfg(n=2, T=5)
    rng = np.random.default_rng(4)
    noises = rng.random((6, 2, 5))
    it = make_iterate(cfg, noises)
    it.u = rng.random((2, 5)) * 0.5
    it.X, it.S = relaxed_bars(sm.Strategy(it.u), noises, it.alpha, cfg)
    cache = ad.build_iteration_cache(it, noises, cfg)
    ref = ad.component_subproblem_objective(it.u[:, None], it, noises, cfg,
                                            cache)[0][:, 0]
    _, _, best, _, _ = ad.solve_component_subproblems(
        it, noises, cfg, 120, range(2), cache)
    assert np.all(best <= ref + 1e-12)


def test_subproblem_solution_independent_of_round_size(monkeypatch):
    """Rounds of one candidate per row (a column budget below n Q), of
    up to 3 and of whole polls give the same solutions, multipliers and
    charges; the recursion's Jacobian blocks span 1, 3 and all 5 steps."""
    cfg = make_cfg(n=3, T=5)
    rng = np.random.default_rng(14)
    noises = rng.random((6, 3, 5))
    it = make_iterate(cfg, noises)
    it.u = rng.random((3, 5)) * 0.5
    it.X, it.S = relaxed_bars(sm.Strategy(it.u), noises, it.alpha, cfg)
    cache = ad.build_iteration_cache(it, noises, cfg)
    ref = ad.component_subproblem_objective(it.u[:, None], it, noises, cfg,
                                            cache)[0][:, 0]
    outs = []
    for columns in (1, 3 * 18, 10 ** 6):
        monkeypatch.setattr(ad, "LOCKSTEP_COLUMNS", columns)
        outs.append(ad.solve_component_subproblems(
            it, noises, cfg, 90, range(3), cache))
    for out in outs[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(out[:4], outs[0]))
        assert out[4] == outs[0][4] == 270
    assert np.all(outs[0][2] < ref)


@pytest.mark.parametrize("budget", [1, 90])
def test_subproblem_states_are_those_of_the_best_controls(budget):
    """The states the search keeps for each row's best controls, the start
    point's at budget 1, are bit for bit a stack of one's trajectories."""
    cfg = make_cfg(n=3, T=5)
    rng = np.random.default_rng(14)
    noises = rng.random((6, 3, 5))
    it = make_iterate(cfg, noises)
    it.u = rng.random((3, 5)) * 0.5
    it.X, it.S = relaxed_bars(sm.Strategy(it.u), noises, it.alpha, cfg)
    cache = ad.build_iteration_cache(it, noises, cfg)
    X, U, _, _, _ = ad.solve_component_subproblems(it, noises, cfg, budget,
                                                   range(3), cache)
    assert np.all(np.any(U != it.u, axis=1)) == (budget > 1)
    assert np.array_equal(X, ad.component_trajectories(
        U[:, None], it, noises, cfg, cache)[:, 0])


def test_stock_subproblem_all_healthy():
    cfg = make_cfg(n=2, T=4, s_init=3)
    noises = np.ones((2, 2, 4))
    it = make_iterate(cfg, noises)
    S = ad.solve_stock_subproblem(it.X, it.alpha, cfg)
    assert np.all(S == 3.0)


def test_stock_subproblem_matches_exact_trace():
    cfg = make_cfg(n=2, T=6, s_init=1)
    rng = np.random.default_rng(9)
    noises = rng.random((4, 2, 6))
    strat = sm.Strategy(np.zeros((2, 6)))
    exact = sm.simulate_batch(strat, noises, cfg, record_states=True)
    X, _ = relaxed_bars(strat, noises, 1e6, cfg)
    S = ad.solve_stock_subproblem(X, 1e6, cfg)
    band = band_hits(strat, noises, 1e6, cfg)
    ok = ~band
    assert np.array_equal(S[:, ok], exact.stock[:, ok])


# ---------------------------------------------------------------------------
# multipliers


def _fresh_solution(cfg, noises, it, budget=60):
    cache = ad.build_iteration_cache(it, noises, cfg)
    X_new, u_new, _, Lam_new, _ = ad.solve_component_subproblems(
        it, noises, cfg, budget, range(cfg.n), cache)
    return cache, X_new, u_new, Lam_new


def _random_states(rng, cfg, Q):
    """States (n, T+1, D+2, Q) and a stock (T+1, Q) inside the ramps'
    bands, most regimes within 1/(2 alpha) of 0 at alpha = 2, so that the
    spare-order coupling through b_prev is live."""
    X = np.empty((cfg.n, cfg.T + 1, cfg.D + 2, Q))
    X[:, :, 0] = np.where(rng.random(X[:, :, 0].shape) < 0.2,
                          rng.uniform(0.75, 1.25, X[:, :, 0].shape),
                          rng.uniform(-0.25, 0.25, X[:, :, 0].shape))
    X[:, :, 1] = rng.uniform(0.5, 10.0, X[:, :, 1].shape)
    X[:, :, 2:] = rng.uniform(-1.5, cfg.D + 1.0, X[:, :, 2:].shape)
    return X, rng.uniform(0.0, cfg.n, (cfg.T + 1, Q))


def test_adjoint_recursions_equal_at_every_step_block(monkeypatch):
    """The cache's coordination terms and both multiplier recursions give
    the same bits in blocks of 1 step, of 3 steps (7 = 3 + 3 + 1) and of
    all T steps, on a heterogeneous fleet with nonzero multipliers and
    states inside the ramps' bands."""
    cfg = make_cfg(n=4, T=7, D=3, s_init=1,
                   weibull_shape=[1.0, 2.0, 3.5, 1.5],
                   weibull_scale=[4.0, 6.0, 9.0, 5.0])
    Q = 5
    rng = np.random.default_rng(17)
    noises = rng.random((Q, cfg.n, cfg.T))
    it = make_iterate(cfg, noises, make_params(alpha0=2.0))
    it.u = rng.random((cfg.n, cfg.T))
    it.X, it.S = _random_states(rng, cfg, Q)
    it.Lam = rng.standard_normal(it.X.shape)
    it.LamS = rng.standard_normal(it.S.shape)
    U = rng.random((cfg.n, cfg.T))
    X, S = _random_states(rng, cfg, Q)
    outs = []
    for steps in (1, 3, cfg.T):
        monkeypatch.setattr(ad, "LOCKSTEP_COLUMNS", steps * cfg.n * Q)
        cache = ad.build_iteration_cache(it, noises, cfg)
        blocks = [(t.start, t.stop) for t, _ in ad._fleet_partials(
            rx.component_step_d_S, it.X, it.u, it.S, cache.bprev, noises,
            it.alpha, cfg)]
        assert blocks == ([(t, t + 1) for t in range(6, -1, -1)]
                          if steps == 1 else [(6, 7), (3, 6), (0, 3)]
                          if steps == 3 else [(0, 7)])
        Lam = ad.component_multiplier_backward(X, U, it, noises, cfg, cache)
        LamS = ad.stock_multiplier_backward(S, X, U, Lam, it.S, noises, cfg,
                                            it.alpha, 0.02)
        outs.append((cache.coord, Lam, LamS))
    for out in outs[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(out, outs[0]))


def test_component_recursion_forms_its_gradient_per_block():
    """On the 80-component fleet with 20 scenarios, the component
    recursion's traced peak above its inputs stays below its output plus
    one state-shaped array: the stage-cost gradient and its indicators
    are formed one block of steps at a time, with that block's Jacobian,
    not for all T+1 times before the recursion starts."""
    cfg = case1_config()
    noises = np.random.default_rng(4).random((20, cfg.n, cfg.T))
    it = make_iterate(cfg, noises)
    cache = ad.build_iteration_cache(it, noises, cfg)
    tracemalloc.start()
    try:
        Lam = ad.component_multiplier_backward(it.X, it.u, it, noises, cfg,
                                               cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < Lam.nbytes + it.X.nbytes, (peak, Lam.nbytes)


def test_component_multiplier_stationarity():
    cfg = make_cfg(n=2, T=3)
    rng = np.random.default_rng(12)
    noises = rng.random((3, 2, 3))
    it = make_iterate(cfg, noises)
    # make the bar point nontrivial: random multipliers and controls
    it.Lam = rng.normal(0, 5.0, it.Lam.shape)
    it.LamS = rng.normal(0, 5.0, it.LamS.shape)
    cache = ad.build_iteration_cache(it, noises, cfg)
    U = rng.random((2, 3))
    X = ad.component_trajectories(U[:, None], it, noises, cfg, cache)[:, 0]
    Lam = ad.component_multiplier_backward(X, U, it, noises, cfg, cache)
    res = component_stationarity_residual(X, U, Lam, it, noises, cfg,
                                          cache)
    assert res.shape == (2,) and np.all(res < 1e-10)


def test_stock_multiplier_stationarity():
    cfg = make_cfg(n=2, T=3)
    rng = np.random.default_rng(21)
    noises = rng.random((3, 2, 3))
    it = make_iterate(cfg, noises)
    it.Lam = rng.normal(0, 3.0, it.Lam.shape)
    _, X_new, u_new, Lam_new = _fresh_solution(cfg, noises, it, budget=20)
    S_new = ad.solve_stock_subproblem(X_new, it.alpha, cfg)
    gamma_s = ad.update_schedules(0, make_params())[1]
    LamS = ad.stock_multiplier_backward(S_new, X_new, u_new, Lam_new, it.S,
                                        noises, cfg, it.alpha, gamma_s)
    res = stock_stationarity_residual(S_new, X_new, u_new, Lam_new, LamS,
                                      it.S, noises, cfg, it.alpha, gamma_s)
    assert res < 1e-10


def test_multiplier_trivial_cases():
    cfg = make_cfg(n=1, T=2, C_C=0.0, C_F=0.0)
    noises = np.ones((2, 1, 2))
    it = make_iterate(cfg, noises, gamma_x=0.0)
    cache = ad.build_iteration_cache(it, noises, cfg)
    X = ad.component_trajectories(it.u[:, None], it, noises, cfg,
                                  cache)[:, 0]
    Lam = ad.component_multiplier_backward(X, it.u, it, noises, cfg, cache)
    assert np.all(Lam[:, cfg.T] == 0.0)
    # stock multiplier vanishes when S matches the bar and bars carry no
    # multipliers
    S = ad.solve_stock_subproblem(it.X, it.alpha, cfg)
    gamma_s = ad.update_schedules(0, make_params())[1]
    LamS = ad.stock_multiplier_backward(S, it.X, it.u, np.zeros_like(it.Lam),
                                        S, noises, cfg, it.alpha, gamma_s)
    assert np.all(LamS == 0.0)


def test_terminal_stock_multiplier_linear_in_gamma():
    cfg = make_cfg(n=1, T=2)
    noises = np.zeros((1, 1, 2))      # certain failure
    it = make_iterate(cfg, noises)
    X_new, S_bar = it.X, it.S + 0.7
    lam1 = ad.stock_multiplier_backward(it.S, X_new, it.u,
                                        np.zeros_like(it.Lam), S_bar,
                                        noises, cfg, it.alpha, 1.0)
    lam3 = ad.stock_multiplier_backward(it.S, X_new, it.u,
                                        np.zeros_like(it.Lam), S_bar,
                                        noises, cfg, it.alpha, 3.0)
    assert lam3[cfg.T] == pytest.approx(3.0 * lam1[cfg.T])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6), st.integers(1, 8),
       st.integers(1, 3), st.integers(1, 5))
def test_cache_at_zero_multipliers_equals_the_sweep(seed, n, T, D, Q):
    """Where every bar multiplier is zero, whatever its sign, the cache's
    coordination coefficients are those of the full sweep bit for bit,
    sign bits included, on random heterogeneous fleets whose Weibull
    shapes are at least 1, exactly 1 now and then; and so they are
    where either multiplier is random.  Regimes and stocks are spread
    over wide ramps, where the partials the multipliers multiply are
    often nonzero."""
    rng = np.random.default_rng(seed)
    cfg = make_cfg(n=n, T=T, D=D, s_init=int(rng.integers(0, 4)),
                   weibull_shape=np.where(rng.random(n) < 0.25, 1.0,
                                          rng.uniform(1.0, 4.5, n)),
                   weibull_scale=rng.uniform(2.0, 15.0, n),
                   C_P=rng.uniform(0.0, 100.0, n),
                   C_C=rng.uniform(0.0, 400.0, n))
    noises = rng.random((Q, n, T))
    p = make_params(alpha0=rng.uniform(0.5, 1.0) if rng.random() < 0.75
                    else rng.uniform(4.0, 200.0))
    u = rng.random((n, T))
    X, _ = relaxed_bars(sm.Strategy(u), noises, p.alpha0, cfg)
    X[:, :, 0] = rng.random((n, T + 1, Q))
    it = make_iterate(cfg, noises, p, X=X, S=rng.uniform(0.0, n, (T + 1, Q)),
                      u=u)

    def zeros(shape):
        return np.where(rng.random(shape) < 0.5, -0.0, 0.0)

    S = it.S
    for it.Lam, it.LamS in [(zeros(X.shape), zeros(S.shape)),
                            (zeros(X.shape), rng.normal(size=S.shape)),
                            (rng.normal(size=X.shape), zeros(S.shape)),
                            (rng.normal(size=X.shape),
                             rng.normal(size=S.shape))]:
        got = ad.build_iteration_cache(it, noises, cfg)
        want = reference_iteration_cache(it, noises, cfg)
        for field in ("bprev", "sigma_others", "coord"):
            assert (getattr(got, field).tobytes()
                    == getattr(want, field).tobytes()), field


def _bar_cross_terms(X_t, p, t, it, noises, cfg):
    """Bar-point terms of the Lagrangian that read X_{p,t} from outside p.

    Returns (sum_{j != p} Lam_{j,t+1} . f_j(X_t), LamS_{t+1} f_S(X_t)) per
    scenario, with f_j the relaxed step of component j and f_S the stock's.
    """
    alpha = it.alpha
    E, A, P = X_t[:, 0], X_t[:, 1], X_t[:, 2:]
    i0 = rx._ind_singleton(0.0, E, alpha)
    comp = np.zeros(X_t.shape[-1])
    for j in range(cfg.n):
        if j == p:
            continue
        f = sm._component_forward(
            E[j], A[j], P[j], it.S[t], np.sum(i0[:j], axis=0), it.u[j, t],
            noises[:, j, t], cfg.weibull_shape[j], cfg.weibull_scale[j], cfg,
            rx._ramps(alpha))
        f_j = np.concatenate([f.E_new[None], f.A_new[None], f.P_new])
        comp += np.sum(it.Lam[j, t + 1] * f_j, axis=0)
    stock = it.LamS[t + 1] * sm.stock_step_core(E, P, it.S[t], cfg,
                                                rx._ramps(alpha))
    return comp, stock


def test_coupling_coefficients_match_fd():
    # coord[p, t] is minus the gradient in X_{p,t} of the other components'
    # and the stock's bar terms; regimes sit inside the 1/(2 alpha) band so
    # the spare-order coupling through b_prev is live
    rng = np.random.default_rng(77)
    n, T, Q, alpha, h = 4, 3, 6, 2.0, 1e-6
    checked = live = 0
    for _ in range(10):
        cfg = make_cfg(n=n, T=T, s_init=2,
                       weibull_shape=rng.uniform(1.5, 4.5, n),
                       weibull_scale=rng.uniform(6.0, 14.0, n))
        noises = rng.random((Q, n, T))
        X = np.empty((n, T + 1, cfg.D + 2, Q))
        X[:, :, 0] = np.where(rng.random((n, T + 1, Q)) < 0.2,
                              rng.uniform(0.75, 1.25, (n, T + 1, Q)),
                              rng.uniform(-0.25, 0.25, (n, T + 1, Q)))
        X[:, :, 1] = rng.uniform(0.5, 10.0, (n, T + 1, Q))
        X[:, :, 2:] = rng.uniform(-1.5, cfg.D + 1.0, (n, T + 1, cfg.D, Q))
        it = ad.Iterate(X=X, S=rng.uniform(0.0, n, (T + 1, Q)),
                        u=rng.random((n, T)),
                        Lam=rng.normal(0.0, 2.0, X.shape),
                        LamS=rng.normal(0.0, 2.0, (T + 1, Q)),
                        gamma_x=0.0, gamma_u=0.0, alpha=alpha)
        cache = ad.build_iteration_cache(it, noises, cfg)
        i0 = rx._ind_singleton(0.0, X[:, :T, 0], alpha)
        assert np.allclose(cache.bprev,
                           [np.sum(i0[:i], axis=0) for i in range(n)])
        for t in range(T):
            probe = KinkProbe((Q,))
            E, P = X[:, t, 0], X[:, t, 2:]
            sm._component_forward(
                E, X[:, t, 1], P.transpose(1, 0, 2), it.S[t],
                sm.exclusive_cumsum(rx._ind_singleton(0.0, E, alpha)),
                it.u[:, t, None], noises[:, :, t].T,
                cfg.weibull_shape[:, None], cfg.weibull_scale[:, None], cfg,
                kink_indicators(alpha, probe))
            stock_kinks(E, P, it.S[t], alpha, cfg, probe)
            ok = probe.kink > 1e-3
            for p in range(n):
                for c in range(cfg.D + 2):
                    up, dn = X[:, t].copy(), X[:, t].copy()
                    up[p, c] += h
                    dn[p, c] -= h
                    comp_up, stock_up = _bar_cross_terms(up, p, t, it,
                                                         noises, cfg)
                    comp_dn, stock_dn = _bar_cross_terms(dn, p, t, it,
                                                         noises, cfg)
                    fd = (comp_up - comp_dn + stock_up - stock_dn) / (2 * h)
                    np.testing.assert_allclose(cache.coord[p, t, c, ok],
                                               -fd[ok], rtol=1e-7, atol=1e-6)
                    checked += int(np.sum(ok))
                    live += int(np.sum(ok & (np.abs(comp_up - comp_dn)
                                             > 1e-3 * h)))
    assert checked >= 2000 and live >= 40, (checked, live)


# ---------------------------------------------------------------------------
# reduced gradient


def test_reduced_gradient_matches_fd():
    rng = np.random.default_rng(30)
    checked = 0
    trials = 0
    while checked < 25 and trials < 400:
        trials += 1
        n = int(rng.integers(1, 3))
        T = int(rng.choice([3, 5]))
        cfg = make_cfg(n=n, T=T)
        noises = rng.random((3, n, T))
        it = make_iterate(cfg, noises)
        it.Lam = rng.normal(0, 2.0, it.Lam.shape)
        it.LamS = rng.normal(0, 2.0, it.LamS.shape)
        cache = ad.build_iteration_cache(it, noises, cfg)
        i = int(rng.integers(0, n))
        U = it.u.copy()
        U[i] = rng.uniform(0.05, 0.95, T)
        if subproblem_kink_distance(U, it, noises, cfg, cache)[i] < 1e-2:
            continue
        grad = reduced_gradient(U, it, noises, cfg, cache)[i]
        h = 1e-5
        for t in range(T):
            up, um = U.copy(), U.copy()
            up[i, t] += h
            um[i, t] -= h
            fd = (ad.component_subproblem_objective(up[:, None], it, noises,
                                                    cfg, cache)[0][i, 0]
                  - ad.component_subproblem_objective(um[:, None], it, noises,
                                                      cfg, cache)[0][i, 0]
                  ) / (2 * h)
            assert grad[t] == pytest.approx(fd, rel=1e-4, abs=1e-7), \
                f"t={t} analytic {grad[t]} fd {fd}"
        checked += 1
    assert checked == 25


# ---------------------------------------------------------------------------
# fixed-point driver


def test_fixed_point_zero_iterations():
    cfg = make_cfg()
    noises = np.random.default_rng(0).random((3, 2, 3))
    p = make_params(iterations=0, subproblem_budget=5)
    strat, history = ad.app_fixed_point(cfg, p, noises, seed=1)
    assert np.all(strat.controls == 0.0)
    assert history == []


@pytest.mark.parametrize("bad", [-0.1, 7.0, np.nan])
def test_fixed_point_rejects_out_of_range_noises(bad):
    cfg = make_cfg()
    noises = np.random.default_rng(0).random((3, 2, 3))
    noises[0, 1, 2] = bad
    with pytest.raises(ValueError, match="noises"):
        ad.app_fixed_point(cfg, make_params(iterations=1,
                                            subproblem_budget=5),
                           noises, seed=1)


def test_fixed_point_runs_and_records_history():
    cfg = make_cfg(n=3, T=5, s_init=1)
    noises = np.random.default_rng(7).random((4, 3, 5))
    p = make_params(iterations=3, subproblem_budget=40)
    strat, history = ad.app_fixed_point(cfg, p, noises, seed=11)
    assert strat.controls.shape == (3, 5)
    assert np.all((strat.controls >= 0) & (strat.controls <= 1))
    assert len(history) == 3
    for k, rec in enumerate(history):
        assert rec["k"] == k
        assert len(rec["subproblem_best"]) == 3
        assert np.isfinite(rec["saa_relaxed"])


def test_fixed_point_deterministic_across_repeats():
    cfg = make_cfg(n=3, T=4, s_init=1)
    noises = np.random.default_rng(2).random((3, 3, 4))
    p = make_params(iterations=2, subproblem_budget=25)
    s1, h1 = ad.app_fixed_point(cfg, p, noises, seed=5)
    s2, h2 = ad.app_fixed_point(cfg, p, noises, seed=5)
    assert np.array_equal(s1.controls, s2.controls)
    for r1, r2 in zip(h1, h2):
        assert r1["saa_relaxed"] == r2["saa_relaxed"]
        assert r1["subproblem_best"] == r2["subproblem_best"]


def test_fixed_point_drops_what_no_later_phase_reads(monkeypatch):
    """Each phase of an iteration finds freed what no phase after it
    reads: the bar multipliers, whose only reader is the iteration cache,
    are gone when the component search starts; the cache, whose last
    reader is the component recursion, and the old bar states are gone
    when the stock phase starts.  The last iteration, whose multipliers
    nothing reads, runs no stock phase.  Rounds of 2 400 columns take the
    row split's path, in this process on one core."""
    monkeypatch.setattr(sm, "_usable_cores", lambda: 1)
    cfg = make_cfg(n=12, T=6, s_init=3)
    noises = np.random.default_rng(9).random((200, cfg.n, cfg.T))
    held, checks = {}, []

    def watch(name, keys, f):
        def watched(*args, **kwargs):
            checks.append((name, [key for key in keys
                                  if held[key]() is not None]))
            return f(*args, **kwargs)
        monkeypatch.setattr(ad, name, watched)

    build = ad.build_iteration_cache

    def kept(it, *args):
        cache = build(it, *args)
        held.update(Lam=weakref.ref(it.Lam), LamS=weakref.ref(it.LamS),
                    X=weakref.ref(it.X), coord=weakref.ref(cache.coord),
                    bprev=weakref.ref(cache.bprev),
                    sigma_others=weakref.ref(cache.sigma_others))
        return cache

    monkeypatch.setattr(ad, "build_iteration_cache", kept)
    watch("solve_component_subproblems", ["Lam", "LamS"],
          ad.solve_component_subproblems)
    for name in ("solve_stock_subproblem", "stock_multiplier_backward"):
        watch(name, ["coord", "bprev", "sigma_others", "X"],
              getattr(ad, name))
    ad.app_fixed_point(cfg, make_params(iterations=2, subproblem_budget=2),
                       noises, seed=1)
    assert checks == [("solve_component_subproblems", []),
                      ("solve_stock_subproblem", []),
                      ("stock_multiplier_backward", []),
                      ("solve_component_subproblems", [])]


def test_small_system_lockstep_rounds(monkeypatch, tmp_path):
    """``optimize-app`` on the small system with 20 scenarios caps a row's
    chunk at 10 candidates.  Every poll from the do-nothing start fails,
    so each iteration's budget of 50 goes in 5 rounds of 10 per row: the
    start points with 9 trials, then 4 chunks of 10 trials."""
    rounds = []
    objective = ad.component_subproblem_objective

    def counted(U, *args):
        rounds.append(U.shape)
        return objective(U, *args)

    monkeypatch.setattr(ad, "component_subproblem_objective", counted)
    assert cli.main(["--mode", "optimize-app", "--seed", "1",
                     "--scenarios", "20", "--iterations", "2",
                     "--budget", "50", "--out", str(tmp_path)]) == 0
    assert rounds == [(10, 10, 40)] * 10


def test_history_csv(tmp_path):
    cfg = make_cfg(n=2, T=3)
    noises = np.random.default_rng(1).random((2, 2, 3))
    p = make_params(iterations=2, subproblem_budget=10)
    _, history = ad.app_fixed_point(cfg, p, noises, seed=3)
    path = tmp_path / "history.csv"
    cli.history_to_csv(history, path, cfg.n)
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("k,alpha,gamma_u")
    assert len(lines) == 3
