"""Decomposition layer: schedules, subproblems, multipliers, fixed point."""
import numpy as np
import pytest

from fleetmaint.config import SystemConfig
from fleetmaint.dsearch import SearchBudget
from fleetmaint import appdecomp as ad
from fleetmaint import relax as rx
from fleetmaint import sysmodel as sm


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
    for i in range(2):
        E, A = stats.regimes[:, i, :], stats.ages[:, i, :]
        cm = np.sum(beta[:, None] * cfg.C_C[i]
                    * rx._ind_singleton(0.0, E, it.alpha)
                    * rx._ind_singleton(0.0, A, it.alpha), axis=0)
        fo = np.zeros(5)
        for t in range(cfg.T + 1):
            fo += np.asarray(rx.relaxed_fo_cost(stats.regimes[t],
                                                stats.ages[t], t,
                                                it.alpha, cfg))
        expect = float(np.mean(cm + fo))
        got = ad.component_subproblem_objective(i, it.u[i], it, noises, cfg)
        assert got == pytest.approx(expect, rel=1e-9)


def test_objective_proximal_terms():
    cfg = make_cfg(n=1, T=3)
    noises = np.ones((2, 1, 3))      # no failures
    it = make_iterate(cfg, noises, gamma_x=0.0, gamma_u=4.0)
    base = ad.component_subproblem_objective(0, it.u[0], it, noises, cfg)
    shifted = it.u[0] + 0.1
    got = ad.component_subproblem_objective(0, shifted, it, noises, cfg)
    beta = cfg.discount(np.arange(3))
    pm = float(np.sum(beta * cfg.C_P[0] * shifted ** 2))
    assert got == pytest.approx(base + pm + 0.5 * 4.0 * 3 * 0.1 ** 2,
                                rel=1e-9)


def test_objective_dimension_check():
    cfg = make_cfg()
    noises = np.ones((2, 2, 3))
    it = make_iterate(cfg, noises)
    with pytest.raises(sm.DimensionError):
        ad.component_subproblem_objective(0, np.zeros(5), it, noises, cfg)


def test_objective_is_deterministic():
    cfg = make_cfg(n=2, T=4)
    rng = np.random.default_rng(3)
    noises = rng.random((4, 2, 4))
    it = make_iterate(cfg, noises)
    u = rng.random(4)
    a = ad.component_subproblem_objective(1, u, it, noises, cfg)
    b = ad.component_subproblem_objective(1, u, it, noises, cfg)
    assert a == b


# ---------------------------------------------------------------------------
# subproblem solvers


def test_budget_one_returns_warm_start():
    cfg = make_cfg()
    rng = np.random.default_rng(1)
    noises = rng.random((3, 2, 3))
    it = make_iterate(cfg, noises)
    cache = ad.build_iteration_cache(it, noises, cfg)
    X, u, best, evals = ad.solve_component_subproblem(
        0, it, noises, cfg, SearchBudget(max_evals=1, seed=0), cache)
    assert np.array_equal(u, it.u[0])
    assert evals == 1
    assert best == pytest.approx(
        ad.component_subproblem_objective(0, it.u[0], it, noises, cfg, cache))


def test_subproblem_never_worse_than_warm_start():
    cfg = make_cfg(n=2, T=5)
    rng = np.random.default_rng(4)
    noises = rng.random((6, 2, 5))
    it = make_iterate(cfg, noises)
    it.u = rng.random((2, 5)) * 0.5
    it.X, it.S = ad._relaxed_system_arrays(sm.Strategy(it.u), noises,
                                           it.alpha, cfg)
    cache = ad.build_iteration_cache(it, noises, cfg)
    for i in range(2):
        ref = ad.component_subproblem_objective(i, it.u[i], it, noises, cfg,
                                                cache)
        _, _, best, _ = ad.solve_component_subproblem(
            i, it, noises, cfg, SearchBudget(max_evals=120, seed=i), cache)
        assert best <= ref + 1e-12


def test_stock_subproblem_all_healthy():
    cfg = make_cfg(n=2, T=4, s_init=3)
    noises = np.ones((2, 2, 4))
    it = make_iterate(cfg, noises)
    S = ad.solve_stock_subproblem(it.X, noises, it.alpha, cfg)
    assert np.all(S == 3.0)


def test_stock_subproblem_matches_exact_trace():
    cfg = make_cfg(n=2, T=6, s_init=1)
    rng = np.random.default_rng(9)
    noises = rng.random((4, 2, 6))
    strat = sm.Strategy(np.zeros((2, 6)))
    exact = sm.simulate_batch(strat, noises, cfg, record_states=True)
    X, _ = ad._relaxed_system_arrays(strat, noises, 1e6, cfg)
    S = ad.solve_stock_subproblem(X, noises, 1e6, cfg)
    band = rx.simulate_relaxed_batch(strat, noises, 1e6, cfg).band_hit
    ok = ~band
    assert np.array_equal(S[:, ok], exact.stock[:, ok])


# ---------------------------------------------------------------------------
# multipliers


def _fresh_solution(cfg, noises, it, budget=60):
    cache = ad.build_iteration_cache(it, noises, cfg)
    X_new = np.empty_like(it.X)
    u_new = np.empty_like(it.u)
    Lam_new = np.empty_like(it.Lam)
    for i in range(cfg.n):
        X_i, u_i, _, _ = ad.solve_component_subproblem(
            i, it, noises, cfg, SearchBudget(max_evals=budget, seed=i),
            cache)
        X_new[i], u_new[i] = X_i, u_i
        Lam_new[i] = ad.component_multiplier_backward(i, X_i, u_i, it,
                                                      noises, cfg, cache)
    return cache, X_new, u_new, Lam_new


def test_component_multiplier_stationarity():
    cfg = make_cfg(n=2, T=3)
    rng = np.random.default_rng(12)
    noises = rng.random((3, 2, 3))
    it = make_iterate(cfg, noises)
    # make the bar point nontrivial: random multipliers and controls
    it.Lam = rng.normal(0, 5.0, it.Lam.shape)
    it.LamS = rng.normal(0, 5.0, it.LamS.shape)
    cache = ad.build_iteration_cache(it, noises, cfg)
    for i in range(2):
        u_i = rng.random(3)
        X_i = ad._component_traj(i, u_i, it, noises, cfg, cache)
        Lam_i = ad.component_multiplier_backward(i, X_i, u_i, it, noises,
                                                 cfg, cache)
        res = ad.component_stationarity_residual(i, X_i, u_i, Lam_i, it,
                                                 noises, cfg, cache)
        assert res < 1e-10


def test_stock_multiplier_stationarity():
    cfg = make_cfg(n=2, T=3)
    rng = np.random.default_rng(21)
    noises = rng.random((3, 2, 3))
    it = make_iterate(cfg, noises)
    it.Lam = rng.normal(0, 3.0, it.Lam.shape)
    _, X_new, u_new, Lam_new = _fresh_solution(cfg, noises, it, budget=20)
    S_new = ad.solve_stock_subproblem(X_new, noises, it.alpha, cfg)
    LamS = ad.stock_multiplier_backward(S_new, X_new, u_new, Lam_new, it.S,
                                        noises, cfg, it.alpha, it.gamma_s)
    res = ad.stock_stationarity_residual(S_new, X_new, u_new, Lam_new, LamS,
                                         it.S, noises, cfg, it.alpha,
                                         it.gamma_s)
    assert res < 1e-10


def test_multiplier_trivial_cases():
    cfg = make_cfg(n=1, T=2, C_C=0.0, C_F=0.0)
    noises = np.ones((2, 1, 2))
    it = make_iterate(cfg, noises, gamma_x=0.0)
    cache = ad.build_iteration_cache(it, noises, cfg)
    X_i = ad._component_traj(0, it.u[0], it, noises, cfg, cache)
    Lam = ad.component_multiplier_backward(0, X_i, it.u[0], it, noises, cfg,
                                           cache)
    assert np.all(Lam[cfg.T] == 0.0)
    # stock multiplier vanishes when S matches the bar and bars carry no
    # multipliers
    S = ad.solve_stock_subproblem(it.X, noises, it.alpha, cfg)
    LamS = ad.stock_multiplier_backward(S, it.X, it.u, np.zeros_like(it.Lam),
                                        S, noises, cfg, it.alpha, it.gamma_s)
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
        E_j, A_j, P_j = rx.component_step_core(
            E[j], A[j], P[j], it.S[t], np.sum(i0[:j], axis=0), it.u[j, t],
            noises[:, j, t], alpha, cfg.weibull_shape[j],
            cfg.weibull_scale[j], cfg)
        f_j = np.concatenate([E_j[None], A_j[None], P_j])
        comp += np.sum(it.Lam[j, t + 1] * f_j, axis=0)
    stock = it.LamS[t + 1] * rx.stock_step_core(E, P, it.S[t], alpha, cfg)
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
                        LamS=rng.normal(0.0, 2.0, (T + 1, Q)), k=0,
                        gamma_x=0.0, gamma_s=0.0, gamma_u=0.0, alpha=alpha)
        cache = ad.build_iteration_cache(it, noises, cfg)
        i0 = rx._ind_singleton(0.0, X[:, :T, 0], alpha)
        assert np.allclose(cache.bprev,
                           [np.sum(i0[:i], axis=0) for i in range(n)])
        for t in range(T):
            probe = rx._Probe((Q,))
            E, P = X[:, t, 0], X[:, t, 2:]
            rx.component_step_core(
                E, X[:, t, 1], P.transpose(1, 0, 2), it.S[t],
                rx.exclusive_cumsum(rx._ind_singleton(0.0, E, alpha)),
                it.u[:, t, None], noises[:, :, t].T, alpha,
                cfg.weibull_shape[:, None], cfg.weibull_scale[:, None], cfg,
                probe)
            rx.stock_step_core(E, P, it.S[t], alpha, cfg, probe)
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
        u_i = rng.uniform(0.05, 0.95, T)
        if ad.subproblem_kink_distance(i, u_i, it, noises, cfg, cache) < 1e-2:
            continue
        grad = ad.reduced_gradient(i, u_i, it, noises, cfg, cache)
        h = 1e-5
        for t in range(T):
            up, um = u_i.copy(), u_i.copy()
            up[t] += h
            um[t] -= h
            fd = (ad.component_subproblem_objective(i, up, it, noises, cfg,
                                                    cache)
                  - ad.component_subproblem_objective(i, um, it, noises,
                                                      cfg, cache)) / (2 * h)
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


def test_fixed_point_deterministic_across_workers():
    cfg = make_cfg(n=3, T=4, s_init=1)
    noises = np.random.default_rng(2).random((3, 3, 4))
    p = make_params(iterations=2, subproblem_budget=25)
    s1, h1 = ad.app_fixed_point(cfg, p, noises, seed=5, workers=1)
    s2, h2 = ad.app_fixed_point(cfg, p, noises, seed=5, workers=2)
    assert np.array_equal(s1.controls, s2.controls)
    assert [r["saa_relaxed"] for r in h1] == [r["saa_relaxed"] for r in h2]


def test_history_csv(tmp_path):
    cfg = make_cfg(n=2, T=3)
    noises = np.random.default_rng(1).random((2, 2, 3))
    p = make_params(iterations=2, subproblem_budget=10)
    _, history = ad.app_fixed_point(cfg, p, noises, seed=3)
    path = tmp_path / "history.csv"
    ad.history_to_csv(history, path, cfg.n)
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("k,alpha,gamma_u")
    assert len(lines) == 3
