"""End-to-end acceptance checks, one verdict line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
Criterion 7 (the two-arm optimizer comparison) is the long one; everything
else finishes in seconds.
"""
import os
import time

import numpy as np
import pytest

from fleetmaint.config import SystemConfig, small_system_config
from fleetmaint.dsearch import SearchBudget, minimize
from fleetmaint import appdecomp as ad
from fleetmaint import cli
from fleetmaint import evalharness as ev
from fleetmaint import relax as rx
from fleetmaint import sysmodel as sm


def _verdict(num, name, ok, detail=""):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print("\n" + line)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_1_mttf():
    tic = time.perf_counter()
    times = sm.sample_time_to_first_failure(3.0, 10.0, draws=100_000,
                                            seed=2024, dt=0.01)
    mean = float(np.mean(times))
    closed = sm.weibull_mttf(3.0, 10.0)
    elapsed = time.perf_counter() - tic
    ok = abs(mean - 8.93) <= 0.05 and abs(closed - 8.93) <= 0.05 \
        and elapsed < 10.0
    _verdict(1, "mean time to first failure",
             ok, f"simulated {mean:.4f}, closed form {closed:.4f}, "
                 f"{elapsed:.1f}s")


def test_criterion_2_and_3_exact_equals_relaxed_and_conservation():
    cfg = small_system_config()
    rng = np.random.default_rng(99)
    tic = time.perf_counter()
    flagged = 0
    total = 0
    mismatches = 0
    violations = 0
    for _ in range(100):
        u = (rng.random((cfg.n, cfg.T)) > 0.8).astype(float)
        strat = sm.Strategy(u)
        noises = rng.random((100, cfg.n, cfg.T))
        exact = sm.simulate_batch(strat, noises, cfg, record_states=True)
        relaxed = rx.simulate_relaxed_batch(strat, noises, 1e6, cfg,
                                            record_states=True)
        keep = ~relaxed.band_hit
        flagged += int(np.sum(relaxed.band_hit))
        total += 100
        same = (np.array_equal(exact.regimes[..., keep],
                               relaxed.regimes[..., keep])
                and np.array_equal(exact.ages[..., keep],
                                   relaxed.ages[..., keep])
                and np.array_equal(exact.last_failures[..., keep],
                                   relaxed.last_failures[..., keep])
                and np.array_equal(exact.stock[:, keep],
                                   relaxed.stock[:, keep])
                and np.array_equal(exact.total_cost[keep],
                                   relaxed.total_cost[keep])
                and np.array_equal(exact.pm_cost[keep],
                                   relaxed.pm_cost[keep])
                and np.array_equal(exact.cm_cost[keep],
                                   relaxed.cm_cost[keep])
                and np.array_equal(exact.fo_cost[keep],
                                   relaxed.fo_cost[keep]))
        mismatches += int(not same)
        # spare-parts conservation on every exact trajectory, all scenarios
        broken = np.sum(exact.regimes == 0.0, axis=1)          # (T+1, Q)
        in_flight = np.sum((exact.last_failures >= 0)
                           & (exact.last_failures <= cfg.D - 1),
                           axis=(1, 2))
        violations += int(np.sum(exact.stock + in_flight - broken
                                 != cfg.s_init))
    elapsed = time.perf_counter() - tic
    frac = flagged / total
    ok2 = mismatches == 0 and frac < 0.01 and elapsed < 60.0
    _verdict(2, "exact and stiff-surrogate simulations agree bit for bit",
             ok2, f"{mismatches} mismatching runs, {frac:.2%} flagged, "
                  f"{elapsed:.1f}s")
    _verdict(3, "spare-parts conservation law", violations == 0,
             f"{violations} violations")


def _random_adjoint_instance(rng):
    n = int(rng.integers(1, 3))
    T = int(rng.choice([3, 5]))
    cfg = SystemConfig(n=n, T=T, D=2, s_init=1, C_F=10000.0, C_P=50.0,
                       C_C=200.0, weibull_shape=3.0, weibull_scale=10.0)
    noises = rng.random((1, n, T))
    p = ad.tuned_params(iterations=1, subproblem_budget=1)
    it = ad.initial_iterate(cfg, p, noises)
    it.Lam = rng.normal(0.0, 2.0, it.Lam.shape)
    it.LamS = rng.normal(0.0, 2.0, it.LamS.shape)
    return cfg, noises, it


def test_criterion_4_adjoint_correctness():
    rng = np.random.default_rng(404)
    tic = time.perf_counter()
    worst_res = 0.0
    checked = 0
    worst_rel = 0.0
    h = 1e-5
    while checked < 100:
        cfg, noises, it = _random_adjoint_instance(rng)
        cache = ad.build_iteration_cache(it, noises, cfg)
        i = int(rng.integers(0, cfg.n))
        u_i = rng.uniform(0.05, 0.95, cfg.T)
        if ad.subproblem_kink_distance(i, u_i, it, noises, cfg,
                                       cache) < 1e-2:
            continue
        X_i = ad._component_traj(i, u_i, it, noises, cfg, cache)
        Lam = ad.component_multiplier_backward(i, X_i, u_i, it, noises, cfg,
                                               cache)
        worst_res = max(worst_res, ad.component_stationarity_residual(
            i, X_i, u_i, Lam, it, noises, cfg, cache))
        grad = ad.reduced_gradient(i, u_i, it, noises, cfg, cache)
        for t in range(cfg.T):
            up, um = u_i.copy(), u_i.copy()
            up[t] += h
            um[t] -= h
            fd = (ad.component_subproblem_objective(i, up, it, noises, cfg,
                                                    cache)
                  - ad.component_subproblem_objective(i, um, it, noises,
                                                      cfg, cache)) / (2 * h)
            rel = abs(grad[t] - fd) / max(abs(fd), 1e-7)
            worst_rel = max(worst_rel, rel)
        # stock multiplier consistency on the same instance
        S = ad.solve_stock_subproblem(it.X, noises, it.alpha, cfg)
        LamS = ad.stock_multiplier_backward(S, it.X, it.u, it.Lam, it.S,
                                            noises, cfg, it.alpha,
                                            it.gamma_s)
        worst_res = max(worst_res, ad.stock_stationarity_residual(
            S, it.X, it.u, it.Lam, LamS, it.S, noises, cfg, it.alpha,
            it.gamma_s))
        checked += 1
    elapsed = time.perf_counter() - tic
    ok = worst_res <= 1e-8 and worst_rel <= 1e-4 and elapsed < 60.0
    _verdict(4, "adjoint multipliers and reduced gradient", ok,
             f"stationarity {worst_res:.2e}, gradient rel err "
             f"{worst_rel:.2e} over {checked} points, {elapsed:.1f}s")


def test_criterion_5_step_jacobians_match_finite_differences():
    cfg = SystemConfig(n=4, T=4, D=2, s_init=1, C_F=10000.0, C_P=50.0,
                       C_C=200.0, weibull_shape=3.0, weibull_scale=10.0)
    rng = np.random.default_rng(505)
    h = 1e-7
    checked = 0
    worst = 0.0

    def random_point(i):
        states = []
        for _ in range(i):
            P = np.where(rng.random(cfg.D) < 0.4, cfg.delta_default,
                         rng.uniform(-1.5, cfg.D + 1.0, cfg.D))
            states.append(sm.ComponentState(rng.uniform(-0.2, 1.2),
                                            rng.uniform(0.0, 12.0), P))
        return states, rng.uniform(-1.0, 4.0), rng.random(), rng.random()

    while checked < 1000:
        i = int(rng.integers(1, cfg.n + 1))
        alpha = float(rng.choice([2.0, 8.0]))
        states, stock, u, w = random_point(i)
        if rx.kink_distance(states, stock, u, w, alpha, cfg) < 1e-2:
            continue
        blocks = rx.relaxed_partials(states, stock, u, w, alpha, cfg)
        comp, sto = blocks["component"], blocks["stock"]

        def comp_value(bump_kind, idx, eps):
            st = [c.copy() for c in states]
            s, uu = stock, u
            if bump_kind == "E":
                st[idx].regime += eps
            elif bump_kind == "A":
                st[-1].age += eps
            elif bump_kind == "P":
                st[-1].last_failures[idx] += eps
            elif bump_kind == "S":
                s += eps
            else:
                uu += eps
            out = rx.step_component_relaxed(st, s, uu, w, alpha, cfg)
            return np.concatenate([[out.regime, out.age], out.last_failures])

        pairs = [(("E", i - 1), comp.d_own[:, 0]),
                 (("A", None), comp.d_own[:, 1]),
                 (("S", None), comp.d_S), (("u", None), comp.d_u)]
        pairs += [(("P", d), comp.d_own[:, 2 + d]) for d in range(cfg.D)]
        # a lower regime enters only through b_prev: -d_S d1{0}(E_j)
        pairs += [(("E", j), -comp.d_S * rx._dind_singleton(
            0.0, states[j].regime, alpha)) for j in range(i - 1)]
        for (kind, idx), got in pairs:
            fd = (comp_value(kind, idx, h)
                  - comp_value(kind, idx, -h)) / (2 * h)
            worst = max(worst, float(np.max(np.abs(np.asarray(got) - fd))))

        def stock_value(bump, eps):
            st = [c.copy() for c in states]
            s = stock
            kind, j, d = bump
            if kind == "S":
                s += eps
            elif kind == "E":
                st[j].regime += eps
            else:
                st[j].last_failures[d] += eps
            return rx.step_stock_relaxed(st, s, alpha, cfg)

        fd = (stock_value(("S", 0, 0), h)
              - stock_value(("S", 0, 0), -h)) / (2 * h)
        worst = max(worst, abs(float(sto.d_S) - fd))
        for j in range(i):
            fd = (stock_value(("E", j, 0), h)
                  - stock_value(("E", j, 0), -h)) / (2 * h)
            worst = max(worst, abs(float(sto.d_E[j]) - fd))
            for d in range(cfg.D):
                fd = (stock_value(("P", j, d), h)
                      - stock_value(("P", j, d), -h)) / (2 * h)
                worst = max(worst, abs(float(sto.d_P[j, d]) - fd))
        checked += 1
    ok = worst <= 1e-6
    _verdict(5, "relaxed step Jacobians vs finite differences", ok,
             f"worst abs error {worst:.2e} over {checked} points")


def test_criterion_6_direct_search_sphere():
    rng = np.random.default_rng(606)
    x0 = rng.uniform(-1, 1, 40)
    box = (-np.ones(40), np.ones(40))

    def sphere(x):
        return float(np.dot(x, x))

    out1 = minimize(sphere, x0, box, SearchBudget(max_evals=10_000, seed=6))
    out2 = minimize(sphere, x0, box, SearchBudget(max_evals=10_000, seed=6))
    ok = out1[1] <= 1e-3 and np.array_equal(out1[0], out2[0]) \
        and out1[1] == out2[1]
    _verdict(6, "direct search solves the 40-d sphere", ok,
             f"value {out1[1]:.2e} in {out1[2]} evaluations, deterministic")


@pytest.mark.slow
def test_criterion_7_decomposition_vs_direct_reference():
    cfg = small_system_config()
    noises = ev.generate_scenarios(cfg.n, cfg.T, 20, seed=1234)
    validation = ev.generate_scenarios(cfg.n, cfg.T, 10_000, seed=1235)
    tic = time.perf_counter()
    p = ad.tuned_params(iterations=20, subproblem_budget=500)
    workers = min(8, os.cpu_count() or 1)
    app_strat, _ = ad.app_fixed_point(cfg, p, noises, seed=7,
                                      workers=workers)

    total_evals = 20 * cfg.n * 500

    def objective(flat):
        return ev.saa_objective(sm.Strategy(flat.reshape(cfg.n, cfg.T)),
                                noises, cfg)

    x, _, _ = minimize(objective, np.zeros(cfg.n * cfg.T),
                       (np.zeros(cfg.n * cfg.T), np.ones(cfg.n * cfg.T)),
                       SearchBudget(max_evals=total_evals, seed=7))
    direct_strat = sm.Strategy(x.reshape(cfg.n, cfg.T))

    costs = {}
    for name, strat in (("app", app_strat), ("direct", direct_strat)):
        projected = ev.project_strategy(strat, cfg.nu)
        costs[name] = ev.evaluate_strategy(projected, validation,
                                           cfg).mean_cost
    elapsed = time.perf_counter() - tic
    ok = costs["app"] <= 1.05 * costs["direct"]
    # the 30-minute wall-clock requirement presumes 8 parallel workers;
    # enforce it only when the hardware actually provides them
    if (os.cpu_count() or 1) >= 8:
        ok = ok and elapsed < 1800.0
    _verdict(7, "decomposition beats or ties equal-budget direct search",
             ok, f"app {costs['app']:.1f} vs direct {costs['direct']:.1f} "
                 f"(ratio {costs['app'] / costs['direct']:.3f}), "
                 f"{elapsed:.0f}s on {workers} worker(s)")


def test_criterion_8_schedules_and_tuner():
    p = ad.tuned_params()
    gx, gs, gu, alpha = ad.update_schedules(0, p)
    sched_ok = (gu == p.gamma_u0 and alpha == p.alpha0
                and gx == p.gamma_u0 / p.r_x and gs == p.gamma_u0 / p.r_s)

    rng = np.random.default_rng(808)
    lhs_ok = True
    for _ in range(100):
        d = 6
        lo = rng.uniform(0.1, 5, d)
        hi = lo + rng.uniform(0.5, 10, d)
        count = int(rng.integers(1, 9))
        samples = cli.lhs_sample(list(zip(lo, hi)), count,
                                 int(rng.integers(0, 2 ** 31)), restarts=2)
        arr = np.array([s.vector for s in samples])
        for j in range(d):
            strata = np.floor((arr[:, j] - lo[j]) / (hi[j] - lo[j])
                              * count).astype(int)
            strata = np.clip(strata, 0, count - 1)
            if not np.array_equal(np.sort(strata), np.arange(count)):
                lhs_ok = False

    cfg = SystemConfig(n=2, T=3, D=2, s_init=1, C_F=10000.0, C_P=50.0,
                       C_C=200.0, weibull_shape=3.0, weibull_scale=10.0)
    samples = cli.lhs_sample(ad.PARAM_BOUNDS, 3, seed=1)
    for s in samples:
        s.iterations, s.subproblem_budget = 1, 5
    train = ev.generate_scenarios(2, 3, 3, seed=0)
    val = ev.generate_scenarios(2, 3, 10, seed=1)
    best, board = cli.tune(cfg, samples, train, val, seed=0)
    tune_ok = best is samples[board[0]["index"]] \
        and board[0]["cost"] == min(r["cost"] for r in board)

    ok = sched_ok and lhs_ok and tune_ok
    _verdict(8, "schedules, Latin hypercube stratification, tuner argmin",
             ok, f"schedules {sched_ok}, lhs {lhs_ok}, tune {tune_ok}")


def test_criterion_9_byte_identical_reproducibility(tmp_path):
    cfg = SystemConfig(n=3, T=5, D=2, s_init=1, C_F=10000.0, C_P=50.0,
                       C_C=200.0, weibull_shape=3.0, weibull_scale=10.0)
    from fleetmaint.config import save_config
    cfg_path = tmp_path / "config.yaml"
    save_config(cfg, cfg_path)
    ok = True
    details = []
    runs = {
        "simulate": dict(mode="simulate"),
        "optimize-direct": dict(mode="optimize-direct", budget=30,
                                scenarios=4),
        "optimize-app": dict(mode="optimize-app", iterations=2, budget=15,
                             scenarios=4),
        "tune": dict(mode="tune", iterations=1, budget=5, scenarios=3,
                     validation_scenarios=10, lhs_count=2, lhs_restarts=2),
    }
    for label, kw in runs.items():
        outs = []
        for rep in ("a", "b"):
            out = tmp_path / f"{label}-{rep}"
            rc = cli.run(cli.RunManifest(config=str(cfg_path), seed=17,
                                         out=str(out), **kw))
            assert rc == 0
            outs.append({f.name: f.read_bytes()
                         for f in sorted(out.iterdir())})
        if outs[0] != outs[1]:
            ok = False
            details.append(f"{label} differs across runs")
    # worker-count independence of the decomposition
    out1 = tmp_path / "app-w1"
    out2 = tmp_path / "app-w2"
    for out, threads in ((out1, 1), (out2, 2)):
        rc = cli.run(cli.RunManifest(mode="optimize-app",
                                     config=str(cfg_path), seed=17,
                                     out=str(out), iterations=2, budget=15,
                                     scenarios=4, threads=threads))
        assert rc == 0
    s1 = (out1 / "strategy.csv").read_bytes()
    s2 = (out2 / "strategy.csv").read_bytes()
    if s1 != s2:
        ok = False
        details.append("worker counts disagree")
    # evaluate mode on the strategy produced above
    for rep in ("a", "b"):
        out = tmp_path / f"evaluate-{rep}"
        rc = cli.run(cli.RunManifest(mode="evaluate", config=str(cfg_path),
                                     seed=18, out=str(out),
                                     strategy=str(out1 / "strategy.csv"),
                                     validation_scenarios=50))
        assert rc == 0
    ea = {f.name: f.read_bytes()
          for f in sorted((tmp_path / "evaluate-a").iterdir())}
    eb = {f.name: f.read_bytes()
          for f in sorted((tmp_path / "evaluate-b").iterdir())}
    if ea != eb:
        ok = False
        details.append("evaluate differs across runs")
    _verdict(9, "byte-identical outputs across runs and worker counts", ok,
             "; ".join(details) if details else "all modes identical")
