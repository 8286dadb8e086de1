#!/usr/bin/env python3
"""Two-arm comparison: decomposition fixed point vs direct search.

Both arms optimize the same sample-average objective on shared scenarios
and spend the same total number of objective evaluations; the projected
strategies are then scored on a common exact-dynamics validation set.
"""
import argparse
import time
from pathlib import Path

from fleetmaint import appdecomp as ad
from fleetmaint import cli
from fleetmaint import evalharness as ev
from fleetmaint.config import load_config, small_system_config
from fleetmaint.sysmodel import ScenarioSet


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="out/compare")
    ap.add_argument("--iterations", type=int, default=20)
    ap.add_argument("--budget", type=int, default=500,
                    help="evaluations per subproblem per iteration")
    ap.add_argument("--scenarios", type=int, default=20)
    ap.add_argument("--validation-scenarios", type=int, default=10_000)
    args = ap.parse_args()

    cfg = load_config(args.config) if args.config else small_system_config()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    noises = ev.generate_scenarios(cfg.n, cfg.T, args.scenarios, args.seed)
    # generated block by block as the engine steps it, never whole
    validation = ScenarioSet(cfg.n, cfg.T, args.validation_scenarios,
                             (args.seed + 1) % (1 << 64))

    p = ad.tuned_params(iterations=args.iterations,
                        subproblem_budget=args.budget)
    tic = time.perf_counter()
    app_strat, history = ad.app_fixed_point(cfg, p, noises, seed=args.seed)
    app_time = time.perf_counter() - tic
    cli.history_to_csv(history, out / "app_history.csv", cfg.n)
    cli.save_strategy(app_strat, cfg, out / "app_strategy.csv")

    total_evals = args.iterations * cfg.n * args.budget
    tic = time.perf_counter()
    direct_strat, _, _ = cli.optimize_direct(cfg, noises, total_evals,
                                             args.seed)
    direct_time = time.perf_counter() - tic
    cli.save_strategy(direct_strat, cfg, out / "direct_strategy.csv")

    rows = []
    for name, strat, wall in (("app", app_strat, app_time),
                              ("direct", direct_strat, direct_time)):
        projected = ev.project_strategy(strat, cfg.nu)
        report = ev.evaluate_strategy(projected, validation, cfg)
        cli.report_to_csv(report, out / f"{name}_report.csv")
        rows.append((name, report.mean_cost, wall))
        print(f"{name:7s} mean cost {report.mean_cost:12.4f} "
              f"({wall:7.1f} s, {total_evals} evals)")
    ratio = rows[0][1] / rows[1][1] if rows[1][1] else float("nan")
    print(f"app/direct cost ratio: {ratio:.4f}")
    cli.write_csv(out / "summary.csv", ["arm", "mean_cost", "wall_time"],
                  rows)


if __name__ == "__main__":
    main()
