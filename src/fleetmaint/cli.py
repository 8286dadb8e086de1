"""Command-line front end: simulation, optimization, evaluation, tuning.

Six subcommand-style modes (:data:`MODES`) share one flag set:

* ``simulate``        one scenario on the exact batch engine, its states
                      and the events read off them written as CSV;
* ``optimize-app``    decomposition fixed point, strategy + history files;
* ``optimize-direct`` direct-search on the full exact sample-average
                      objective (the gradient-free reference arm);
* ``evaluate``        score a strategy file on fresh validation scenarios;
* ``tune``            Latin-hypercube search over the six decomposition
                      parameters on a small system;
* ``compare``         both arms at equal budget on one validation set.

Every output file is written here, each CSV table through
:func:`write_csv`; the numerical layers return values only.

Every mode is a deterministic function of (config, seed, flags).  The
parser declares the flags and their defaults and :func:`main` checks their
ranges; the config and parameter files take their keys, types and defaults
from ``SystemConfig`` and ``APPParams`` (``config.typed_fields``).  Errors
map to distinct exit codes so scripts can tell a bad config from a bad
output directory: 2 for a flag out of range, 3 for a bad config, strategy
or parameter file, 4 for a dimension mismatch, 5 for an output failure.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import suppress
from dataclasses import fields, replace
from itertools import repeat, takewhile
from pathlib import Path

import numpy as np
import yaml

from .config import (SystemConfig, ConfigError, load_config,
                     small_system_config, typed_fields)
from .sysmodel import (BatchStats, DimensionError, ScenarioSet, Strategy,
                       parallel_map, simulate_batch)
from .dsearch import minimize
from . import appdecomp as ad
from . import evalharness as ev


EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_DIMENSION = 4
EXIT_OUTPUT = 5


# ---------------------------------------------------------------------------
# tables, strategy and parameter files


def write_csv(path, header, rows):
    """Write one table: the header, then one line per row.  A float cell is
    written as ``.17g``, which reads back to the same double; any other
    cell with ``str``."""
    lines = [",".join(header)]
    lines += [",".join(f"{c:.17g}" if isinstance(c, float) else str(c)
                       for c in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def save_strategy(strategy: Strategy, cfg: SystemConfig, path):
    """CSV strategy file: header with sizes, then T rows of n controls."""
    n, T = strategy.controls.shape
    write_csv(path, [f"n={n}", f"T={T}", f"nu={cfg.nu:.17g}"],
              strategy.controls.T)


def load_strategy(path, cfg: SystemConfig) -> Strategy:
    """Read a strategy file: ConfigError when it is malformed or was
    written for another PM threshold than ``cfg.nu``, DimensionError when
    its rows do not match its header."""
    try:
        lines = Path(path).read_text().strip().split("\n")
        header = dict(kv.split("=") for kv in lines[0].split(","))
        n, T, nu = int(header["n"]), int(header["T"]), float(header["nu"])
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"malformed strategy file {path}: {exc}") from exc
    if nu != cfg.nu:
        raise ConfigError(f"strategy file {path} was written for nu={nu!r}, "
                          f"the config has nu={cfg.nu!r}")
    if len(rows) != T:
        raise DimensionError(f"expected {T} control rows, got {len(rows)}")
    for t, row in enumerate(rows):
        if len(row) != n:
            raise DimensionError(f"row {t} has {len(row)} entries, wanted {n}")
    try:
        return Strategy(np.array(rows).T.copy())
    except ValueError as exc:          # entries outside [0, 1], or no rows
        raise ConfigError(f"bad strategy file {path}: {exc}") from exc


def trajectory_to_csv(stats: BatchStats, strategy: Strategy,
                      cfg: SystemConfig, path):
    """Write scenario 0 of an exact run, one row per time step: the stock,
    each component's regime, age and events, and the forced-outage flag.

    ``stats`` comes from :func:`simulate_batch` with ``record_states``.  The
    events are read off the recorded states: a PM at step t is a healthy
    component with a control of at least nu, a failure a component broken
    at age 0, a repair a broken component healthy at the next step, and a
    forced outage a step where some component is broken at an age above 0,
    i.e. still waiting for a spare.
    """
    E, A = stats.states[:, :, 0, 0].T, stats.states[:, :, 1, 0].T
    S = stats.stock[:, 0]
    T = cfg.T
    pm = np.zeros((T + 1, cfg.n), dtype=int)
    cm = np.zeros((T + 1, cfg.n), dtype=int)
    pm[:T] = (E[:T] == 1.0) & (strategy.controls.T >= cfg.nu)
    cm[:T] = (E[:T] == 0.0) & (E[1:] == 1.0)
    failure = ((E == 0.0) & (A == 0.0)).astype(int)
    forced_outage = np.any((E == 0.0) & (A > 0.0), axis=1).astype(int)
    header = ["t", "stock"]
    for i in range(1, cfg.n + 1):
        header += [f"regime_{i}", f"age_{i}", f"pm_{i}", f"failure_{i}",
                   f"cm_{i}"]
    header.append("forced_outage")
    rows = []
    for t in range(T + 1):
        row = [t, S[t]]
        for i in range(cfg.n):
            row += [E[t, i], A[t, i], pm[t, i], failure[t, i], cm[t, i]]
        rows.append(row + [forced_outage[t]])
    write_csv(path, header, rows)


def history_to_csv(history, path, n: int):
    """One row per fixed-point iteration: its schedule values, the mean
    relaxed cost of its controls and each subproblem's best value."""
    cols = ["k", "alpha", "gamma_u", "gamma_x", "gamma_s", "saa_relaxed"]
    write_csv(path, cols + [f"best_{i + 1}" for i in range(n)],
              ([rec[c] for c in cols] + rec["subproblem_best"]
               for rec in history))


#: the six decomposition parameters: the float fields of APPParams
_PARAM_KEYS = tuple(f.name for f in fields(ad.APPParams) if f.type == "float")


def save_params(p: ad.APPParams, path):
    data = typed_fields(ad.APPParams, vars(p), "parameter")
    Path(path).write_text(yaml.safe_dump(data, sort_keys=False))


def load_params(path) -> ad.APPParams:
    """Read a parameter file: the fields of APPParams, the six
    decomposition parameters required and the two counts optional."""
    try:
        data = yaml.safe_load(Path(path).read_text())
        return ad.APPParams(**typed_fields(ad.APPParams, data, "parameter"))
    except (ValueError, yaml.YAMLError) as exc:
        raise ConfigError(f"bad parameter file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Latin hypercube sampling


#: random designs drawn per Latin hypercube sample; the most spread is kept
LHS_RESTARTS = 20


def lhs_sample(bounds, count: int, seed: int):
    """Stratified samples of the six decomposition parameters.

    Each coordinate places exactly one point per equal-width stratum with
    independent stratum permutations.  Among :data:`LHS_RESTARTS` random
    designs the one with the largest minimum pairwise distance (in the unit
    cube) is kept.
    """
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    if count < 1:
        raise ValueError("count must be >= 1")
    for lo, hi in bounds:
        if not lo < hi:
            raise ValueError(f"invalid bounds interval ({lo}, {hi})")
    d = len(bounds)
    rng = np.random.default_rng(seed)
    best, best_sep = None, -np.inf
    for _ in range(LHS_RESTARTS):
        unit = np.empty((count, d))
        for j in range(d):
            strata = rng.permutation(count)
            unit[:, j] = (strata + rng.random(count)) / count
        if count == 1:
            sep = np.inf
        else:
            diff = unit[:, None, :] - unit[None, :, :]
            dist = np.sqrt(np.sum(diff ** 2, axis=-1))
            sep = np.min(dist[np.triu_indices(count, k=1)])
        if sep > best_sep:
            best, best_sep = unit, sep
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    scaled = lo + best * (hi - lo)
    return [ad.APPParams(*row) for row in scaled]


# ---------------------------------------------------------------------------
# tuning


def _tune_one(cfg, p, noises, val, seed):
    strat, _ = ad.app_fixed_point(cfg, p, noises, seed=seed)
    return ev.saa_objective(ev.project_strategy(strat, cfg.nu), val, cfg)


def tune(cfg: SystemConfig, samples, noises, validation, seed: int):
    """Score each parameter sample and return (best, leaderboard).

    Every sample runs the decomposition on the same optimization scenarios;
    the projected strategies are compared on the shared validation set.
    The leaderboard is sorted by cost, ties broken by sample index.
    """
    costs = parallel_map(_tune_one, repeat(cfg), samples, repeat(noises),
                         repeat(validation), repeat(seed))
    leaderboard = sorted(
        ({"index": idx, "cost": cost, "params": p}
         for cost, (idx, p) in zip(costs, enumerate(samples))),
        key=lambda rec: (rec["cost"], rec["index"]))
    return leaderboard[0]["params"], leaderboard


def leaderboard_to_csv(leaderboard, path):
    write_csv(path, ["rank", "index", "cost"] + list(_PARAM_KEYS),
              ([rank, rec["index"], rec["cost"]]
               + [getattr(rec["params"], k) for k in _PARAM_KEYS]
               for rank, rec in enumerate(leaderboard)))


# ---------------------------------------------------------------------------
# evaluation reports


def report_to_text(report: ev.EvaluationReport) -> str:
    """Human-readable summary, costs also shown in thousands."""
    lines = [
        f"scenarios            {report.scenario_count}",
        f"mean cost            {report.mean_cost:.6g}"
        f"  ({report.mean_cost / 1e3:.6g} k)",
        "quantiles:",
    ]
    for lv, qv in zip(ev.QUANTILE_LEVELS, report.quantiles):
        lines.append(f"  q{lv:02d}                {qv:.6g}")
    lines += [
        f"breakdown pm/cm/fo   {report.breakdown['pm']:.6g} / "
        f"{report.breakdown['cm']:.6g} / {report.breakdown['fo']:.6g}",
        f"PMs per scenario     {report.total_pm:.6g}",
        f"PMs per component    {report.mean_pm_per_component:.6g}",
        f"failures per comp.   {report.mean_failures_per_component:.6g}",
        f"FO onsets            {report.fo_onsets_total} in "
        f"{report.scenario_count} scenarios "
        f"({report.fo_scenarios} scenarios affected)",
        f"FO steps per scen.   {report.fo_steps_mean:.6g}",
    ]
    return "\n".join(lines) + "\n"


def report_to_csv(report: ev.EvaluationReport, path):
    """Quantile table plus scalar metrics, one metric per row."""
    rows = [("scenario_count", report.scenario_count),
            ("mean_cost", report.mean_cost)]
    rows += [(f"quantile_{lv}", qv)
             for lv, qv in zip(ev.QUANTILE_LEVELS, report.quantiles)]
    rows += [(f"mean_{key}_cost", val)
             for key, val in report.breakdown.items()]
    rows += [("mean_pm_count", report.total_pm),
             ("mean_pm_per_component", report.mean_pm_per_component),
             ("mean_failures_per_component",
              report.mean_failures_per_component),
             ("fo_onsets_total", report.fo_onsets_total),
             ("fo_onsets_mean", report.fo_onsets_mean),
             ("fo_steps_mean", report.fo_steps_mean),
             ("fo_scenarios", report.fo_scenarios)]
    write_csv(path, ["metric", "value"], rows)


def curves_to_csv(report: ev.EvaluationReport, pm_path, stock_path):
    """Plot-ready curve files: cumulative PMs and empty-stock probability."""
    write_csv(pm_path, ["t", "mean_cumulative_pm"],
              enumerate(report.pm_cumulative_curve))
    write_csv(stock_path, ["t", "empty_stock_probability"],
              enumerate(report.empty_stock_curve))


# ---------------------------------------------------------------------------
# modes


def _resolve_config(args) -> SystemConfig:
    if args.config is None:
        return small_system_config()
    return load_config(args.config)


def _resolve_params(args) -> ad.APPParams:
    """The parameter file, or the tuned parameters, with the counts that
    ``--iterations`` and ``--budget`` override."""
    p = load_params(args.params) if args.params else ad.tuned_params()
    counts = {"iterations": args.iterations, "subproblem_budget": args.budget}
    return replace(p, **{k: v for k, v in counts.items() if v is not None})


def _run_simulate(args, cfg, out: Path):
    noises = ev.generate_scenarios(cfg.n, cfg.T, 1, args.seed)
    strategy = (load_strategy(args.strategy, cfg) if args.strategy
                else Strategy(np.zeros((cfg.n, cfg.T))))
    stats = simulate_batch(strategy, noises, cfg, record_states=True)
    trajectory_to_csv(stats, strategy, cfg, out / "trajectory.csv")
    print(f"simulate: wrote {out / 'trajectory.csv'}")


def _run_optimize_app(args, cfg, out: Path):
    p = _resolve_params(args)
    noises = ev.generate_scenarios(cfg.n, cfg.T, args.scenarios, args.seed)
    print(f"optimize-app: surrogate dynamics, {p.iterations} iterations, "
          f"{args.scenarios} scenarios")
    strat, history = ad.app_fixed_point(cfg, p, noises, seed=args.seed)
    save_strategy(strat, cfg, out / "strategy.csv")
    save_strategy(ev.project_strategy(strat, cfg.nu), cfg,
                  out / "strategy_projected.csv")
    history_to_csv(history, out / "history.csv", cfg.n)
    print(f"optimize-app: wrote {out / 'strategy.csv'}")


def optimize_direct(cfg: SystemConfig, noises, budget: int, seed: int):
    """The direct-search reference arm: one search over all n*T controls on
    the exact sample-average objective over ``noises``, started at the
    do-nothing schedule.  Returns (Strategy, best value, evaluations)."""

    def objective(flat):                      # (1, K, n*T) -> (1, K)
        return ev.saa_objective(flat.reshape(-1, cfg.n, cfg.T), noises,
                                cfg)[None]

    x0 = np.zeros((1, cfg.n * cfg.T))
    x, f, evals = minimize(objective, x0, (np.zeros_like(x0),
                                           np.ones_like(x0)),
                           budget, [seed])
    return Strategy(x.reshape(cfg.n, cfg.T)), float(f[0]), evals


def compare_arms(cfg: SystemConfig, p: ad.APPParams, noises, validation,
                 seed: int):
    """The decomposition with ``p`` against :func:`optimize_direct` at the
    ``p.iterations * n * p.subproblem_budget`` evaluations it charges, both
    on ``noises`` with ``seed`` and scored projected on ``validation``:
    ({arm: (strategy, report, wall seconds)}, app history, direct best)."""
    tic = time.perf_counter()
    app, history = ad.app_fixed_point(cfg, p, noises, seed=seed)
    mid = time.perf_counter()
    direct, best, _ = optimize_direct(
        cfg, noises, p.iterations * cfg.n * p.subproblem_budget, seed)
    toc = time.perf_counter()
    arms = {}
    for name, strat, secs in (("app", app, mid - tic),
                              ("direct", direct, toc - mid)):
        report = ev.evaluate_strategy(ev.project_strategy(strat, cfg.nu),
                                      validation, cfg)
        arms[name] = strat, report, secs
    return arms, history, best


def _run_optimize_direct(args, cfg, out: Path):
    noises = ev.generate_scenarios(cfg.n, cfg.T, args.scenarios, args.seed)
    budget = args.budget if args.budget is not None else 1000
    print(f"optimize-direct: exact dynamics, budget {budget}, "
          f"{args.scenarios} scenarios")
    strat, f, evals = optimize_direct(cfg, noises, budget, args.seed)
    save_strategy(strat, cfg, out / "strategy.csv")
    save_strategy(ev.project_strategy(strat, cfg.nu), cfg,
                  out / "strategy_projected.csv")
    print(f"optimize-direct: best {f:.6g} after {evals} evaluations")


def _run_evaluate(args, cfg, out: Path):
    if args.strategy is None:
        raise ConfigError("evaluate needs --strategy")
    strategy = load_strategy(args.strategy, cfg)
    scen = ScenarioSet(cfg.n, cfg.T, args.validation_scenarios, args.seed)
    report = ev.evaluate_strategy(ev.project_strategy(strategy, cfg.nu),
                                  scen, cfg)
    report_to_csv(report, out / "report.csv")
    text = report_to_text(report)
    (out / "report.txt").write_text(text)
    curves_to_csv(report, out / "pm_cumulative.csv", out / "empty_stock.csv")
    print(text, end="")


def _validation(args, cfg) -> ScenarioSet:
    """tune's and compare's scenarios: none is a training scenario."""
    return ScenarioSet(cfg.n, cfg.T, args.validation_scenarios,
                       (args.seed + 1) % (1 << 64))


def _run_tune(args, cfg, out: Path):
    base = _resolve_params(args)
    samples = [replace(p, iterations=base.iterations,
                       subproblem_budget=base.subproblem_budget)
               for p in lhs_sample(ad.PARAM_BOUNDS, args.lhs_count,
                                   args.seed)]
    noises = ev.generate_scenarios(cfg.n, cfg.T, args.scenarios, args.seed)
    best, board = tune(cfg, samples, noises, _validation(args, cfg), args.seed)
    leaderboard_to_csv(board, out / "leaderboard.csv")
    save_params(best, out / "best_params.yaml")
    print(f"tune: best cost {board[0]['cost']:.6g} "
          f"(sample {board[0]['index']})")


def _run_compare(args, cfg, out: Path):
    p = _resolve_params(args)
    if p.iterations == 0:
        return _fail("usage", "compare needs iterations >= 1", EXIT_USAGE)
    noises = ev.generate_scenarios(cfg.n, cfg.T, args.scenarios, args.seed)
    arms, history, _ = compare_arms(cfg, p, noises,
                                    _validation(args, cfg), args.seed)
    history_to_csv(history, out / "app_history.csv", cfg.n)
    for name, (strat, report, secs) in arms.items():
        save_strategy(strat, cfg, out / f"{name}_strategy.csv")
        report_to_csv(report, out / f"{name}_report.csv")
        print(f"{name:7s} mean cost {report.mean_cost:12.4f} ({secs:.1f} s)")
    costs = {name: arm[1].mean_cost for name, arm in arms.items()}
    write_csv(out / "summary.csv", ["arm", "mean_cost"], costs.items())
    ratio = costs["app"] / costs["direct"] if costs["direct"] else float("nan")
    print(f"app/direct cost ratio: {ratio:.4f}")


#: each mode's run on (flags, config, output directory): None or an exit code
MODES = {"simulate": _run_simulate, "optimize-app": _run_optimize_app,
         "optimize-direct": _run_optimize_direct, "evaluate": _run_evaluate,
         "tune": _run_tune, "compare": _run_compare}


def run(args: argparse.Namespace) -> int:
    """Execute one run of parsed, range-checked flags; returns an exit code."""
    try:
        cfg = _resolve_config(args)
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
            probe = out / ".write_probe"
            probe.write_text("")
            probe.unlink()
        except OSError as exc:
            return _fail("output directory not writable", exc, EXIT_OUTPUT)
        return MODES[args.mode](args, cfg, out) or EXIT_OK
    except ConfigError as exc:
        return _fail("bad configuration", exc, EXIT_CONFIG)
    except DimensionError as exc:
        return _fail("dimension mismatch", exc, EXIT_DIMENSION)
    except OSError as exc:
        return _fail("i/o failure", exc, EXIT_OUTPUT)


def _fail(what: str, exc: Exception | str, code: int) -> int:
    """Report ``exc`` on one stderr line (a YAML parse error spans several,
    with a caret drawing) and return the exit code."""
    print(f"error: {what}: {' '.join(str(exc).split())}", file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fleetmaint",
        description="Fleet preventive-maintenance scheduling toolkit")
    parser.add_argument("--mode", required=True,
                        choices=MODES)
    parser.add_argument("--config", default=None,
                        help="system config file (default: built-in small "
                             "10-component system)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="out",
                        help="output directory (created if missing)")
    parser.add_argument("--iterations", type=int, default=None,
                        help="fixed-point iterations override")
    parser.add_argument("--budget", type=int, default=None,
                        help="search budget (per subproblem, or total for "
                             "optimize-direct)")
    parser.add_argument("--scenarios", type=int, default=100,
                        help="optimization scenario count")
    parser.add_argument("--validation-scenarios", type=int, default=1000)
    parser.add_argument("--params", default=None,
                        help="decomposition parameter file (YAML)")
    parser.add_argument("--strategy", default=None,
                        help="strategy CSV (evaluate and simulate modes)")
    parser.add_argument("--lhs-count", type=int, default=8)
    parser.add_argument("--threads", type=int, default=1,
                        help="ignored by every mode, which runs one worker "
                             "process per usable core")
    return parser


def _check_flags(args) -> str | None:
    """The first numeric flag out of range, described, or None."""
    if not 0 <= args.seed < 1 << 64:
        return f"--seed must lie in [0, 2**64), got {args.seed}"
    for name in ("scenarios", "validation_scenarios", "lhs_count",
                 "threads", "budget"):
        value = getattr(args, name)
        if value is not None and value < 1:
            return f"--{name.replace('_', '-')} must be >= 1, got {value}"
    if args.iterations is not None and args.iterations < 0:
        return f"--iterations must be >= 0, got {args.iterations}"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _check_flags(args)
    if problem:
        # parser.error would print the whole usage first; one line will do
        parser.exit(EXIT_USAGE, f"{parser.prog}: error: {problem}\n")
    # the directories run makes: --out and its missing parents, leaf first;
    # a ".." entry names a directory further up, which rmdir would refuse
    # before it reached the rest (Path drops the "." entries)
    out = Path(args.out).absolute()
    made = list(takewhile(lambda d: not os.path.exists(d),
                          (d for d in (out, *out.parents) if d.name != "..")))
    code = run(args)
    if code != EXIT_OK:     # remove them, leaf first, while they are empty
        with suppress(OSError):
            for path in made:
                os.rmdir(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
