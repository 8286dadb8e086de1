"""Scenario generation, sample-average objectives and strategy evaluation.

Scenarios are uniform noise panels drawn from a counter-based generator
keyed per (seed, scenario index), so a given scenario is the same whatever
the batch size and scenario sets built from different seeds are disjoint by
construction.  Optimized strategies are projected to {0, 1} controls and
then always scored on the exact dynamics, whichever surrogate produced
them; that keeps the comparison between optimizers fair.

The evaluation report mirrors the usual study tables: mean discounted cost
with quantiles, a cost breakdown, event counts, and the plot-ready curves
(cumulative preventive maintenances per step, empty-stock probability per
step).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .sysmodel import Strategy, DimensionError, simulate_batch
from . import relax as rx


QUANTILE_LEVELS = (1, 5, 25, 50, 75, 95, 99)


def generate_scenarios(n: int, T: int, count: int, seed: int) -> np.ndarray:
    """Uniform [0, 1) noise panels, shape (count, n, T).

    Each scenario comes from its own Philox stream keyed by (seed, index)
    and filled in component-major order, so scenario q does not depend on
    ``count`` and distinct seeds never share a stream.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    out = np.empty((count, n, T))
    base = int(seed) << 64
    for q in range(count):
        bits = np.random.Philox(key=base + q)
        out[q] = np.random.Generator(bits).random((n, T))
    return out


def saa_objective(strategy: Strategy, scenarios, cfg: SystemConfig,
                  mode: str = "exact", alpha: float | None = None) -> float:
    """Mean total discounted cost of ``strategy`` over the scenario set.

    ``mode`` selects the dynamics: "exact" or "relaxed" (the latter needs
    the sharpness parameter ``alpha``).
    """
    scenarios = np.asarray(scenarios, dtype=float)
    if mode == "exact":
        stats = simulate_batch(strategy, scenarios, cfg)
    elif mode == "relaxed":
        if alpha is None:
            raise ValueError("relaxed mode needs alpha")
        stats = rx.simulate_relaxed_batch(strategy, scenarios, alpha, cfg)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return float(np.mean(stats.total_cost))


def project_strategy(strategy: Strategy, nu: float) -> Strategy:
    """Round fractional controls to the binary policy they stand for.

    An entry at or above the renewal threshold becomes a full PM (1), the
    rest become no-ops (0).  Idempotent.
    """
    u = np.asarray(strategy.controls, dtype=float)
    if np.any(u < 0.0) or np.any(u > 1.0):
        raise ValueError("controls must lie in [0, 1]")
    return Strategy(np.where(u >= nu, 1.0, 0.0))


@dataclass
class EvaluationReport:
    """Exact-dynamics scores of one strategy on a validation scenario set."""

    scenario_count: int
    mean_cost: float
    quantile_levels: tuple
    quantiles: np.ndarray          # same length as quantile_levels
    breakdown: dict                # mean pm/cm/fo costs
    total_pm: float                # mean PM count per scenario (whole fleet)
    mean_pm_per_component: float
    mean_failures_per_component: float
    fo_onsets_mean: float          # forced-outage onsets per scenario
    fo_onsets_total: int
    fo_steps_mean: float
    fo_scenarios: int              # scenarios with at least one onset
    pm_cumulative_curve: np.ndarray   # (T,) mean cumulative PMs
    empty_stock_curve: np.ndarray     # (T+1,) empty-stock probability

    def validate(self):
        if np.any(np.diff(self.quantiles) < 0):
            raise ValueError("quantiles must be nondecreasing in level")
        parts = sum(self.breakdown.values())
        if abs(parts - self.mean_cost) > 1e-6 * max(1.0, abs(self.mean_cost)):
            raise ValueError("cost breakdown does not sum to the mean")
        if np.any((self.empty_stock_curve < 0) | (self.empty_stock_curve > 1)):
            raise ValueError("empty-stock curve must be a probability")
        if np.any(np.diff(self.pm_cumulative_curve) < 0):
            raise ValueError("cumulative PM curve must be nondecreasing")


def _nearest_rank(sorted_values: np.ndarray, level: float) -> float:
    """Nearest-rank quantile on presorted data, level in percent."""
    Q = sorted_values.size
    rank = int(np.ceil(level / 100.0 * Q))
    return float(sorted_values[max(rank, 1) - 1])


def evaluate_strategy(strategy: Strategy, scenarios, cfg: SystemConfig,
                      project: bool = False) -> EvaluationReport:
    """Score a strategy on the exact dynamics over validation scenarios.

    The caller is expected to pass a binary (projected) strategy; set
    ``project`` to apply the threshold projection here instead.
    """
    if project:
        strategy = project_strategy(strategy, cfg.nu)
    scenarios = np.asarray(scenarios, dtype=float)
    if scenarios.ndim != 3 or scenarios.shape[1:] != (cfg.n, cfg.T):
        raise DimensionError(
            f"scenarios must have shape (Q, {cfg.n}, {cfg.T}), "
            f"got {scenarios.shape}")
    Q = scenarios.shape[0]
    stats = simulate_batch(strategy, scenarios, cfg)
    totals = np.sort(stats.total_cost, kind="stable")
    quantiles = np.array([_nearest_rank(totals, lv)
                          for lv in QUANTILE_LEVELS])
    report = EvaluationReport(
        scenario_count=Q,
        mean_cost=float(np.mean(stats.total_cost)),
        quantile_levels=QUANTILE_LEVELS,
        quantiles=quantiles,
        breakdown={"pm": float(np.mean(stats.pm_cost)),
                   "cm": float(np.mean(stats.cm_cost)),
                   "fo": float(np.mean(stats.fo_cost))},
        total_pm=float(np.mean(stats.pm_count)),
        mean_pm_per_component=float(np.mean(stats.pm_count)) / cfg.n,
        mean_failures_per_component=float(np.mean(stats.failure_count))
        / cfg.n,
        fo_onsets_mean=float(np.mean(stats.fo_onsets)),
        fo_onsets_total=int(np.sum(stats.fo_onsets)),
        fo_steps_mean=float(np.mean(stats.fo_steps)),
        fo_scenarios=int(np.sum(stats.fo_onsets > 0)),
        pm_cumulative_curve=stats.pm_cumulative / Q,
        empty_stock_curve=stats.empty_stock / Q,
    )
    report.validate()
    return report


def report_to_text(report: EvaluationReport) -> str:
    """Human-readable summary, costs also shown in thousands."""
    lines = [
        f"scenarios            {report.scenario_count}",
        f"mean cost            {report.mean_cost:.6g}"
        f"  ({report.mean_cost / 1e3:.6g} k)",
        "quantiles:",
    ]
    for lv, qv in zip(report.quantile_levels, report.quantiles):
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


def report_to_csv(report: EvaluationReport, path):
    """Quantile table plus scalar metrics, one metric per row."""
    rows = [("metric", "value")]
    rows.append(("scenario_count", f"{report.scenario_count}"))
    rows.append(("mean_cost", f"{report.mean_cost:.17g}"))
    for lv, qv in zip(report.quantile_levels, report.quantiles):
        rows.append((f"quantile_{lv}", f"{qv:.17g}"))
    for key, val in report.breakdown.items():
        rows.append((f"mean_{key}_cost", f"{val:.17g}"))
    rows.append(("mean_pm_count", f"{report.total_pm:.17g}"))
    rows.append(("mean_pm_per_component",
                 f"{report.mean_pm_per_component:.17g}"))
    rows.append(("mean_failures_per_component",
                 f"{report.mean_failures_per_component:.17g}"))
    rows.append(("fo_onsets_total", f"{report.fo_onsets_total}"))
    rows.append(("fo_onsets_mean", f"{report.fo_onsets_mean:.17g}"))
    rows.append(("fo_steps_mean", f"{report.fo_steps_mean:.17g}"))
    rows.append(("fo_scenarios", f"{report.fo_scenarios}"))
    with open(path, "w") as fh:
        fh.write("\n".join(",".join(r) for r in rows) + "\n")


def curves_to_csv(report: EvaluationReport, pm_path, stock_path):
    """Plot-ready curve files: cumulative PMs and empty-stock probability."""
    with open(pm_path, "w") as fh:
        fh.write("t,mean_cumulative_pm\n")
        for t, v in enumerate(report.pm_cumulative_curve):
            fh.write(f"{t},{v:.17g}\n")
    with open(stock_path, "w") as fh:
        fh.write("t,empty_stock_probability\n")
        for t, v in enumerate(report.empty_stock_curve):
            fh.write(f"{t},{v:.17g}\n")
