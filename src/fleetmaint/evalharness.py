"""Scenario generation, sample-average objectives and strategy evaluation.

Scenarios are uniform noise panels drawn from a counter-based generator
keyed per (seed, scenario index), so a given scenario is the same whatever
the batch size and scenario sets built from different seeds are disjoint by
construction.  A scenario set is a :class:`~fleetmaint.sysmodel.ScenarioSet`,
which the engine generates block by block, or its materialized panel from
:func:`generate_scenarios`.  Panels are stored step-major (F-ordered), so
the (Q, n) noises of one step are contiguous: the engine reads one step of
a block at a time.  Optimized strategies are projected to {0, 1} controls
and then always scored on the exact dynamics, whichever surrogate produced
them; that keeps the comparison between optimizers fair.

The evaluation report mirrors the usual study tables: mean discounted cost
with quantiles, a cost breakdown, event counts, and the plot-ready curves
(cumulative preventive maintenances per step, empty-stock probability per
step).  This module builds the report as values; ``cli`` writes it out.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .sysmodel import ScenarioSet, Strategy, simulate_batch


QUANTILE_LEVELS = (1, 5, 25, 50, 75, 95, 99)


def generate_scenarios(n: int, T: int, count: int, seed: int) -> np.ndarray:
    """The whole :class:`~fleetmaint.sysmodel.ScenarioSet` ``(n, T, count,
    seed)`` as one step-major (count, n, T) array."""
    return ScenarioSet(n, T, count, seed).block(0, count)


def saa_objective(strategy, scenarios, cfg: SystemConfig):
    """Mean total discounted cost of ``strategy`` over the scenario set (an
    array or a ScenarioSet), on the exact dynamics.

    A Strategy gives a float; a (K, n, T) stack of candidate controls gives
    their K values, from one batch run, each bit-identical to the
    candidate's own value.
    """
    stats = simulate_batch(strategy, scenarios, cfg)
    if isinstance(strategy, Strategy):
        return float(np.mean(stats.total_cost))
    return np.mean(stats.total_cost, axis=1)


def project_strategy(strategy: Strategy, nu: float) -> Strategy:
    """Round fractional controls to the binary policy they stand for.

    An entry at or above the renewal threshold becomes a full PM (1), the
    rest become no-ops (0).  Idempotent.
    """
    return Strategy(np.where(strategy.controls >= nu, 1.0, 0.0))


@dataclass
class EvaluationReport:
    """Exact-dynamics scores of one strategy on a validation scenario set."""

    scenario_count: int
    mean_cost: float
    quantiles: np.ndarray          # at QUANTILE_LEVELS
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


def evaluate_strategy(strategy: Strategy, scenarios,
                      cfg: SystemConfig) -> EvaluationReport:
    """Score a strategy on the exact dynamics over validation scenarios,
    an array or a ScenarioSet.

    The caller is expected to pass a binary (projected) strategy, see
    :func:`project_strategy`.
    """
    stats = simulate_batch(strategy, scenarios, cfg)
    Q = stats.total_cost.size
    totals = np.sort(stats.total_cost, kind="stable")
    quantiles = np.array([_nearest_rank(totals, lv)
                          for lv in QUANTILE_LEVELS])
    report = EvaluationReport(
        scenario_count=Q,
        mean_cost=float(np.mean(stats.total_cost)),
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
