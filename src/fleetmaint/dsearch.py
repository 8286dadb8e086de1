"""Derivative-free minimization over a box, in the spirit of mesh-adaptive
direct search.

The solver repeatedly polls the incumbent along a randomized orthonormal
positive spanning set (columns of a QR-orthogonalized Gaussian matrix and
their negatives) scaled by a mesh size.  Polling is opportunistic: the
first improving trial is accepted immediately.  The mesh is halved after a
full unsuccessful poll and kept after a success.  Trial points falling
outside the box are clipped onto it so the evaluation budget is never
wasted.

Several independent searches can run row-wise in lockstep: given a stack
of m starts, each round hands the objective one trial per row, as an
(m, d) matrix, and gets m values back.  Every row keeps its own generator,
basis, poll order, mesh, incumbent and budget: it is the single-start
search, suspended while the other rows' trials are evaluated, so its
draws and iterates are exactly those of a separate call.  A row that has
stopped is handed its incumbent and not charged.

Everything is driven by seeded generators, so a given (objective, start,
bounds, budget) always returns the same answer.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SearchBudget:
    """Evaluation and mesh limits for one search (one row)."""

    max_evals: int
    seed: int
    initial_mesh: float = 0.25
    min_mesh: float = 1e-9

    def __post_init__(self):
        if self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")
        if not 0 < self.min_mesh <= self.initial_mesh:
            raise ValueError("need 0 < min_mesh <= initial_mesh")


def minimize(objective, x0, bounds, budget):
    """Minimize ``objective`` over the box ``bounds`` starting from ``x0``.

    ``bounds`` is a pair of arrays (lo, hi).  With a start of shape (d,),
    ``objective`` maps a point to a number, ``budget`` is one SearchBudget
    and the result is (best point, best value, evaluations used).  With a
    stack of starts of shape (m, d), ``objective`` maps an (m, d) matrix of
    trials to m values, ``budget`` holds one SearchBudget per row, and the
    result is (best points (m, d), best values (m,), total evaluations
    charged over all rows).
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 2:
        return _lockstep(objective, x0, bounds, list(budget))
    x, f, evals = _lockstep(lambda X: [float(objective(X[0]))], x0[None],
                            bounds, [budget])
    return x[0], float(f[0]), evals


def _lockstep(objective, x0, bounds, budgets):
    m = len(x0)
    if len(budgets) != m:
        raise ValueError(f"need one budget per row, got {len(budgets)} "
                         f"for {m} rows")
    lo, hi = (np.broadcast_to(np.asarray(b, dtype=float), x0.shape)
              for b in bounds)
    searches = [_search(*row) for row in zip(x0, lo, hi, budgets)]
    trials = [next(s) for s in searches]
    results = [None] * m
    while None in results:
        f = np.asarray(objective(np.array(trials)), dtype=float)
        if f.shape != (m,):
            raise ValueError(f"objective returned shape {f.shape} for "
                             f"{m} rows")
        for r, search in enumerate(searches):
            if results[r] is None:
                try:
                    trials[r] = search.send(f[r])
                except StopIteration as stop:
                    results[r] = stop.value
                    trials[r] = stop.value[0]
    best_x, best_f, evals = zip(*results)
    return np.array(best_x), np.array(best_f), sum(evals)


def _search(x0, lo, hi, budget: SearchBudget):
    """One row's search: yields each point to evaluate, is sent its value,
    and returns (best point, best value, evaluations used)."""
    if np.any(hi < lo):
        raise ValueError("empty bounds box")
    if np.any(x0 < lo) or np.any(x0 > hi):
        raise ValueError("start point outside bounds")
    d = x0.size
    scale = hi - lo
    rng = np.random.default_rng(budget.seed)

    best_x = x0.copy()
    best_f = yield best_x
    evals = 1
    mesh = budget.initial_mesh

    while evals < budget.max_evals and mesh >= budget.min_mesh:
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        order = rng.permutation(2 * d)
        for k in order:
            if evals >= budget.max_evals:
                break
            direction = basis[:, k % d] * (1.0 if k < d else -1.0)
            trial = np.clip(best_x + mesh * scale * direction, lo, hi)
            f = yield trial
            evals += 1
            if f < best_f:
                best_x, best_f = trial, f
                break
        else:
            mesh *= 0.5

    return best_x, best_f, evals
