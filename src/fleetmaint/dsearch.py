"""Derivative-free minimization over a box, in the spirit of mesh-adaptive
direct search.

The solver repeatedly polls the incumbent along a randomized orthonormal
positive spanning set (columns of a QR-orthogonalized Gaussian matrix and
their negatives) scaled by a mesh size.  Polling is opportunistic: the
first improving trial is accepted immediately.  The mesh is halved after a
full unsuccessful poll and kept after a success.  Trial points falling
outside the box are clipped onto it so the evaluation budget is never
wasted.

Everything is driven by a single seeded generator, so a given (objective,
start, bounds, budget) always returns the same answer.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SearchBudget:
    """Evaluation and mesh limits for one minimize call."""

    max_evals: int
    seed: int
    initial_mesh: float = 0.25
    min_mesh: float = 1e-9

    def __post_init__(self):
        if self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")
        if not 0 < self.min_mesh <= self.initial_mesh:
            raise ValueError("need 0 < min_mesh <= initial_mesh")


def minimize(objective, x0, bounds, budget: SearchBudget):
    """Minimize ``objective`` over the box ``bounds`` starting from ``x0``.

    ``bounds`` is a pair of arrays (lo, hi).  Returns (best point, best
    value, evaluations used).
    """
    x0 = np.asarray(x0, dtype=float)
    lo, hi = (np.asarray(b, dtype=float) for b in bounds)
    lo, hi = np.broadcast_to(lo, x0.shape).copy(), \
        np.broadcast_to(hi, x0.shape).copy()
    if np.any(hi < lo):
        raise ValueError("empty bounds box")
    if np.any(x0 < lo) or np.any(x0 > hi):
        raise ValueError("start point outside bounds")
    d = x0.size
    scale = hi - lo
    rng = np.random.default_rng(budget.seed)

    best_x = x0.copy()
    best_f = float(objective(best_x))
    evals = 1
    mesh = budget.initial_mesh

    while evals < budget.max_evals and mesh >= budget.min_mesh:
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        order = rng.permutation(2 * d)
        success = False
        for k in order:
            if evals >= budget.max_evals:
                break
            direction = basis[:, k % d] * (1.0 if k < d else -1.0)
            trial = np.clip(best_x + mesh * scale * direction, lo, hi)
            f = float(objective(trial))
            evals += 1
            if f < best_f:
                best_x, best_f = trial, f
                success = True
                break
        if not success:
            mesh *= 0.5

    return best_x, best_f, evals
