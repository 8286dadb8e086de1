"""Derivative-free minimization over a box, in the spirit of mesh-adaptive
direct search.

The solver repeatedly polls the incumbent along a randomized orthonormal
positive spanning set (columns of a QR-orthogonalized Gaussian matrix and
their negatives) scaled by a mesh size.  Polling is opportunistic: the
first improving trial in poll order is accepted.  The mesh is halved after
a full unsuccessful poll and kept after a success.  Trial points falling
outside the box are clipped onto it so the evaluation budget is never
wasted.

The objective is a batch function: it maps a (K, d) matrix of trials to
their K values.  A single-start search hands each poll's trials over in
chunks of 1, 2, 4, ... trials, each bounded by the trials left in the poll,
by the budget left and by an optional cap, and accepts the first improving
trial of a chunk (the opportunistic poll of Audet & Dennis, SIAM J. Optim.
17(1), 2006).
It charges the trials up to and including that one, or the whole chunk if
none improves; the values after it are discarded and not charged.  The
draws and the iterates are those of the one-trial-at-a-time poll, and the
doubling keeps the uncharged trials below half of those evaluated, while
a poll of hundreds of trials costs a handful of batched calls.

Several independent searches can run row-wise in lockstep: given a stack
of m starts, each round hands the objective one chunk of trials per row,
as an (m, K, d) stack, and gets (m, K) values back.  Every row keeps its
own generator, basis, poll order, mesh, incumbent, budget and chunk size:
it is the single-start search, suspended while the other rows' trials are
evaluated, so its draws, iterates and charges are exactly those of a
separate call; a single start runs as the lockstep of one row.  A row's
chunks double 1, 2, 4, ... within a poll up to the caller's cap; K is the
longest chunk among the live rows, a shorter chunk is padded with copies
of its last trial and a row that has stopped with its incumbent, and
padded values are discarded and not charged.  The cap
lets the caller size a round by the work per trial.  The decomposition's
component subproblems (``appdecomp``) are dispatch-bound on the
10-component system with 20 scenarios: a round with K trials per row
costs 10.3 ms per K at K = 1, 2.9 ms at K = 5 and 2.5 ms at K = 10
(2 cores).  On the 80-component fleet with 50 scenarios a round is mostly
compute, 47.6 ms per K at K = 1 and 35.9 ms at K = 2, and the cap keeps
one trial per row there.

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


def minimize(objective, x0, bounds, budget, max_chunk=None):
    """Minimize ``objective`` over the box ``bounds`` starting from ``x0``.

    ``bounds`` is a pair of arrays (lo, hi).  With a start of shape (d,),
    ``objective`` maps a (K, d) matrix of trials to K values, ``budget``
    is one SearchBudget and the result is (best point, best value,
    evaluations charged).  With a stack of starts of shape (m, d),
    ``objective`` maps an (m, K, d) stack of trials, a chunk per row, to
    (m, K) values, ``budget`` holds one SearchBudget per row, and the
    result is (best points (m, d), best values (m,), total evaluations
    charged over all rows).  ``max_chunk`` caps the trials of one chunk;
    None leaves the doubling bounded only by the poll and the budget.
    """
    x0 = np.asarray(x0, dtype=float)
    if max_chunk is not None and max_chunk < 1:
        raise ValueError("max_chunk must be >= 1")
    if x0.ndim == 2:
        return _lockstep(objective, x0, bounds, list(budget), max_chunk)
    if x0.ndim != 1:
        raise ValueError(f"start must have shape (d,) or (m, d), "
                         f"got {x0.shape}")
    # the one-row view of the lockstep
    x, f, evals = _lockstep(lambda X: _values(objective, X[0])[None],
                            x0[None], bounds, [budget], max_chunk)
    return x[0], float(f[0]), evals


def _box(bounds, shape):
    return (np.broadcast_to(np.asarray(b, dtype=float), shape)
            for b in bounds)


def _values(objective, X):
    f = np.asarray(objective(X), dtype=float)
    if f.shape != X.shape[:-1]:
        raise ValueError(f"objective returned shape {f.shape} for "
                         f"trials of shape {X.shape}")
    return f


def _lockstep(objective, x0, bounds, budgets, max_chunk):
    m, d = x0.shape
    if len(budgets) != m:
        raise ValueError(f"need one budget per row, got {len(budgets)} "
                         f"for {m} rows")
    lo, hi = _box(bounds, x0.shape)
    searches = [_search(*row, max_chunk)
                for row in zip(x0, lo, hi, budgets)]
    chunks = [next(s) for s in searches]
    results = [None] * m
    while None in results:
        K = max(len(c) for c, res in zip(chunks, results) if res is None)
        trials = np.empty((m, K, d))
        for r, c in enumerate(chunks):
            trials[r, :len(c)] = c
            trials[r, len(c):] = c[-1]
        f = _values(objective, trials)
        for r, search in enumerate(searches):
            if results[r] is None:
                try:
                    chunks[r] = search.send(f[r, :len(chunks[r])])
                except StopIteration as stop:
                    results[r] = stop.value
                    chunks[r] = stop.value[0][None]
    best_x, best_f, evals = zip(*results)
    return np.array(best_x), np.array(best_f), sum(evals)


def _search(x0, lo, hi, budget: SearchBudget, max_chunk):
    """One search: yields each chunk of trials to evaluate, a (c, d)
    matrix, is sent their c values, and returns (best point, best value,
    evaluations charged).  Chunks double within a poll up to ``max_chunk``
    trials (no cap when None)."""
    if np.any(hi < lo):
        raise ValueError("empty bounds box")
    if np.any(x0 < lo) or np.any(x0 > hi):
        raise ValueError("start point outside bounds")
    d = x0.size
    cap = 2 * d if max_chunk is None else max_chunk   # a poll's trials
    scale = hi - lo
    rng = np.random.default_rng(budget.seed)

    best_x = x0.copy()
    best_f = (yield best_x[None])[0]
    evals = 1
    mesh = budget.initial_mesh

    while evals < budget.max_evals and mesh >= budget.min_mesh:
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        order = rng.permutation(2 * d)
        step = mesh * scale
        polled, size, improved = 0, 1, False
        while polled < 2 * d and evals < budget.max_evals and not improved:
            ks = order[polled:polled + min(size, budget.max_evals - evals)]
            directions = basis[:, ks % d].T * np.where(ks < d, 1.0,
                                                       -1.0)[:, None]
            trials = np.clip(best_x + step * directions, lo, hi)
            f = yield trials
            better = np.flatnonzero(f < best_f)
            if better.size:
                j = int(better[0])
                best_x, best_f, improved = trials[j], f[j], True
                evals += j + 1
            else:
                evals += len(ks)
            polled += len(ks)
            size = min(2 * size, cap)
        if not improved:
            mesh *= 0.5

    return best_x, best_f, evals
