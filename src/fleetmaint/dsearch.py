"""Derivative-free minimization over a box, in the spirit of mesh-adaptive
direct search.

A search repeatedly polls the incumbent along a randomized orthonormal
positive spanning set (columns of a QR-orthogonalized Gaussian matrix and
their negatives) scaled by a mesh size, which starts at ``INITIAL_MESH``
times the box width.  Polling is opportunistic: the first improving trial
in poll order is accepted.  The mesh is halved after a full unsuccessful
poll and kept after a success; the search stops when its budget is spent
or its mesh falls below ``MIN_MESH``.  Trial points falling outside the
box are clipped onto it so the evaluation budget is never wasted.

``minimize`` runs m independent searches row-wise in lockstep from an
(m, d) stack of starts.  Each round hands the objective one chunk of
trials per row, as an (m, K, d) stack, and gets (m, K) values back, or
those values and (m, K, ...) states of the trials, of which each row keeps
its incumbent's (the decomposition's relaxed trajectories).  Every
row keeps its own generator, basis, poll order, mesh, incumbent, budget
and chunk size: its draws, iterates and charges are exactly those of a
search run on its own.  Within a poll a row's chunks hold 1, 2, 4, ...
trials, or the caller's cap from the poll's first trial, each bounded by
the trials left in the poll and by the budget left.  No trial depends on
the start point's value, which takes the first slot of the first chunk.
The row accepts the first improving trial of a chunk (the opportunistic
poll of Audet & Dennis, SIAM J. Optim. 17(1), 2006).  It charges the
trials up to and including that one, or the whole chunk if none
improves; the values after it are discarded and not charged.  The draws
and the iterates are those of the one-trial-at-a-time poll.  Uncapped,
the doubling keeps the uncharged trials below half of those evaluated,
while a poll of hundreds of trials costs a handful of batched calls;
capped, at most cap - 1 trials of a successful poll go uncharged.  K is
the longest chunk among the live rows; a shorter chunk is padded with
copies of its last trial and a row that has stopped with its incumbent,
and padded values are discarded and not charged.

The cap lets the caller size a round by the work per trial: where a
round of one trial per row is dispatch-bound, a larger cap spreads each
call's fixed cost over more trials; where a round is mostly compute, a
cap of one wastes no work on trials after a success.

Everything is driven by seeded generators, so a given (objective, starts,
bounds, budget, seeds) always returns the same answer.
"""
import numpy as np

#: mesh of a search's first poll, as a fraction of the box width
INITIAL_MESH = 0.25
#: a search stops once a failed poll halves its mesh below this
MIN_MESH = 1e-9


def minimize(objective, x0, bounds, max_evals, seeds, max_chunk=None):
    """Minimize ``objective`` over the box ``bounds`` from each row of ``x0``.

    ``x0`` is an (m, d) stack of starts and ``bounds`` a pair of arrays
    (lo, hi).  ``objective`` maps an (m, K, d) stack of trials, a chunk
    per row, to (m, K) values, or to those values and (m, K, ...) states.
    Row r charges at most ``max_evals`` evaluations and draws from
    ``seeds[r]``.  Returns (best points (m, d), best values (m,), total
    evaluations charged over all rows), and the best points' states.
    ``max_chunk`` is a capped row's chunk size, the start point included;
    None leaves the doubling bounded only by the poll and the budget.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 2:
        raise ValueError(f"starts must have shape (m, d), got {x0.shape}")
    m, d = x0.shape
    if max_evals < 1:
        raise ValueError("max_evals must be >= 1")
    if len(seeds) != m:
        raise ValueError(f"need one seed per row, got {len(seeds)} "
                         f"for {m} rows")
    if max_chunk is not None and max_chunk < 1:
        raise ValueError("max_chunk must be >= 1")
    lo, hi = (np.broadcast_to(np.asarray(b, dtype=float), x0.shape)
              for b in bounds)
    searches = [_search(*row, max_evals, max_chunk)
                for row in zip(x0, lo, hi, seeds)]
    chunks = [next(s) for s in searches]
    results = [None] * m
    while None in results:
        K = max(len(c) for c, res in zip(chunks, results) if res is None)
        trials = np.empty((m, K, d))
        for r, c in enumerate(chunks):
            trials[r, :len(c)] = c
            trials[r, len(c):] = c[-1]
        f = objective(trials)
        with_states = isinstance(f, tuple)
        f, states = f if with_states else (f, np.empty((m, K, 0)))
        f = np.asarray(f, dtype=float)
        if f.shape != (m, K):
            raise ValueError(f"objective returned shape {f.shape} for "
                             f"trials of shape {trials.shape}")
        for r, search in enumerate(searches):
            if results[r] is None:
                try:
                    chunks[r] = search.send((f[r, :len(chunks[r])],
                                             states[r]))
                except StopIteration as stop:
                    results[r] = stop.value
                    chunks[r] = stop.value[0][None]
        del states      # each row copied what it keeps
    best_x, best_f, evals, best_s = zip(*results)
    out = np.array(best_x), np.array(best_f), sum(evals)
    return out + (np.array(best_s),) if with_states else out


def _search(x0, lo, hi, seed, max_evals, max_chunk):
    """One search: yields each chunk of trials to evaluate, a (c, d)
    matrix, is sent their c values and states, and returns (best point,
    best value, evaluations charged, a copy of the best point's states).
    A poll's chunks double from 1 trial, or hold ``max_chunk`` when given;
    the start point leads the first chunk."""
    if not np.all(np.isfinite(lo) & np.isfinite(hi) & (lo <= hi)):
        raise ValueError("bounds must be finite, with lo <= hi")
    if not np.all((lo <= x0) & (x0 <= hi)):    # a NaN start fails it too
        raise ValueError("start point outside bounds")
    d = x0.size
    first, cap = (1, 2 * d) if max_chunk is None else (max_chunk, max_chunk)
    scale = hi - lo
    rng = np.random.default_rng(seed)

    best_x, best_f, best_s = x0.copy(), None, None
    if max_evals == 1:
        f, states = yield best_x[None]
        if np.isnan(f[0]):
            raise ValueError("objective is NaN at the start point")
        return best_x, f[0], 1, states[0].copy()
    evals, mesh = 1, INITIAL_MESH     # the start point is charged ahead

    while evals < max_evals and mesh >= MIN_MESH:
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        order = rng.permutation(2 * d)
        step = mesh * scale
        polled, size, improved = 0, first, False
        while polled < 2 * d and evals < max_evals and not improved:
            lead = best_f is None         # the first chunk leads with x0
            ks = order[polled:polled + min(size - lead, max_evals - evals)]
            directions = basis[:, ks % d].T * np.where(ks < d, 1.0,
                                                       -1.0)[:, None]
            trials = np.clip(best_x + step * directions, lo, hi)
            f, states = yield (np.vstack((best_x[None], trials)) if lead
                               else trials)
            if lead:
                best_f, best_s, f = f[0], states[0].copy(), f[1:]
                if np.isnan(best_f):    # no trial can beat it
                    raise ValueError("objective is NaN at the start point")
            better = np.flatnonzero(f < best_f)
            if better.size:
                j = int(better[0])
                best_x, best_f, improved = trials[j], f[j], True
                best_s = states[j + lead].copy()
                evals += j + 1
            else:
                evals += len(ks)
            del states          # no view of the round outlives it
            polled += len(ks)
            size = min(2 * size, cap)
        if not improved:
            mesh *= 0.5

    return best_x, best_f, evals, best_s
