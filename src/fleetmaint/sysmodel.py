"""Fleet dynamics: the failure law, the fleet step kernel and its driver.

State of one component: regime (1 healthy / 0 broken), age (age while
healthy, downtime while broken) and the vector of elapsed times since the
last D undiscarded failures, which drives stock replenishment.  All
components share a single stock of spare parts; broken components are
repaired in index order while spares last.

This module owns the one fleet step kernel (:func:`_component_forward`,
:func:`stock_step_core`), written over three indicator functions, and the
batch driver over it, which takes one set of :class:`Indicators`.
:func:`simulate_batch` passes the hard comparisons, which is the exact
dynamics; :mod:`fleetmaint.relax` passes its ramps.  States are arrays
(regimes, ages, failure records and stock, one column per scenario); the
driver records their history on request, as one (n, T+1, D+2, Q) array
in the decomposition's layout and the (T+1, Q) stock, and that history
is all a single exact trajectory needs.

The batch engine steps a block of scenario columns at a time; a call costs
about as much in numpy dispatch at 20 columns as at a few hundred.  So
:func:`simulate_batch` also takes a (K, n, T) stack of candidate controls
and runs all K·Q (candidate, scenario) columns in one call,
candidate-major, reading each candidate's noises from the shared
(Q, n, T) array.  Columns never mix, so every candidate gets bit for bit
the costs and counts of its own call; a direct search hands its poll
trials over this way (:mod:`fleetmaint.dsearch`).

A call splits its columns into the fewest near-equal blocks of at most
``max(1, BLOCK_CELLS // n)`` columns: 2 048 on the 10-component system,
256 on the 80-component fleet.  The blocks of a single Strategy run
through :func:`parallel_map`, on one worker process per usable core (a
GIL-bound thread per core would hand the GIL over at each of the ~130
numpy calls of a step).  A worker inherits its blocks through the fork
and generates a :class:`ScenarioSet`'s block itself, so a large set is
never held whole; it pickles back the block's columns, and the caller
writes them and adds the step sums over columns in block order, so every
output is bit for bit the same whatever the number of workers.
Single-block calls and stacks stay in the calling process.  Each step
reads a block's noises ``panel[:, :, t].T``, contiguous on the
step-major panels the package makes.  The step kernel forms its
intermediates in place, in its output arrays and one scratch array, with
the same IEEE operations in the same order as the plain expressions in
its comments.  A block computes the failure law once, at the whole ages
0..T of each component, and a step whose ages are all whole looks it up;
a step with a fractional age (a PM on a control in [nu, 1), or a relaxed
step inside a ramp) computes the law itself.
"""
from __future__ import annotations

import os
import pickle
import select
import signal
import sys
from collections import namedtuple
from dataclasses import dataclass
from itertools import islice, repeat, starmap
from typing import Callable, NamedTuple

import numpy as np

from .config import SystemConfig


class DimensionError(ValueError):
    """Strategy / scenario dimensions do not match the configuration."""


#: failure-record entry for "no failure recorded": at distance >= 1 from
#: every elapsed time 0, 1, 2, ..., so that a singleton ramp of sharpness
#: alpha >= 1/2 never takes one for the other
NO_FAILURE = -1.0


# ---------------------------------------------------------------------------
# domain types


@dataclass
class Strategy:
    """Maintenance controls, one row per component, one column per step."""

    controls: np.ndarray   # (n, T), entries in [0, 1]

    def __post_init__(self):
        self.controls = _checked_unit(self.controls, 2, "strategy controls")


@dataclass(frozen=True)
class ScenarioSet:
    """Uniform [0, 1) noise panels, shape (count, n, T), made on demand.

    Scenario q is the stream of ``Philox(key=(seed << 64) + q)``, filled in
    component-major order, so it does not depend on ``count`` and distinct
    seeds in [0, 2**64) never share a stream.
    """

    n: int
    T: int
    count: int
    seed: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")

    @property
    def shape(self):
        return (self.count, self.n, self.T)

    def block(self, lo, hi):
        """Scenarios lo..hi-1 as a step-major (F-ordered) array.

        One generator is rewound to each scenario's key, much cheaper than
        building one per scenario; it fills a C-ordered buffer of 64
        scenarios, since ``Generator.random`` fills contiguous arrays only.
        """
        out = np.empty((hi - lo, self.n, self.T), order="F")
        buf = np.empty((64, self.n, self.T))
        bits = np.random.Philox(key=int(self.seed) << 64)
        gen = np.random.Generator(bits)
        # counter 0, key [0, seed], buffer empty, as plain ints: the state
        # setter reads each entry by index, and a list hands back an int
        # where a numpy array would make a numpy scalar first
        state = bits.state
        state["buffer"] = state["buffer"].tolist()
        state["state"] = {k: v.tolist() for k, v in state["state"].items()}
        key = state["state"]["key"]
        for start in range(lo, hi, len(buf)):
            part = buf[:min(hi - start, len(buf))]
            for q, panel in enumerate(part, start):
                key[0] = q
                bits.state = state
                gen.random((self.n, self.T), out=panel)
            out[start - lo:start - lo + len(part)] = part
        return out


def _checked_unit(u, ndim, what):
    """``u`` as a float array: DimensionError unless it has ``ndim`` axes,
    ValueError unless every entry lies in [0, 1]."""
    u = np.asarray(u, dtype=float)
    if u.ndim != ndim:
        raise DimensionError(f"{what} must have {ndim} axes, "
                             f"got shape {u.shape}")
    # written so that NaN fails it too
    if not np.all((u >= 0) & (u <= 1)):
        raise ValueError(f"{what} must lie in [0, 1]")
    return u


# ---------------------------------------------------------------------------
# failure law


def failure_probability(shape, scale, age, dt):
    """Conditional probability of failing within the next dt given age.

    Computed as (F(age+dt) - F(age)) / (1 - F(age)) with F the Weibull CDF.
    Returns 1 when the denominator degenerates numerically.
    """
    age_arr = np.asarray(age, dtype=float)
    if (age_arr < 0).any():
        raise ValueError("age must be nonnegative")
    # 1 - p = exp(h(age) - h(age + dt)) with h(x) = (x / scale)^shape,
    # formed in p, h1 for h(age + dt) and x for the quotients.  The power
    # and expm1 never write over their own input: np.power can then take
    # another inner loop, whose result differs in the last bit (exponent
    # 0.5 or 2 on a one-element array).  With dt > 0 the argument of expm1
    # is <= 0 or NaN, so it cannot overflow
    p = np.empty(np.broadcast(age_arr, shape, scale, dt).shape)
    x, h1 = np.empty_like(p), np.empty_like(p)
    np.power(np.divide(age_arr, scale, out=x), shape, out=p)
    np.divide(np.add(age_arr, dt, out=x), scale, out=x)
    np.power(x, shape, out=h1)
    np.subtract(p, h1, out=h1)
    np.expm1(h1, out=p)
    np.negative(p, out=p)
    np.copyto(p, 1.0, where=~np.isfinite(p))
    # np.clip(p, 0, 1), keeping a -0.0 as np.clip does
    np.minimum(np.maximum(0.0, p, out=p), 1.0, out=p)
    return float(p) if np.isscalar(age) or age_arr.ndim == 0 else p


def failure_probability_derivative(shape, scale, age, dt, p):
    """d/d(age) of failure_probability, used by the relaxed sensitivities;
    ``p`` is ``failure_probability(shape, scale, age, dt)``."""
    age_arr = np.asarray(age, dtype=float)
    hp0 = shape * np.power(np.maximum(age_arr, 0.0), shape - 1.0) / scale ** shape
    hp1 = shape * np.power(age_arr + dt, shape - 1.0) / scale ** shape
    out = (1.0 - p) * (hp1 - hp0)
    return float(out) if np.isscalar(age) or age_arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# the fleet step kernel


class Indicators(NamedTuple):
    """The three indicator functions the fleet step is written over.

    ``singleton(a, x)`` stands for 1{a}(x), ``nonneg(x)`` for 1[0, inf)(x)
    and ``strict_pos(x)`` for 1(0, inf)(x); each returns float values.
    :data:`HARD` holds the exact comparisons; the relaxation passes its
    piecewise-linear surrogates instead.
    """

    singleton: Callable
    nonneg: Callable
    strict_pos: Callable


def _hard_singleton(a, x):
    return np.equal(x, a).astype(float)


def _hard_nonneg(x):
    return np.greater_equal(x, 0.0).astype(float)


def _hard_strict_pos(x):
    return np.greater(x, 0.0).astype(float)


#: exact indicators: u == nu counts as a PM, w == p as no failure and
#: S == b as a spare left
HARD = Indicators(_hard_singleton, _hard_nonneg, _hard_strict_pos)


def exclusive_cumsum(x):
    """Sum of the rows of ``x`` strictly below each index of axis 0.

    On a fleet's broken indicators this is every ``b_prev``; rows are added
    in index order, as a loop over the components would.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    # np.cumsum(x[:-1], axis=0) row by row: the same additions in the same
    # order, but each one over a contiguous row where the cumsum strides
    # down the columns of a C-ordered array
    out[1:2] = x[:1]
    for i in range(2, len(x)):
        np.add(out[i - 1], x[i - 1], out=out[i])
    return out


def _sum_components(x):
    """The rows of an (n, width) array added in index order: np.add.reduce
    sums a single column pairwise, where a cumsum adds its rows in order."""
    return (np.add.reduce(x, axis=0) if x.shape[1] > 1
            else np.cumsum(x, axis=0)[-1])


_Forward = namedtuple("_Forward", "g b V Vp m p nf one_g E_new A_new I1 I0n "
                                  "c Idel keep record P_new")


def _component_forward(E, A, P, S, b_prev, u, w, shape, scale,
                       cfg: SystemConfig, ind: Indicators, g=None,
                       p=None) -> _Forward:
    """One step of one component, or of a whole fleet: its indicator
    values and outputs; I0n = 1{0}(E_new) is the next step's ``g``.

    ``P`` carries the failure-record axis first (shape (D, ...)); all other
    arguments broadcast to the trailing shape (for a fleet, components
    first and Weibull ``shape``/``scale`` of shape (n, 1)).  ``b_prev`` is
    the count of broken components with lower index, ``g`` 1{0}(E) and
    ``p`` the failure law at the ages ``A`` when the caller has them.
    With :data:`HARD` this is the exact step on integer states;
    complementary conditions are always 1 minus the same indicator, so the
    branch weights of a relaxed step sum to 1.
    Besides the returned fields, the step allocates one scratch array (and
    ``u - nu``, of the controls' shape); the comments give each output as
    the expression whose IEEE operations it performs, in that order up to
    swapping the two operands of a product or a sum.
    """
    delta = NO_FAILURE
    # arrays written in place are made with np.empty at their full shape:
    # on 0-d inputs a ufunc returns a scalar, which takes no out=
    shp = np.broadcast(E, A, S, b_prev, u, w, shape, scale, P[0]).shape
    scratch = np.empty((len(P),) + shp)
    tmp = scratch[0, ...]
    if g is None:
        g = ind.singleton(0.0, E)
    b = b_prev + g
    V = ind.nonneg(np.subtract(S, b, out=tmp))
    Vp = ind.strict_pos(np.subtract(b, S, out=tmp))
    m = ind.nonneg(u - cfg.nu)
    if p is None:
        p = failure_probability(shape, scale, A, cfg.dt)
    nf = ind.nonneg(np.subtract(w, p, out=tmp))
    one_g = 1.0 - g
    # survive = nf * (1 - m): healthy, no PM, no failure
    survive = np.subtract(1.0, m, out=tmp)
    survive *= nf

    # E_new = V * g + (m + survive) * one_g
    E_new = np.add(m, survive, out=np.empty(shp))
    E_new *= one_g
    A_new = np.multiply(V, g, out=np.empty(shp))
    E_new += A_new
    # A_new = ((A + 1) * (Vp * g + survive * one_g) + (1 - Vp) * g
    #          + ((1 - u) * A + 1) * m * one_g)
    survive *= one_g
    np.multiply(Vp, g, out=A_new)
    A_new += survive
    A_new *= np.add(A, 1.0, out=tmp)
    np.subtract(1.0, Vp, out=tmp)
    tmp *= g
    A_new += tmp
    np.subtract(1.0, u, out=tmp)
    tmp *= A
    tmp += 1.0
    tmp *= m
    tmp *= one_g
    A_new += tmp

    # failure-record update, switched by c = 1{healthy now, broken next}
    I1 = ind.singleton(1.0, E)
    I0n = ind.singleton(0.0, E_new)
    c = I1 * I0n
    Idel = ind.singleton(delta, P)
    IdelD = Idel[-1]
    aged = np.add(P, 1.0, out=scratch)
    # keep = shifted + delta * Idel with shifted = aged * (1 - Idel)
    keep = np.subtract(1.0, Idel, out=np.empty_like(scratch))
    keep *= aged
    record = np.multiply(keep, IdelD, out=np.empty_like(scratch))
    P_new = np.multiply(Idel, delta, out=np.empty_like(scratch))
    keep += P_new
    # record = shifted * IdelD, then record[1:] += delta * Idel[:-1] and
    # record[:-1] += aged[1:] * (1 - IdelD)
    record[1:] += P_new[:-1]
    aged[1:] *= np.subtract(1.0, IdelD, out=P_new[0, ...])
    record[:-1] += aged[1:]
    # P_new = keep * (1 - c) + record * c
    np.multiply(keep, np.subtract(1.0, c, out=tmp), out=P_new)
    P_new += np.multiply(record, c, out=scratch)
    return _Forward(g, b, V, Vp, m, p, nf, one_g, E_new, A_new, I1, I0n, c,
                    Idel, keep, record, P_new)


def stock_step_core(E_all, P_all, S, cfg: SystemConfig, ind: Indicators,
                    g=None):
    """Stock update: ordered parts arrive, repairs consume spares.

    ``E_all`` has shape (n, ...), ``P_all`` shape (n, D, ...); ``g`` is
    1{0}(E_all) when the caller has it already.  The min operator is
    continuous and is kept exact.
    """
    arrivals = ind.singleton(cfg.D - 1.0, P_all)
    if g is None:
        g = ind.singleton(0.0, E_all)
    return (S + np.add.reduce(arrivals, axis=(0, 1))
            - np.minimum(S, np.add.reduce(g, axis=0)))


# ---------------------------------------------------------------------------
# batch engine


@dataclass
class BatchStats:
    """Per-scenario aggregates of a batch simulation.

    On a relaxed run the costs are relaxed costs and the event counts are
    sums of surrogate values.
    """

    pm_cost: np.ndarray        # (Q,)
    cm_cost: np.ndarray
    fo_cost: np.ndarray
    total_cost: np.ndarray
    pm_count: np.ndarray       # (Q,) PM events actually performed
    failure_count: np.ndarray
    fo_onsets: np.ndarray      # forced-outage onset events per scenario
    fo_steps: np.ndarray       # steps spent in forced outage
    # per-step curves summed over the scenarios, None for a stack
    pm_cumulative: np.ndarray | None = None  # (T,) cumulative PM events
    empty_stock: np.ndarray | None = None    # (T+1,) stock == 0 count
    # full state history, only kept on request: the components' states
    # (E, A, P^1..P^D), laid out as the decomposition's bar trajectories
    states: np.ndarray | None = None         # (n, T+1, D+2, Q)
    stock: np.ndarray | None = None          # (T+1, Q)


#: most component-scenario cells (n × columns) one engine block steps, a
#: Strategy's or a stack's: it bounds the step temporaries' and a
#: ScenarioSet panel's memory, and keeps numpy's per-call dispatch a small
#: share of a step.  In one-core width sweeps at n = 10, 40 and 80 about
#: 20 480 cells was the fastest block, or within the host's noise of it
BLOCK_CELLS = 20480


def _usable_cores() -> int:
    """CPU cores this process may run on: 1 without ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


_in_worker = False      # True in a worker of a parallel_map


def parallel_map(fn, *iterables):
    """``map(fn, *iterables)`` in task order on ``min(_usable_cores(),
    tasks)`` processes forked by ``os.fork``, each sent its next task as it
    pickles back a result and killed and reaped however the map ends, or
    in this process in a worker or on one usable core (no ``os.fork``).  A
    worker reads its tasks from its forked copy of the task list, so no
    task is pickled; a task's exception is raised here, and RuntimeError
    for a worker that ends without a result.  The map stays on
    ``os.fork`` after threaded BLAS calls: OpenBLAS's ``pthread_atfork``
    handler stops its thread pool before each fork, and a worker starts
    its own at its first threaded call.  Python 3.12 and later warn
    (DeprecationWarning) at a fork only while another thread is alive,
    such as one a caller started; the stopped pool is not."""
    global _in_worker
    tasks = list(zip(*iterables))
    workers = min(_usable_cores(), len(tasks))
    todo, results, running = iter(range(len(tasks))), {}, {}
    try:
        if workers < 2 or _in_worker:
            yield from starmap(fn, tasks)
            return
        for stream in (sys.stdout, sys.stderr):     # no output to copy
            stream.flush()
        for task in islice(todo, workers):
            (inbox, send), (receive, outbox) = os.pipe(), os.pipe()
            os.write(send, task.to_bytes(4, "little"))
            if (pid := os.fork()) == 0:     # the worker, until it ends
                _in_worker = True
                os.close(send)      # EOF on inbox once the parent is gone
                try:
                    out = os.fdopen(outbox, "wb")
                    while index := os.read(inbox, 4):
                        args = tasks[int.from_bytes(index, "little")]
                        try:
                            reply = True, fn(*args)
                        except Exception as exc:
                            reply = False, exc
                        pickle.dump(reply, out, pickle.HIGHEST_PROTOCOL)
                        out.flush()
                finally:
                    os._exit(1)
            os.close(inbox)
            os.close(outbox)
            running[os.fdopen(receive, "rb")] = [pid, send, task]
        for index in range(len(tasks)):
            while index not in results:
                for reader in select.select(list(running), [], [])[0]:
                    pid, send, task = worker = running[reader]
                    try:
                        ok, results[task] = pickle.load(reader)
                    except (EOFError, pickle.UnpicklingError):
                        worker[0], status = None, os.waitpid(pid, 0)[1]
                        raise RuntimeError(f"worker {pid} ended without a "
                                           f"result: wait status {status}")
                    if not ok:
                        raise results[task]
                    worker[2] = next(todo, None)
                    if worker[2] is not None:
                        os.write(send, worker[2].to_bytes(4, "little"))
            yield results.pop(index)
    finally:
        for reader, (pid, send, _) in running.items():
            os.close(send)
            reader.close()
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _tabled_law(table, rows, A):
    """The failure law at the (n, width) ages ``A`` from a block's table,
    or None unless every age is whole.

    Ages start at 0 and rise by at most 1 a step, so whole ages lie in
    0..T; a PM on a control in [nu, 1), or a ramp, leaves a fraction.
    The index array dies with the call, before the step makes its own
    arrays.
    """
    ages = A.astype(np.intp)
    if (ages == A).all():
        return table.take(np.add(ages, rows, out=ages))
    return None


def _run_block(u, noises, cfg: SystemConfig, ind: Indicators,
               record_states: bool, lo: int, hi: int):
    """Step scenario columns lo..hi-1 of a call on the (K, n, T) controls
    ``u``, with the indicators ``ind``; steps on whole ages read the
    failure law from a table of the block.

    ``noises`` is the call's ScenarioSet, whose scenarios lo..hi-1 a block
    of one candidate generates, or its (Q, n, T) array; for K > 1 column c
    is candidate c // Q on scenario c % Q.  Returns the block's columns of
    the per-scenario sums (rows: CM cost, forced-outage cost, PM count,
    failure count, outage onsets, outage steps), its sums over columns of
    the PM events (T,) and of the empty stocks (T+1,) of each step, and its
    (n, T+1, D+2, width) states and (T+1, width) stock, or None.
    """
    K, n, T, D = len(u), cfg.n, cfg.T, cfg.D
    width = hi - lo
    beta = cfg.discount(np.arange(T + 1))
    shape, scale = cfg.weibull_shape[:, None], cfg.weibull_scale[:, None]
    if K == 1:
        # one candidate: its controls broadcast over the block
        cand = np.zeros(1, dtype=int)
        panel = (noises.block(lo, hi) if isinstance(noises, ScenarioSet)
                 else noises[lo:hi])
    else:
        cand, scen = np.divmod(np.arange(lo, hi), len(noises))
    # the failure law at the whole ages 0..T, row i at i·(T+1); np.power
    # may take another inner loop on a one-element array, whose result can
    # differ in the last bit, so such a step computes its own
    table = None
    if n * width > 1:
        table = failure_probability(shape, scale, np.arange(T + 1.0)[None],
                                    cfg.dt).ravel()
        rows = np.arange(0, n * (T + 1), T + 1)[:, None]
    sums = np.zeros((6, width))
    cm_cost, fo_cost, pm_count, failure_count, fo_onsets, fo_steps = sums
    pm_steps, empty = np.zeros(T), np.zeros(T + 1)
    states = None
    if record_states:
        X, stock = np.empty((n, T + 1, D + 2, width)), np.empty((T + 1, width))
        states = X, stock
    E = np.ones((n, width))
    A = np.zeros((n, width))
    P = np.full((n, D, width), NO_FAILURE)
    S = np.full(width, float(cfg.s_init))
    fo_prev = np.zeros(width)
    g = ind.singleton(0.0, E)
    for t in range(T + 1):
        if record_states:
            X[:, t, 0], X[:, t, 1], X[:, t, 2:], stock[t] = E, A, P, S
        # np.add.reduce is np.sum without its Python-level dispatch,
        # which on small batches costs as much as the arithmetic
        empty[t] = np.add.reduce(S == 0)
        cm_cost += _sum_components(
            beta[t] * cfg.C_C[:, None] * (g * ind.singleton(0.0, A)))
        fo_now = np.minimum(1.0, _sum_components(g * ind.strict_pos(A)))
        fo_cost += beta[t] * cfg.C_F * fo_now
        fo_steps += fo_now
        fo_onsets += fo_now * (1.0 - fo_prev)
        fo_prev = fo_now
        if t == T:
            break
        p = None if table is None else _tabled_law(table, rows, A)
        f = _component_forward(
            E, A, P.transpose(1, 0, 2), S, exclusive_cumsum(g),
            u[cand, :, t].T,
            panel[:, :, t].T if K == 1 else noises[scen, :, t].T,
            shape, scale, cfg, ind, g, p)
        S = stock_step_core(E, P, S, cfg, ind, g)
        pm = _sum_components(f.m * f.one_g)
        pm_count += pm
        pm_steps[t] = np.add.reduce(pm)
        failure_count += _sum_components(f.c)
        # the step's 1{0}(E_new) is the next step's broken indicator
        E, A, P, g = f.E_new, f.A_new, f.P_new.transpose(1, 0, 2), f.I0n
        # free the step's other intermediates before the next step
        # makes its own: two steps alive at once take a 20 480-cell
        # block from 6.1 to 9.3 MB of added peak resident set
        del f
    return sums, pm_steps, empty, states


def _simulate(controls, noises, cfg: SystemConfig, record_states: bool,
              ind: Indicators) -> BatchStats:
    """Batch driver shared by the exact and the relaxed engines.

    ``controls`` is a Strategy or a (K, n, T) stack of candidate controls,
    each run on all Q scenarios.  Scenario columns are candidate-major
    (column k·Q + q is candidate k on scenario q) and are walked by
    :func:`_run_block` in the fewest near-equal blocks of at most
    ``max(1, BLOCK_CELLS // n)`` columns, every block with the indicators
    ``ind``: a Strategy's through :func:`parallel_map`, a stack's one
    block after another in this process.  Costs use fixed-order summation
    over t and over the components at every block width (the stock's
    counts, whole in the exact dynamics, keep numpy's order), and columns
    never mix, so only a relaxed PM curve, a sum of fractional events over
    columns, depends on the blocking; a stack's fields carry a leading K
    axis, and row k equals candidate k's own run, but for the curves,
    which a stack leaves at None.
    """
    stacked = not isinstance(controls, Strategy)
    u = (_checked_unit(controls, 3, "stacked controls") if stacked
         else controls.controls[None])
    if u.shape[1:] != (cfg.n, cfg.T):
        raise DimensionError(
            f"strategy must have shape {(cfg.n, cfg.T)}, got {u.shape[1:]}")
    if not isinstance(noises, ScenarioSet):     # a set is drawn in [0, 1)
        noises = _checked_unit(noises, 3, "noises")
    if noises.shape[1:] != (cfg.n, cfg.T):
        raise DimensionError(
            f"noises must have shape (Q, {cfg.n}, {cfg.T}), got {noises.shape}")
    if stacked and isinstance(noises, ScenarioSet):
        noises = noises.block(0, noises.count)    # a stack's Q is small
    K, Q = len(u), noises.shape[0]
    if K * Q == 0:
        raise DimensionError(f"nothing to simulate: {K} candidates on "
                             f"{Q} scenarios")
    T = cfg.T
    beta = cfg.discount(np.arange(T + 1))

    pm_cost = np.repeat([float(np.sum(beta[:T][None, :] * cfg.C_P[:, None]
                                      * uk ** 2)) for uk in u], Q)
    sums = np.zeros((6, K * Q))
    pm_steps, empty_stock = np.zeros(T), np.zeros(T + 1)
    if record_states:
        X = np.empty((cfg.n, T + 1, cfg.D + 2, K * Q))
        stock = np.empty((T + 1, K * Q))

    # the fewest near-equal blocks of at most BLOCK_CELLS // n columns: a
    # short remainder would cost a Strategy a worker of its own
    count = -(-K * Q // max(1, BLOCK_CELLS // cfg.n))
    cuts = [j * K * Q // count for j in range(count + 1)]
    los, his = cuts[:-1], cuts[1:]
    # a stack's blocks stay here: forks would cost more CPU than they save
    parts = (map if stacked else parallel_map)(
        _run_block, repeat(u), repeat(noises), repeat(cfg), repeat(ind),
        repeat(record_states), los, his)
    # write each block's columns, and add a Strategy's step sums in block
    # order as a serial run does; ``parts`` leads the zip, so a parallel
    # map runs to its end and reaps its workers
    for (block_sums, block_pm, block_empty, block_states), lo, hi \
            in zip(parts, los, his):
        sums[:, lo:hi] = block_sums
        if not stacked:
            pm_steps += block_pm
            empty_stock += block_empty
        if record_states:
            X[..., lo:hi], stock[:, lo:hi] = block_states

    def out(x):
        """A stack's (..., K·Q) columns as (K, ..., Q); a Strategy's as
        they are."""
        if not stacked:
            return x
        return np.moveaxis(x.reshape(x.shape[:-1] + (K, Q)), -2, 0)

    cm_cost, fo_cost, pm_count, failure_count, fo_onsets, fo_steps = sums
    stats = BatchStats(
        pm_cost=out(pm_cost), cm_cost=out(cm_cost), fo_cost=out(fo_cost),
        total_cost=out(pm_cost + cm_cost + fo_cost),
        pm_count=out(pm_count), failure_count=out(failure_count),
        fo_onsets=out(fo_onsets), fo_steps=out(fo_steps))
    if not stacked:
        stats.pm_cumulative = np.cumsum(pm_steps)
        stats.empty_stock = empty_stock
    if record_states:
        stats.states, stats.stock = out(X), out(stock)
    return stats


def simulate_batch(strategy, noises: np.ndarray, cfg: SystemConfig,
                   record_states: bool = False) -> BatchStats:
    """Simulate the exact dynamics for a batch of scenarios.

    ``strategy`` is a Strategy or a (K, n, T) stack of candidate controls
    (entries in [0, 1]) and ``noises`` a (Q, n, T) array or a
    :class:`ScenarioSet`.  A stack runs every candidate on the same Q
    scenarios, without copying the noises; its stats have no curves, and
    every other field gets a leading K axis whose row k equals candidate
    k's own run.  No candidates or no scenarios raise DimensionError.
    This is the fleet step kernel with :data:`HARD` indicators.
    """
    return _simulate(strategy, noises, cfg, record_states, HARD)
