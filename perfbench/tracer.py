"""Span tracing of the package's layers, installed from outside the package.

``Tracer.install`` wraps every public function of the traced modules and
rebinds the wrapper wherever the function is looked up, including names
bound with ``from ... import`` (``evalharness.simulate_batch``,
``appdecomp.minimize``, ``cli.minimize``).  Each call is a span; the tracer
keeps, per span name, the call count, the busy time and the self time (busy
minus the spans directly below it), and a few raw spans that the derived
metrics need.

Pool workers are forked with the wrappers in place.  The wrapped
``appdecomp._solve_one`` starts each task with empty totals in the worker,
measures the pickled size of its payload and result, and appends the
task's spans to a file in ``span_dir``; ``collect`` merges those files
after the mode call.
"""
from __future__ import annotations

import copy
import functools
import inspect
import json
import os
import time
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

import numpy as np

MODULES = ("config", "sysmodel", "relax", "dsearch", "appdecomp",
           "evalharness", "cli")
FIXED_POINT = "appdecomp.app_fixed_point"
WORKER_TASK = "appdecomp._solve_one"


class Tracer:
    """Spans of one process, and of its pool workers through ``span_dir``."""

    def __init__(self, span_dir):
        self.span_dir = Path(span_dir)
        self.owner = os.getpid()
        self._reset()

    def _reset(self):
        self.stack = []      # frames [name, start, time in child spans]
        self.totals = {}     # name -> [calls, busy_s, self_s]
        self.counters = {"evals": 0, "handoff_bytes": 0, "batch_steps": 0}
        self.subproblems = []   # [iteration, duration] of every subproblem
        self.fixed_point = []   # [name, start, end]: the fixed point and
        #                         the spans directly below it
        self.tasks = []         # [pid, start, end] of every worker task

    # -- spans ---------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        frame = [name, time.perf_counter(), 0.0]
        self.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            busy = end - frame[1]
            rec = self.totals.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += busy
            rec[2] += busy - frame[2]
            if self.stack:
                self.stack[-1][2] += busy
                if self.stack[-1][0] == FIXED_POINT:
                    self.fixed_point.append([name, frame[1], end])
            if name == FIXED_POINT:
                self.fixed_point.append([name, frame[1], end])
            if name == "appdecomp.solve_component_subproblem":
                self.subproblems.append([args[1].k, busy])

    def _wrap(self, name, fn):
        if name == "dsearch.minimize":
            def traced(objective, *args, **kwargs):
                objective = self._wrap("dsearch.minimize.objective",
                                       objective)
                result = self._span(name, fn, (objective,) + args, kwargs)
                self.counters["evals"] += result[2]
                return result
        elif name == "sysmodel.simulate_batch":
            def traced(strategy, noises, *args, **kwargs):
                self.counters["batch_steps"] += int(np.prod(np.shape(noises)))
                return self._span(name, fn, (strategy, noises) + args,
                                  kwargs)
        elif name == WORKER_TASK:
            def traced(payload):
                if os.getpid() == self.owner:
                    return self._span(name, fn, (payload,), {})
                return self._worker_task(fn, payload)
        else:
            def traced(*args, **kwargs):
                return self._span(name, fn, args, kwargs)
        return functools.wraps(fn)(traced)

    def _worker_task(self, fn, payload):
        self._reset()
        start = time.perf_counter()
        result = self._span(WORKER_TASK, fn, (payload,), {})
        self.counters["handoff_bytes"] += (len(ForkingPickler.dumps(payload))
                                           + len(ForkingPickler.dumps(result)))
        # the task interval covers the size measurement so that it is not
        # counted as hand-off time in the parent
        self.tasks.append([os.getpid(), start, time.perf_counter()])
        with open(self.span_dir / f"worker-{os.getpid()}.jsonl", "a") as fh:
            fh.write(json.dumps(self._state()) + "\n")
        return result

    def _state(self):
        return {"totals": self.totals, "counters": self.counters,
                "subproblems": self.subproblems,
                "fixed_point": self.fixed_point, "tasks": self.tasks}

    # -- installation and collection -----------------------------------

    def install(self, package):
        """Wrap the public functions of ``package``'s traced modules."""
        modules = [getattr(package, m) for m in MODULES]
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_")
                             or f"{short}.{attr}" == WORKER_TASK)):
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        self.span_dir.mkdir(parents=True, exist_ok=True)

    def collect(self) -> dict:
        """This process's spans merged with every worker's."""
        merged = copy.deepcopy(self._state())
        for path in sorted(self.span_dir.glob("worker-*.jsonl")):
            for line in path.read_text().splitlines():
                part = json.loads(line)
                for name, (calls, busy, own) in part["totals"].items():
                    rec = merged["totals"].setdefault(name, [0, 0.0, 0.0])
                    rec[0] += calls
                    rec[1] += busy
                    rec[2] += own
                for key, value in part["counters"].items():
                    merged["counters"][key] += value
                for key in ("subproblems", "fixed_point", "tasks"):
                    merged[key] += part[key]
        return merged


# ---------------------------------------------------------------------------
# per-layer metrics


def _handoff_s(fixed_point, tasks) -> float:
    """Fixed-point time covered neither by its own child spans nor by the
    busiest worker's tasks, iteration by iteration."""
    whole = [s for s in fixed_point if s[0] == FIXED_POINT]
    if not whole:
        return 0.0
    start, end = whole[0][1], whole[0][2]
    children = [s for s in fixed_point if s[0] != FIXED_POINT]
    uncovered = (end - start) - sum(e - s for _, s, e in children)
    # each iteration opens with its cache build
    cuts = sorted(s for name, s, _ in children
                  if name == "appdecomp.build_iteration_cache") + [end]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        per_worker = {}
        for pid, s, e in tasks:
            overlap = min(e, hi) - max(s, lo)
            if overlap > 0:
                per_worker[pid] = per_worker.get(pid, 0.0) + overlap
        uncovered -= max(per_worker.values(), default=0.0)
    return uncovered


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics (name -> (value, unit)) of one traced mode call."""
    totals = trace["totals"]

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def busy(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    batch_busy = busy("sysmodel.simulate_batch")
    per_iteration = {}
    for k, duration in trace["subproblems"]:
        per_iteration[k] = max(per_iteration.get(k, 0.0), duration)
    out = {
        "sysmodel.simulate_batch.calls": (calls("sysmodel.simulate_batch"),
                                          "count"),
        "sysmodel.simulate_batch.busy_s": (batch_busy, "s"),
        "sysmodel.simulate_batch.steps_per_s": (
            trace["counters"]["batch_steps"] / batch_busy
            if batch_busy > 0 else 0.0, "1/s"),
    }
    for name in ("relax.simulate_component_relaxed",
                 "relax.simulate_relaxed_batch",
                 "relax.component_step_partials"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.busy_s"] = (busy(name), "s")
    out["dsearch.minimize.calls"] = (calls("dsearch.minimize"), "count")
    out["dsearch.minimize.evals"] = (trace["counters"]["evals"], "count")
    out["dsearch.minimize.self_s"] = (own("dsearch.minimize"), "s")
    for name in ("build_iteration_cache", "stock_multiplier_backward",
                 "component_multiplier_backward", "solve_stock_subproblem",
                 "solve_component_subproblem"):
        out[f"appdecomp.{name}.busy_s"] = (busy(f"appdecomp.{name}"), "s")
    out["appdecomp.solve_component_subproblem.max_s"] = (
        sum(per_iteration.values()), "s")
    out["appdecomp.handoff_bytes"] = (trace["counters"]["handoff_bytes"],
                                      "bytes")
    out["appdecomp.handoff_s"] = (
        _handoff_s(trace["fixed_point"], trace["tasks"]), "s")
    out["evalharness.generate_scenarios.busy_s"] = (
        busy("evalharness.generate_scenarios"), "s")
    out["evalharness.evaluate_strategy.self_s"] = (
        own("evalharness.evaluate_strategy"), "s")
    out["cli.self_s"] = (sum(own(name) for name in totals
                             if name.startswith("cli.")), "s")
    return out
