"""One round of a workload: a fresh process that sets up and runs one CLI mode.

Usage (from the root of a checkout; ``run.py`` launches it):

    python3 perfbench/job.py --workload NAME --seed N --workdir DIR
        [--trace] [--setup-only]

The process imports the package from ``src``, writes the workload's input
files into DIR, then times ``fleetmaint.cli.main`` on the workload's
arguments with outputs in DIR/out.  It writes DIR/result.json with the
monotonic time at which the mode call started (set-up ends there), the
mode call's wall time, the CPU time of the process and its reaped workers
during the call, the peak resident set of the process and its workers,
the mode's standard output and, with ``--trace``, the per-layer metrics.
With ``--setup-only`` it stops where the mode call would start.
"""
from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

WORKLOADS = {
    "app-small": {"mode": "optimize-app", "system": "small", "scenarios": 20,
                  "iterations": 2, "budget": 50, "threads": 2,
                  "validation": 10_000},
    # the pool hand-off makes its wall time the noisiest: three rounds
    "app-fleet80": {"mode": "optimize-app", "system": "fleet80",
                    "scenarios": 50, "iterations": 1, "budget": 10,
                    "threads": 2, "validation": 2_000, "min_rounds": 3},
    "evaluate-100k": {"mode": "evaluate", "system": "small",
                      "validation": 100_000},
    "direct-small": {"mode": "optimize-direct", "system": "small",
                     "scenarios": 20, "budget": 500, "validation": 10_000},
}

#: staggered preventive maintenance: component i at steps t = 3 - i mod 4
PM_PERIOD = 4


def staggered_controls(n: int, T: int) -> np.ndarray:
    t, i = np.meshgrid(np.arange(T), np.arange(n))
    return np.where((t + i) % PM_PERIOD == PM_PERIOD - 1, 1.0, 0.0)


def system_config(spec):
    from fleetmaint.config import case1_config, small_system_config
    return case1_config() if spec["system"] == "fleet80" \
        else small_system_config()


def write_inputs(spec, seed: int, work: Path) -> list[str]:
    """Write the workload's input files; return the CLI arguments."""
    from fleetmaint import cli, config
    from fleetmaint.sysmodel import Strategy

    argv = ["--mode", spec["mode"], "--seed", str(seed),
            "--out", str(work / "out")]
    cfg = system_config(spec)
    if spec["system"] == "fleet80":
        config.save_config(cfg, work / "fleet80.yaml")
        argv += ["--config", str(work / "fleet80.yaml")]
    if spec["mode"] == "evaluate":
        cli.save_strategy(Strategy(staggered_controls(cfg.n, cfg.T)), cfg,
                          work / "staggered.csv")
        return argv + ["--strategy", str(work / "staggered.csv"),
                       "--validation-scenarios", str(spec["validation"])]
    argv += ["--scenarios", str(spec["scenarios"]),
             "--budget", str(spec["budget"])]
    if spec["mode"] == "optimize-app":
        argv += ["--iterations", str(spec["iterations"]),
                 "--threads", str(spec["threads"])]
    return argv


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and its reaped workers.

    This process's own peak is VmHWM: ``ru_maxrss`` would also carry the
    launcher's peak, which the kernel keeps across ``exec``.
    """
    status = Path("/proc/self/status").read_text()
    own_kb = int(status.split("VmHWM:")[1].split()[0])
    workers_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kb, workers_kb) / 1024.0


def cpu_seconds() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path.cwd() / "src"))
    import fleetmaint
    from fleetmaint import cli

    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    mode_argv = write_inputs(WORKLOADS[args.workload], args.seed, work)
    result = {}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer(work / "spans")
            tracer.install(fleetmaint)
        captured = io.StringIO()
        cpu0 = cpu_seconds()
        result["mode_start"] = time.perf_counter()
        with redirect_stdout(captured):
            result["exit_code"] = cli.main(mode_argv)
        result["solve_s"] = time.perf_counter() - result["mode_start"]
        result["cpu_s"] = cpu_seconds() - cpu0
        result["peak_rss_mb"] = peak_rss_mb()
        result["stdout"] = captured.getvalue()
        if tracer is not None:
            from tracer import layer_metrics
            trace = tracer.collect()
            result["layers"] = layer_metrics(trace)
            result["span_names"] = sorted(trace["totals"])
    else:
        result["mode_start"] = time.perf_counter()
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
