"""Benchmark of the fleetmaint CLI modes, with output checks.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round is one batch job: a fresh process (``job.py``) that sets up a
workload's inputs and runs one CLI mode to completion.  With ``--trace 0``
the run makes whole rounds until S seconds have passed, at least two, then
set-up-only launches until five set-ups were timed, and prints the medians
of the end-to-end metrics.  With ``--trace 1`` it makes an untraced, a
traced and another untraced round and prints the per-layer metrics of the
traced one, with the tracing overhead.  The first round's outputs are checked against the
reference simulator in ``reference.py`` and the properties listed in the
README; every later round must write byte-identical outputs (so a traced
run also shows that tracing leaves the outputs unchanged).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
os.environ.update(BLAS_PINS)   # before numpy is imported; jobs inherit it

import numpy as np  # noqa: E402

import reference  # noqa: E402
from job import WORKLOADS, staggered_controls, system_config  # noqa: E402

MIN_ROUNDS = 2
SETUP_SAMPLES = 5
#: a run ends within this many seconds or fails
RUN_LIMIT_S = 170
#: seed of the fixed validation scenario set that scores optimized schedules
VALIDATION_SEED = 200210719
#: scenarios re-scored by the reference simulator per scenario set
REFERENCE_SUBSET = {"optimization": 20, "validation": 500, "evaluate": 5000}
#: the reported 100k mean must lie this many standard errors from the
#: reference mean of the subset
MEAN_SE_LIMIT = 4.0
REL_TOL = 1e-9


class JobFailed(Exception):
    pass


class Checks:
    """Failed output checks of one run; a failure makes ``correct`` false."""

    def __init__(self):
        self.failures = []

    def __call__(self, ok: bool, what: str):
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)


# ---------------------------------------------------------------------------
# rounds


def launch(workload, seed, work: Path, deadline, trace=False,
           setup_only=False):
    """Run one job process; returns its result with ``setup_s`` added."""
    cmd = [sys.executable, str(Path(__file__).with_name("job.py")),
           "--workload", workload, "--seed", str(seed),
           "--workdir", str(work)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    work.mkdir(parents=True, exist_ok=True)
    with open(work / "job.log", "w") as log:
        started = time.perf_counter()
        # own process group, so that a timeout also stops the pool workers
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            proc.wait(timeout=deadline - started)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0:
        sys.stderr.write((work / "job.log").read_text()[-3000:])
        raise JobFailed(f"job exited with code {proc.returncode}")
    result = json.loads((work / "result.json").read_text())
    result["setup_s"] = result["mode_start"] - started
    if result.get("exit_code", 0) != 0:
        sys.stderr.write((work / "job.log").read_text()[-3000:])
        raise JobFailed(f"mode exited with code {result['exit_code']}")
    return result


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# output checks


def read_strategy(path: Path, cfg, check) -> np.ndarray:
    lines = path.read_text().strip().split("\n")
    header = dict(kv.split("=") for kv in lines[0].split(","))
    check((int(header["n"]), int(header["T"])) == (cfg.n, cfg.T),
          f"{path.name}: header {lines[0]}")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    u = np.array(rows).T
    check(u.shape == (cfg.n, cfg.T), f"{path.name}: shape {u.shape}")
    check(bool(np.all(np.isfinite(u)) and np.all((u >= 0) & (u <= 1))),
          f"{path.name}: entries outside [0, 1]")
    return u


def read_report(path: Path) -> dict:
    rows = [line.split(",") for line in path.read_text().split("\n")[1:]
            if line]
    return {key: float(value) for key, value in rows}


def mean_cost_agrees(u, cfg, seed, count, label, check):
    """The program's mean cost on the first ``count`` scenarios of a set
    equals the reference simulator's on its own copy of them."""
    from fleetmaint import evalharness as ev
    from fleetmaint.sysmodel import Strategy
    program = ev.saa_objective(
        Strategy(u), ev.generate_scenarios(cfg.n, cfg.T, count, seed), cfg)
    ref_costs = reference.simulate(
        u, reference.scenarios(cfg.n, cfg.T, count, seed), cfg)
    ref = float(np.mean(ref_costs))
    check(abs(program - ref) <= REL_TOL * abs(ref),
          f"{label}: program mean {program!r} vs reference {ref!r}")
    return ref_costs


class Scorer:
    """Checks one workload's outputs and scores its schedules."""

    def __init__(self, workload, seed, check: Checks):
        sys.path.insert(0, str(Path.cwd() / "src"))
        self.check = check
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.cfg = system_config(self.spec)
        self._validation = None

    def validation_report(self, u):
        from fleetmaint import evalharness as ev
        from fleetmaint.sysmodel import Strategy
        if self._validation is None:
            self._validation = ev.generate_scenarios(
                self.cfg.n, self.cfg.T, self.spec["validation"],
                VALIDATION_SEED)
        return ev.evaluate_strategy(Strategy(u), self._validation, self.cfg)

    def score(self, out: Path, stdout: str):
        """Returns (validation cost, whether the operation failed)."""
        if self.spec["mode"] == "evaluate":
            return self._score_evaluate(out)
        return self._score_optimizer(out, stdout)

    def _score_evaluate(self, out: Path):
        cfg, spec, check = self.cfg, self.spec, self.check
        report = read_report(out / "report.csv")
        check(report["scenario_count"] == spec["validation"],
              f"report covers {report['scenario_count']} scenarios")
        u = staggered_controls(cfg.n, cfg.T)
        pm = reference.pm_cost(u, cfg)
        check(abs(report["mean_pm_cost"] - pm) <= REL_TOL * pm,
              f"mean_pm_cost {report['mean_pm_cost']!r} vs closed form {pm!r}")
        count = REFERENCE_SUBSET["evaluate"]
        ref = mean_cost_agrees(u, cfg, self.seed, count, "evaluation set",
                               check)
        se = float(np.std(ref, ddof=1)) / math.sqrt(count)
        check(abs(report["mean_cost"] - float(np.mean(ref)))
              <= MEAN_SE_LIMIT * se,
              f"100k mean {report['mean_cost']!r} is more than "
              f"{MEAN_SE_LIMIT} standard errors from the reference "
              f"subset mean {float(np.mean(ref))!r}")
        return report["mean_cost"], False

    def _score_optimizer(self, out: Path, stdout: str):
        cfg, spec, check = self.cfg, self.spec, self.check
        u = read_strategy(out / "strategy.csv", cfg, check)
        projected = read_strategy(out / "strategy_projected.csv", cfg, check)
        check(np.array_equal(projected, np.where(u >= cfg.nu, 1.0, 0.0)),
              "strategy_projected.csv is not strategy.csv thresholded at nu")
        if spec["mode"] == "optimize-app":
            lines = (out / "history.csv").read_text().strip().split("\n")
            rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
            check(len(rows) == spec["iterations"],
                  f"history.csv has {len(rows)} rows")
            check(bool(np.all(np.isfinite(rows))), "history.csv not finite")
        else:
            line = [x for x in stdout.splitlines() if " best " in x][-1]
            best, evals = float(line.split()[2]), int(line.split()[4])
            check(evals == spec["budget"], f"direct search used {evals}")
            scen = reference.scenarios(cfg.n, cfg.T, spec["scenarios"],
                                       self.seed)
            saa = float(np.mean(reference.simulate(u, scen, cfg)))
            start = float(np.mean(reference.simulate(np.zeros_like(u), scen,
                                                      cfg)))
            # the CLI prints six significant digits
            check(abs(best - saa) <= 1e-5 * abs(saa),
                  f"printed best {best!r} vs reference SAA {saa!r}")
            check(saa <= start, f"direct SAA {saa!r} worse than start {start!r}")
        mean_cost_agrees(projected, cfg, self.seed,
                         min(spec["scenarios"],
                             REFERENCE_SUBSET["optimization"]),
                         "optimization set", check)
        mean_cost_agrees(projected, cfg, VALIDATION_SEED,
                         REFERENCE_SUBSET["validation"], "validation set",
                         check)
        report = self.validation_report(projected)
        pm = reference.pm_cost(projected, cfg)
        check(abs(report.breakdown["pm"] - pm) <= REL_TOL * max(pm, 1.0),
              f"validation PM cost {report.breakdown['pm']!r} vs {pm!r}")
        zero = report if not projected.any() else \
            self.validation_report(np.zeros_like(projected))
        return report.mean_cost, not report.mean_cost < zero.mean_cost


# ---------------------------------------------------------------------------
# runs


def expected_evals(spec, cfg) -> int:
    if spec["mode"] == "optimize-app":
        return cfg.n * spec["iterations"] * spec["budget"]
    return spec.get("budget", 0)


def bypass_notes(workload, span_names) -> list[str]:
    """Check the layers each workload is predicted to leave idle."""
    if workload == "evaluate-100k":
        idle = ("relax.", "dsearch.", "appdecomp.")
    elif workload.startswith("app-"):
        idle = ("sysmodel.simulate_batch",)
    else:
        return []
    return [f"bypass {prefix}*: "
            + ("holds" if not any(n.startswith(prefix) for n in span_names)
               else "BROKEN")
            for prefix in idle]


def run(workload, seed, seconds, trace, root: Path) -> dict:
    spec = WORKLOADS[workload]
    check = Checks()
    scorer = Scorer(workload, seed, check)
    deadline = time.perf_counter() + RUN_LIMIT_S
    rounds, setups = [], []
    first_digest = None
    cost = failed = None
    began = time.perf_counter()
    while True:
        traced = trace and len(rounds) == 1
        work = root / f"round{len(rounds)}"
        result = launch(workload, seed, work, deadline, trace=traced)
        out_digest = digest(work / "out")
        if first_digest is None:
            first_digest = out_digest
            cost, failed = scorer.score(work / "out", result["stdout"])
        check(out_digest == first_digest,
              f"round {len(rounds)} outputs differ from round 0")
        rounds.append(result)
        setups.append(result["setup_s"])
        shutil.rmtree(work)
        if trace and len(rounds) == 3:
            break
        if not trace and len(rounds) >= spec.get("min_rounds", MIN_ROUNDS) \
                and time.perf_counter() - began >= seconds:
            break
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(launch(workload, seed, root / f"setup{len(setups)}",
                             deadline, setup_only=True)["setup_s"])

    attempted = len(rounds)
    summary = {"attempted": attempted, "failed": attempted * int(failed)}
    if trace:
        layers = rounds[1]["layers"]
        # untraced rounds on both sides cancel a drift in the host's speed
        layers["tracing_overhead_s"] = (
            rounds[1]["solve_s"]
            - (rounds[0]["solve_s"] + rounds[2]["solve_s"]) / 2, "s")
        want = expected_evals(spec, scorer.cfg)
        check(layers["dsearch.minimize.evals"][0] == want,
              f"dsearch.minimize.evals {layers['dsearch.minimize.evals'][0]}"
              f" != {want}")
        for note in bypass_notes(workload, rounds[1]["span_names"]):
            print(note)
        summary["metrics"] = layers
    else:
        summary["metrics"] = {
            "setup_s": (statistics.median(setups), "s"),
            "solve_s": (statistics.median(r["solve_s"] for r in rounds), "s"),
            "cpu_s": (statistics.median(r["cpu_s"] for r in rounds), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"]
                                              for r in rounds), "MB"),
            "validation_cost": (cost, "kEUR"),
        }
    summary["correct"] = not check.failures
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path.cwd() / "src" / "fleetmaint" / "cli.py").is_file():
        print("error: run from the root of a fleetmaint checkout "
              "(src/fleetmaint not found)", file=sys.stderr)
        return 2
    root = Path.cwd() / ".perfbench_runs" / f"{args.workload}-{os.getpid()}"
    try:
        summary = run(args.workload, args.seed, args.seconds,
                      bool(args.trace), root)
    except (JobFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(root, ignore_errors=True)
        with contextlib.suppress(OSError):
            root.parent.rmdir()
    for name, (value, unit) in summary["metrics"].items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": summary["correct"], "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in summary["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
