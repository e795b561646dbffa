"""gkmchar benchmark: one seeded workload, speed-corrected, answers checked.

Run from the root of a source checkout:

    python3 bench/run.py --workload characters --seed 1 --seconds 20 --trace 0

The program is imported from ./src; nothing is installed.  Set-up (import,
input generation, validation, writing input files) is repeated
SETUP_REPEATS times and its median reported.  The timed phase then runs
whole rounds of the workload's job list until --seconds have passed.  Every
job's answer is checked against a computation made without gkmchar, or
against a property the method must have.

With --trace 0 the last line of stdout carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run (see layers.py),
whose first half is run untraced to measure the tracing overhead.  Earlier
lines report raw (uncorrected) figures and the range of the speed
correction.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = "gkmchar"
SETUP_REPEATS = 5

sys.path.insert(0, str(HERE))

from layers import Tracer, metric_names  # noqa: E402
from speed import SpeedClock, Timed  # noqa: E402


class Modules:
    """The freshly imported package, one attribute per submodule."""

    def __init__(self, pkg):
        self.pkg = pkg
        for name in ("cli", "graphs", "characters", "laurent", "residues",
                     "lattice", "reduction", "selftest"):
            setattr(self, name, importlib.import_module(f"{PACKAGE}.{name}"))


def fresh_import() -> Modules:
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    src = ROOT / "src"
    if Path(pkg.__file__).resolve().parent != (src / PACKAGE).resolve():
        raise RuntimeError(f"{PACKAGE} imported from {pkg.__file__}, "
                           f"not from {src}")
    return Modules(pkg)


class Phase:
    """Runs whole rounds of jobs, timing each job and checking its answer.

    Per-job figures are kept in flat arrays so that the harness's memory
    does not grow with the number of rounds, which depends on the speed.
    """

    def __init__(self, clock, jobs):
        self.clock = clock
        self.jobs = jobs
        self.index = array("i")     # job of each timed call
        self.raw = array("d")       # wall time minus handler time
        self.t0 = array("d")
        self.t1 = array("d")
        self.factors = array("d")   # filled in by finish()
        self.rounds = []            # (first record, end record)
        self.failed = 0
        self.wrong = 0
        self.errors = []

    def run_round(self):
        clock, now = self.clock, time.perf_counter
        start = len(self.raw)
        for i, job in enumerate(self.jobs):
            h0 = clock.handler_s
            t0 = now()
            try:
                out = job.call()
            except Exception as exc:
                self._fail(job, f"{type(exc).__name__}: {exc}", wrong=False)
                continue
            t1 = now()
            self.raw.append((t1 - t0) - (clock.handler_s - h0))
            self.t0.append(t0)
            self.t1.append(t1)
            self.index.append(i)
            try:
                problem = job.check(out)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                self._fail(job, problem, wrong=True)
            del out
        self.rounds.append((start, len(self.raw)))
        gc.collect()

    def run_for(self, seconds, min_rounds=1, after_round=None):
        end = time.perf_counter() + seconds
        while len(self.rounds) < min_rounds or time.perf_counter() < end:
            self.run_round()
            if after_round:
                after_round()

    def _fail(self, job, message, wrong):
        self.failed += 1
        self.wrong += wrong
        if len(self.errors) < 5:
            self.errors.append(f"{job.cls}: {message}")

    @property
    def attempted(self):
        return len(self.raw) + self.failed - self.wrong

    def finish(self):
        self.factors = array("d", (self.clock.factor(a, b)
                                   for a, b in zip(self.t0, self.t1)))

    def times(self, corrected=True, start=0, end=None):
        raw = self.raw[start:end]
        if not corrected:
            return list(raw)
        return [r * f for r, f in zip(raw, self.factors[start:end])]


UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms",
         "heavy_p50_ms": "ms", "peak_rss_mb": "MB"}


def end_to_end(phase, setups, corrected=True):
    times = phase.times(corrected)
    heavy = [t for t, i in zip(times, phase.index) if phase.jobs[i].heavy]
    return {
        "setup_s": statistics.median(
            tm.raw * (tm.factor() if corrected else 1) for tm in setups),
        "jobs_per_s": len(times) / sum(times),
        "job_p50_ms": 1000 * statistics.median(times),
        "heavy_p50_ms": 1000 * statistics.median(heavy),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(phase, snapshots):
    """Per-round layer figures from snapshots taken after each traced round.

    Counts must repeat exactly from round to round; times are corrected by
    each round's own speed factor and averaged.
    """
    names = metric_names()
    deltas = []
    for (start, end), before, after in zip(phase.rounds, snapshots,
                                           snapshots[1:]):
        scale = 1000 * sum(phase.times(True, start, end)) \
            / sum(phase.times(False, start, end))
        deltas.append({n: (after[n] - before[n]) * (scale if n.endswith("_ms")
                                                    else 1)
                       for n in names})
    problems = []
    counts = [n for n in names if not n.endswith("_ms")]
    for i, d in enumerate(deltas[1:], 2):
        diff = [n for n in counts if d[n] != deltas[0][n]]
        if diff:
            problems.append(f"traced round {i} counts differ from round 1: "
                            f"{diff[:4]}")
    out = {n: {"value": statistics.fmean(d[n] for d in deltas), "unit": "ms"}
           if n.endswith("_ms") else {"value": deltas[0][n], "unit": "count"}
           for n in names}
    return out, problems


def main(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"

    clock = SpeedClock()
    started = time.perf_counter()
    clock.start()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            jobs = None
            gc.collect()
            with Timed(clock) as tm:
                gk = fresh_import()
                jobs = workload.build(gk, args.seed, str(workdir))
            setups.append(tm)
        gc.collect()
        plain = Phase(clock, jobs)
        traced = Phase(clock, jobs)
        snapshots = []
        if args.trace:
            plain.run_for(args.seconds / 2)
            tracer = Tracer(PACKAGE, clock)
            tracer.install()
            try:
                snapshots.append(tracer.snapshot())
                traced.run_for(args.seconds / 2, min_rounds=2,
                               after_round=lambda: snapshots.append(
                                   tracer.snapshot()))
            finally:
                tracer.uninstall()
        else:
            plain.run_for(args.seconds)
    finally:
        clock.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass            # another run's inputs are still there

    plain.finish()
    traced.finish()
    factors = list(plain.factors) + list(traced.factors)
    harness = []            # failed checks of the run as a whole
    print(f"workload {args.workload}  seed {args.seed}  "
          f"rounds {len(plain.rounds)}+{len(traced.rounds)} traced  "
          f"jobs/round {len(jobs)}  heavy class: {workload.heavy_class}")
    print("speed factor median %.3f, range %.3f..%.3f over %d jobs; %d "
          "calibration samples taking %.1f%% of the wall time"
          % (statistics.median(factors), min(factors), max(factors),
             len(factors), len(clock.rates),
             100 * clock.handler_s / (time.perf_counter() - started)))
    raw = end_to_end(plain, setups, corrected=False)
    print("raw " + json.dumps({k: round(v, 6) for k, v in raw.items()}))
    if args.trace:
        metrics, harness = per_layer(traced, snapshots)
        untraced = statistics.fmean(sum(plain.times(True, s, e))
                                    for s, e in plain.rounds)
        with_trace = statistics.fmean(sum(traced.times(True, s, e))
                                      for s, e in traced.rounds)
        print("trace overhead %+.1f%% (corrected job time per round "
              "%.3f s untraced, %.3f s traced)"
              % (100 * (with_trace / untraced - 1), untraced, with_trace))
        idle = [name for name in workload.main_layers
                if not metrics[f"{name}.calls"]["value"]]
        if idle:
            harness.append(f"main layers never called: {idle}")
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in end_to_end(plain, setups).items()}
        print("corrected " + json.dumps(
            {k: round(m["value"], 6) for k, m in metrics.items()}))
    for p in plain.errors + traced.errors + harness:
        print(f"problem: {p}")
    result = {
        "correct": plain.wrong + traced.wrong == 0 and not harness,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
