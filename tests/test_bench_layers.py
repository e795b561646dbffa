"""The benchmark's traced-run check, one round per workload.

`bench/run.py --trace 1` marks a run incorrect when a job's answer is wrong
or when one of the workload's main layers is never called.  This runs one
traced round of every workload (seed 1) the same way, so a change that
stops a main layer from running -- say, a shortcut that settles every hull
query before `in_convex_hull` is reached -- fails here and not only in the
benchmark.  The counts in PINNED must also repeat, so a change that does
more or less of that work says so here.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_modules(*names):
    """Import the benchmark's top-level modules with bench/ on sys.path
    only while they load (run.py adds it again itself), so that it
    shadows no top-level name for the tests collected after this one."""
    saved = list(sys.path)
    sys.path.insert(0, str(BENCH))
    try:
        return [importlib.import_module(name) for name in names]
    finally:
        sys.path[:] = saved


run, layers, speed, workloads = _bench_modules("run", "layers", "speed",
                                               "workloads")
Tracer, SpeedClock, WORKLOADS = \
    layers.Tracer, speed.SpeedClock, workloads.WORKLOADS

# counts of a traced round at seed 1 that a change to the work behind
# them has to restate: the partition counts of the multiplicity sweeps
PINNED = {"convexity": {"characters.kostant_count.calls": 1087}}


@pytest.fixture(scope="module")
def gk():
    # the package the other tests use, not a fresh import of it
    return run.Modules(importlib.import_module(run.PACKAGE))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_round_calls_every_main_layer(gk, tmp_path, name):
    workload = WORKLOADS[name]
    jobs = workload.build(gk, 1, str(tmp_path))
    clock = SpeedClock()
    tracer = Tracer(run.PACKAGE, clock)
    clock.start()
    tracer.install()
    try:
        phase = run.Phase(clock, jobs)
        phase.run_round()
        snap = tracer.snapshot()
    finally:
        tracer.uninstall()
        clock.stop()
    assert (phase.failed, phase.errors) == (0, [])
    idle = [layer for layer in workload.main_layers
            if not snap[f"{layer}.calls"]]
    assert not idle, f"main layers never called: {idle}"
    pinned = PINNED.get(name, {})
    assert {key: snap[key] for key in pinned} == pinned
