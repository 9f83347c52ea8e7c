"""Measure one workload in this process and print one JSON line.

Run by ``run.py``, one process per measurement, so peak memory belongs to
the workload alone.  Modes:

``reference``  one run on the exact event loop in one process; prints its
               output digest.
``timed``      the end-to-end metrics, with no spans installed.
``traced``     the per-layer metrics.  Iterations alternate between untraced
               and traced, so ``trace.overhead`` compares like with like.

Each iteration builds a fresh simulator and runs it, as a user would; its
output is checked outside the timers, and the previous iteration's result
is freed and collected before the next one starts.  ``setup_s`` comes from
a separate burst of back-to-back builds before the runs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import traceback
from time import perf_counter

from repro.core.config import SystemConfig

from spans import LayerTracer
from workloads import WORKLOADS, fleet_digest

#: Fewest measured runs, however long each takes.
MIN_RUNS = 3
#: Set-up repetitions: at least the minimum, then until they have taken
#: ``SETUP_MIN_S`` or reached the maximum.  A sub-millisecond set-up needs
#: hundreds of samples for a steady median.  No collection runs between
#: them: a full collection before each build makes a tiny build's timing
#: depend on how much of the heap it evicted from the caches.
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 1000
SETUP_MIN_S = 1.0


def _iteration(workload, config, seed, reference):
    """Build, run and check once; returns the run's record and result.

    The caller has freed the previous result; collecting here, outside both
    timers, keeps one run's garbage out of the next run's time.
    """
    gc.collect()
    t0 = perf_counter()
    sim = workload.build(config, seed)
    t1 = perf_counter()
    record = {"setup_s": t1 - t0}
    try:
        result = workload.run(sim, config, seed)
    except Exception:  # a raising run is a failed run, not a crashed benchmark
        record.update(run_s=perf_counter() - t1, error=traceback.format_exc(limit=3))
        return record, None
    record.update(run_s=perf_counter() - t1, completed=workload.completed(result))
    record.update(workload.path(result))
    error = workload.check(result, reference)
    if error is not None:
        record["error"] = error
    return record, result


def reference_digest(workload, config, seed):
    if not workload.has_reference:
        return {"digest": None}
    sim = workload.build(config, seed, reference=True)
    return {"digest": fleet_digest(workload.run(sim, config, seed))}


def timed(workload, config, seed, seconds, reference):
    setup_s = []
    while len(setup_s) < SETUP_MIN_REPEATS or (
        sum(setup_s) < SETUP_MIN_S and len(setup_s) < SETUP_MAX_REPEATS
    ):
        t0 = perf_counter()
        workload.build(config, seed)
        setup_s.append(perf_counter() - t0)
    runs = []
    while sum(r["run_s"] for r in runs) < seconds or len(runs) < MIN_RUNS:
        record, result = _iteration(workload, config, seed, reference)
        del result
        runs.append(record)
    good = [r for r in runs if "error" not in r]
    metrics = {
        "req_per_s": statistics.median(r["completed"] / r["run_s"] for r in good)
        if good
        else 0.0,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {"metrics": metrics, "runs": runs}


def traced(workload, config, seed, seconds, reference):
    tracer = LayerTracer()
    walls = {False: [], True: []}
    layers = []
    runs = []
    while sum(map(sum, walls.values())) < seconds or min(map(len, walls.values())) < MIN_RUNS:
        tracing = len(walls[True]) < len(walls[False])
        tracer.clear()
        with tracer if tracing else contextlib.nullcontext():
            record, result = _iteration(workload, config, seed, reference)
        record["traced"] = tracing
        runs.append(record)
        walls[tracing].append(record["setup_s"] + record["run_s"])
        if tracing and result is not None:
            layers.append({**tracer.layer_metrics(), **workload.counts(result)})
        del result
    metrics = {}
    if layers:
        metrics = {name: statistics.median(x[name] for x in layers) for name in layers[0]}
    metrics["trace.overhead"] = (
        statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    )
    return {"metrics": metrics, "runs": runs}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", required=True, choices=("reference", "timed", "traced"))
    parser.add_argument("--reference", default=None, help="expected output digest")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    config = SystemConfig.paper_default()
    if args.mode == "reference":
        out = reference_digest(workload, config, args.seed)
    elif args.mode == "timed":
        out = timed(workload, config, args.seed, args.seconds, args.reference)
    else:
        out = traced(workload, config, args.seed, args.seconds, args.reference)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
