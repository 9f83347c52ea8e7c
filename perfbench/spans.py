"""Layer spans for the traced benchmark run.

``LayerTracer`` wraps public entry points of each simulator layer in spans
while it is installed (``with LayerTracer() as tracer:``) and restores the
originals on exit, so untraced runs execute the program untouched.  Spans
nest on one stack: a layer's self time is its span time minus the time of
the spans it encloses, and a span re-entering its own layer (``run_blocks``
falling back to ``run``) counts as one call.

Only calls made in this process are seen.  Rack jobs of a sharded run
execute in pool workers, so their engine, device and telemetry work shows up
only as ``shard.pool_s``.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

from repro.traffic import fastpath, fleet, shard, sweep
from repro.traffic.device import SprintDevice
from repro.traffic.engine import ServingEngine
from repro.traffic.fleet import FleetResult, FleetSimulator
from repro.traffic.telemetry import QuantileSketch, TrafficTelemetry

#: (owner, attribute, span name) of every wrapped entry point.
_SPANS = (
    (SprintDevice, "__init__", "device.construct"),
    (SprintDevice, "reset", "device.reset"),
    (FleetSimulator, "__init__", "fleet.construct"),
    (FleetSimulator, "run", "fleet.run"),
    (FleetSimulator, "run_stream", "fleet.run"),
    (ServingEngine, "run", "engine"),
    (ServingEngine, "run_blocks", "engine"),
    (fastpath, "run_batched", "fastpath"),
    (TrafficTelemetry, "observe_batch", "telemetry.stream"),
    (QuantileSketch, "add_many", "telemetry.sketch"),
    (FleetResult, "summary", "metrics.summary"),
    (shard, "run_sharded", "shard.run"),
    (shard, "plan_shards", "shard.plan"),
    (shard, "slice_schedules", "shard.slice"),
    (sweep, "expand_cells", "sweep.expand"),
    (sweep, "run_cell", "sweep.cell"),
    (sweep, "generate_requests", "request"),
)


class LayerTracer:
    """Accumulates per-layer self time, calls and generated requests."""

    def __init__(self) -> None:
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self.clear()

    def clear(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.requests = 0

    def _enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def _exit(self) -> None:
        name, start, child_s = self._stack.pop()
        span_s = perf_counter() - start
        self.self_s[name] += span_s - child_s
        if self._stack:
            parent = self._stack[-1]
            parent[2] += span_s
            if parent[0] == name:
                return
        self.calls[name] += 1

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if name == "request":
                self.requests += len(result)
            return result

        return wrapper

    def _block_span(self, fn):
        """Time each block a request generator yields, not its creation."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            blocks = fn(*args, **kwargs)
            while True:
                self._enter("request")
                try:
                    block = next(blocks, None)
                finally:
                    self._exit()
                if block is None:
                    return
                self.requests += block.arrival_s.size
                yield block

        return wrapper

    def _pool_span(self, fn):
        """Only the shard fan-out is a layer; the sweep's serial map is not."""
        spanned = self._span("shard.pool", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack and self._stack[-1][0] == "shard.run":
                return spanned(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "LayerTracer":
        for owner, attr, name in _SPANS:
            self._patch(owner, attr, self._span(name, getattr(owner, attr)))
        self._patch(
            fleet,
            "generate_request_blocks",
            self._block_span(fleet.generate_request_blocks),
        )
        self._patch(sweep, "pool_map", self._pool_span(sweep.pool_map))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def layer_metrics(self) -> dict[str, float]:
        """The timing and count metrics of everything traced since ``clear``."""
        s, calls = self.self_s, self.calls
        runs = calls["engine"]
        return {
            "request.generate_s": s["request"],
            "request.count": self.requests,
            "device.construct_s": s["device.construct"],
            "device.reset_s": s["device.reset"],
            "device.count": calls["device.construct"],
            "fleet.construct_self_s": s["fleet.construct"],
            "fleet.run_self_s": s["fleet.run"],
            "engine.run_self_s": s["engine"],
            "engine.runs": runs,
            "fastpath.run_s": s["fastpath"],
            "fastpath.engaged_share": calls["fastpath"] / runs if runs else 0.0,
            "telemetry.stream_s": s["telemetry.stream"],
            "telemetry.sketch_s": s["telemetry.sketch"],
            "metrics.summary_s": s["metrics.summary"],
            "shard.plan_s": s["shard.plan"],
            "shard.slice_s": s["shard.slice"],
            "shard.pool_s": s["shard.pool"],
            "shard.run_self_s": s["shard.run"],
            "sweep.expand_s": s["sweep.expand"],
            "sweep.cell_self_s": s["sweep.cell"],
            "sweep.cells": calls["sweep.cell"],
        }
