"""Streaming telemetry: fixed-memory sketches, timeline probes, event traces.

The paper's headline claims live in the tail of the latency distribution,
but materialising a per-request latency list caps the horizon a run can
afford — "millions of users" means millions of samples nobody can hold.
This module is the fixed-memory answer, three instruments deep:

* :class:`QuantileSketch` — a mergeable KLL-style quantile sketch with
  **deterministic** compaction (no RNG anywhere, so runs stay bit-stable
  and CRN pairing is never perturbed).  Memory is
  ``O(capacity · log(n / capacity))`` regardless of how many values
  stream through; any quantile query is correct to within the documented
  normalised rank-error bound, property-tested against
  ``np.percentile`` on adversarial orderings.
* :class:`TimelineProbe` / :class:`FleetTimeline` — windowed time series
  of what the fleet was *doing*: queue depth, in-flight sprints and their
  granted excess power, denials, breaker trips, and peak package
  temperature / melt fraction per window, sampled at a configurable
  cadence through both engine modes.
* :class:`EventTrace` — a ring-buffered structured trace of the engine's
  request lifecycle (arrival/dispatch/grant/deny/release/trip/reject/
  abandon/complete), exportable to JSON-lines for breaker-trip
  post-mortems.

Everything merges: sketches, streaming moments, telemetry streams, and
timelines combine across shards, sweep cells, and replications, so
fleet-scale aggregate tail quantiles never require holding all samples
(the counter-based telemetry discipline of fleet-scale HPC evaluation).

Determinism contract
--------------------
All three instruments are *observers*: they never touch the engine's
event order, float paths, or RNG streams, so enabling them cannot perturb
a simulation — the golden fixture locks this.  The sketch's compaction is
keyed by per-level parity bits that alternate deterministically (and XOR
under merge, which makes merging commutative: ``a.merge(b)`` and
``b.merge(a)`` answer every quantile query identically).

Usage — a thousand latencies stream through 64 retained samples, and the
p90 query still lands within the documented rank-error bound:

>>> from repro.traffic.telemetry import QuantileSketch
>>> sketch = QuantileSketch(capacity=64)
>>> sketch.extend(float(i) for i in range(1000))
>>> sketch.count
1000
>>> abs(sketch.quantile(0.9) - 900.0) <= sketch.rank_error_bound * 1000
True
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.traffic.device import ServedRequest
    from repro.traffic.governor import GovernorStats
    from repro.traffic.metrics import TrafficSummary

__all__ = [
    "EventTrace",
    "FleetTimeline",
    "QuantileSketch",
    "RunTelemetry",
    "StreamingMoments",
    "TelemetrySpec",
    "TimelineProbe",
    "TraceRecord",
    "TRACE_KINDS",
]


# -- the quantile sketch ----------------------------------------------------------------


class QuantileSketch:
    """Mergeable fixed-memory quantile sketch with deterministic compaction.

    A KLL-style compactor hierarchy: level ``k`` holds values standing in
    for ``2**k`` original samples each.  New values enter level 0; when
    the sketch exceeds its footprint, the lowest over-full level is
    sorted and every *other* value (starting from an alternating parity
    offset) is promoted to the next level, halving the buffer.  The
    parity alternation replaces KLL's random coin — compaction is fully
    deterministic, and two sketches fed the same values in the same order
    are bit-identical.

    **Accuracy contract.**  For any quantile ``q``, the returned value's
    true normalised rank is within :attr:`rank_error_bound` of ``q``
    (equivalently: ``quantile(0.99)`` lies between the exact
    ``99 - 100·eps`` and ``99 + 100·eps`` percentiles).  The bound is
    ``8 / capacity`` — deliberately conservative; the property suite
    measures adversarial orderings (sorted, reversed, organ-pipe,
    clustered duplicates) well inside it.  ``count``, ``sum``, ``min``
    and ``max`` are exact, so streaming means and extrema cost nothing.

    **Merging.**  ``merge`` concatenates per-level buffers and
    re-compacts; capacities must match.  Merging is exactly commutative
    (parity bits XOR, buffers are sorted before selection) and
    associative up to the rank-error bound — the error of a merge tree is
    bounded by the same contract as a single stream.
    """

    #: Hard floor on capacity — below this the error bound exceeds 25%.
    MIN_CAPACITY = 32

    def __init__(self, capacity: int = 512) -> None:
        if capacity < self.MIN_CAPACITY:
            raise ValueError(
                f"sketch capacity must be at least {self.MIN_CAPACITY}"
            )
        self.capacity = int(capacity)
        self._levels: list[list[float]] = [[]]
        self._parity: list[int] = [0]
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- exact accumulators -------------------------------------------------------------

    @property
    def count(self) -> int:
        """Exact number of values streamed in (merges included)."""
        return self._count

    @property
    def sum(self) -> float:
        """Exact (streaming) sum of every value."""
        return self._sum

    @property
    def mean(self) -> float:
        """Streaming mean (0.0 for an empty sketch)."""
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        """Exact minimum (``inf`` when empty)."""
        return self._min

    @property
    def max(self) -> float:
        """Exact maximum (``-inf`` when empty)."""
        return self._max

    @property
    def rank_error_bound(self) -> float:
        """Documented normalised rank-error bound of every quantile query."""
        return 8.0 / self.capacity

    @property
    def retained(self) -> int:
        """Values currently held in the compactor hierarchy (the footprint)."""
        return sum(len(level) for level in self._levels)

    # -- feeding ------------------------------------------------------------------------

    def add(self, value: float) -> None:
        """Stream one value in (amortised O(log capacity))."""
        value = float(value)
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._levels[0].append(value)
        if len(self._levels[0]) >= self.capacity:
            self._compress()

    def extend(self, values: Iterable[float]) -> None:
        """Stream many values in (order-sensitive, same as repeated add)."""
        for value in values:
            self.add(value)

    def add_many(self, values: Sequence[float]) -> None:
        """Stream a column of values in — bit-identical to repeated :meth:`add`.

        The batched engine cores feed whole columns at once.  The exact
        accumulators consume the column in order (the sum is the same
        sequential float adds), and level 0 is filled in slices with
        compaction triggering exactly when it reaches capacity — so the
        retained hierarchy, and every future quantile answer, is identical
        to the per-value path.
        """
        if isinstance(values, np.ndarray):
            values = values.tolist()
        else:
            values = [float(v) for v in values]
        if not values:
            return
        self._count += len(values)
        total = self._sum
        for value in values:
            total += value
        self._sum = total
        low = min(values)
        high = max(values)
        if low < self._min:
            self._min = low
        if high > self._max:
            self._max = high
        level0 = self._levels[0]
        capacity = self.capacity
        i = 0
        n = len(values)
        while i < n:
            take = values[i : i + capacity - len(level0)]
            level0.extend(take)
            i += len(take)
            if len(level0) >= capacity:
                self._compress()
                level0 = self._levels[0]

    def _compress(self) -> None:
        """Halve the lowest over-full level; cascade while any is over-full."""
        k = 0
        while k < len(self._levels):
            buf = self._levels[k]
            if len(buf) < self.capacity:
                k += 1
                continue
            if k + 1 == len(self._levels):
                self._levels.append([])
                self._parity.append(0)
            buf.sort()
            parity = self._parity[k]
            self._parity[k] ^= 1
            self._levels[k + 1].extend(buf[parity::2])
            buf.clear()
            k += 1

    # -- querying -----------------------------------------------------------------------

    def _weighted(self) -> tuple[np.ndarray, np.ndarray]:
        """All retained values with their weights, sorted by value."""
        values = np.concatenate(
            [np.asarray(level, dtype=float) for level in self._levels if level]
        )
        weights = np.concatenate(
            [
                np.full(len(level), float(1 << k))
                for k, level in enumerate(self._levels)
                if level
            ]
        )
        order = np.argsort(values, kind="stable")
        return values[order], weights[order]

    def quantiles(self, qs: Sequence[float]) -> tuple[float, ...]:
        """Estimated quantiles at each ``q`` in [0, 1].

        Convention: the smallest retained value whose cumulative weight
        reaches ``q`` times the total weight — a step-function inverse
        CDF, so no interpolation error is added on top of the rank bound.
        The 0- and 1-quantiles are snapped to the exact min/max.
        """
        for q in qs:
            if not 0.0 <= q <= 1.0:
                raise ValueError("quantile probabilities must be in [0, 1]")
        if self._count == 0:
            raise ValueError("at least one value is required")
        values, weights = self._weighted()
        cum = np.cumsum(weights)
        total = cum[-1]
        out = []
        for q in qs:
            if q <= 0.0:
                out.append(self._min)
            elif q >= 1.0:
                out.append(self._max)
            else:
                idx = int(np.searchsorted(cum, q * total, side="left"))
                idx = min(idx, len(values) - 1)
                out.append(float(np.clip(values[idx], self._min, self._max)))
        return tuple(out)

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (see :meth:`quantiles`)."""
        return self.quantiles((q,))[0]

    def cdf(self, x: float) -> float:
        """Estimated fraction of streamed values ``<= x`` (same rank bound)."""
        if self._count == 0:
            raise ValueError("at least one value is required")
        if x < self._min:
            return 0.0
        if x >= self._max:
            return 1.0
        values, weights = self._weighted()
        idx = int(np.searchsorted(values, x, side="right"))
        total = float(np.sum(weights))
        return float(np.sum(weights[:idx])) / total

    # -- merging ------------------------------------------------------------------------

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold another sketch into this one (in place; returns self).

        Level buffers concatenate, parity bits XOR (which makes the
        operation commutative: either merge order yields the same
        retained multiset and the same future compaction schedule), and
        the hierarchy is re-compacted back under the footprint.
        """
        if not isinstance(other, QuantileSketch):
            raise TypeError("can only merge another QuantileSketch")
        if other.capacity != self.capacity:
            raise ValueError(
                f"sketch capacities must match to merge "
                f"({self.capacity} vs {other.capacity})"
            )
        while len(self._levels) < len(other._levels):
            self._levels.append([])
            self._parity.append(0)
        for k, level in enumerate(other._levels):
            self._levels[k].extend(level)
            self._parity[k] ^= other._parity[k]
        self._count += other._count
        self._sum += other._sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        self._compress()
        return self

    @classmethod
    def merged(cls, sketches: Iterable["QuantileSketch"]) -> "QuantileSketch":
        """A fresh sketch holding the union of the given sketches."""
        sketches = list(sketches)
        if not sketches:
            raise ValueError("at least one sketch is required")
        out = cls(capacity=sketches[0].capacity)
        for sketch in sketches:
            out.merge(sketch)
        return out


@dataclass
class StreamingMoments:
    """Exact count/sum/min/max accumulator — the O(1) half of a summary."""

    count: int = 0
    sum: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def add_many(self, values: Sequence[float]) -> None:
        """Fold a column of values in — bit-identical to repeated :meth:`add`."""
        if isinstance(values, np.ndarray):
            values = values.tolist()
        else:
            values = [float(v) for v in values]
        if not values:
            return
        self.count += len(values)
        total = self.sum
        for value in values:
            total += value
        self.sum = total
        low = min(values)
        high = max(values)
        if low < self.min:
            self.min = low
        if high > self.max:
            self.max = high

    @property
    def mean(self) -> float:
        """Streaming mean (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """Fold another accumulator in (in place; returns self)."""
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self


# -- the per-run telemetry stream -------------------------------------------------------


class TrafficTelemetry:
    """Online :class:`~repro.traffic.metrics.TrafficSummary` accumulator.

    Fed one :class:`~repro.traffic.device.ServedRequest` at a time by the
    engine, it maintains everything a summary needs in fixed memory: a
    latency :class:`QuantileSketch` (p50/p95/p99 and SLO attainment via
    :meth:`QuantileSketch.cdf`), streaming moments for queueing delay and
    stored heat, counters for sprints/fullness/deadline misses, and the
    arrival/completion extrema for the makespan.  ``merge`` combines
    streams across shards or replications, so fleet-wide tail quantiles
    never require the samples.
    """

    def __init__(self, sketch_capacity: int = 512) -> None:
        self.latency = QuantileSketch(capacity=sketch_capacity)
        self.queueing = StreamingMoments()
        self.stored_heat = StreamingMoments()
        self.sprint_count = 0
        self.sprint_fullness_sum = 0.0
        self.deadline_miss_count = 0
        self.peak_temperature_c = 0.0
        self.peak_melt_fraction = 0.0
        self.first_arrival_s = math.inf
        self.last_completion_s = -math.inf
        self.rejected_count = 0
        self.abandoned_count = 0

    @property
    def request_count(self) -> int:
        """Served requests observed so far."""
        return self.latency.count

    def observe(self, served: "ServedRequest") -> None:
        """Fold one served request into the stream (O(log capacity))."""
        self.latency.add(served.latency_s)
        self.queueing.add(served.queueing_delay_s)
        self.stored_heat.add(served.stored_heat_after_j)
        if served.sprinted:
            self.sprint_count += 1
        self.sprint_fullness_sum += served.sprint_fullness
        if served.missed_deadline:
            self.deadline_miss_count += 1
        if served.package_temperature_c > self.peak_temperature_c:
            self.peak_temperature_c = served.package_temperature_c
        if served.melt_fraction > self.peak_melt_fraction:
            self.peak_melt_fraction = served.melt_fraction
        arrival = served.request.arrival_s
        if arrival < self.first_arrival_s:
            self.first_arrival_s = arrival
        completion = served.completed_at_s
        if completion > self.last_completion_s:
            self.last_completion_s = completion

    def observe_batch(
        self,
        *,
        latencies: Sequence[float],
        queueing_delays: Sequence[float],
        stored_heats: Sequence[float],
        sprinted_count: int,
        fullness: Sequence[float],
        deadline_miss_count: int,
        peak_temperature_c: float,
        peak_melt_fraction: float,
        first_arrival_s: float,
        last_completion_s: float,
    ) -> None:
        """Fold a column of served requests in — bit-identical to :meth:`observe`.

        The batched engine cores buffer served-request columns and flush
        them here in served order.  Each accumulator is independent of the
        others, so feeding whole columns one accumulator at a time leaves
        exactly the state that interleaved per-request :meth:`observe`
        calls would: sketches and sequential sums consume their column in
        order, while counters and extrema fold pre-reduced scalars.
        """
        if not len(latencies):
            return
        self.latency.add_many(latencies)
        self.queueing.add_many(queueing_delays)
        self.stored_heat.add_many(stored_heats)
        self.sprint_count += sprinted_count
        total = self.sprint_fullness_sum
        for value in fullness:
            total += value
        self.sprint_fullness_sum = total
        self.deadline_miss_count += deadline_miss_count
        if peak_temperature_c > self.peak_temperature_c:
            self.peak_temperature_c = peak_temperature_c
        if peak_melt_fraction > self.peak_melt_fraction:
            self.peak_melt_fraction = peak_melt_fraction
        if first_arrival_s < self.first_arrival_s:
            self.first_arrival_s = first_arrival_s
        if last_completion_s > self.last_completion_s:
            self.last_completion_s = last_completion_s

    def observe_rejected(self) -> None:
        """Count one admission-control rejection."""
        self.rejected_count += 1

    def observe_abandoned(self) -> None:
        """Count one queued request abandoned at its deadline."""
        self.abandoned_count += 1

    def merge(self, other: "TrafficTelemetry") -> "TrafficTelemetry":
        """Fold another stream in (in place; returns self)."""
        self.latency.merge(other.latency)
        self.queueing.merge(other.queueing)
        self.stored_heat.merge(other.stored_heat)
        self.sprint_count += other.sprint_count
        self.sprint_fullness_sum += other.sprint_fullness_sum
        self.deadline_miss_count += other.deadline_miss_count
        self.peak_temperature_c = max(self.peak_temperature_c, other.peak_temperature_c)
        self.peak_melt_fraction = max(self.peak_melt_fraction, other.peak_melt_fraction)
        self.first_arrival_s = min(self.first_arrival_s, other.first_arrival_s)
        self.last_completion_s = max(self.last_completion_s, other.last_completion_s)
        self.rejected_count += other.rejected_count
        self.abandoned_count += other.abandoned_count
        return self

    def summarize(
        self,
        slo_s: float | None = None,
        governor_stats: "GovernorStats | None" = None,
    ) -> "TrafficSummary":
        """Reduce the stream to a :class:`~repro.traffic.metrics.TrafficSummary`.

        The sketch-backed twin of :func:`repro.traffic.metrics.summarize`:
        percentiles and SLO attainment come from the quantile sketch (and
        carry its rank-error bound in ``sketch_rank_error``); counts,
        means, and extrema are exact.  ``telemetry_source`` is
        ``"sketch"`` so downstream consumers can tell the two apart.
        """
        from repro.traffic.metrics import build_summary, validate_slo

        validate_slo(slo_s)
        n = self.request_count
        if n == 0:
            return build_summary(
                source="sketch",
                rank_error=self.latency.rank_error_bound,
                slo_s=slo_s,
                rejected_count=self.rejected_count,
                abandoned_count=self.abandoned_count,
                governor_stats=governor_stats,
            )
        p50, p95, p99 = self.latency.quantiles((0.50, 0.95, 0.99))
        makespan = self.last_completion_s - self.first_arrival_s
        return build_summary(
            source="sketch",
            rank_error=self.latency.rank_error_bound,
            request_count=n,
            makespan_s=makespan,
            throughput_rps=n / makespan if makespan > 0 else 0.0,
            mean_latency_s=self.latency.mean,
            p50_latency_s=p50,
            p95_latency_s=p95,
            p99_latency_s=p99,
            max_latency_s=self.latency.max,
            mean_queueing_s=self.queueing.mean,
            sprint_fraction=self.sprint_count / n,
            mean_sprint_fullness=self.sprint_fullness_sum / n,
            peak_stored_heat_j=self.stored_heat.max,
            mean_stored_heat_j=self.stored_heat.mean,
            peak_temperature_c=self.peak_temperature_c,
            peak_melt_fraction=self.peak_melt_fraction,
            slo_s=slo_s,
            slo_attainment=None if slo_s is None else self.latency.cdf(slo_s),
            rejected_count=self.rejected_count,
            abandoned_count=self.abandoned_count,
            deadline_miss_count=self.deadline_miss_count,
            governor_stats=governor_stats,
        )


# -- the fleet timeline probe -----------------------------------------------------------


@dataclass
class _Counters:
    """Per-window event counters (mutable while the probe is live)."""

    arrivals: int = 0
    served: int = 0
    rejected: int = 0
    abandoned: int = 0
    sprints_completed: int = 0
    sprints_granted: int = 0
    sprints_denied: int = 0
    breaker_trips: int = 0
    peak_temperature_c: float = 0.0
    peak_melt_fraction: float = 0.0


@dataclass
class _Gauges:
    """Per-window gauge peaks (queue depth, in-flight sprints)."""

    peak_queue_depth: int = 0
    peak_in_flight_sprints: int = 0


@dataclass(frozen=True)
class FleetTimeline:
    """Windowed fleet time series, columnar and mergeable.

    One row per cadence window, from the first arrival window through the
    run's horizon; empty windows carry zero counters and the standing
    gauge values, so ``window_start_s`` is always contiguous.  Counter
    columns obey request conservation over a completed run::

        arrivals.sum() == served.sum() + rejected.sum() + abandoned.sum()

    (the hypothesis invariant suite asserts this across the engine's
    whole configuration space).  Timelines merge across shards and
    replications: counters add, gauge/thermal peaks take the max.

    ``scope`` names what the timeline covers — ``"fleet"`` for a whole
    run, a hierarchical rack path (``row0/rack2``) for one topology
    shard's view; merging timelines with different scopes yields their
    longest common path prefix (``"fleet"`` when there is none).
    """

    cadence_s: float
    excess_power_w: float
    window_start_s: np.ndarray
    arrivals: np.ndarray
    served: np.ndarray
    rejected: np.ndarray
    abandoned: np.ndarray
    sprints_completed: np.ndarray
    sprints_granted: np.ndarray
    sprints_denied: np.ndarray
    breaker_trips: np.ndarray
    peak_queue_depth: np.ndarray
    peak_in_flight_sprints: np.ndarray
    peak_temperature_c: np.ndarray
    peak_melt_fraction: np.ndarray
    #: What the timeline covers: ``"fleet"`` or a hierarchical rack path.
    scope: str = "fleet"

    #: Counter columns (summed under merge); the rest are peaks (maxed).
    COUNTER_COLUMNS = (
        "arrivals",
        "served",
        "rejected",
        "abandoned",
        "sprints_completed",
        "sprints_granted",
        "sprints_denied",
        "breaker_trips",
    )
    PEAK_COLUMNS = (
        "peak_queue_depth",
        "peak_in_flight_sprints",
        "peak_temperature_c",
        "peak_melt_fraction",
    )

    @property
    def n_windows(self) -> int:
        """Number of cadence windows the timeline spans."""
        return len(self.window_start_s)

    @property
    def peak_granted_power_w(self) -> np.ndarray:
        """Peak granted excess draw per window (in-flight sprints × excess W)."""
        return self.peak_in_flight_sprints * self.excess_power_w

    def to_dict(self) -> dict:
        """Plain-JSON columnar form (lists, not arrays)."""
        out: dict = {
            "scope": self.scope,
            "cadence_s": self.cadence_s,
            "excess_power_w": self.excess_power_w,
            "window_start_s": [float(t) for t in self.window_start_s],
        }
        for name in self.COUNTER_COLUMNS:
            out[name] = [int(v) for v in getattr(self, name)]
        for name in self.PEAK_COLUMNS:
            out[name] = [float(v) for v in getattr(self, name)]
        return out

    def merge(self, other: "FleetTimeline") -> "FleetTimeline":
        """Combine two timelines window-by-window (returns a new timeline).

        Counters add and peaks take the max, aligned on window index; the
        shorter timeline is zero-padded (counters) / carried flat (peaks
        contribute nothing past their horizon).  Cadences must match.
        """
        if not math.isclose(self.cadence_s, other.cadence_s):
            raise ValueError(
                f"timeline cadences must match to merge "
                f"({self.cadence_s} vs {other.cadence_s})"
            )
        n = max(self.n_windows, other.n_windows)
        cadence = self.cadence_s

        def padded(timeline: FleetTimeline, name: str) -> np.ndarray:
            column = getattr(timeline, name)
            if len(column) == n:
                return column
            return np.concatenate(
                [column, np.zeros(n - len(column), dtype=column.dtype)]
            )

        columns = {
            name: padded(self, name) + padded(other, name)
            for name in self.COUNTER_COLUMNS
        }
        columns.update(
            {
                name: np.maximum(padded(self, name), padded(other, name))
                for name in self.PEAK_COLUMNS
            }
        )
        if self.scope == other.scope:
            scope = self.scope
        else:
            prefix = []
            for a, b in zip(self.scope.split("/"), other.scope.split("/")):
                if a != b:
                    break
                prefix.append(a)
            scope = "/".join(prefix) or "fleet"
        return FleetTimeline(
            cadence_s=cadence,
            excess_power_w=max(self.excess_power_w, other.excess_power_w),
            window_start_s=np.arange(n, dtype=float) * cadence,
            scope=scope,
            **columns,
        )


class TimelineProbe:
    """Live windowed sampler the engine drives during a run.

    Counters (arrivals, completions, rejections, grants, trips, thermal
    peaks) are bucketed by their event timestamp — completions by the
    request's *completion* instant, which in immediate mode can lie past
    the arrival event that computed it, so windows reflect simulated
    time, not processing order.  Gauges (queue depth, in-flight sprints)
    are updated in event order and carried forward across idle windows,
    recording each window's peak.  :meth:`finalize` freezes everything
    into a columnar :class:`FleetTimeline`.
    """

    def __init__(self, cadence_s: float, excess_power_w: float = 0.0) -> None:
        if cadence_s <= 0:
            raise ValueError("timeline cadence must be positive")
        self.cadence_s = float(cadence_s)
        self.excess_power_w = float(excess_power_w)
        self._counters: dict[int, _Counters] = {}
        self._gauges: dict[int, _Gauges] = {}
        self._queue_depth = 0
        self._in_flight = 0
        self._gauge_window = 0
        self._max_window = 0

    def _window(self, time_s: float) -> int:
        return max(0, int(time_s / self.cadence_s))

    def _counter_at(self, idx: int) -> _Counters:
        if idx > self._max_window:
            self._max_window = idx
        counter = self._counters.get(idx)
        if counter is None:
            counter = self._counters[idx] = _Counters()
        return counter

    def _counter(self, time_s: float) -> _Counters:
        return self._counter_at(self._window(time_s))

    # -- counters (any timestamp) -------------------------------------------------------

    def on_arrival(self, time_s: float) -> None:
        self._counter(time_s).arrivals += 1

    def on_rejected(self, time_s: float) -> None:
        self._counter(time_s).rejected += 1

    def on_abandoned(self, time_s: float) -> None:
        self._counter(time_s).abandoned += 1

    def on_served(self, served: "ServedRequest") -> None:
        counter = self._counter(served.completed_at_s)
        counter.served += 1
        if served.sprinted:
            counter.sprints_completed += 1
        if served.package_temperature_c > counter.peak_temperature_c:
            counter.peak_temperature_c = served.package_temperature_c
        if served.melt_fraction > counter.peak_melt_fraction:
            counter.peak_melt_fraction = served.melt_fraction

    def on_arrival_batch(self, times: Sequence[float]) -> None:
        """Count a column of arrivals — bit-identical to per-event calls.

        Window counters are order-free: grouping the column by window and
        adding per-window counts leaves the same counter state as one
        :meth:`on_arrival` call per timestamp.
        """
        times = np.asarray(times, dtype=float)
        if times.size == 0:
            return
        windows = (times / self.cadence_s).astype(np.int64)
        np.maximum(windows, 0, out=windows)
        unique, counts = np.unique(windows, return_counts=True)
        for idx, count in zip(unique.tolist(), counts.tolist()):
            self._counter_at(idx).arrivals += count

    def on_served_batch(
        self,
        completions: Sequence[float],
        sprinted: Sequence[bool],
        temperatures: Sequence[float],
        melts: "Sequence[float] | None" = None,
    ) -> None:
        """Fold a column of completions in — bit-identical to :meth:`on_served`.

        Completion counts and sprint counts add per window; thermal peaks
        take each window's column maximum and then the strict-greater
        update the scalar path applies, so the final per-window peaks
        match exactly.  ``melts=None`` (linear backends) leaves melt peaks
        untouched, as per-request zero melt fractions would.
        """
        completions = np.asarray(completions, dtype=float)
        if completions.size == 0:
            return
        windows = (completions / self.cadence_s).astype(np.int64)
        np.maximum(windows, 0, out=windows)
        sprinted = np.asarray(sprinted, dtype=bool)
        temperatures = np.asarray(temperatures, dtype=float)
        unique, inverse = np.unique(windows, return_inverse=True)
        served = np.bincount(inverse, minlength=unique.size)
        sprints = np.bincount(
            inverse, weights=sprinted, minlength=unique.size
        )
        temp_peak = np.full(unique.size, -np.inf)
        np.maximum.at(temp_peak, inverse, temperatures)
        if melts is not None:
            melt_peak = np.full(unique.size, -np.inf)
            np.maximum.at(melt_peak, inverse, np.asarray(melts, dtype=float))
        for j, idx in enumerate(unique.tolist()):
            counter = self._counter_at(idx)
            counter.served += int(served[j])
            counter.sprints_completed += int(sprints[j])
            temp = float(temp_peak[j])
            if temp > counter.peak_temperature_c:
                counter.peak_temperature_c = temp
            if melts is not None:
                melt = float(melt_peak[j])
                if melt > counter.peak_melt_fraction:
                    counter.peak_melt_fraction = melt

    def on_grant(self, time_s: float, granted: bool) -> None:
        counter = self._counter(time_s)
        if granted:
            counter.sprints_granted += 1
        else:
            counter.sprints_denied += 1

    def on_breaker_trip(self, time_s: float) -> None:
        self._counter(time_s).breaker_trips += 1

    # -- gauges (non-decreasing timestamps) ---------------------------------------------

    def _gauge(self, time_s: float) -> _Gauges:
        """The gauge record for ``time_s``, carrying standing values forward."""
        idx = self._window(time_s)
        if idx > self._max_window:
            self._max_window = idx
        for j in range(self._gauge_window, idx + 1):
            if j not in self._gauges:
                self._gauges[j] = _Gauges(
                    peak_queue_depth=self._queue_depth,
                    peak_in_flight_sprints=self._in_flight,
                )
        if idx > self._gauge_window:
            self._gauge_window = idx
        return self._gauges[idx]

    def on_queue_depth(self, time_s: float, depth: int) -> None:
        gauge = self._gauge(time_s)
        self._queue_depth = depth
        if depth > gauge.peak_queue_depth:
            gauge.peak_queue_depth = depth

    def on_in_flight_sprints(self, time_s: float, in_flight: int) -> None:
        gauge = self._gauge(time_s)
        self._in_flight = in_flight
        if in_flight > gauge.peak_in_flight_sprints:
            gauge.peak_in_flight_sprints = in_flight

    # -- freezing -----------------------------------------------------------------------

    def finalize(self, horizon_s: float | None = None) -> FleetTimeline:
        """Freeze the probe into a contiguous columnar :class:`FleetTimeline`.

        ``horizon_s`` extends the timeline through the run's resolved end
        (windows past the last event are emitted with zero counters and
        standing gauges); ``None`` stops at the last observed window.
        """
        last = self._max_window
        if horizon_s is not None:
            last = max(last, self._window(horizon_s))
        n = last + 1
        ints = {
            name: np.zeros(n, dtype=np.int64)
            for name in FleetTimeline.COUNTER_COLUMNS
        }
        temp = np.zeros(n, dtype=float)
        melt = np.zeros(n, dtype=float)
        for idx, counter in self._counters.items():
            for name in FleetTimeline.COUNTER_COLUMNS:
                ints[name][idx] = getattr(counter, name)
            temp[idx] = counter.peak_temperature_c
            melt[idx] = counter.peak_melt_fraction
        queue = np.zeros(n, dtype=np.int64)
        sprints = np.zeros(n, dtype=np.int64)
        standing_queue = 0
        standing_sprints = 0
        for idx in range(n):
            gauge = self._gauges.get(idx)
            if gauge is not None:
                queue[idx] = gauge.peak_queue_depth
                sprints[idx] = gauge.peak_in_flight_sprints
                standing_queue = gauge.peak_queue_depth
                standing_sprints = gauge.peak_in_flight_sprints
            else:
                queue[idx] = standing_queue
                sprints[idx] = standing_sprints
        return FleetTimeline(
            cadence_s=self.cadence_s,
            excess_power_w=self.excess_power_w,
            window_start_s=np.arange(n, dtype=float) * self.cadence_s,
            peak_queue_depth=queue,
            peak_in_flight_sprints=sprints,
            peak_temperature_c=temp,
            peak_melt_fraction=melt,
            **ints,
        )


# -- structured event tracing -----------------------------------------------------------

#: Lifecycle kinds an :class:`EventTrace` records, in lifecycle order.
TRACE_KINDS = (
    "arrival",
    "dispatch",
    "grant",
    "deny",
    "release",
    "trip",
    "reject",
    "abandon",
    "complete",
)


@dataclass(frozen=True)
class TraceRecord:
    """One structured trace event.

    ``device_id`` is the device's position within its serving engine;
    ``label`` is its stable hierarchical identity (``row0/rack2/dev5``)
    when the fleet carries one, so traces merged across topology shards
    stay attributable after engine-local positions collide.
    """

    time_s: float
    kind: str
    request_index: int | None = None
    device_id: int | None = None
    detail: float | None = None
    label: str | None = None

    def to_json(self) -> str:
        """One JSON-lines record (``None`` fields omitted)."""
        payload = {
            k: v for k, v in dataclasses.asdict(self).items() if v is not None
        }
        return json.dumps(payload, sort_keys=True)


class EventTrace:
    """Ring-buffered structured trace of the engine's request lifecycle.

    Bounded by construction: once ``capacity`` records are held, each new
    record overwrites the oldest (``dropped`` counts the overwritten
    ones), so tracing a million-request run costs the same memory as
    tracing a thousand-request one — and a breaker-trip post-mortem
    naturally keeps the *latest* events, which are the ones that matter.
    ``capacity=None`` keeps everything (debugging small runs).
    """

    def __init__(self, capacity: int | None = 4096) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("trace capacity must be positive (or None)")
        self.capacity = capacity
        self._ring: list[TraceRecord] = []
        self._next = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._ring)

    def add(
        self,
        time_s: float,
        kind: str,
        request_index: int | None = None,
        device_id: int | None = None,
        detail: float | None = None,
        label: str | None = None,
    ) -> None:
        """Record one lifecycle event (O(1), never raises on overflow)."""
        if kind not in TRACE_KINDS:
            raise ValueError(f"unknown trace kind {kind!r}; available: {TRACE_KINDS}")
        record = TraceRecord(
            time_s=time_s,
            kind=kind,
            request_index=request_index,
            device_id=device_id,
            detail=detail,
            label=label,
        )
        if self.capacity is None or len(self._ring) < self.capacity:
            self._ring.append(record)
        else:
            self._ring[self._next] = record
            self._next = (self._next + 1) % self.capacity
            self.dropped += 1

    @property
    def records(self) -> tuple[TraceRecord, ...]:
        """Retained records in insertion order (oldest surviving first)."""
        return tuple(self._ring[self._next :] + self._ring[: self._next])

    def by_kind(self, kind: str) -> tuple[TraceRecord, ...]:
        """Retained records of one lifecycle kind."""
        if kind not in TRACE_KINDS:
            raise ValueError(f"unknown trace kind {kind!r}; available: {TRACE_KINDS}")
        return tuple(r for r in self.records if r.kind == kind)

    def to_jsonl(self) -> str:
        """The retained records as JSON-lines text."""
        return "\n".join(record.to_json() for record in self.records)

    def write_jsonl(self, path) -> int:
        """Write the retained records to ``path``; returns the record count."""
        records = self.records
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(record.to_json())
                handle.write("\n")
        return len(records)


# -- configuration and the per-run bundle -----------------------------------------------


@dataclass(frozen=True)
class TelemetrySpec:
    """What telemetry a run should collect (frozen, sweep/scenario friendly).

    ``sketch`` enables the streaming :class:`TrafficTelemetry` (required
    for summaries when ``keep_samples=False``); ``timeline_cadence_s``
    enables the :class:`TimelineProbe` at that window width; and
    ``trace_capacity`` enables the :class:`EventTrace` ring (``None``
    disables tracing, ``0`` means unbounded — debugging only).
    """

    sketch: bool = True
    sketch_capacity: int = 512
    timeline_cadence_s: float | None = None
    trace_capacity: int | None = None

    def __post_init__(self) -> None:
        if self.sketch_capacity < QuantileSketch.MIN_CAPACITY:
            raise ValueError(
                f"sketch capacity must be at least {QuantileSketch.MIN_CAPACITY}"
            )
        if self.timeline_cadence_s is not None and not (
            0 < self.timeline_cadence_s < math.inf
        ):
            raise ValueError("timeline cadence must be positive and finite (or None)")
        if self.trace_capacity is not None and not self.trace_capacity >= 0:
            raise ValueError("trace capacity must be non-negative (or None)")

    @property
    def enabled(self) -> bool:
        """True when any instrument is switched on."""
        return (
            self.sketch
            or self.timeline_cadence_s is not None
            or self.trace_capacity is not None
        )

    def build_stream(self) -> TrafficTelemetry | None:
        """A fresh telemetry stream per the spec (None when disabled)."""
        if not self.sketch:
            return None
        return TrafficTelemetry(sketch_capacity=self.sketch_capacity)

    def build_probe(self, excess_power_w: float = 0.0) -> TimelineProbe | None:
        """A fresh timeline probe per the spec (None when disabled)."""
        if self.timeline_cadence_s is None:
            return None
        return TimelineProbe(self.timeline_cadence_s, excess_power_w=excess_power_w)

    def build_trace(self) -> EventTrace | None:
        """A fresh event trace per the spec (None when disabled)."""
        if self.trace_capacity is None:
            return None
        return EventTrace(capacity=self.trace_capacity or None)


@dataclass(frozen=True)
class RunTelemetry:
    """Everything one run's telemetry instruments produced."""

    #: Streaming summary accumulator (None when the sketch was disabled).
    stream: TrafficTelemetry | None = None
    #: Frozen windowed time series (None when no cadence was configured).
    timeline: FleetTimeline | None = None
    #: Structured lifecycle trace (None when tracing was off).
    trace: EventTrace | None = None
