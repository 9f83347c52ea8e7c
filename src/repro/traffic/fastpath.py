"""Vectorized and batch-replayed execution: the engine's numpy fast path.

The exact engine (:mod:`repro.traffic.engine`) resolves one heap event per
request in pure Python.  This module is the ``engine="batched"`` execution
strategy: the same runs, bit-identical, at a fraction of the interpreter
work.  Two cores divide the envelope, chosen by cost:

* **The batch-replay event core** (every run in the envelope, unless the
  lockstep core below is cheaper) keeps the exact loop's event semantics
  (same event kinds, same tie-break order, same float paths) but strips
  its interpreter overhead: arrivals merge from the sorted column stream
  instead of living in the heap, the FIFO queue is a deque of tokens,
  device execution is the linear-reservoir arithmetic inlined on plain
  floats, and outcomes land in column buffers (objects are built only for
  a timeline probe, whose ``on_served`` takes one).  Immediate dispatch
  asks the same questions the exact policies ask, of the core's
  plain-float mirrors: ``least_loaded`` through the exact loop's own
  :class:`~repro.traffic.engine.LeastLoadedIndex`, ``thermal_aware``
  through its slack window and budget key inlined over the linear
  reservoir's projection, ``random`` through one block draw per chunk.  Grant decisions go through the *real*
  governor object at the exact event timestamps, so ``GovernorStats``
  ledgers replay exactly — for ``greedy``, ``cooperative_threshold``, and
  any cascade of them.
* **The lockstep vector core** (ungoverned immediate ``round_robin`` or
  ``random`` dispatch on fleets of at least :data:`LOCKSTEP_MIN_DEVICES`
  devices) — when the device assignment sequence is known up front
  (``round_robin`` is ``(cursor + i) mod n``; ``random`` is one block draw
  of ``rng.integers``, bit-identical to the scalar per-request draws),
  every device's request chain is independent, so all devices advance in
  lockstep *rounds*: round ``k`` executes the ``k``-th request of every
  device that has one, as ~30 vectorized ops over the active-device axis.
  The linear-reservoir sprint decision (drain, headroom, full / partial /
  sustained, deposit) is elementwise ``max``/``where`` arithmetic whose
  float operations are exactly the scalar pacer's.  A round costs the
  same whatever its width, so this core only wins on wide fleets.

Streaming observers do not disqualify the fast path: the telemetry
sketch is fed from per-chunk columnar buffers
(:meth:`~repro.traffic.telemetry.TrafficTelemetry.observe_batch`), the
timeline probe from per-window batch counters, and the (ring-bounded)
event trace from a scalar replay in processing order — all bit-identical
to the per-event callbacks.

Configurations outside the envelope — EDF queue re-sorting, token-bucket
grant refill, custom dispatch callables, physics thermal backends — keep
the exact event loop: ``batched`` execution falls back honestly rather
than approximate.  The :func:`unsupported_reason` predicate is the single
source of truth for that envelope, and ``ServingEngine.last_run_fast_path``
reports which path a run actually took.

Both cores consume :class:`~repro.traffic.request.RequestBlock` columns,
read and write the fleet's :class:`~repro.traffic.device.FleetState` in
place, and emit :class:`~repro.traffic.device.ServedColumns`, so a batched
run builds no per-device or per-request object unless a caller reads one,
and the streaming entry point (``ServingEngine.run_blocks`` under
``keep_samples=False``) holds one chunk in memory regardless of horizon.
An engine handed a list of :class:`~repro.traffic.device.SprintDevice`
objects instead has them gathered into a state for the run and written
back after it.

Usage — :func:`unsupported_reason` names exactly what keeps a
configuration on the exact loop:

>>> from repro.core.config import SystemConfig
>>> from repro.traffic.device import SprintDevice
>>> from repro.traffic.engine import DISPATCH_POLICIES, ServingEngine
>>> from repro.traffic.fastpath import unsupported_reason
>>> devices = [
...     SprintDevice(SystemConfig.paper_default(), device_id=i) for i in range(2)
... ]
>>> unsupported_reason(
...     ServingEngine(devices, DISPATCH_POLICIES["least_loaded"], "least_loaded")
... ) is None
True
>>> def first_device(devices, request, rng, cursor):
...     return 0
>>> unsupported_reason(ServingEngine(devices, first_device, "first_device"))
'custom dispatch callable must be consulted per request'
>>> unsupported_reason(
...     ServingEngine(
...         devices,
...         DISPATCH_POLICIES["round_robin"],
...         "round_robin",
...         mode="central_queue",
...         discipline="edf",
...     )
... )
"queue discipline 'edf' re-sorts the shared queue on deadlines"
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.core.thermal_backend import LinearReservoir
from repro.traffic.device import FleetState, ServedColumns, ServedRequest
from repro.traffic.request import RequestBlock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.traffic.engine import EngineResult, ServingEngine

#: Immediate-mode policies whose assignment sequence is precomputable.
LOCKSTEP_POLICIES = ("round_robin", "random")

#: Fleet width from which ungoverned immediate ``LOCKSTEP_POLICIES`` runs
#: take the lockstep core instead of the event core.  A lockstep round costs
#: ~30 numpy calls whatever its width, so it only pays once rounds are wide.
#: Measured with round_robin, 20k Gamma(5 s, cv 0.5) requests at 0.1 req/s
#: per device, on a 2-core x86 host: on one device the event core served
#: 136k req/s against lockstep's 15k; with flat memory
#: (``keep_samples=False``) the event core took 0.85x lockstep's time at
#: 32 devices, 1.08x at 48 and 1.29x at 64.  With kept samples both cores
#: emit columns, and the event core took 0.93x at 24 devices, 1.20x at 32,
#: 1.52x at 48 and 1.89x at 64, so kept-sample runs cross over earlier,
#: near 28 devices.  48 is the flat-memory crossover, where the wide fleets
#: lockstep exists for run; narrower kept-sample runs stay on the event
#: core, at most ~1.2x off.
LOCKSTEP_MIN_DEVICES = 48

def unsupported_reason(engine: "ServingEngine") -> str | None:
    """Why this engine configuration cannot take the vector fast path.

    Returns ``None`` when the fast path applies.  The conditions mirror the
    module docstring: anything whose exact replay cannot be proven —
    deadline-ordered queue re-sorting, custom dispatch callables,
    token-bucket refill arithmetic, open-form thermal physics — forces the
    exact heap loop.  Every named dispatch policy, streaming observers and
    power governors are *inside* the envelope: the event core replays the
    state-dependent policies on its own state mirrors, observers are fed
    from columnar buffers, and grant policies that declare
    ``supports_batched_replay`` are replayed through the real governor
    object.  A :class:`~repro.traffic.device.FleetState` is linear by
    construction, so only a device list is scanned for its backends.
    """
    from repro.traffic.engine import DISPATCH_POLICIES

    if engine.mode == "central_queue":
        # Central dispatch never consults the immediate-mode policy; only
        # the queue ordering matters.  FIFO drains in token order, which
        # the batch core reproduces with a deque; EDF re-sorts on absolute
        # deadlines and keeps the exact heap.
        if engine.discipline != "fifo":
            return (
                f"queue discipline {engine.discipline!r} re-sorts the "
                "shared queue on deadlines"
            )
    elif engine.dispatch is not DISPATCH_POLICIES.get(engine.policy_name):
        return "custom dispatch callable must be consulted per request"
    governor = engine.governor
    if governor is not None and not governor.is_unlimited:
        if not getattr(governor, "supports_batched_replay", False):
            return (
                f"governor {governor.name!r} has no exact batched grant replay"
            )
    if engine.state is None:
        for device in engine.devices:
            if type(device.thermal_backend) is not LinearReservoir:
                return (
                    f"thermal backend {device.thermal_backend.name!r} has no "
                    "closed vector form"
                )
    return None


def _assignments(
    policy: str, n_devices: int, count: int, cursor: int, rng: np.random.Generator
) -> np.ndarray:
    """Device position of each request in a chunk, matching the scalar policy."""
    if policy == "round_robin":
        return (cursor + np.arange(count, dtype=np.int64)) % n_devices
    # random: one block draw consumes the bit stream exactly like the
    # scalar loop's per-request rng.integers(n) calls.
    return rng.integers(n_devices, size=count)


def _advance_chunk(
    state: FleetState,
    assign: np.ndarray,
    times: np.ndarray,
    demands: np.ndarray,
    collect: bool,
) -> tuple[np.ndarray, ...] | None:
    """Advance every device through its requests in this chunk.

    Requests for one device execute in arrival order; lockstep round ``k``
    processes the ``k``-th request of every device that has one.  Returns
    per-request output columns (in chunk order) when ``collect`` is set —
    for kept samples or for feeding streaming observers columnarly.
    """
    count = times.size
    order = np.argsort(assign, kind="stable")
    counts = np.bincount(assign, minlength=len(state))
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))

    if collect:
        out_queueing = np.empty(count)
        out_response = np.empty(count)
        out_before = np.empty(count)
        out_after = np.empty(count)
        out_fullness = np.empty(count)
        out_temp = np.empty(count)
        out_sprinted = np.empty(count, dtype=bool)

    rounds = int(counts.max()) if count else 0
    for k in range(rounds):
        active = np.flatnonzero(counts > k)
        idx = order[offsets[active] + k]
        t_k = times[idx]
        s_k = demands[idx]

        clock_a = state.clock[active]
        stored_a = state.stored[active]
        start = np.maximum(t_k, clock_a)
        # Idle-gap drain, then the sprint decision — the exact elementwise
        # float ops of SprintPacer.execute_at over a LinearReservoir.
        after_drain = np.maximum(
            0.0, stored_a - state.drain_w[active] * (start - clock_a)
        )
        headroom = np.maximum(0.0, state.capacity[active] - after_drain)
        sprint_time = s_k / state.speedup[active]
        demand = np.maximum(0.0, state.excess_w[active] * sprint_time)
        allow = state.allow[active]
        full = allow & (demand <= headroom)
        partial = allow & ~full & ~state.refuse[active] & (headroom > 0.0)

        response = s_k.copy()
        fullness = np.zeros(active.size)
        deposit = np.zeros(active.size)
        response[full] = sprint_time[full]
        fullness[full] = 1.0
        deposit[full] = demand[full]
        if partial.any():
            frac = headroom[partial] / demand[partial]
            fullness[partial] = frac
            response[partial] = (
                frac * sprint_time[partial] + (1.0 - frac) * s_k[partial]
            )
            deposit[partial] = headroom[partial]
        stored_new = after_drain + deposit
        sprinted = full | partial

        state.clock[active] = start + response
        state.stored[active] = stored_new
        state.served[active] += 1
        state.sprints[active] += sprinted
        state.busy_seconds[active] += response
        state.fullness_total[active] += fullness
        state.deposited[active] += deposit
        state.drained[active] += stored_a - after_drain
        state.peak_stored[active] = np.maximum(state.peak_stored[active], stored_new)
        state.last_arrival[active] = t_k

        if collect:
            out_queueing[idx] = start - t_k
            out_response[idx] = response
            out_before[idx] = after_drain
            out_after[idx] = stored_new
            out_fullness[idx] = fullness
            out_sprinted[idx] = sprinted
            capacity = state.capacity[active]
            fill = np.divide(
                stored_new,
                capacity,
                out=np.zeros(active.size),
                where=capacity > 0.0,
            )
            out_temp[idx] = state.ambient[active] + fill * state.headroom_c[active]

    if not collect:
        return None
    return (
        out_queueing,
        out_response,
        out_before,
        out_after,
        out_fullness,
        out_temp,
        out_sprinted,
    )


def _check_chunk_order(
    times: np.ndarray, previous_end: float
) -> float:
    """Assert one chunk continues a time-ordered stream; return its end."""
    if times[0] < previous_end or np.any(np.diff(times) < 0):
        raise ValueError("batched execution needs time-ordered arrivals")
    return float(times[-1])


def _run_immediate_core(
    engine: "ServingEngine",
    state: FleetState,
    stream: Iterable[RequestBlock],
    rng: np.random.Generator,
) -> "EngineResult":
    """The lockstep vector core: ungoverned immediate dispatch.

    Kept samples are the per-chunk output columns themselves, concatenated
    once at the end (served order is arrival order here).  Observers are
    fed per chunk from the same columns: the telemetry sketch through
    ``observe_batch``, the timeline probe through its windowed batch
    counters (immediate ungoverned runs touch no gauges), and the event
    trace through a scalar replay in processing order — each bit-identical
    to the exact loop's per-event callbacks because every one of those
    instruments is either order-free (window counters, peaks) or fed in the
    exact processing order (sketch columns, trace records).
    """
    from repro.traffic.engine import EngineResult

    keep = engine.keep_samples
    telemetry = engine.telemetry
    probe = engine.probe
    trace = engine.trace
    collect = keep or telemetry is not None or probe is not None or trace is not None
    kept: list[tuple] = []
    served_count = 0
    cursor = 0
    last_s = 0.0
    previous_end = -np.inf

    for block in stream:
        count = len(block)
        if count == 0:
            continue
        times = block.arrival_s
        previous_end = _check_chunk_order(times, previous_end)
        assign = _assignments(engine.policy_name, len(state), count, cursor, rng)
        cursor += count
        outputs = _advance_chunk(state, assign, times, block.sustained_time_s, collect)
        served_count += count
        last_s = previous_end
        if not collect:
            continue
        queueing, response, before, after, fullness, temp, sprinted = outputs
        if keep:
            kept.append((block, assign, sprinted, *outputs[:6]))
        latency = queueing + response
        completed = times + latency
        if probe is not None:
            probe.on_arrival_batch(times)
            probe.on_served_batch(completed, sprinted, temp)
        if telemetry is not None:
            deadline_at = block.deadline_at()
            missed = 0
            if deadline_at is not None:
                missed = int(np.count_nonzero(completed > deadline_at))
            telemetry.observe_batch(
                latencies=latency.tolist(),
                queueing_delays=queueing.tolist(),
                stored_heats=after.tolist(),
                sprinted_count=int(np.count_nonzero(sprinted)),
                fullness=fullness.tolist(),
                deadline_miss_count=missed,
                peak_temperature_c=float(temp.max()),
                peak_melt_fraction=0.0,
                first_arrival_s=float(times[0]),
                last_completion_s=float(completed.max()),
            )
        if trace is not None:
            labels = state.labels
            t_l = times.tolist()
            c_l = completed.tolist()
            lat_l = latency.tolist()
            pos_l = assign.tolist()
            gid_l = state.device_ids[assign].tolist()
            for i, ridx in enumerate(block.indices.tolist()):
                pos = pos_l[i]
                trace.add(t_l[i], "arrival", request_index=ridx)
                trace.add(
                    t_l[i],
                    "dispatch",
                    request_index=ridx,
                    device_id=pos,
                    label=labels[pos],
                )
                trace.add(
                    c_l[i],
                    "complete",
                    request_index=ridx,
                    device_id=gid_l[i],
                    detail=lat_l[i],
                    label=labels[pos],
                )

    served = ServedColumns.empty()
    if kept:
        blocks, assigns, *columns = zip(*kept)
        queueing, response, before, after, fullness, temp = (
            np.concatenate(c) for c in columns[1:]
        )
        served = ServedColumns(
            RequestBlock.concat(blocks),
            state.device_ids[np.concatenate(assigns)],
            np.concatenate(columns[0]),
            queueing,
            response,
            before,
            after,
            fullness,
            temp,
            np.zeros(served_count),
        )
    return EngineResult(
        served_columns=served,
        final_time_s=last_s,
        served_count=served_count,
    )


def _run_event_core(
    engine: "ServingEngine",
    state: FleetState,
    stream: Iterable[RequestBlock],
    rng: np.random.Generator,
) -> "EngineResult":
    """The batch-replay event core: every batched run lockstep does not take.

    The exact loop's semantics with its interpreter overhead stripped.
    Three structural changes, each order-preserving by construction:

    * **Arrivals merge from the sorted column stream** instead of living in
      the heap.  At most one ARRIVAL is ever in the exact heap, and at
      equal timestamps ARRIVAL beats only DEADLINE, so an arrival at ``t``
      is processed exactly after every heap event ``(t', kind)`` with
      ``t' < t`` or ``t' == t and kind < ARRIVAL``.
    * **The FIFO queue is a deque of tokens** with a ``waiting`` dict for
      lazy deadline deletion.  The exact heap keys FIFO entries by their
      monotonically increasing token, so heap order *is* append order.
    * **Device execution is inlined** linear-reservoir arithmetic on plain
      floats — the same operations, in the same order, as
      ``SprintPacer.execute_at``.  Kept samples append those floats to a
      column buffer (with each request's row in the stream), and
      ``Request``/``ServedRequest`` objects are only built for the
      timeline probe's ``on_served``.

    Grant decisions, releases, and breaker resets go through the *real*
    governor object at the exact event timestamps (the heap carries
    GRANT_RELEASE/BREAKER_RESET/DEVICE_FREE/DEADLINE events with the exact
    loop's tie-break kinds), so ``GovernorStats`` — and every cascade
    level's ledger — replays exactly.
    """
    from repro.traffic.engine import EngineResult

    n = len(state)
    # Plain-float mirrors of the columnar state, written back at the end:
    # attribute lookups and numpy scalar boxing are what the exact loop
    # spends its time on.
    clock = state.clock.tolist()
    stored = state.stored.tolist()
    drain_w = state.drain_w.tolist()
    excess_w = state.excess_w.tolist()
    speedup = state.speedup.tolist()
    capacity = state.capacity.tolist()
    ambient = state.ambient.tolist()
    headroom_c = state.headroom_c.tolist()
    dev_allow = state.allow.tolist()
    refuse = state.refuse.tolist()
    device_ids = state.device_ids.tolist()
    # Lifetime counts, serving history included: the exact loop's
    # tie-breaks read ``requests_served``.
    served_n = state.served.tolist()
    sprints_n = state.sprints.tolist()
    busy_sec = state.busy_seconds.tolist()
    full_tot = state.fullness_total.tolist()
    dep_tot = state.deposited.tolist()
    drn_tot = state.drained.tolist()
    peak_st = state.peak_stored.tolist()
    last_arr = state.last_arrival.tolist()

    keep = engine.keep_samples
    telemetry = engine.telemetry
    probe = engine.probe
    trace = engine.trace
    labels = state.labels if trace is not None else None
    need_temperature = keep or probe is not None or telemetry is not None
    need_deadlines = engine.mode == "central_queue" or telemetry is not None

    governor = engine.governor
    governed = governor is not None and not governor.is_unlimited
    central = engine.mode == "central_queue"
    policy = engine.policy_name
    random_policy = policy == "random" and not central
    thermal_aware = policy == "thermal_aware"
    index = None
    if not central and policy == "least_loaded":
        from repro.traffic.engine import LeastLoadedIndex

        index = LeastLoadedIndex(range(n), clock.__getitem__, served_n.__getitem__)
    queue_bound = engine.queue_bound
    inf = float("inf")

    # Breaker-trip detection only feeds the probe and the trace; a
    # telemetry-only run never reads it, so skip the per-grant ledger reads.
    grant_observing = probe is not None or trace is not None

    # The greedy governor is the common governed configuration and its
    # grant protocol is pure counter arithmetic, so when nothing watches
    # individual grants the core mirrors its ledger in local variables —
    # the same operations as SprintGovernor.acquire/release/_update_cap,
    # in the same order, written back before finalize().  Any other policy
    # (or a probed/traced run) drives the real governor object.
    from repro.traffic.governor import GreedyGovernor

    greedy_inline = governed and type(governor) is GreedyGovernor and not grant_observing
    g_active = g_granted = g_denied = g_released = g_peak = 0
    g_trips: list[float] = []
    g_penalty_until = -inf
    g_cap_since: float | None = None
    g_time_at_cap = 0.0
    g_max = g_excess = g_penalty_s = 0.0
    g_headroom: float | None = None
    if greedy_inline:
        g_active = governor._active
        g_granted = governor._granted
        g_denied = governor._denied
        g_released = governor._released_unused
        g_peak = governor._peak_active
        g_trips = governor._trips
        g_penalty_until = governor._penalty_until
        g_cap_since = governor._cap_since
        g_time_at_cap = governor._time_at_cap
        g_max = governor.max_concurrent_sprints
        g_excess = governor.excess_power_w
        g_penalty_s = governor.penalty_s
        g_headroom = governor.trip_headroom_w

    heappush = heapq.heappush
    heappop = heapq.heappop
    ctr = itertools.count()
    # The event heap: (time, kind, seq, payload) with the exact loop's
    # kind codes (0=GRANT_RELEASE, 1=BREAKER_RESET, 2=DEVICE_FREE,
    # 4=DEADLINE).  seq values differ from the exact loop's but preserve
    # the relative push order within every equal (time, kind) class, which
    # is all the tie-break ever uses.
    events: list[tuple[float, int, int, object]] = []
    if central:
        events.extend((busy_until, 2, next(ctr), pos) for pos, busy_until in enumerate(clock))
        heapq.heapify(events)
    fifo: deque[int] = deque()
    # token -> (arrival, demand, deadline_at, row, index, request-or-None)
    waiting: dict[int, tuple] = {}
    idle: list[tuple[int, int]] = []

    # Kept samples: the input blocks, and per served request one tuple of
    # (row, position, sprinted, queueing, service, heat before, heat after,
    # fullness, temperature), where a row counts requests across blocks.
    blocks: list[RequestBlock] = []
    kept: list[tuple] = []
    rejected_rows: list[int] = []
    abandoned_rows: list[int] = []
    served_count = rejected_count = abandoned_count = 0
    last_s = 0.0
    cursor = 0

    # Telemetry column buffers, flushed in served order; extrema and
    # counters that the stream folds order-free are tracked as scalars.
    b_lat: list[float] = []
    b_que: list[float] = []
    b_heat: list[float] = []
    b_full: list[float] = []
    tele_sprints = 0
    tele_missed = 0
    tele_peak_t = -inf
    tele_first_a = inf
    tele_last_c = -inf

    def flush_telemetry() -> None:
        nonlocal tele_sprints, tele_missed, tele_peak_t, tele_first_a, tele_last_c
        if not b_lat:
            return
        telemetry.observe_batch(
            latencies=b_lat,
            queueing_delays=b_que,
            stored_heats=b_heat,
            sprinted_count=tele_sprints,
            fullness=b_full,
            deadline_miss_count=tele_missed,
            peak_temperature_c=tele_peak_t,
            peak_melt_fraction=0.0,
            first_arrival_s=tele_first_a,
            last_completion_s=tele_last_c,
        )
        # Cleared in place: serve_on binds the buffer objects as defaults.
        del b_lat[:]
        del b_que[:]
        del b_heat[:]
        del b_full[:]
        tele_sprints = 0
        tele_missed = 0
        tele_peak_t = -inf
        tele_first_a = inf
        tele_last_c = -inf

    # The hot closures below bind their read-only cell variables as default
    # arguments: LOAD_FAST instead of LOAD_DEREF on every access, which is
    # a measurable share of the per-request budget at fleet scale.
    def serve_on(
        pos: int,
        t_arr: float,
        s_dem: float,
        dl_at: float,
        start: float,
        row: int,
        ridx: int,
        req_obj,
        now: float,
        dev_allow=dev_allow,
        refuse=refuse,
        stored=stored,
        clock=clock,
        drain_w=drain_w,
        excess_w=excess_w,
        speedup=speedup,
        capacity=capacity,
        ambient=ambient,
        headroom_c=headroom_c,
        served_n=served_n,
        sprints_n=sprints_n,
        busy_sec=busy_sec,
        full_tot=full_tot,
        dep_tot=dep_tot,
        drn_tot=drn_tot,
        peak_st=peak_st,
        last_arr=last_arr,
        events=events,
        heappush=heappush,
        b_lat=b_lat,
        b_que=b_que,
        b_heat=b_heat,
        b_full=b_full,
        keep_row=kept.append if keep else None,
        need_temperature=need_temperature,
        governed=governed,
        greedy_inline=greedy_inline,
    ) -> float:
        """Grant handshake + inlined execution + emission; returns busy-until."""
        nonlocal served_count, tele_sprints, tele_missed
        nonlocal tele_peak_t, tele_first_a, tele_last_c
        nonlocal g_active, g_granted, g_denied, g_released, g_peak
        nonlocal g_penalty_until, g_cap_since, g_time_at_cap
        allowed = dev_allow[pos]
        if governed and allowed:
            if greedy_inline:
                # GreedyGovernor.acquire, mirrored on locals.
                grant = False if now < g_penalty_until else g_active < g_max
                if grant:
                    g_granted += 1
                    g_active += 1
                    if g_active > g_peak:
                        g_peak = g_active
                    if g_headroom is not None and g_active * g_excess > g_headroom:
                        g_trips.append(now)
                        if g_penalty_s > 0.0:
                            g_penalty_until = now + g_penalty_s
                            heappush(events, (g_penalty_until, 1, next(ctr), None))
                else:
                    g_denied += 1
                if now < g_penalty_until or g_active >= g_max:  # _update_cap
                    if g_cap_since is None:
                        g_cap_since = now
                elif g_cap_since is not None:
                    g_time_at_cap += now - g_cap_since
                    g_cap_since = None
            else:
                trips_before = governor.breaker_trips if grant_observing else 0
                grant = governor.acquire(now)
                while True:
                    reset_at = governor.pop_pending_reset()
                    if reset_at is None:
                        break
                    heappush(events, (reset_at, 1, next(ctr), None))
                if probe is not None:
                    probe.on_grant(now, grant)
                    if grant:
                        probe.on_in_flight_sprints(now, governor.active_grants)
                if trace is not None:
                    trace.add(
                        now,
                        "grant" if grant else "deny",
                        request_index=ridx,
                        device_id=device_ids[pos],
                        label=labels[pos],
                    )
                if grant_observing and governor.breaker_trips > trips_before:
                    if probe is not None:
                        probe.on_breaker_trip(now)
                    if trace is not None:
                        trace.add(now, "trip", detail=governor.active_excess_draw_w)
            allow = grant
        else:
            grant = False
            allow = allowed

        # SprintPacer.execute_at over a LinearReservoir, inlined: the same
        # float operations in the same order (the scalar twins of the
        # vector core's elementwise ops).
        st = stored[pos]
        x = st - drain_w[pos] * (start - clock[pos])
        after = x if x > 0.0 else 0.0
        h = capacity[pos] - after
        headroom = h if h > 0.0 else 0.0
        sp_t = s_dem / speedup[pos]
        d = excess_w[pos] * sp_t
        demand = d if d > 0.0 else 0.0
        if allow and demand <= headroom:
            sprinted = True
            fullness = 1.0
            response = sp_t
            deposit = demand
        elif (not allow) or refuse[pos] or headroom <= 0.0:
            sprinted = False
            fullness = 0.0
            response = s_dem
            deposit = 0.0
        else:
            fullness = headroom / demand
            sprinted = True
            response = fullness * sp_t + (1.0 - fullness) * s_dem
            deposit = headroom
        after2 = after + deposit
        end = start + response
        clock[pos] = end
        stored[pos] = after2
        served_n[pos] += 1
        if sprinted:
            sprints_n[pos] += 1
        busy_sec[pos] += response
        full_tot[pos] += fullness
        dep_tot[pos] += deposit
        drn_tot[pos] += st - after
        if after2 > peak_st[pos]:
            peak_st[pos] = after2
        last_arr[pos] = t_arr

        queueing = start - t_arr
        latency = queueing + response
        completed = t_arr + latency

        if grant:
            if sprinted:
                heappush(events, (completed, 0, next(ctr), None))
            elif greedy_inline:
                # GreedyGovernor.release(now, used=False), mirrored.
                g_active -= 1
                g_released += 1
                if now < g_penalty_until or g_active >= g_max:
                    if g_cap_since is None:
                        g_cap_since = now
                elif g_cap_since is not None:
                    g_time_at_cap += now - g_cap_since
                    g_cap_since = None
            else:
                governor.release(now, used=False)
                if probe is not None:
                    probe.on_in_flight_sprints(now, governor.active_grants)
                if trace is not None:
                    trace.add(
                        now,
                        "release",
                        request_index=ridx,
                        device_id=device_ids[pos],
                        detail=0.0,
                        label=labels[pos],
                    )

        served_count += 1
        if need_temperature:
            cap = capacity[pos]
            tmp = (
                ambient[pos] + (after2 / cap) * headroom_c[pos]
                if cap > 0.0
                else ambient[pos]
            )
        if keep_row is not None:
            keep_row(
                (row, pos, sprinted, queueing, response, after, after2, fullness, tmp)
            )
        if telemetry is not None:
            b_lat.append(latency)
            b_que.append(queueing)
            b_heat.append(after2)
            b_full.append(fullness)
            if sprinted:
                tele_sprints += 1
            if completed > dl_at:
                tele_missed += 1
            if tmp > tele_peak_t:
                tele_peak_t = tmp
            if t_arr < tele_first_a:
                tele_first_a = t_arr
            if completed > tele_last_c:
                tele_last_c = completed
            if len(b_lat) >= 4096:
                flush_telemetry()
        if probe is not None:
            probe.on_served(
                ServedRequest(
                    request=req_obj,
                    device_id=device_ids[pos],
                    sprinted=sprinted,
                    queueing_delay_s=queueing,
                    service_time_s=response,
                    stored_heat_before_j=after,
                    stored_heat_after_j=after2,
                    sprint_fullness=fullness,
                    package_temperature_c=tmp,
                    melt_fraction=0.0,
                )
            )
        if trace is not None:
            trace.add(
                completed,
                "complete",
                request_index=ridx,
                device_id=device_ids[pos],
                detail=latency,
                label=labels[pos],
            )
        return end

    def pick_thermal(
        t: float,
        s_dem: float,
        clock=clock,
        stored=stored,
        drain_w=drain_w,
        capacity=capacity,
        positions=range(n),
    ) -> int:
        """``thermal_aware``'s pick on the plain-float mirrors.

        The same slack window, ``(-available fraction, start, position)``
        key and float operations as ``engine._thermal_aware`` over
        ``SprintDevice.start_time_for`` and
        ``SprintPacer.available_fraction_at`` on a LinearReservoir.
        """
        starts = [c if c > t else t for c in clock]
        limit = min(starts) + 0.1 * s_dem
        best = -1
        best_neg = best_start = 0.0
        for i in positions:
            st = starts[i]
            if st > limit:
                continue
            cap = capacity[i]
            if cap == 0:
                neg = -0.0
            else:
                idle = st - clock[i]
                x = stored[i] - drain_w[i] * (idle if idle > 0.0 else 0.0)
                neg = -(1.0 - (x if x > 0.0 else 0.0) / cap)
            if best < 0 or neg < best_neg or (neg == best_neg and st < best_start):
                best = i
                best_neg = neg
                best_start = st
        return best

    def emit_rejected(ent: tuple, now: float) -> None:
        nonlocal rejected_count
        rejected_count += 1
        if keep:
            rejected_rows.append(ent[3])
        if telemetry is not None:
            telemetry.observe_rejected()
        if probe is not None:
            probe.on_rejected(now)
        if trace is not None:
            trace.add(now, "reject", request_index=ent[4])

    def emit_abandoned(ent: tuple, now: float) -> None:
        nonlocal abandoned_count
        abandoned_count += 1
        if keep:
            abandoned_rows.append(ent[3])
        if telemetry is not None:
            telemetry.observe_abandoned()
        if probe is not None:
            probe.on_abandoned(now)
        if trace is not None:
            trace.add(now, "abandon", request_index=ent[4])

    def pump(
        t_limit: float,
        events=events,
        heappop=heappop,
        heappush=heappush,
        fifo=fifo,
        waiting=waiting,
        idle=idle,
        served_n=served_n,
        greedy_inline=greedy_inline,
    ) -> None:
        """Process every heap event due before an arrival at ``t_limit``.

        An event fires first iff its time is strictly earlier, or equal
        with kind < ARRIVAL (GRANT_RELEASE, BREAKER_RESET, DEVICE_FREE);
        a DEADLINE at the arrival instant loses, exactly as in the heap
        loop.  ``t_limit=inf`` drains the heap after the stream ends.
        """
        nonlocal last_s
        nonlocal g_active, g_penalty_until, g_cap_since, g_time_at_cap
        while events:
            ev = events[0]
            et = ev[0]
            if et > t_limit or (et == t_limit and ev[1] >= 3):
                break
            heappop(events)
            last_s = et
            kind = ev[1]
            if kind == 2:  # DEVICE_FREE
                pos = ev[3]
                ent = None
                while fifo:
                    token = fifo.popleft()
                    ent = waiting.pop(token, None)
                    if ent is not None:
                        break
                if ent is not None:
                    if probe is not None:
                        probe.on_queue_depth(et, len(waiting))
                    if trace is not None:
                        trace.add(
                            et,
                            "dispatch",
                            request_index=ent[4],
                            device_id=pos,
                            label=labels[pos],
                        )
                    end = serve_on(
                        pos, ent[0], ent[1], ent[2], et, ent[3], ent[4], ent[5], et
                    )
                    heappush(events, (end, 2, next(ctr), pos))
                else:
                    heappush(idle, (served_n[pos], pos))
            elif kind == 0:  # GRANT_RELEASE
                if greedy_inline:
                    g_active -= 1
                    if et < g_penalty_until or g_active >= g_max:
                        if g_cap_since is None:
                            g_cap_since = et
                    elif g_cap_since is not None:
                        g_time_at_cap += et - g_cap_since
                        g_cap_since = None
                else:
                    governor.release(et)
                    if probe is not None:
                        probe.on_in_flight_sprints(et, governor.active_grants)
                    if trace is not None:
                        trace.add(et, "release")
            elif kind == 1:  # BREAKER_RESET
                if greedy_inline:
                    if et < g_penalty_until or g_active >= g_max:
                        if g_cap_since is None:
                            g_cap_since = et
                    elif g_cap_since is not None:
                        g_time_at_cap += et - g_cap_since
                        g_cap_since = None
                else:
                    governor.on_breaker_reset(et)
            else:  # DEADLINE
                ent = waiting.pop(ev[3], None)
                if ent is not None:
                    if probe is not None:
                        probe.on_queue_depth(et, len(waiting))
                    emit_abandoned(ent, et)

    previous_end = -np.inf
    offset = 0
    for block in stream:
        count = len(block)
        if count == 0:
            continue
        previous_end = _check_chunk_order(block.arrival_s, previous_end)
        if keep:
            blocks.append(block)
        t_l = block.arrival_s.tolist()
        d_l = block.sustained_time_s.tolist()
        deadline_at = block.deadline_at() if need_deadlines else None
        dl_l = deadline_at.tolist() if deadline_at is not None else None
        idx_l = block.indices.tolist() if trace is not None else None
        # random: one block draw consumes the bit stream exactly like the
        # exact loop's per-request rng.integers(n) calls.
        picks = rng.integers(n, size=count).tolist() if random_policy else None
        for i in range(count):
            t = t_l[i]
            if events:
                pump(t)
            last_s = t
            row = offset + i
            ridx = idx_l[i] if idx_l is not None else row
            robj = block.request_at(i) if probe is not None else None
            if probe is not None:
                probe.on_arrival(t)
            if trace is not None:
                trace.add(t, "arrival", request_index=ridx)
            dl_at = dl_l[i] if dl_l is not None else inf
            if central:
                if idle:
                    _, pos = heappop(idle)
                    if trace is not None:
                        trace.add(
                            t,
                            "dispatch",
                            request_index=ridx,
                            device_id=pos,
                            label=labels[pos],
                        )
                    end = serve_on(pos, t, d_l[i], dl_at, t, row, ridx, robj, t)
                    heappush(events, (end, 2, next(ctr), pos))
                elif queue_bound is not None and len(waiting) >= queue_bound:
                    emit_rejected((t, d_l[i], dl_at, row, ridx, robj), t)
                else:
                    token = next(ctr)
                    fifo.append(token)
                    waiting[token] = (t, d_l[i], dl_at, row, ridx, robj)
                    if probe is not None:
                        probe.on_queue_depth(t, len(waiting))
                    if dl_at != inf:
                        heappush(events, (dl_at, 4, next(ctr), token))
            else:  # immediate dispatch
                if index is not None:
                    pos = index.pick(t)
                elif thermal_aware:
                    pos = pick_thermal(t, d_l[i])
                elif random_policy:
                    pos = picks[i]
                else:
                    pos = cursor % n
                cursor += 1
                if trace is not None:
                    trace.add(
                        t,
                        "dispatch",
                        request_index=ridx,
                        device_id=pos,
                        label=labels[pos],
                    )
                c = clock[pos]
                start = t if t > c else c
                serve_on(pos, t, d_l[i], dl_at, start, row, ridx, robj, t)
                if index is not None:
                    index.update(pos)
        offset += count
    pump(inf)

    if telemetry is not None:
        flush_telemetry()
    if greedy_inline:
        # Restore the mirrored ledger so finalize() reports it exactly.
        governor._active = g_active
        governor._granted = g_granted
        governor._denied = g_denied
        governor._released_unused = g_released
        governor._peak_active = g_peak
        governor._trips = g_trips
        governor._penalty_until = g_penalty_until
        governor._cap_since = g_cap_since
        governor._time_at_cap = g_time_at_cap
    state.clock[:] = clock
    state.stored[:] = stored
    state.served[:] = served_n
    state.sprints[:] = sprints_n
    state.busy_seconds[:] = busy_sec
    state.fullness_total[:] = full_tot
    state.deposited[:] = dep_tot
    state.drained[:] = drn_tot
    state.peak_stored[:] = peak_st
    state.last_arrival[:] = last_arr
    columns = {}
    if keep:
        requests = RequestBlock.concat(blocks)
        columns = dict(
            served_columns=_served_columns(requests, kept, state.device_ids),
            rejected_columns=requests.take(np.array(rejected_rows, dtype=np.int64)),
            abandoned_columns=requests.take(np.array(abandoned_rows, dtype=np.int64)),
        )
    return EngineResult(
        **columns,
        governor_stats=governor.finalize(last_s) if governed else None,
        final_time_s=last_s,
        served_count=served_count,
        rejected_count=rejected_count,
        abandoned_count=abandoned_count,
    )


def _served_columns(
    requests: RequestBlock, kept: list[tuple], device_ids: np.ndarray
) -> ServedColumns:
    """The event core's kept-sample buffer as columns, in processing order."""
    table = np.fromiter(itertools.chain.from_iterable(kept), dtype=float, count=9 * len(kept))
    table = table.reshape(len(kept), 9)
    rows = table[:, 0].astype(np.int64)
    if not np.array_equal(rows, np.arange(len(requests))):
        requests = requests.take(rows)
    floats = (np.ascontiguousarray(table[:, k]) for k in range(3, 9))
    return ServedColumns(
        requests,
        device_ids[table[:, 1].astype(np.int64)],
        table[:, 2] != 0.0,
        *floats,
        np.zeros(len(kept)),
    )


def run_batched(
    engine: "ServingEngine",
    stream: Iterable[RequestBlock],
    rng: np.random.Generator,
) -> "EngineResult":
    """Run time-ordered request blocks through the batched cores.

    The caller guarantees the concatenated arrival times are
    non-decreasing — arrival processes emit sorted streams and
    ``ServingEngine.run`` sorts — which is asserted cheaply per block.
    Ungoverned immediate ``round_robin``/``random`` runs on fleets of at
    least :data:`LOCKSTEP_MIN_DEVICES` devices take the lockstep vector
    core; every other run takes the batch-replay event core.  Both run on
    the engine's :class:`~repro.traffic.device.FleetState`; an engine
    handed device objects has them gathered first and written back after.
    """
    state = engine.state
    if state is None:
        state = FleetState.from_devices(engine.devices)
    governor = engine.governor
    lockstep = (
        engine.mode == "immediate"
        and (governor is None or governor.is_unlimited)
        and engine.policy_name in LOCKSTEP_POLICIES
        and len(state) >= LOCKSTEP_MIN_DEVICES
    )
    try:
        core = _run_immediate_core if lockstep else _run_event_core
        result = core(engine, state, stream, rng)
    finally:
        state.changed()
    if engine.state is None:
        state.sync_devices()
    return result
