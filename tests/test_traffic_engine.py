"""Tests for the discrete-event serving engine.

The two load-bearing guarantees: immediate mode reproduces the legacy
arrival-ordered dispatch loop *bit-identically* (same requests, same seed,
same latencies — including the O(log n) least-loaded index against the
O(n) scan it replaces), and central-queue mode implements the request
lifecycle (shared FIFO/EDF queue, bounded admission, deadline
abandonment) with sane queueing semantics.
"""

import math

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.traffic.device import SprintDevice
from repro.traffic.engine import DISPATCH_POLICIES, ServingEngine
from repro.traffic.fleet import FleetSimulator
from repro.traffic.request import (
    FixedService,
    GammaService,
    Request,
    generate_requests,
)
from repro.traffic.arrivals import PoissonArrivals


@pytest.fixture(scope="module")
def config():
    return SystemConfig.paper_default()


def legacy_run(config, n_devices, policy_name, requests, seed, **device_kwargs):
    """The pre-engine FleetSimulator loop, verbatim: arrival-ordered
    iteration, an O(n) policy call per request, immediate device binding."""
    devices = [
        SprintDevice(config, device_id=i, **device_kwargs) for i in range(n_devices)
    ]
    dispatch = DISPATCH_POLICIES[policy_name]
    ordered = sorted(requests, key=lambda r: (r.arrival_s, r.index))
    rng = np.random.default_rng(seed)
    served = []
    for cursor, request in enumerate(ordered):
        choice = dispatch(devices, request, rng, cursor)
        served.append(devices[choice].serve(request))
    served.sort(key=lambda s: s.request.index)
    return served


def stochastic_requests(seed, n=150, rate=0.35, cv=1.0):
    return generate_requests(
        PoissonArrivals(rate), GammaService(mean_s=5.0, cv=cv), n, seed=seed
    )


class TestImmediateModeRegression:
    """The engine must be indistinguishable from the legacy loop."""

    @pytest.mark.parametrize("policy", sorted(DISPATCH_POLICIES))
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_bit_identical_to_legacy_loop(self, config, policy, seed):
        requests = stochastic_requests(seed)
        reference = legacy_run(config, 4, policy, requests, seed)
        result = FleetSimulator(config, 4, policy=policy).run(requests, seed=seed)
        assert len(result.served) == len(reference)
        for engine_side, legacy_side in zip(result.served, reference):
            # Dataclass equality covers every field bit-for-bit: latency,
            # device binding, sprint fullness, stored-heat bookkeeping.
            assert engine_side == legacy_side, policy

    def test_bit_identical_with_sprinting_disabled(self, config):
        requests = stochastic_requests(3)
        reference = legacy_run(
            config, 3, "least_loaded", requests, 0, sprint_enabled=False
        )
        result = FleetSimulator(
            config, 3, policy="least_loaded", sprint_enabled=False
        ).run(requests)
        assert list(result.served) == reference

    @pytest.mark.parametrize("seed", [1, 2, 9])
    def test_indexed_least_loaded_matches_scan(self, config, seed):
        """Passing the policy *function* forces the O(n) scan; the named
        policy runs on the index.  Both must agree exactly."""
        requests = stochastic_requests(seed, n=200, rate=0.6)
        indexed = FleetSimulator(config, 8, policy="least_loaded").run(requests)
        scan = FleetSimulator(
            config, 8, policy=DISPATCH_POLICIES["least_loaded"]
        ).run(requests)
        assert [s.device_id for s in indexed.served] == [
            s.device_id for s in scan.served
        ]
        assert np.array_equal(indexed.latencies_s, scan.latencies_s)

    def test_index_respects_pre_used_devices(self, config):
        """ServingEngine is public: an index built over devices that carry
        serving history must match the scan, not assume a fresh fleet."""

        def warmed():
            devices = [SprintDevice(config, device_id=i) for i in range(3)]
            for k in range(3):
                devices[0].serve(
                    Request(index=k, arrival_s=float(k), sustained_time_s=1.0)
                )
            return devices

        later = [
            Request(index=10 + j, arrival_s=50.0 + 10.0 * j, sustained_time_s=5.0)
            for j in range(4)
        ]
        indexed = ServingEngine(warmed(), policy_name="least_loaded").run(
            later, np.random.default_rng(0)
        )
        scan = ServingEngine(
            warmed(),
            dispatch=DISPATCH_POLICIES["least_loaded"],
            policy_name="custom",
        ).run(later, np.random.default_rng(0))
        picks = [s.device_id for s in indexed.served]
        assert picks == [s.device_id for s in scan.served]
        # The warmed-up device 0 must not be preferred while fresh ones tie.
        assert picks[0] != 0

    def test_central_queue_respects_pre_used_devices(self, config):
        """A busy device handed to the engine only becomes assignable once
        it actually frees (no crash, correct wait)."""
        devices = [SprintDevice(config, sprint_enabled=False)]
        devices[0].serve(Request(index=0, arrival_s=0.0, sustained_time_s=20.0))
        free_at = devices[0].busy_until_s
        engine = ServingEngine(devices, mode="central_queue")
        outcome = engine.run(
            [Request(index=1, arrival_s=1.0, sustained_time_s=5.0)],
            np.random.default_rng(0),
        )
        assert outcome.served[0].queueing_delay_s == pytest.approx(free_at - 1.0)

    def test_custom_policy_named_least_loaded_is_still_called(self, config):
        """A user's own callable must run even if it shares the built-in
        name; only the *string* policy selects the engine index."""
        calls = []

        def least_loaded(devices, request, rng, cursor):
            calls.append(request.index)
            return 0

        requests = [
            Request(index=i, arrival_s=float(i * 40), sustained_time_s=5.0)
            for i in range(4)
        ]
        result = FleetSimulator(config, 3, policy=least_loaded).run(requests)
        assert calls == [0, 1, 2, 3]
        assert all(s.device_id == 0 for s in result.served)

    def test_indexed_least_loaded_matches_scan_under_light_load(self, config):
        """Mostly-idle fleets exercise the idle-heap tie-break path."""
        requests = generate_requests(
            PoissonArrivals(0.02), FixedService(5.0), 60, seed=4
        )
        indexed = FleetSimulator(config, 6, policy="least_loaded").run(requests)
        scan = FleetSimulator(
            config, 6, policy=DISPATCH_POLICIES["least_loaded"]
        ).run(requests)
        assert list(indexed.served) == list(scan.served)


class TestCentralQueue:
    def test_single_device_fifo_equals_immediate(self, config):
        """With one device a central FIFO queue and immediate dispatch give
        every request the same start time, hence identical latencies."""
        requests = stochastic_requests(11, n=80, rate=0.5)
        immediate = FleetSimulator(config, 1).run(requests)
        central = FleetSimulator(config, 1, mode="central_queue").run(requests)
        assert np.array_equal(immediate.latencies_s, central.latencies_s)

    def test_requests_wait_for_a_free_device(self, config):
        """Two simultaneous long requests on one device: the second starts
        exactly when the first finishes."""
        requests = [
            Request(index=0, arrival_s=0.0, sustained_time_s=10.0),
            Request(index=1, arrival_s=0.0, sustained_time_s=10.0),
        ]
        result = FleetSimulator(
            config, 1, mode="central_queue", sprint_enabled=False
        ).run(requests)
        first, second = result.served
        assert first.queueing_delay_s == 0.0
        assert second.queueing_delay_s == pytest.approx(10.0)

    def test_runs_are_deterministic(self, config):
        requests = stochastic_requests(5)
        for discipline in ("fifo", "edf"):
            a = FleetSimulator(
                config, 3, mode="central_queue", discipline=discipline
            ).run(requests)
            b = FleetSimulator(
                config, 3, mode="central_queue", discipline=discipline
            ).run(requests)
            assert np.array_equal(a.latencies_s, b.latencies_s)

    def test_bounded_queue_rejects_excess_arrivals(self, config):
        # One slow device, three simultaneous arrivals, room for one waiter.
        requests = [
            Request(index=i, arrival_s=0.0, sustained_time_s=10.0) for i in range(3)
        ]
        result = FleetSimulator(
            config, 1, mode="central_queue", queue_bound=1, sprint_enabled=False
        ).run(requests)
        assert len(result.served) == 2
        assert len(result.rejected) == 1
        assert result.rejected[0].index == 2
        assert result.summary().rejected_count == 1
        assert result.summary().offered_count == 3

    def test_zero_bound_is_a_loss_system(self, config):
        requests = [
            Request(index=0, arrival_s=0.0, sustained_time_s=10.0),
            Request(index=1, arrival_s=1.0, sustained_time_s=10.0),
        ]
        result = FleetSimulator(
            config, 1, mode="central_queue", queue_bound=0, sprint_enabled=False
        ).run(requests)
        assert len(result.served) == 1
        assert len(result.rejected) == 1

    def test_queued_request_abandons_at_its_deadline(self, config):
        requests = [
            Request(index=0, arrival_s=0.0, sustained_time_s=10.0),
            Request(index=1, arrival_s=0.0, sustained_time_s=10.0, deadline_s=0.5),
        ]
        result = FleetSimulator(
            config, 1, mode="central_queue", sprint_enabled=False
        ).run(requests)
        assert [s.request.index for s in result.served] == [0]
        assert [r.index for r in result.abandoned] == [1]
        assert result.summary().abandoned_count == 1

    def test_deadline_at_dispatch_instant_is_served(self, config):
        """A queued request whose deadline coincides with a device freeing
        is served, not abandoned (device-free events resolve first)."""
        requests = [
            Request(index=0, arrival_s=0.0, sustained_time_s=10.0),
            Request(index=1, arrival_s=0.0, sustained_time_s=10.0, deadline_s=10.0),
        ]
        result = FleetSimulator(
            config, 1, mode="central_queue", sprint_enabled=False
        ).run(requests)
        assert len(result.served) == 2
        assert result.abandoned == ()

    def test_served_past_deadline_counts_as_miss(self, config):
        requests = [
            Request(index=0, arrival_s=0.0, sustained_time_s=10.0, deadline_s=1.0),
        ]
        result = FleetSimulator(
            config, 1, mode="central_queue", sprint_enabled=False
        ).run(requests)
        assert len(result.served) == 1
        assert result.served[0].missed_deadline
        summary = result.summary()
        assert summary.deadline_miss_count == 1
        assert summary.deadline_miss_fraction == 1.0

    def test_edf_serves_urgent_requests_first(self, config):
        """A later-arriving but more urgent request overtakes a lax one in
        the EDF queue (it cannot under FIFO)."""
        requests = [
            Request(index=0, arrival_s=0.0, sustained_time_s=10.0),
            Request(index=1, arrival_s=0.1, sustained_time_s=10.0, deadline_s=100.0),
            Request(index=2, arrival_s=0.2, sustained_time_s=10.0, deadline_s=25.0),
        ]

        def completion_order(discipline):
            result = FleetSimulator(
                config,
                1,
                mode="central_queue",
                discipline=discipline,
                sprint_enabled=False,
            ).run(requests)
            return [
                s.request.index
                for s in sorted(result.served, key=lambda s: s.completed_at_s)
            ]

        assert completion_order("fifo") == [0, 1, 2]
        assert completion_order("edf") == [0, 2, 1]

    def test_deadline_free_requests_sort_last_under_edf(self, config):
        requests = [
            Request(index=0, arrival_s=0.0, sustained_time_s=10.0),
            Request(index=1, arrival_s=0.1, sustained_time_s=10.0),
            Request(index=2, arrival_s=0.2, sustained_time_s=10.0, deadline_s=50.0),
        ]
        result = FleetSimulator(
            config, 1, mode="central_queue", discipline="edf", sprint_enabled=False
        ).run(requests)
        order = [
            s.request.index
            for s in sorted(result.served, key=lambda s: s.completed_at_s)
        ]
        assert order == [0, 2, 1]

    def test_bounded_central_queue_beats_immediate_p99_at_overload(self, config):
        """The acceptance scenario: at overload, admission control keeps the
        served tail bounded while immediate dispatch's backlog grows."""
        requests = generate_requests(
            PoissonArrivals(2.0),
            GammaService(mean_s=5.0, cv=1.0),
            300,
            seed=42,
        )
        immediate = FleetSimulator(config, 4, policy="least_loaded").run(requests)
        bounded = FleetSimulator(
            config, 4, mode="central_queue", queue_bound=8
        ).run(requests)
        assert bounded.summary().rejected_count > 0
        assert (
            bounded.summary().p99_latency_s < immediate.summary().p99_latency_s
        )

    def test_device_stats_consistent_in_central_mode(self, config):
        requests = stochastic_requests(8, n=60)
        result = FleetSimulator(config, 3, mode="central_queue").run(requests)
        assert sum(d.requests_served for d in result.device_stats) == len(
            result.served
        )


class TestEngineValidation:
    def test_rejects_bad_configuration(self, config):
        devices = [SprintDevice(config)]
        with pytest.raises(ValueError):
            ServingEngine([], mode="immediate")
        with pytest.raises(ValueError):
            ServingEngine(devices, mode="nope")
        with pytest.raises(ValueError):
            ServingEngine(devices, discipline="nope")
        with pytest.raises(ValueError):
            ServingEngine(devices, queue_bound=-1)
        # NaN used to run as an unbounded queue, and 2.5 as a bound of 3.
        for bound in (math.nan, math.inf, 2.5):
            with pytest.raises(ValueError, match="queue bound"):
                ServingEngine(devices, mode="central_queue", queue_bound=bound)

    def test_empty_stream_runs_empty(self, config):
        engine = ServingEngine([SprintDevice(config)], mode="central_queue")
        outcome = engine.run([], np.random.default_rng(0))
        assert outcome.served == ()
        assert outcome.rejected == ()
        assert outcome.abandoned == ()


class TestLeastLoadedIndexCompaction:
    """Lazy deletion must not grow the heaps without bound (satellite of
    the vectorized-engine PR): every re-key leaves one stale tuple behind,
    so an uncompacted index holding 1e5 updates would carry 1e5 entries."""

    def test_heap_size_bounded_over_many_updates(self, config):
        from repro.traffic.engine import LeastLoadedIndex

        n_devices = 8
        devices = [SprintDevice(config, device_id=i) for i in range(n_devices)]
        index = LeastLoadedIndex(devices)
        bound = max(2 * n_devices, LeastLoadedIndex._COMPACT_MIN) + 1
        t = 0.0
        for step in range(100_000):
            t += 0.01
            pos = index.pick(t)
            devices[pos].serve(
                Request(index=step, arrival_s=t, sustained_time_s=0.05)
            )
            index.update(pos)
            assert index.entry_count <= bound, (
                f"index grew to {index.entry_count} entries after "
                f"{step + 1} updates (bound {bound})"
            )
        # The bound is the point: without compaction this would be ~1e5.
        assert index.entry_count <= bound

    def test_picks_identical_with_and_without_compaction(self, config):
        """Compaction must be invisible to dispatch decisions."""
        from repro.traffic.engine import LeastLoadedIndex

        requests = stochastic_requests(21, n=400, rate=0.8)

        def picks(compact_min):
            devices = [SprintDevice(config, device_id=i) for i in range(4)]
            index = LeastLoadedIndex(devices)
            index._COMPACT_MIN = compact_min
            chosen = []
            for request in requests:
                pos = index.pick(request.arrival_s)
                devices[pos].serve(request)
                index.update(pos)
                chosen.append(pos)
            return chosen

        # A huge floor disables compaction entirely; the default compacts
        # many times over 400 updates on a 4-device fleet.
        assert picks(64) == picks(10**9)

    def test_indexed_engine_still_matches_scan_after_long_run(self, config):
        """End-to-end: the compacting index vs the O(n) scan, bit-identical."""
        requests = stochastic_requests(33, n=1_500, rate=1.2)
        indexed = FleetSimulator(config, 4, policy="least_loaded").run(requests)
        scan = FleetSimulator(
            config, 4, policy=DISPATCH_POLICIES["least_loaded"]
        ).run(requests)
        assert indexed.served == scan.served
