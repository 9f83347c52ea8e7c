"""Tests for the sprint device, fleet simulator, and serving metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.pacing import SprintPacer
from repro.traffic.arrivals import DeterministicArrivals, PoissonArrivals
from repro.traffic.device import SprintDevice
from repro.traffic.fleet import DISPATCH_POLICIES, FleetSimulator
from repro.traffic.metrics import latency_percentiles, slo_attainment, summarize
from repro.traffic.request import FixedService, Request, generate_requests


@pytest.fixture(scope="module")
def config():
    return SystemConfig.paper_default()


def periodic_requests(interarrival_s: float, sustained_s: float, n: int):
    return generate_requests(
        DeterministicArrivals(interarrival_s), FixedService(sustained_s), n, seed=0
    )


class TestSprintDevice:
    def test_first_request_sprints(self, config):
        device = SprintDevice(config)
        served = device.serve(Request(index=0, arrival_s=0.0, sustained_time_s=5.0))
        assert served.sprinted
        assert served.service_time_s == pytest.approx(0.5)
        assert served.latency_s == served.service_time_s

    def test_back_to_back_requests_see_depleted_budget(self, config):
        """A second large request on a hot device must not get the full sprint.

        A 10 s task deposits ~15 J against the ~19.7 J paper budget, so the
        second of two back-to-back tasks can only sprint partially.
        """
        device = SprintDevice(config)
        first = device.serve(Request(index=0, arrival_s=0.0, sustained_time_s=10.0))
        second = device.serve(Request(index=1, arrival_s=1.1, sustained_time_s=10.0))
        assert first.service_time_s == pytest.approx(1.0)
        assert second.service_time_s > first.service_time_s
        assert second.stored_heat_before_j > 0

    def test_no_sprint_device_runs_sustained(self, config):
        device = SprintDevice(config, sprint_enabled=False)
        served = device.serve(Request(index=0, arrival_s=0.0, sustained_time_s=5.0))
        assert not served.sprinted
        assert served.service_time_s == pytest.approx(5.0)
        assert served.sprint_fullness == 0.0

    def test_sprint_fullness_distinguishes_partial_sprints(self, config):
        """A partial sprint reports sprinted=True but fullness strictly
        between 0 and 1; a full sprint reports fullness 1."""
        device = SprintDevice(config)
        full = device.serve(Request(index=0, arrival_s=0.0, sustained_time_s=10.0))
        partial = device.serve(Request(index=1, arrival_s=1.1, sustained_time_s=10.0))
        assert full.sprint_fullness == pytest.approx(1.0)
        assert partial.sprinted
        assert 0.0 < partial.sprint_fullness < 1.0

    def test_queueing_behind_earlier_request(self, config):
        device = SprintDevice(config, sprint_enabled=False)
        device.serve(Request(index=0, arrival_s=0.0, sustained_time_s=5.0))
        late = device.serve(Request(index=1, arrival_s=1.0, sustained_time_s=5.0))
        assert late.queueing_delay_s == pytest.approx(4.0)
        assert late.completed_at_s == pytest.approx(10.0)

    def test_projections_do_not_mutate(self, config):
        device = SprintDevice(config)
        device.serve(Request(index=0, arrival_s=0.0, sustained_time_s=5.0))
        heat = device.pacer.stored_heat_j
        busy = device.busy_until_s
        device.available_fraction_at(busy + 100.0)
        device.start_time_for(0.0)
        assert device.pacer.stored_heat_j == heat
        assert device.busy_until_s == busy

    def test_available_fraction_recovers_with_idle_time(self, config):
        device = SprintDevice(config)
        device.serve(Request(index=0, arrival_s=0.0, sustained_time_s=5.0))
        now = device.busy_until_s
        soon = device.available_fraction_at(now)
        later = device.available_fraction_at(now + 60.0)
        assert later > soon

    def test_reset(self, config):
        device = SprintDevice(config)
        device.serve(Request(index=0, arrival_s=0.0, sustained_time_s=5.0))
        device.reset()
        assert device.busy_until_s == 0.0
        assert device.requests_served == 0
        assert device.pacer.stored_heat_j == 0.0


class TestPacerProjection:
    def test_stored_heat_at_matches_actual_drain(self, config):
        """The projection must agree with what an actual idle gap produces."""
        pacer = SprintPacer(config, sprint_speedup=10.0)
        pacer.task_arrival(0.0, 5.0)
        projected = pacer.stored_heat_at(pacer.busy_until_s + 3.0)
        outcome = pacer.task_arrival(pacer.busy_until_s + 3.0, 5.0)
        assert outcome.stored_heat_before_j == pytest.approx(projected)

    def test_projection_constant_while_busy(self, config):
        pacer = SprintPacer(config, sprint_speedup=10.0)
        pacer.task_arrival(0.0, 50.0)
        assert pacer.stored_heat_at(0.0) == pacer.stored_heat_j
        assert pacer.stored_heat_at(pacer.busy_until_s) == pacer.stored_heat_j


class TestDegenerateCase:
    def test_one_device_fleet_reproduces_simulate_periodic(self, config):
        """1 device + deterministic arrivals == SprintPacer.simulate_periodic."""
        pacer = SprintPacer(config, sprint_speedup=10.0)
        for interarrival in (2.0, 5.0, 12.0):
            reference = pacer.simulate_periodic(interarrival, 5.0, 15)
            fleet = FleetSimulator(config, n_devices=1, policy="round_robin")
            result = fleet.run(periodic_requests(interarrival, 5.0, 15))
            expected = np.array(
                [o.queueing_delay_s + o.response_time_s for o in reference.outcomes]
            )
            assert np.allclose(result.latencies_s, expected)
            assert result.summary().sprint_fraction == pytest.approx(
                reference.sprint_fraction
            )


class TestFleetSimulator:
    def test_runs_are_deterministic(self, config):
        requests = generate_requests(
            PoissonArrivals(0.3), FixedService(5.0), 60, seed=21
        )
        for policy in DISPATCH_POLICIES:
            a = FleetSimulator(config, 3, policy=policy).run(requests, seed=5)
            b = FleetSimulator(config, 3, policy=policy).run(requests, seed=5)
            assert np.array_equal(a.latencies_s, b.latencies_s), policy

    def test_round_robin_cycles_devices(self, config):
        fleet = FleetSimulator(config, 3, policy="round_robin")
        result = fleet.run(periodic_requests(1.0, 5.0, 9))
        assignments = [s.device_id for s in result.served]
        assert assignments == [0, 1, 2] * 3

    def test_least_loaded_rotates_an_idle_fleet(self, config):
        """When every device is idle, ties must rotate across the fleet
        rather than piling all traffic (and heat) onto device 0."""
        fleet = FleetSimulator(config, 4, policy="least_loaded")
        result = fleet.run(periodic_requests(30.0, 5.0, 12))
        assert [s.device_id for s in result.served] == [0, 1, 2, 3] * 3

    def test_least_loaded_light_load_keeps_sprinting(self, config):
        """Spreading light load across devices lets every request fully
        sprint; a device-0 hotspot would drive p99 toward sustained time."""
        requests = generate_requests(
            PoissonArrivals(0.1), FixedService(5.0), 100, seed=2
        )
        summary = FleetSimulator(config, 4, policy="least_loaded").run(requests).summary()
        assert summary.mean_sprint_fullness > 0.9
        assert summary.p99_latency_s < 2.0

    def test_least_loaded_balances_load(self, config):
        fleet = FleetSimulator(config, 4, policy="least_loaded", sprint_enabled=False)
        result = fleet.run(periodic_requests(0.5, 5.0, 40))
        counts = [d.requests_served for d in result.device_stats]
        assert max(counts) - min(counts) <= 1

    def test_more_devices_cut_tail_latency(self, config):
        requests = generate_requests(
            PoissonArrivals(0.3), FixedService(5.0), 80, seed=2
        )
        small = FleetSimulator(config, 1).run(requests).summary()
        large = FleetSimulator(config, 4).run(requests).summary()
        assert large.p99_latency_s < small.p99_latency_s

    def test_sprinting_beats_no_sprint_on_latency(self, config):
        requests = generate_requests(
            PoissonArrivals(0.1), FixedService(5.0), 50, seed=2
        )
        sprint = FleetSimulator(config, 2, sprint_enabled=True).run(requests)
        sustained = FleetSimulator(config, 2, sprint_enabled=False).run(requests)
        assert sprint.summary().p50_latency_s < sustained.summary().p50_latency_s
        assert sprint.summary().sprint_fraction > 0
        assert sustained.summary().sprint_fraction == 0

    def test_thermal_aware_slack_bounded_under_overload(self, config):
        """A deeply backlogged fleet must not wait longer for budget than a
        sprint can save: a device starting far beyond 10% of the task's
        sustained time is not a candidate, however cool it is."""
        fleet = FleetSimulator(config, 2, policy="thermal_aware")
        # Saturate device 0 and (less) device 1 with a backlog, then send a
        # probe: device 1 frees ~6 s later than device 0 — outside the
        # 0.5 s slack for a 5 s task — so the earlier device must win even
        # though it has far less budget left.
        for i in range(16):
            fleet.devices[i % 2].serve(
                Request(index=i, arrival_s=0.0 + 0.001 * i, sustained_time_s=10.0 if i % 2 == 0 else 9.0)
            )
        free0, free1 = fleet.devices[0].busy_until_s, fleet.devices[1].busy_until_s
        probe = Request(index=99, arrival_s=max(free0, free1) * 0.5, sustained_time_s=5.0)
        choice = DISPATCH_POLICIES["thermal_aware"](
            fleet.devices, probe, np.random.default_rng(0), 0
        )
        assert choice == (0 if free0 < free1 else 1)
        assert abs(free0 - free1) > 0.5  # the scenario really is outside slack

    def test_thermal_aware_no_worse_than_least_loaded_on_tail(self, config):
        requests = generate_requests(
            PoissonArrivals(0.2), FixedService(5.0), 60, seed=11
        )
        thermal = FleetSimulator(config, 2, policy="thermal_aware").run(requests)
        loaded = FleetSimulator(config, 2, policy="least_loaded").run(requests)
        assert (
            thermal.summary().p99_latency_s
            <= loaded.summary().p99_latency_s + 1e-9
        )

    def test_device_stats_account_all_requests(self, config):
        result = FleetSimulator(config, 3).run(periodic_requests(1.0, 5.0, 30))
        assert sum(d.requests_served for d in result.device_stats) == 30

    def test_custom_dispatch_function(self, config):
        def always_zero(devices, request, rng, cursor):
            return 0

        fleet = FleetSimulator(config, 3, policy=always_zero)
        result = fleet.run(periodic_requests(1.0, 5.0, 6))
        assert all(s.device_id == 0 for s in result.served)
        assert result.policy == "always_zero"

    def test_validation(self, config):
        with pytest.raises(ValueError):
            FleetSimulator(config, 0)
        with pytest.raises(ValueError):
            FleetSimulator(config, 1, policy="nope")
        for mode in ("nope", "fluid"):
            with pytest.raises(ValueError):
                FleetSimulator(config, 1, mode=mode)
        with pytest.raises(ValueError):
            FleetSimulator(config, 1, discipline="nope")
        with pytest.raises(ValueError):
            FleetSimulator(config, 1, queue_bound=-1)
        for bound in (math.nan, 2.5):
            with pytest.raises(ValueError, match="queue bound"):
                FleetSimulator(config, 2, mode="central_queue", queue_bound=bound)
        # Worker counts are checked on flat fleets too, where they go unused.
        for workers in (0, math.nan, 1.5):
            with pytest.raises(ValueError, match="shard worker"):
                FleetSimulator(config, 2, shard_workers=workers)
        for n_devices in (math.nan, 2.5):
            with pytest.raises(ValueError, match="fleet size"):
                FleetSimulator(config, n_devices)
        request = Request(index=0, arrival_s=0.0, sustained_time_s=1.0)
        with pytest.raises(ValueError, match="unique"):
            FleetSimulator(config, 2).run([request, request])

    @pytest.mark.parametrize("speedup", [float("nan"), float("inf")])
    def test_validation_rejects_non_finite_speedup(self, config, speedup):
        """A NaN speedup used to run and report p99 = mean = nan."""
        with pytest.raises(ValueError, match="speedup"):
            FleetSimulator(config, n_devices=2, sprint_speedup=speedup)

    def test_empty_request_stream_is_a_valid_run(self, config):
        """Sparse arrival processes can materialise zero requests; a sweep
        over them must get an empty result, not a crash."""
        result = FleetSimulator(config, 2).run([])
        assert result.served == ()
        summary = result.summary(slo_s=1.0)
        assert summary.request_count == 0
        assert summary.throughput_rps == 0.0
        assert summary.slo_attainment is None


class TestMetrics:
    def test_percentiles_match_numpy(self):
        latencies = [1.0, 2.0, 3.0, 4.0, 10.0]
        p50, p95, p99 = latency_percentiles(latencies)
        assert p50 == pytest.approx(np.percentile(latencies, 50))
        assert p99 == pytest.approx(np.percentile(latencies, 99))

    def test_slo_attainment(self):
        assert slo_attainment([1.0, 2.0, 3.0, 4.0], 2.5) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            slo_attainment([1.0], 0.0)
        with pytest.raises(ValueError):
            slo_attainment([], 1.0)

    def test_summary_fields(self, config):
        result = FleetSimulator(config, 2).run(periodic_requests(2.0, 5.0, 20))
        summary = result.summary(slo_s=1.0)
        assert summary.request_count == 20
        assert summary.p50_latency_s <= summary.p95_latency_s <= summary.p99_latency_s
        assert summary.p99_latency_s <= summary.max_latency_s
        assert 0.0 <= summary.sprint_fraction <= 1.0
        assert 0.0 <= summary.mean_sprint_fullness <= summary.sprint_fraction
        assert 0.0 <= summary.slo_attainment <= 1.0
        assert summary.throughput_rps > 0

    def test_summary_of_empty_run_is_zeroed(self):
        summary = summarize([])
        assert summary.request_count == 0
        assert summary.throughput_rps == 0.0
        assert summary.p99_latency_s == 0.0
        assert summary.deadline_miss_fraction == 0.0

    def test_zero_makespan_reports_zero_throughput(self, config):
        """A single hand-built instantaneous request must not yield inf."""
        from repro.traffic.device import ServedRequest

        instant = ServedRequest(
            request=Request(index=0, arrival_s=1.0, sustained_time_s=1.0),
            device_id=0,
            sprinted=False,
            queueing_delay_s=0.0,
            service_time_s=0.0,
            stored_heat_before_j=0.0,
            stored_heat_after_j=0.0,
        )
        summary = summarize([instant])
        assert summary.makespan_s == 0.0
        assert summary.throughput_rps == 0.0

    def test_device_stats_sprint_observability(self, config):
        """DeviceStats exposes sprint counts and mean fullness per device."""
        result = FleetSimulator(config, 2).run(periodic_requests(30.0, 5.0, 8))
        for stats in result.device_stats:
            assert stats.sprints_served == stats.requests_served  # light load
            assert stats.sprint_fullness_mean == pytest.approx(1.0)
        hot = FleetSimulator(config, 1).run(periodic_requests(0.6, 5.0, 10))
        (stats,) = hot.device_stats
        assert 0 < stats.sprints_served <= stats.requests_served
        assert 0.0 < stats.sprint_fullness_mean < 1.0


#: Knob values for the hostile-input fuzz: accepted ones, and ones the
#: boundary must refuse (NaN, infinities, negatives, fractional counts).
FUZZ_KNOBS = {
    "n_devices": ((1, 2, 3), (math.nan, math.inf, -math.inf, -1, 0, 2.5)),
    "queue_bound": ((None, 0, 2), (math.nan, math.inf, -math.inf, -1, 2.5)),
    "shard_workers": ((1, 2), (math.nan, math.inf, -math.inf, -1, 0, 1.5)),
    "sprint_speedup": ((1.0, 4.5, 10.0), (math.nan, math.inf, -math.inf, -1.0, 0.5)),
    "engine": (("exact", "batched"), ("nope", math.nan)),
}
FUZZ_SLOS = ((None, 0.5, 2.0, math.inf), (math.nan, -math.inf, -1.0, 0.0))
FUZZ_REQUESTS = generate_requests(PoissonArrivals(1.5), FixedService(2.0), 20, seed=4)


def _draw_knob(data, values):
    """A hostile value about one draw in six, else an accepted one."""
    valid, hostile = values
    bad = data.draw(st.integers(0, 5)) == 0
    return bad, data.draw(st.sampled_from(hostile if bad else valid))


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    mode=st.sampled_from(("immediate", "central_queue")),
    keep_samples=st.booleans(),
)
def test_hostile_knobs_fail_at_the_boundary(data, mode, keep_samples):
    """A hostile knob raises at construction (or at ``summary`` for the SLO);
    every accepted combination runs to a summary whose statistics are all
    finite."""
    config = SystemConfig.paper_default()
    knobs, hostile = {}, False
    for name, values in FUZZ_KNOBS.items():
        bad, knobs[name] = _draw_knob(data, values)
        hostile |= bad
    slo_bad, slo_s = _draw_knob(data, FUZZ_SLOS)

    def build():
        return FleetSimulator(config, mode=mode, keep_samples=keep_samples, **knobs)

    if hostile:
        with pytest.raises((ValueError, TypeError)):
            build()
        return
    result = build().run(FUZZ_REQUESTS, seed=1)
    if slo_bad:
        with pytest.raises(ValueError):
            result.summary(slo_s=slo_s)
        return
    stats = {
        name: value
        for name, value in result.summary(slo_s=slo_s).to_dict().items()
        if isinstance(value, (int, float)) and name != "slo_s"
    }
    assert all(math.isfinite(v) for v in stats.values()), stats
