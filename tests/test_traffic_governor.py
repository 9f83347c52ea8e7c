"""Tests for the fleet power-budget governor.

The load-bearing guarantees: an ``unlimited`` governor is bypassed and
reproduces ungoverned runs *bit-identically* across every dispatch policy
and mode; governed runs never leak budget (every grant is released, even
when requests are rejected, abandoned, or granted-but-unable-to-sprint);
breaker trips — including during a sprint in flight — keep the accounting
consistent; and the token bucket is deterministic under identical seeds.
"""

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.traffic.arrivals import DeterministicArrivals, PoissonArrivals
from repro.traffic.engine import DISPATCH_POLICIES
from repro.traffic.fleet import FleetSimulator
from repro.traffic.governor import (
    GOVERNOR_POLICIES,
    CooperativeThresholdGovernor,
    GovernorSpec,
    GreedyGovernor,
    TokenBucketGovernor,
    UnlimitedGovernor,
)
from repro.traffic.request import (
    FixedService,
    GammaService,
    Request,
    generate_requests,
)
from repro.traffic.sweep import SweepSpec, expand_cells, run_sweep


@pytest.fixture(scope="module")
def config():
    return SystemConfig.paper_default()


@pytest.fixture(scope="module")
def excess_w(config):
    return config.sprint_power_w - config.sustainable_power_w


def stochastic_requests(seed, n=150, rate=0.35, cv=1.0):
    return generate_requests(
        PoissonArrivals(rate), GammaService(mean_s=5.0, cv=cv), n, seed=seed
    )


def sprints_served(result):
    return sum(1 for s in result.served if s.sprinted)


class TestUnlimitedRegression:
    """governor="unlimited" must be indistinguishable from no governor."""

    @pytest.mark.parametrize("policy", sorted(DISPATCH_POLICIES))
    def test_bit_identical_across_dispatch_policies(self, config, policy):
        requests = stochastic_requests(7)
        ungoverned = FleetSimulator(config, 4, policy=policy).run(requests, seed=7)
        governed = FleetSimulator(
            config, 4, policy=policy, governor="unlimited"
        ).run(requests, seed=7)
        assert governed.served == ungoverned.served
        assert governed.device_stats == ungoverned.device_stats
        assert governed.governor_stats is None

    @pytest.mark.parametrize("discipline", ["fifo", "edf"])
    def test_bit_identical_in_central_queue_mode(self, config, discipline):
        requests = stochastic_requests(2, rate=0.6)
        kwargs = dict(mode="central_queue", discipline=discipline, queue_bound=6)
        ungoverned = FleetSimulator(config, 3, **kwargs).run(requests)
        governed = FleetSimulator(
            config, 3, governor=GovernorSpec.unlimited(), **kwargs
        ).run(requests)
        assert governed.served == ungoverned.served
        assert governed.rejected == ungoverned.rejected
        assert governed.abandoned == ungoverned.abandoned

    def test_unbounded_greedy_matches_unlimited(self, config):
        """A greedy governor that can never deny is observably unlimited —
        the handshake itself must not perturb any outcome."""
        requests = stochastic_requests(11)
        unlimited = FleetSimulator(config, 4).run(requests)
        greedy = FleetSimulator(
            config, 4, governor=GovernorSpec.greedy(10_000)
        ).run(requests)
        assert greedy.served == unlimited.served
        assert greedy.governor_stats.sprints_denied == 0
        assert greedy.governor_stats.sprints_granted == len(requests)


class TestGreedy:
    def test_concurrency_cap_is_respected(self, config):
        result = FleetSimulator(
            config, 8, governor=GovernorSpec.greedy(2)
        ).run(stochastic_requests(5, rate=1.0))
        stats = result.governor_stats
        assert stats.peak_concurrent_sprints <= 2
        assert stats.sprints_denied > 0
        assert stats.time_at_cap_s > 0.0

    def test_denied_requests_run_sustained(self, config):
        # Two simultaneous arrivals on two devices, one sprint slot: the
        # second request must execute sustained.
        requests = [
            Request(index=0, arrival_s=0.0, sustained_time_s=5.0),
            Request(index=1, arrival_s=0.0, sustained_time_s=5.0),
        ]
        result = FleetSimulator(
            config, 2, governor=GovernorSpec.greedy(1)
        ).run(requests)
        flags = sorted(s.sprinted for s in result.served)
        assert flags == [False, True]
        assert result.governor_stats.sprints_granted == 1
        assert result.governor_stats.sprints_denied == 1

    def test_grant_frees_at_completion(self, config):
        """A sprint's grant returns when the device frees, so a request
        arriving after the completion instant sprints again under cap 1."""
        requests = [
            Request(index=0, arrival_s=0.0, sustained_time_s=5.0),
            Request(index=1, arrival_s=1.0, sustained_time_s=5.0),
        ]
        result = FleetSimulator(
            config, 2, governor=GovernorSpec.greedy(1)
        ).run(requests)
        # First sprints 0.5 s; the second arrives at 1.0 > 0.5, after the
        # release event, so the budget is back.
        assert [s.sprinted for s in result.served] == [True, True]
        assert result.governor_stats.sprints_denied == 0

    def test_tighter_caps_cost_tail_latency(self, config):
        requests = stochastic_requests(9, n=200, rate=0.8)
        p99 = {}
        for cap in (1, 4):
            result = FleetSimulator(
                config, 8, governor=GovernorSpec.greedy(cap)
            ).run(requests)
            p99[cap] = result.summary().p99_latency_s
        unlimited = FleetSimulator(config, 8).run(requests).summary().p99_latency_s
        assert p99[1] > p99[4] >= unlimited


class TestGrantAccounting:
    """No leaked budget, whatever happens to the requests."""

    def test_no_leak_with_rejection_and_abandonment(self, config):
        """Rejected and abandoned requests never dispatch, so they must not
        consume budget; every dispatched grant must come back."""
        requests = [
            Request(
                index=i,
                arrival_s=0.05 * i,
                sustained_time_s=8.0,
                deadline_s=6.0 if i % 3 else None,
            )
            for i in range(60)
        ]
        fleet = FleetSimulator(
            config,
            2,
            mode="central_queue",
            queue_bound=3,
            governor=GovernorSpec.greedy(2),
        )
        result = fleet.run(requests)
        assert len(result.rejected) > 0
        assert len(result.abandoned) > 0
        assert fleet.governor.active_grants == 0
        stats = result.governor_stats
        assert stats.sprints_granted - stats.grants_released_unused == sprints_served(
            result
        )

    def test_unused_grant_released_immediately(self, config):
        """A granted request on a thermally exhausted device runs sustained;
        its grant must return at once so another device can use it."""
        requests = [
            # Exhaust device 0's reservoir (back-to-back heavy work).
            Request(index=0, arrival_s=0.0, sustained_time_s=10.0),
            Request(index=1, arrival_s=1.1, sustained_time_s=10.0),
            Request(index=2, arrival_s=1.2, sustained_time_s=10.0),
        ]

        def to_zero(devices, request, rng, cursor):
            return 0

        fleet = FleetSimulator(config, 1, policy=to_zero, governor=GovernorSpec.greedy(4))
        result = fleet.run(requests)
        stats = result.governor_stats
        assert stats.grants_released_unused > 0
        assert fleet.governor.active_grants == 0
        assert stats.sprints_granted - stats.grants_released_unused == sprints_served(
            result
        )

    def test_no_leak_across_every_policy(self, config):
        requests = stochastic_requests(13, n=120, rate=0.9)
        specs = [
            GovernorSpec.greedy(3),
            GovernorSpec.token_bucket(0.1, 4),
            GovernorSpec.cooperative(45.0),
        ]
        for spec in specs:
            for mode in ("immediate", "central_queue"):
                fleet = FleetSimulator(config, 4, mode=mode, governor=spec)
                result = fleet.run(requests)
                assert fleet.governor.active_grants == 0, (spec.policy, mode)
                stats = result.governor_stats
                assert (
                    stats.sprints_granted - stats.grants_released_unused
                    == sprints_served(result)
                ), (spec.policy, mode)

    def test_release_without_grant_raises(self, excess_w):
        governor = GreedyGovernor(excess_w, max_concurrent_sprints=2)
        with pytest.raises(RuntimeError):
            governor.release(0.0)


class TestBreaker:
    def test_greedy_past_trip_point_trips(self, config, excess_w):
        """An oblivious greedy governor provisioned above the trip point
        trips the breaker; the penalty window then denies every grant."""
        spec = GovernorSpec.greedy(
            8, trip_headroom_w=1.5 * excess_w, penalty_s=50.0
        )
        requests = [
            Request(index=0, arrival_s=0.0, sustained_time_s=5.0),
            Request(index=1, arrival_s=0.1, sustained_time_s=5.0),  # trips
            Request(index=2, arrival_s=1.0, sustained_time_s=5.0),  # in penalty
            Request(index=3, arrival_s=2.0, sustained_time_s=5.0),  # in penalty
        ]
        fleet = FleetSimulator(config, 4, governor=spec)
        result = fleet.run(requests)
        stats = result.governor_stats
        assert stats.breaker_trips == 1
        assert stats.trip_times_s == (0.1,)
        # The tripping sprint itself proceeds (power is not retro-cut)...
        assert [s.sprinted for s in sorted(result.served, key=lambda s: s.request.index)] == [
            True,
            True,
            False,
            False,
        ]
        # ...and the penalty window is charged to time at cap in full.
        assert stats.time_at_cap_s == pytest.approx(50.0)

    def test_trip_during_inflight_sprint_keeps_accounting_consistent(
        self, config, excess_w
    ):
        """Request 0's sprint is in flight when request 1 trips the breaker;
        its later release must bring the ledger back to zero, not negative."""
        spec = GovernorSpec.greedy(
            8, trip_headroom_w=1.5 * excess_w, penalty_s=100.0
        )
        requests = [
            Request(index=0, arrival_s=0.0, sustained_time_s=10.0),
            Request(index=1, arrival_s=0.1, sustained_time_s=10.0),
        ]
        fleet = FleetSimulator(config, 2, governor=spec)
        result = fleet.run(requests)
        stats = result.governor_stats
        assert stats.breaker_trips == 1
        assert stats.peak_concurrent_sprints == 2
        assert fleet.governor.active_grants == 0
        assert sprints_served(result) == 2

    def test_grants_resume_after_penalty(self, config, excess_w):
        spec = GovernorSpec.greedy(8, trip_headroom_w=1.5 * excess_w, penalty_s=5.0)
        requests = [
            Request(index=0, arrival_s=0.0, sustained_time_s=5.0),
            Request(index=1, arrival_s=0.1, sustained_time_s=5.0),  # trips at 0.1
            Request(index=2, arrival_s=2.0, sustained_time_s=5.0),  # denied
            Request(index=3, arrival_s=20.0, sustained_time_s=5.0),  # recovered
        ]
        result = FleetSimulator(config, 4, governor=spec).run(requests)
        by_index = sorted(result.served, key=lambda s: s.request.index)
        assert [s.sprinted for s in by_index] == [True, True, False, True]

    def test_cooperative_avoids_trips_greedy_incurs(self, config, excess_w):
        """The acceptance scenario: at the same offered load and trip point,
        greedy trips the breaker and cooperative-threshold does not —
        while still sprinting up to the budget."""
        requests = stochastic_requests(3, n=150, rate=0.8)
        trip_w = 2.5 * excess_w
        greedy = FleetSimulator(
            config,
            8,
            governor=GovernorSpec.greedy(8, trip_headroom_w=trip_w, penalty_s=60.0),
        ).run(requests)
        cooperative = FleetSimulator(
            config, 8, governor=GovernorSpec.cooperative(trip_w, penalty_s=60.0)
        ).run(requests)
        assert greedy.governor_stats.breaker_trips > 0
        assert cooperative.governor_stats.breaker_trips == 0
        assert cooperative.governor_stats.sprints_granted > 0
        # Cooperative never projects past the trip point: at most 2 sprints.
        assert cooperative.governor_stats.peak_concurrent_sprints <= 2

    def test_cooperative_caps_projected_draw(self, config, excess_w):
        governor = CooperativeThresholdGovernor(excess_w, trip_headroom_w=2 * excess_w)
        assert governor.acquire(0.0)
        assert governor.acquire(0.0)
        assert not governor.acquire(0.0)  # third sprint would exceed the trip point
        governor.release(1.0)
        assert governor.acquire(1.0)


class TestTokenBucket:
    def test_deterministic_under_identical_seeds(self, config):
        requests = stochastic_requests(21, n=100, rate=0.7)
        spec = GovernorSpec.token_bucket(0.05, 3)
        a = FleetSimulator(config, 4, governor=spec).run(requests, seed=2)
        b = FleetSimulator(config, 4, governor=spec).run(requests, seed=2)
        assert np.array_equal(a.latencies_s, b.latencies_s)
        assert a.governor_stats == b.governor_stats

    def test_burst_then_sustained_rate(self, config):
        """Exact grant schedule: a burst of 2, then one sprint per 1/rate.

        Arrivals every 1 s with rate 0.25/s and burst 2: grants at t = 0
        and 1 (the burst), then at t = 4 and 8 as the bucket refills to one
        token (0.25 tokens per arrival — exact in binary floats).
        """
        requests = generate_requests(
            DeterministicArrivals(1.0), FixedService(0.5), 10, seed=0
        )
        fleet = FleetSimulator(
            config, 1, governor=GovernorSpec.token_bucket(0.25, 2)
        )
        result = fleet.run(requests)
        sprint_flags = [s.sprinted for s in result.served]
        expected = [i in (0, 1, 4, 8) for i in range(10)]
        assert sprint_flags == expected
        # Exhaustion intervals, analytically: [1, 4], [4, 8], and [8, end]
        # where the run's last event is the final arrival at t = 9.
        assert result.governor_stats.time_at_cap_s == pytest.approx(8.0)

    def test_penalty_and_exhaustion_overlap_not_double_counted(self, excess_w):
        """One grant both trips the breaker and empties the bucket: the two
        blocked spans coincide and must be counted once, not summed."""
        governor = TokenBucketGovernor(
            excess_w,
            sprint_rate_hz=0.1,
            burst_sprints=1,
            trip_headroom_w=0.5 * excess_w,  # the very first grant trips
            penalty_s=10.0,
        )
        assert governor.acquire(0.0)
        stats = governor.finalize(12.0)
        assert stats.breaker_trips == 1
        # Exhaustion recovers at 1/0.1 = 10 s and the penalty ends at 10 s;
        # the union is [0, 10], never 20.
        assert stats.time_at_cap_s == pytest.approx(10.0)

    def test_unused_grant_refunds_its_token(self, excess_w):
        governor = TokenBucketGovernor(excess_w, sprint_rate_hz=1e-6, burst_sprints=1)
        assert governor.acquire(0.0)
        governor.release(0.0, used=False)
        # Without the refund the bucket would be empty for ~1e6 seconds.
        assert governor.acquire(0.0)
        stats = governor.finalize(1.0)
        assert stats.grants_released_unused == 1

    def test_refund_keeps_budget_for_cold_devices(self, config):
        """A hot device that is granted but cannot sprint must not burn the
        bucket: its refunded token is still there when the fleet cools."""

        def to_zero(devices, request, rng, cursor):
            return 0

        requests = [
            # Exhaust the device's thermal reservoir...
            Request(index=0, arrival_s=0.0, sustained_time_s=10.0),
            Request(index=1, arrival_s=1.1, sustained_time_s=10.0),
            # ...so these are granted but run sustained (grants refunded)...
            Request(index=2, arrival_s=1.2, sustained_time_s=10.0),
            Request(index=3, arrival_s=1.3, sustained_time_s=10.0),
            # ...and the refunds are what lets this one sprint after cooling.
            Request(index=4, arrival_s=200.0, sustained_time_s=10.0),
        ]
        fleet = FleetSimulator(
            config,
            1,
            policy=to_zero,
            governor=GovernorSpec.token_bucket(1e-4, 3),
        )
        result = fleet.run(requests)
        by_index = sorted(result.served, key=lambda s: s.request.index)
        assert result.governor_stats.grants_released_unused >= 1
        assert by_index[4].sprinted
        assert fleet.governor.active_grants == 0

    def test_stats_round_trip_into_summary(self, config):
        result = FleetSimulator(
            config, 4, governor=GovernorSpec.token_bucket(0.05, 2)
        ).run(stochastic_requests(4))
        summary = result.summary()
        stats = result.governor_stats
        assert summary.governor_policy == "token_bucket"
        assert summary.sprints_granted == stats.sprints_granted
        assert summary.sprints_denied == stats.sprints_denied
        assert summary.time_at_cap_s == pytest.approx(stats.time_at_cap_s)
        assert 0.0 < summary.sprint_denial_fraction < 1.0


class TestGovernorSpec:
    def test_policy_names_cover_the_paper_set(self):
        assert set(GOVERNOR_POLICIES) == {
            "unlimited",
            "greedy",
            "token_bucket",
            "cooperative_threshold",
        }

    def test_hyphenated_names_normalise(self):
        spec = GovernorSpec(
            policy="token-bucket", sprint_rate_hz=1.0, burst_sprints=2
        )
        assert spec.policy == "token_bucket"
        coop = GovernorSpec(policy="cooperative-threshold", trip_headroom_w=10.0)
        assert coop.policy == "cooperative_threshold"

    def test_validation(self):
        with pytest.raises(ValueError):
            GovernorSpec(policy="nope")
        with pytest.raises(ValueError):
            GovernorSpec(policy="greedy")  # missing the cap
        with pytest.raises(ValueError):
            GovernorSpec(policy="greedy", max_concurrent_sprints=0)
        with pytest.raises(ValueError):
            GovernorSpec(max_concurrent_sprints=4)  # unlimited takes no knobs
        with pytest.raises(ValueError):
            GovernorSpec(policy="token_bucket", sprint_rate_hz=1.0)  # no burst
        with pytest.raises(ValueError):
            GovernorSpec(policy="token_bucket", sprint_rate_hz=0.0, burst_sprints=2)
        with pytest.raises(ValueError):
            GovernorSpec(policy="token_bucket", sprint_rate_hz=1.0, burst_sprints=0.5)
        with pytest.raises(ValueError):
            GovernorSpec(policy="cooperative_threshold")  # missing trip point
        with pytest.raises(ValueError):
            GovernorSpec(policy="cooperative_threshold", trip_headroom_w=-1.0)
        with pytest.raises(ValueError):
            GovernorSpec.cooperative(10.0, penalty_s=-1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(policy="greedy", max_concurrent_sprints=2, penalty_s=float("nan")),
            dict(policy="token_bucket", sprint_rate_hz=float("nan"), burst_sprints=2),
        ],
        ids=("greedy-penalty_s=nan", "token_bucket-sprint_rate_hz=nan"),
    )
    def test_validation_rejects_non_finite(self, kwargs):
        with pytest.raises(ValueError):
            GovernorSpec(**kwargs)

    def test_labels_are_compact(self):
        assert GovernorSpec.unlimited().label == "unlimited"
        assert GovernorSpec.greedy(4).label == "greedy[4]"
        assert "60" in GovernorSpec.greedy(4, trip_headroom_w=60.0).label
        assert GovernorSpec.token_bucket(0.5, 8).label == "token[0.5/s+8]"
        assert GovernorSpec.cooperative(60.0).label == "coop[60W]"

    def test_build_resolves_platform_excess(self, config, excess_w):
        governor = GovernorSpec.greedy(4).build(config)
        assert isinstance(governor, GreedyGovernor)
        assert governor.excess_power_w == pytest.approx(excess_w)
        assert isinstance(GovernorSpec.unlimited().build(config), UnlimitedGovernor)
        assert isinstance(
            GovernorSpec.token_bucket(1.0, 2).build(config), TokenBucketGovernor
        )

    def test_fleet_rejects_bad_governor_arguments(self, config):
        with pytest.raises(ValueError):
            FleetSimulator(config, 2, governor="greedy")  # knobs required
        with pytest.raises(TypeError):
            FleetSimulator(config, 2, governor=123)

    def test_empty_governed_run_reports_stats(self, config):
        result = FleetSimulator(config, 2, governor=GovernorSpec.greedy(2)).run([])
        assert result.governor_stats is not None
        assert result.governor_stats.sprints_granted == 0
        assert result.summary().governor_policy == "greedy"


class TestSweepGovernorAxis:
    def test_governor_axis_expands_the_grid(self):
        spec = SweepSpec(
            arrival_rates_hz=(0.1, 0.2),
            fleet_sizes=(2,),
            governors=(GovernorSpec(), GovernorSpec.greedy(2)),
        )
        cells = expand_cells(spec)
        assert len(cells) == 4
        assert {c.governor.policy for c in cells} == {"unlimited", "greedy"}
        assert [c.index for c in cells] == list(range(4))

    def test_default_axis_reproduces_legacy_grid(self):
        spec = SweepSpec(arrival_rates_hz=(0.1,), fleet_sizes=(1, 2))
        cells = expand_cells(spec)
        assert len(cells) == 2
        assert all(c.governor == GovernorSpec() for c in cells)

    def test_string_governors_normalise(self):
        spec = SweepSpec(governors=("unlimited",))
        assert spec.governors == (GovernorSpec(),)

    def test_duplicate_governors_collapse(self):
        spec = SweepSpec(
            arrival_rates_hz=(0.1,),
            fleet_sizes=(1,),
            governors=(GovernorSpec(), "unlimited", GovernorSpec.greedy(2)),
        )
        cells = expand_cells(spec)
        assert len(cells) == 2  # the duplicate unlimited collapsed

    def test_sprint_disabled_collapses_governor_axis(self):
        """A power governor cannot affect a fleet that never sprints, so a
        no-sprint sweep must not multiply its cost along the axis."""
        spec = SweepSpec(
            arrival_rates_hz=(0.1,),
            fleet_sizes=(1,),
            sprint_enabled=False,
            governors=(GovernorSpec(), GovernorSpec.greedy(2)),
        )
        cells = expand_cells(spec)
        assert len(cells) == 1
        assert cells[0].governor == GovernorSpec()

    def test_governed_cells_run_and_pair_streams(self):
        spec = SweepSpec(
            arrival_rates_hz=(0.6,),
            fleet_sizes=(4,),
            n_requests=60,
            governors=(GovernorSpec(), GovernorSpec.greedy(1)),
        )
        result = run_sweep(spec)
        unlimited, governed = result.cells
        assert unlimited.cell.stream_key == governed.cell.stream_key
        assert governed.summary.sprints_denied > 0
        assert unlimited.summary.sprints_denied == 0
        assert governed.summary.p99_latency_s >= unlimited.summary.p99_latency_s

    def test_governed_sweep_parallel_matches_serial(self):
        spec = SweepSpec(
            arrival_rates_hz=(0.3, 0.6),
            fleet_sizes=(2,),
            n_requests=40,
            governors=(GovernorSpec(), GovernorSpec.token_bucket(0.05, 3)),
        )
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=3)
        assert serial.cells == parallel.cells

    def test_format_table_shows_governance(self):
        spec = SweepSpec(
            arrival_rates_hz=(0.5,),
            fleet_sizes=(2,),
            n_requests=30,
            governors=(GovernorSpec.greedy(1),),
        )
        table = run_sweep(spec).format_table()
        assert "governor" in table
        assert "greedy[1]" in table
        assert "den" in table

    def test_filtered_by_governor_policy(self):
        spec = SweepSpec(
            arrival_rates_hz=(0.2,),
            fleet_sizes=(1,),
            n_requests=20,
            governors=(GovernorSpec(), GovernorSpec.greedy(1)),
        )
        result = run_sweep(spec)
        subset = result.filtered(governor_policy="greedy")
        assert len(subset) == 1
        assert subset[0].cell.governor.policy == "greedy"

    def test_empty_governor_axis_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(governors=())
