"""Equivalence suite for the engine's vectorized (batched) execution mode.

The fast path (:mod:`repro.traffic.fastpath`) must be *bit-identical* to the
exact heap engine wherever it engages, and must fall back honestly — with a
stated reason — wherever it cannot.  These tests lock both properties across
the scenario matrix of policies × modes × governors × thermal backends, plus
the streaming entry points (``run_blocks`` / ``run_stream``) and the
flat-memory ``keep_samples=False`` mode.
"""

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.core.pacing import SprintPacer
from repro.traffic import fastpath
from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.device import FleetState, SprintDevice
from repro.traffic.engine import DISPATCH_POLICIES, ServingEngine
from repro.traffic.fleet import FleetSimulator
from repro.traffic.governor import GovernorSpec
from repro.traffic.request import (
    GammaService,
    Request,
    RequestBlock,
    generate_requests,
)
from repro.traffic.topology import TopologySpec

POLICIES = ("round_robin", "random", "least_loaded", "thermal_aware")
MODES = ("immediate", "central_queue")
GOVERNORS = (
    GovernorSpec(),
    GovernorSpec(policy="greedy", max_concurrent_sprints=2),
    GovernorSpec.cooperative(trip_headroom_w=30.0),
)
THERMALS = ("linear", "rc", "pcm")

#: Fleet widths the identity locks run at: one below
#: ``fastpath.LOCKSTEP_MIN_DEVICES`` (ungoverned immediate round_robin/random
#: take the event core) and one at or above it (they take the lockstep core),
#: so both batched cores stay under every lock.
FLEET_SIZES = (4, 64)


@pytest.fixture(scope="module")
def config():
    return SystemConfig.paper_default()


@pytest.fixture(scope="module")
def requests():
    # Poisson at moderate load with bursty gamma demands: exercises idle
    # drains, full sprints, partial sprints, and queue build-up.
    return generate_requests(
        PoissonArrivals(0.6), GammaService(2.0, cv=1.0), n=250, seed=13
    )


def build_fleet(config, engine, *, policy="round_robin", mode="immediate",
                governor="unlimited", thermal="linear", n_devices=4, **kw):
    return FleetSimulator(
        config,
        n_devices=n_devices,
        policy=policy,
        mode=mode,
        governor=governor,
        thermal=thermal,
        engine=engine,
        **kw,
    )


def assert_identical(exact, fast):
    """Both runs produced the same result, bit for bit."""
    assert exact.served == fast.served
    assert exact.device_stats == fast.device_stats
    assert exact.rejected == fast.rejected
    assert exact.abandoned == fast.abandoned
    assert exact.served_count == fast.served_count
    assert exact.final_event_s == fast.final_event_s
    assert exact.governor_stats == fast.governor_stats
    assert np.array_equal(exact.latencies_s, fast.latencies_s)


class TestScenarioMatrix:
    """batched == exact on every cell of the golden scenario matrix."""

    @pytest.mark.parametrize("n_devices", FLEET_SIZES)
    @pytest.mark.parametrize("thermal", THERMALS)
    @pytest.mark.parametrize("governor", GOVERNORS, ids=lambda g: g.policy)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_batched_matches_exact(
        self, config, requests, policy, mode, governor, thermal, n_devices
    ):
        exact = build_fleet(
            config, "exact", policy=policy, mode=mode,
            governor=governor, thermal=thermal, n_devices=n_devices,
        ).run(requests, seed=7)
        fast = build_fleet(
            config, "batched", policy=policy, mode=mode,
            governor=governor, thermal=thermal, n_devices=n_devices,
        ).run(requests, seed=7)
        assert_identical(exact, fast)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_engagement_matches_envelope(self, config, policy):
        """Every named immediate policy is inside the envelope on a linear fleet."""
        engine = build_fleet(config, "batched", policy=policy)._make_engine()
        assert engine.fast_path_reason is None


class TestFallbackReasons:
    """Every unsupported knob names why it forces the exact loop."""

    def test_exact_mode_never_engages(self, config, requests):
        fleet = build_fleet(config, "exact")
        engine = fleet._make_engine()
        engine.run(requests, np.random.default_rng(0))
        assert not engine.last_run_fast_path

    def test_eligible_batched_engages(self, config, requests):
        fleet = build_fleet(config, "batched")
        engine = fleet._make_engine()
        assert engine.fast_path_reason is None
        engine.run(requests, np.random.default_rng(0))
        assert engine.last_run_fast_path

    def test_central_fifo_engages(self, config):
        """Central-queue FIFO is inside the envelope now."""
        engine = build_fleet(config, "batched", mode="central_queue")._make_engine()
        assert engine.fast_path_reason is None

    def test_edf_discipline_reason(self, config):
        engine = build_fleet(
            config, "batched", mode="central_queue", discipline="edf"
        )._make_engine()
        assert "re-sorts" in engine.fast_path_reason

    def test_replayable_governor_engages(self, config):
        """Greedy/cooperative budgets replay exactly through the event core."""
        for governor in GOVERNORS[1:]:
            engine = build_fleet(config, "batched", governor=governor)._make_engine()
            assert engine.fast_path_reason is None

    def test_token_bucket_governor_reason(self, config):
        engine = build_fleet(
            config, "batched", governor=GovernorSpec.token_bucket(0.5, 3.0)
        )._make_engine()
        assert "grant replay" in engine.fast_path_reason

    def test_physics_thermal_reason(self, config):
        engine = build_fleet(config, "batched", thermal="rc")._make_engine()
        assert "thermal backend" in engine.fast_path_reason

    def test_observers_ride_the_fast_path(self, config, requests):
        """Streaming instruments no longer force the exact loop."""
        fleet = build_fleet(config, "batched", telemetry=True)
        stream, probe, trace = fleet._prepare_observers()
        engine = fleet._make_engine(stream=stream, probe=probe, trace=trace)
        assert engine.fast_path_reason is None
        engine.run(requests, np.random.default_rng(0))
        assert engine.last_run_fast_path

    def test_custom_dispatch_callable_reason(self, config):
        engine = build_fleet(
            config, "batched", policy=DISPATCH_POLICIES["round_robin"]
        )._make_engine()
        assert engine.fast_path_reason is not None

    def test_ineligible_batched_run_falls_back(self, config, requests):
        fleet = build_fleet(
            config, "batched", mode="central_queue", discipline="edf"
        )
        engine = fleet._make_engine()
        engine.run(requests, np.random.default_rng(0))
        assert not engine.last_run_fast_path


class TestStreamingEntryPoints:
    ARRIVALS = PoissonArrivals(0.6)
    SERVICE = GammaService(2.0, cv=1.0)

    @pytest.mark.parametrize("n_devices", FLEET_SIZES)
    @pytest.mark.parametrize("chunk", [32, 1000])
    def test_run_blocks_matches_run(self, config, chunk, n_devices):
        """Chunked block execution == materialise-then-run, same seeds."""
        scalar = generate_requests(self.ARRIVALS, self.SERVICE, n=300, seed=17)
        fleet = build_fleet(config, "batched", n_devices=n_devices)
        via_run = fleet.run(scalar, seed=5)
        via_stream = fleet.run_stream(
            self.ARRIVALS, self.SERVICE, 300,
            request_seed=17, run_seed=5, chunk_size=chunk,
        )
        assert_identical(via_run, via_stream)

    @pytest.mark.parametrize("n_devices", FLEET_SIZES)
    def test_run_stream_exact_engine_matches_batched(self, config, n_devices):
        exact = build_fleet(config, "exact", n_devices=n_devices).run_stream(
            self.ARRIVALS, self.SERVICE, 300, request_seed=17, run_seed=5
        )
        fast = build_fleet(config, "batched", n_devices=n_devices).run_stream(
            self.ARRIVALS, self.SERVICE, 300, request_seed=17, run_seed=5
        )
        assert_identical(exact, fast)

    @pytest.mark.parametrize("n_devices", FLEET_SIZES)
    def test_keep_samples_false_keeps_counts_and_device_state(self, config, n_devices):
        kept = build_fleet(
            config, "batched", keep_samples=True, n_devices=n_devices
        ).run_stream(self.ARRIVALS, self.SERVICE, 300, request_seed=17, run_seed=5)
        flat = build_fleet(
            config, "batched", keep_samples=False, telemetry=False, n_devices=n_devices
        ).run_stream(self.ARRIVALS, self.SERVICE, 300, request_seed=17, run_seed=5)
        assert flat.served == ()
        assert flat.served_count == kept.served_count == 300
        assert flat.device_stats == kept.device_stats
        assert flat.final_event_s == kept.final_event_s

    @pytest.mark.parametrize("n_devices", FLEET_SIZES)
    def test_random_policy_consumes_identical_rng_stream(self, config, n_devices):
        """One block draw of assignments == per-request scalar draws."""
        scalar = generate_requests(self.ARRIVALS, self.SERVICE, n=200, seed=3)
        exact = build_fleet(
            config, "exact", policy="random", n_devices=n_devices
        ).run(scalar, seed=11)
        fast = build_fleet(
            config, "batched", policy="random", n_devices=n_devices
        ).run(scalar, seed=11)
        assert_identical(exact, fast)
        assert [s.device_id for s in exact.served] == [
            s.device_id for s in fast.served
        ]

    def test_out_of_order_blocks_rejected(self, config):
        engine = build_fleet(config, "batched")._make_engine()
        blocks = [
            RequestBlock(0, np.array([5.0, 6.0]), np.array([1.0, 1.0])),
            RequestBlock(2, np.array([1.0, 2.0]), np.array([1.0, 1.0])),
        ]
        with pytest.raises(ValueError, match="time-ordered"):
            engine.run_blocks(iter(blocks), np.random.default_rng(0))


FUZZ_GOVERNORS = (
    GovernorSpec(),
    GovernorSpec.greedy(2),
    GovernorSpec.cooperative(trip_headroom_w=30.0),
    GovernorSpec.token_bucket(0.5, 3.0),
)
FUZZ_DISCIPLINES = ("immediate", "fifo", "edf")


def fuzz_configs(n):
    """Deterministic random draws over the full knob space."""
    rng = np.random.default_rng(20260807)
    for _ in range(n):
        yield dict(
            policy=POLICIES[rng.integers(len(POLICIES))],
            discipline=FUZZ_DISCIPLINES[rng.integers(len(FUZZ_DISCIPLINES))],
            governor=FUZZ_GOVERNORS[rng.integers(len(FUZZ_GOVERNORS))],
            thermal=THERMALS[rng.integers(len(THERMALS))],
            telemetry=bool(rng.integers(2)),
        )


class TestEnvelopeHonestyFuzz:
    """Random (governor × discipline × thermal × telemetry) configurations:
    every one is bit-identical across engines, engages exactly where the
    envelope predicate promises, and otherwise names its fallback reason."""

    @pytest.mark.parametrize(
        "knobs",
        list(fuzz_configs(24)),
        ids=lambda k: (
            f"{k['policy']}-{k['discipline']}-{k['governor'].policy}"
            f"-{k['thermal']}-{'tele' if k['telemetry'] else 'plain'}"
        ),
    )
    def test_fuzzed_config_is_honest(self, config, requests, knobs):
        central = knobs["discipline"] != "immediate"
        kw = dict(
            policy=knobs["policy"],
            mode="central_queue" if central else "immediate",
            discipline=knobs["discipline"] if central else "fifo",
            governor=knobs["governor"],
            thermal=knobs["thermal"],
            telemetry=knobs["telemetry"],
        )
        exact = build_fleet(config, "exact", **kw).run(requests, seed=7)
        fast = build_fleet(config, "batched", **kw).run(requests, seed=7)
        assert_identical(exact, fast)
        # Telemetry sketches must agree too, not just sample lists.
        if knobs["telemetry"]:
            for q in (0.5, 0.9, 0.99):
                assert exact.telemetry.stream.latency.quantile(
                    q
                ) == fast.telemetry.stream.latency.quantile(q)
        # Honest engagement: the run's path matches the static envelope.
        expected = (
            knobs["thermal"] == "linear"
            and knobs["governor"].policy != "token_bucket"
            and knobs["discipline"] != "edf"
        )
        assert fast.fast_path == expected
        assert (fast.fast_path_reason is None) == expected
        assert not exact.fast_path


class TestGovernedCentralAcceptance:
    """The issue's headline scenario: 256 governed devices behind a central
    FIFO with full telemetry — summary, grant ledger, and sketch quantiles
    bit-identical between the exact loop and the vector core."""

    def run_once(self, config, engine):
        fleet = FleetSimulator(
            config,
            n_devices=256,
            mode="central_queue",
            discipline="fifo",
            governor=GovernorSpec.greedy(64),
            telemetry=True,
            engine=engine,
        )
        return fleet.run_stream(
            PoissonArrivals(50.0),
            GammaService(2.0, cv=1.0),
            4000,
            request_seed=9,
            run_seed=9,
        )

    def test_bit_identical_at_fleet_scale(self, config):
        exact = self.run_once(config, "exact")
        fast = self.run_once(config, "batched")
        assert fast.fast_path
        assert fast.fast_path_reason is None
        assert_identical(exact, fast)
        assert exact.summary() == fast.summary()
        assert exact.governor_stats == fast.governor_stats
        for q in (0.5, 0.9, 0.99, 0.999):
            assert exact.telemetry.stream.latency.quantile(
                q
            ) == fast.telemetry.stream.latency.quantile(q)


class TestShardedFastPath:
    """Sharded topology runs ride the vector core per rack and stay
    bit-identical to exact at any shard worker count — ungoverned, and under
    a small version of the perfbench ``sharded_datacenter`` shape: binding
    rack and row greedy budgets with ``least_loaded`` dispatch."""

    SHAPES = {
        "ungoverned-round_robin": (
            TopologySpec.uniform(2, 2, 4),
            "round_robin",
            PoissonArrivals(1.2),
            GammaService(2.0, cv=1.0),
        ),
        "cascade-least_loaded": (
            TopologySpec.uniform(
                2,
                3,
                4,
                rack_governor=GovernorSpec.greedy(1),
                row_governor=GovernorSpec.greedy(2),
                window_s=60.0,
            ),
            "least_loaded",
            PoissonArrivals(4.0),
            GammaService(4.0, cv=0.5),
        ),
    }

    def run_once(self, config, engine, shape, workers=1, keep_samples=True):
        topology, policy, arrivals, service = self.SHAPES[shape]
        fleet = FleetSimulator(
            config,
            topology=topology,
            policy=policy,
            engine=engine,
            shard_workers=workers,
            keep_samples=keep_samples,
        )
        return fleet.run_stream(
            arrivals,
            service,
            400,
            request_seed=21,
            run_seed=21,
        )

    @staticmethod
    def assert_same_run(exact, fast, shape):
        assert_identical(exact, fast)
        assert exact.topology_stats == fast.topology_stats
        assert exact.summary() == fast.summary()
        if shape.startswith("cascade"):
            denied = fast.topology_stats.denied_by_level()
            assert denied["rack"] > 0 and denied["row"] > 0

    @pytest.mark.parametrize("keep_samples", (True, False), ids=("kept", "flat"))
    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("shape", SHAPES)
    def test_racks_ride_vector_core(self, config, shape, workers, keep_samples):
        exact = self.run_once(config, "exact", shape, 1, keep_samples)
        fast = self.run_once(config, "batched", shape, workers, keep_samples)
        assert fast.fast_path
        assert fast.fast_path_reason is None
        assert not exact.fast_path
        self.assert_same_run(exact, fast, shape)

    @pytest.mark.parametrize("keep_samples", (True, False), ids=("kept", "flat"))
    @pytest.mark.parametrize("shape", SHAPES)
    def test_invariant_under_shard_workers(self, config, shape, keep_samples):
        serial = self.run_once(config, "batched", shape, 1, keep_samples)
        fanned = self.run_once(config, "batched", shape, 3, keep_samples)
        assert fanned.fast_path
        self.assert_same_run(serial, fanned, shape)


class TestCoreRouting:
    """Ungoverned immediate round_robin/random runs take the lockstep core
    only from ``LOCKSTEP_MIN_DEVICES`` devices; every other batched run
    takes the event core."""

    def test_fleet_sizes_straddle_lockstep_width(self):
        assert min(FLEET_SIZES) < fastpath.LOCKSTEP_MIN_DEVICES <= max(FLEET_SIZES)

    @pytest.mark.parametrize(
        "policy, governor, n_devices, lockstep",
        [
            ("round_robin", "unlimited", 4, False),
            ("round_robin", "unlimited", 64, True),
            ("random", "unlimited", 64, True),
            ("least_loaded", "unlimited", 64, False),
            ("thermal_aware", "unlimited", 64, False),
            ("round_robin", GovernorSpec.greedy(2), 64, False),
        ],
    )
    def test_core_chosen_by_width(
        self, config, requests, monkeypatch, policy, governor, n_devices, lockstep
    ):
        cores = []

        def spy(name):
            core = getattr(fastpath, name)

            def wrapped(*args):
                cores.append(name)
                return core(*args)

            monkeypatch.setattr(fastpath, name, wrapped)

        spy("_run_immediate_core")
        spy("_run_event_core")
        build_fleet(
            config, "batched", policy=policy, governor=governor, n_devices=n_devices
        ).run(requests, seed=7)
        assert cores == ["_run_immediate_core" if lockstep else "_run_event_core"]


class TestServingHistory:
    """Tie-breaks read lifetime served counts, serving history included, on
    both engines: a batched run on devices that already served requests
    dispatches exactly as the exact loop does."""

    @staticmethod
    def seasoned_fleet(config):
        devices = [SprintDevice(config, device_id=i) for i in range(3)]
        for k in range(3):
            devices[0].serve(Request(k, float(k), 0.5))
        devices[1].serve(Request(0, 0.0, 0.5))
        return devices

    @pytest.mark.parametrize(
        "mode, policy",
        [("central_queue", "round_robin"), ("immediate", "least_loaded")],
    )
    def test_batched_matches_exact_after_history(self, config, mode, policy):
        requests = [Request(0, 20.0, 1.0), Request(1, 20.0, 1.0)]
        runs = {}
        for execution in ("exact", "batched"):
            devices = self.seasoned_fleet(config)
            engine = ServingEngine(
                devices,
                DISPATCH_POLICIES[policy],
                policy,
                mode=mode,
                execution=execution,
            )
            outcome = engine.run(requests, np.random.default_rng(0))
            state = [
                (
                    d.requests_served,
                    d.busy_until_s,
                    d.sprints_served,
                    d.busy_seconds,
                    d.thermal_backend.stored_heat_j,
                )
                for d in devices
            ]
            runs[execution] = (outcome, engine.last_run_fast_path, state)
        exact, fast = runs["exact"], runs["batched"]
        assert fast[1] and not exact[1]
        assert exact[0] == fast[0]
        assert exact[2] == fast[2]
        # The least-served device wins the tie at t=20, history included.
        assert [s.device_id for s in fast[0].served] == [2, 1]


def device_state(devices):
    """Everything a device carries from one request to the next, per device."""
    return [
        (
            d.device_id,
            d.label,
            d.requests_served,
            d.busy_until_s,
            d.sprints_served,
            d.busy_seconds,
            d.sprint_fullness_mean,
            d.thermal_backend.stored_heat_j,
            d.thermal_backend.total_deposited_j,
            d.thermal_backend.total_drained_j,
            d.peak_stored_heat_j,
            d.peak_temperature_c,
            d.pacer.last_arrival_s,
        )
        for d in devices
    ]


class TestColumnarDeviceState:
    """A linear fleet keeps its devices as a ``FleetState``: a batched run
    builds no ``SprintDevice``, and the objects a caller asks for carry the
    run exactly as the exact loop leaves its own."""

    def test_batched_wide_fleet_builds_no_device_objects(self, config, monkeypatch):
        built = []
        init = SprintDevice.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SprintDevice, "__init__", counting_init)
        fleet = FleetSimulator(
            config, 10_000, policy="round_robin", keep_samples=False, engine="batched"
        )
        result = fleet.run_stream(
            PoissonArrivals(100.0), GammaService(2.0, cv=1.0), 10_000, request_seed=3
        )
        assert result.summary().request_count == 10_000
        assert result.fast_path
        assert len(built) <= 1

    @pytest.mark.parametrize("keep_samples", (True, False), ids=("kept", "flat"))
    @pytest.mark.parametrize("n_devices", FLEET_SIZES)
    def test_devices_after_batched_run_match_exact(
        self, config, requests, n_devices, keep_samples
    ):
        """4 devices take the event core, 64 the lockstep core."""
        states = {}
        for engine in ("exact", "batched"):
            fleet = build_fleet(
                config, engine, n_devices=n_devices, keep_samples=keep_samples
            )
            result = fleet.run(requests, seed=7)
            states[engine] = device_state(fleet.devices)
        assert result.fast_path
        assert states["exact"] == states["batched"]

    def test_devices_are_one_list_across_reads(self, config, requests):
        fleet = build_fleet(config, "batched")
        devices = fleet.devices
        assert fleet.devices is devices
        result = fleet.run(requests, seed=7)
        assert fleet.devices is devices
        assert all(a is b for a, b in zip(fleet.devices, devices))
        assert [d.requests_served for d in devices] == [
            s.requests_served for s in result.device_stats
        ]
        # Serving on the objects sticks across reads until the next run.
        late = Request(10_000, devices[0].busy_until_s + 1.0, 1.0)
        devices[0].serve(late)
        assert fleet.devices[0].requests_served == result.device_stats[0].requests_served + 1
        fleet.run(requests, seed=7)
        assert device_state(fleet.devices) == device_state(devices)
        assert fleet.devices[0].requests_served == result.device_stats[0].requests_served

    @pytest.mark.parametrize("policy", ("least_loaded", "round_robin"))
    def test_exact_engine_serves_a_state_through_its_devices(
        self, config, requests, policy
    ):
        """Handed a FleetState, the exact loop serves on the state's devices
        and gathers them back: state, stats and results equal batched."""
        runs = {}
        for execution in ("exact", "batched"):
            state = FleetState(SprintPacer(config), 4, label_prefix="rack0/")
            engine = ServingEngine(
                state, DISPATCH_POLICIES[policy], policy, execution=execution
            )
            outcome = engine.run(requests, np.random.default_rng(0))
            runs[execution] = (outcome, state.stat_columns(), device_state(state.sync_devices()))
        assert runs["exact"][0] == runs["batched"][0]
        assert runs["exact"][1] == runs["batched"][1]
        assert runs["exact"][2] == runs["batched"][2]
        assert runs["batched"][1].labels()[3] == "rack0/dev3"

    def test_batched_ledger_matches_exact_after_history(self, config, requests):
        """Batched runs continue a device's lifetime sums in request order,
        so a device with serving history ends bit-identical to exact, down
        to the reservoir's drained-heat ledger."""
        late = [Request(r.index, r.arrival_s + 20.0, r.sustained_time_s) for r in requests]
        states = {}
        for execution in ("exact", "batched"):
            devices = TestServingHistory.seasoned_fleet(config)
            engine = ServingEngine(
                devices, DISPATCH_POLICIES["least_loaded"], "least_loaded",
                execution=execution,
            )
            engine.run(late, np.random.default_rng(0))
            states[execution] = device_state(devices)
        assert states["exact"] == states["batched"]
