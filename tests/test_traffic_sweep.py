"""Tests for the parallel scenario sweep engine."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.traffic.sweep import (
    CellResult,
    SweepSpec,
    expand_cells,
    run_cell,
    run_sweep,
)

CONFIG = SystemConfig.paper_default()
NAN, INF = float("nan"), float("inf")


@pytest.fixture(scope="module")
def small_spec():
    return SweepSpec(
        policies=("round_robin", "least_loaded"),
        arrival_rates_hz=(0.05, 0.2),
        fleet_sizes=(1, 2),
        n_requests=25,
        slo_s=2.0,
        base_seed=7,
    )


class TestGridExpansion:
    def test_cell_count_and_order(self, small_spec):
        cells = expand_cells(small_spec)
        assert len(cells) == 8
        assert [c.index for c in cells] == list(range(8))
        assert cells[0].policy == "round_robin"
        assert cells[-1].policy == "least_loaded"

    def test_stream_key_depends_only_on_arrival_rate(self, small_spec):
        """Cells differing in policy or fleet size must replay the same
        request stream; only the arrival rate changes it."""
        cells = expand_cells(small_spec)
        by_rate = {}
        for cell in cells:
            by_rate.setdefault(cell.arrival_rate_hz, set()).add(cell.stream_key)
        for keys in by_rate.values():
            assert len(keys) == 1
        assert len({keys.pop() for keys in by_rate.values()}) == len(by_rate)

    def test_seed_sequence_derives_from_base_seed(self, small_spec):
        a = expand_cells(small_spec)[0]
        b = expand_cells(SweepSpec(base_seed=99))[0]
        assert a.seed_sequence.entropy != b.seed_sequence.entropy

    def test_dispatch_seed_distinguishes_base_seed_from_cell_index(self):
        """The dispatch RNG is seeded from the (base_seed, index) *pair*, so
        swapping the components — which an additive seed would conflate —
        must give a different random-dispatch assignment."""
        import numpy as np

        from repro.traffic import FixedService, FleetSimulator, PoissonArrivals
        from repro.traffic.request import generate_requests

        config = SystemConfig.paper_default()
        requests = generate_requests(PoissonArrivals(0.5), FixedService(5.0), 60, seed=1)

        def assignments(seed_pair):
            fleet = FleetSimulator(config, 8, policy="random")
            result = fleet.run(requests, seed=np.random.SeedSequence(seed_pair))
            return [s.device_id for s in result.served]

        assert assignments([0, 5]) == assignments([0, 5])
        assert assignments([0, 5]) != assignments([5, 0])


class TestSweepExecution:
    def test_serial_matches_parallel(self, small_spec):
        serial = run_sweep(small_spec, workers=1)
        parallel = run_sweep(small_spec, workers=3)
        assert serial.cells == parallel.cells

    def test_sweep_is_reproducible(self, small_spec):
        assert run_sweep(small_spec).cells == run_sweep(small_spec).cells

    def test_one_device_cells_identical_across_policies(self, small_spec):
        """With a single device every dispatch policy is a no-op, and since the
        request stream is policy-independent the summaries must coincide."""
        result = run_sweep(small_spec)
        for rate in small_spec.arrival_rates_hz:
            summaries = [
                c.summary for c in result.filtered(arrival_rate_hz=rate, n_devices=1)
            ]
            assert all(s == summaries[0] for s in summaries)

    def test_run_cell_matches_sweep(self, small_spec):
        cells = expand_cells(small_spec)
        config = SystemConfig.paper_default()
        direct = run_cell(small_spec, cells[3], config)
        swept = run_sweep(small_spec, config).cells[3]
        assert direct == swept

    def test_arrival_kinds_all_run(self):
        for kind in ("poisson", "bursty", "diurnal", "deterministic"):
            spec = SweepSpec(
                arrival_rates_hz=(0.1,),
                fleet_sizes=(2,),
                n_requests=15,
                arrival_kind=kind,
            )
            result = run_sweep(spec)
            assert len(result.cells) == 1
            assert result.cells[0].summary.request_count == 15

    def test_bursty_arrival_process_preserves_mean_rate(self):
        spec = SweepSpec(arrival_kind="bursty", burst_factor=4.0)
        process = spec.arrival_process(0.2)
        assert process.mean_rate_hz() == pytest.approx(0.2)

    def test_bursty_burst_length_is_tunable(self):
        spec = SweepSpec(arrival_kind="bursty", burst_factor=4.0, burst_mean_requests=20.0)
        process = spec.arrival_process(0.2)
        # A burst at 4 x 0.2/s carrying 20 expected requests lasts 25 s.
        assert process.mean_dwell_s[0] == pytest.approx(25.0)
        assert process.mean_rate_hz() == pytest.approx(0.2)

    def test_service_cv_enables_gamma_demands(self):
        spec = SweepSpec(
            arrival_rates_hz=(0.1,), fleet_sizes=(1,), n_requests=30, service_cv=1.0
        )
        fixed = SweepSpec(arrival_rates_hz=(0.1,), fleet_sizes=(1,), n_requests=30)
        assert run_sweep(spec).cells[0] != run_sweep(fixed).cells[0]

    def test_discipline_and_bound_axes_expand_the_grid(self, small_spec):
        from dataclasses import replace

        spec = replace(
            small_spec, disciplines=("immediate", "fifo"), queue_bounds=(None, 4)
        )
        cells = expand_cells(spec)
        # Redundant combinations are collapsed: immediate cells ignore the
        # bound axis (8 = 2 policies x 2 rates x 2 fleets), central cells
        # ignore the policy axis (8 = 2 rates x 2 fleets x 2 bounds).
        assert len(cells) == 16
        assert {c.discipline for c in cells} == {"immediate", "fifo"}
        assert {c.queue_bound for c in cells if c.discipline == "fifo"} == {None, 4}
        assert all(c.queue_bound is None for c in cells if c.discipline == "immediate")
        assert {c.policy for c in cells if c.discipline == "fifo"} == {"round_robin"}
        assert [c.index for c in cells] == list(range(16))

    def test_default_axes_reproduce_legacy_enumeration(self, small_spec):
        """With the new axes at their defaults the grid (and so every
        cell's dispatch seed) must be exactly the legacy enumeration."""
        cells = expand_cells(small_spec)
        legacy = [
            (policy, rate, size)
            for policy in small_spec.policies
            for rate in small_spec.arrival_rates_hz
            for size in small_spec.fleet_sizes
        ]
        assert [(c.policy, c.arrival_rate_hz, c.n_devices) for c in cells] == legacy

    def test_central_queue_cells_run_and_report_lifecycle(self):
        spec = SweepSpec(
            arrival_rates_hz=(1.0,),
            fleet_sizes=(2,),
            disciplines=("fifo", "edf"),
            queue_bounds=(2,),
            n_requests=40,
            deadline_s=20.0,
        )
        result = run_sweep(spec)
        assert len(result.cells) == 2
        for cell_result in result.cells:
            s = cell_result.summary
            assert s.offered_count == 40
            assert s.request_count + s.rejected_count + s.abandoned_count == 40
            assert s.rejected_count > 0  # overloaded bounded queue must shed

    def test_deadline_knob_reaches_requests(self):
        spec = SweepSpec(
            arrival_rates_hz=(0.5,),
            fleet_sizes=(1,),
            n_requests=20,
            deadline_s=1.0,
        )
        result = run_sweep(spec)
        # Immediate mode never abandons, but completion-past-deadline
        # misses are counted.
        assert result.cells[0].summary.deadline_miss_count > 0

    def test_sprint_disabled_sweeps_are_slower(self, small_spec):
        sprint = run_sweep(small_spec)
        sustained = run_sweep(small_spec.with_sprint_enabled(False))
        mean_sprint = np.mean([c.summary.p50_latency_s for c in sprint.cells])
        mean_sustained = np.mean([c.summary.p50_latency_s for c in sustained.cells])
        assert mean_sprint < mean_sustained


class TestSweepResult:
    def test_filtered(self, small_spec):
        result = run_sweep(small_spec)
        subset = result.filtered(policy="round_robin", n_devices=2)
        assert len(subset) == len(small_spec.arrival_rates_hz)
        assert all(c.cell.policy == "round_robin" for c in subset)

    def test_best_cell(self, small_spec):
        result = run_sweep(small_spec)
        best = result.best_cell("p99_latency_s")
        assert isinstance(best, CellResult)
        assert best.summary.p99_latency_s == min(
            c.summary.p99_latency_s for c in result.cells
        )

    def test_format_table(self, small_spec):
        table = run_sweep(small_spec).format_table()
        assert "dispatch" in table
        assert "rej" in table
        assert len(table.splitlines()) == 9


class TestValidation:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(policies=())
        with pytest.raises(ValueError):
            SweepSpec(policies=("nope",))
        with pytest.raises(ValueError):
            SweepSpec(arrival_kind="weird")
        with pytest.raises(ValueError):
            SweepSpec(arrival_rates_hz=(0.0,))
        with pytest.raises(ValueError):
            SweepSpec(fleet_sizes=(0,))
        with pytest.raises(ValueError):
            SweepSpec(n_requests=0)
        with pytest.raises(ValueError):
            SweepSpec(arrival_kind="bursty", burst_factor=1.0)
        with pytest.raises(ValueError):
            SweepSpec(arrival_kind="bursty", burst_mean_requests=0.0)
        # Burst knobs are only read (and so only validated) for bursty kinds.
        SweepSpec(arrival_kind="poisson", burst_factor=1.0)
        with pytest.raises(ValueError):
            SweepSpec(disciplines=())
        for discipline in ("lifo", "fluid"):
            with pytest.raises(ValueError):
                SweepSpec(disciplines=(discipline,))
        with pytest.raises(ValueError):
            SweepSpec(queue_bounds=(-1,))
        for bound in (NAN, 2.5):
            with pytest.raises(ValueError, match="queue bound"):
                SweepSpec(queue_bounds=(None, bound))
        with pytest.raises(ValueError):
            SweepSpec(deadline_s=0.0)
        with pytest.raises(ValueError):
            SweepSpec(service_cv=-0.5)
        with pytest.raises(ValueError):
            SweepSpec(slo_s=0.0)
        with pytest.raises(ValueError):
            SweepSpec(sprint_speedup=0.5)
        with pytest.raises(ValueError):
            SweepSpec(arrival_kind="diurnal", diurnal_amplitude=1.0)
        with pytest.raises(ValueError):
            SweepSpec(arrival_kind="diurnal", diurnal_period_s=0.0)
        # Diurnal knobs are only validated when the diurnal kind reads them.
        SweepSpec(arrival_kind="poisson", diurnal_amplitude=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(arrival_rates_hz=(NAN,)),
            dict(arrival_rates_hz=(INF,)),
            dict(service_mean_s=NAN),
            dict(service_cv=NAN),
            dict(slo_s=NAN),
            dict(deadline_s=NAN),
            dict(sprint_speedup=NAN),
            dict(sprint_speedup=INF),
        ],
        ids=lambda kw: ",".join(f"{k}={v}".replace(" ", "") for k, v in kw.items()),
    )
    def test_spec_rejects_non_finite(self, kwargs):
        """A NaN or infinite knob fails at construction, not as NaN summaries."""
        with pytest.raises(ValueError):
            SweepSpec(**kwargs)

    def test_worker_validation(self, small_spec):
        for workers in (0, NAN, 1.5):
            with pytest.raises(ValueError, match="worker count"):
                run_sweep(small_spec, workers=workers)

    def test_replication_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(replications=0)
        with pytest.raises(ValueError):
            SweepSpec(pairing="antithetic")


class TestReplicationAxis:
    """The replications/pairing axis and its seed-stream determinism."""

    @pytest.fixture(scope="class")
    def replicated_spec(self):
        return SweepSpec(
            policies=("least_loaded",),
            arrival_rates_hz=(0.1, 0.3),
            fleet_sizes=(2,),
            n_requests=20,
            service_cv=0.8,
            slo_s=2.0,
            base_seed=5,
            replications=3,
        )

    def test_single_replication_sweep_is_bit_identical_to_legacy(self, small_spec):
        """``replications=1`` replays exactly the pre-replication streams."""
        legacy = run_sweep(small_spec, CONFIG)
        for result in legacy.cells:
            rerun = run_cell(small_spec, result.cell, CONFIG, replication=0)
            assert rerun.summary == result.summary
            assert result.replicates == ()
            assert not result.collapsed

    def test_cells_carry_all_replicates(self, replicated_spec):
        result = run_sweep(replicated_spec, CONFIG)
        for cell_result in result.cells:
            assert len(cell_result.summaries) == 3
            assert cell_result.summary == cell_result.summaries[0]
            estimate = cell_result.estimate("p99_latency_s")
            assert estimate.n == 3
            assert estimate.half_width >= 0.0

    def test_serial_matches_parallel_with_replications(self, replicated_spec):
        """The determinism satellite: seed streams are pool-size independent."""
        serial = run_sweep(replicated_spec, CONFIG, workers=1)
        pooled = run_sweep(replicated_spec, CONFIG, workers=3)
        assert serial == pooled

    def test_serial_matches_parallel_with_independent_pairing(self, replicated_spec):
        spec = replace(replicated_spec, pairing="independent")
        assert run_sweep(spec, CONFIG, workers=1) == run_sweep(spec, CONFIG, workers=3)

    def test_crn_pairs_cells_per_replication(self, replicated_spec):
        """Under CRN, cells differing only in fleet size share request
        streams replication by replication — offered counts match."""
        spec = replace(replicated_spec, fleet_sizes=(1, 2))
        result = run_sweep(spec, CONFIG)
        for rate in spec.arrival_rates_hz:
            cells = result.filtered(arrival_rate_hz=rate)
            assert len(cells) == 2
            for a, b in zip(cells[0].summaries, cells[1].summaries):
                assert a.offered_count == b.offered_count

    def test_independent_pairing_decouples_cells(self, replicated_spec):
        """Independent seeding gives each cell its own replication streams
        — every replication, including 0; makespans (a fingerprint of the
        arrival draw) diverge pairwise."""
        spec = replace(replicated_spec, fleet_sizes=(1, 2), pairing="independent")
        result = run_sweep(spec, CONFIG)
        cells = result.filtered(arrival_rate_hz=spec.arrival_rates_hz[0])
        paired_makespans = [
            (a.makespan_s, b.makespan_s)
            for a, b in zip(cells[0].summaries, cells[1].summaries)
        ]
        assert all(a != b for a, b in paired_makespans)

    def test_replication_seed_universes_never_collide(self, replicated_spec):
        """Request and dispatch streams stay disjoint even where
        cell.index equals a stream-key word (cell 0 at rate index 0), and
        dispatch streams are unique per (cell, replication).  Request
        streams may be shared across cells — that is what CRN pairing
        means — but never with a dispatch stream."""
        from repro.traffic.sweep import _cell_seeds, expand_cells

        for pairing in ("crn", "independent"):
            spec = replace(
                replicated_spec, fleet_sizes=(1, 2), pairing=pairing
            )
            requests_seen, dispatch_seen = set(), set()
            for cell in expand_cells(spec):
                for r in range(spec.replications):
                    request_seed, run_seed = _cell_seeds(spec, cell, r)
                    req, run = tuple(request_seed.entropy), tuple(run_seed.entropy)
                    if pairing == "crn" and r == 0:
                        # Replication 0 under CRN replays the legacy
                        # streams, whose keys may coincide where
                        # cell.index == rate_idx (benign: the request side
                        # spawns child streams before drawing, and the
                        # scheme is frozen by bit-identity locks).
                        continue
                    assert req != run
                    assert run not in dispatch_seen
                    dispatch_seen.add(run)
                    requests_seen.add(req)
            assert not requests_seen & dispatch_seen
            if pairing == "independent":
                # Every (cell, replication) draws its own request stream.
                n_cells = len(expand_cells(spec))
                assert len(requests_seen) == n_cells * spec.replications

    def test_deterministic_cells_collapse(self):
        spec = SweepSpec(
            policies=("round_robin", "random"),
            arrival_rates_hz=(0.1,),
            fleet_sizes=(2,),
            n_requests=10,
            arrival_kind="deterministic",
            service_cv=0.0,
            replications=4,
            base_seed=3,
        )
        result = run_sweep(spec, CONFIG)
        by_policy = {r.cell.policy: r for r in result.cells}
        # Deterministic arrivals + fixed service: only the random policy
        # still consumes randomness, so only it replicates.
        assert by_policy["round_robin"].collapsed
        assert len(by_policy["round_robin"].summaries) == 1
        assert by_policy["round_robin"].estimate("p99_latency_s").half_width == 0.0
        assert not by_policy["random"].collapsed
        assert len(by_policy["random"].summaries) == 4

    def test_format_table_reports_ci_column(self, replicated_spec):
        table = run_sweep(replicated_spec, CONFIG).format_table()
        assert "±95%" in table

    def test_estimate_rejects_unset_fields(self, replicated_spec):
        spec = replace(replicated_spec, slo_s=None)
        result = run_sweep(spec, CONFIG)
        with pytest.raises(ValueError):
            result.cells[0].estimate("slo_attainment")
