"""Tests for the replicated-experiment layer and its statistics.

Four tiers, mirroring TESTING.md's taxonomy:

* **Golden/bit-identity** — a one-replication plan reproduces a direct
  :class:`~repro.traffic.fleet.FleetSimulator` run bit-identically (the
  experiment layer adds no hidden perturbation), and sequential stopping
  is bit-identical to the fixed-count run of the same final size.
* **Determinism** — replication results are independent of worker count
  and of the pairing/arm seed bookkeeping.
* **Statistical self-tests** — the Student-t quantiles match table
  values, the batch-means CI covers a known distribution's mean at the
  nominal rate, and CRN pairing strictly reduces paired-delta variance
  against independent seeding on a fixed scenario.
* **API contracts** — validation, collapse of deterministic scenarios,
  aggregation field handling.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.traffic import (
    ComparisonResult,
    DeterministicArrivals,
    FixedService,
    GammaService,
    MetricEstimate,
    PoissonArrivals,
    ReplicationPlan,
    Scenario,
    aggregate_summaries,
    batch_means_ci,
    compare,
    mean_ci,
    paired_delta,
    pool_map,
    run_replications,
    run_until,
    seed_stream,
    sign_test_p,
    student_t_cdf,
    student_t_ppf,
)

CONFIG = SystemConfig.paper_default()


@pytest.fixture(scope="module")
def stochastic_scenario():
    return Scenario(
        arrivals=PoissonArrivals(0.3),
        service=GammaService(mean_s=5.0, cv=1.0),
        n_requests=40,
        n_devices=2,
        slo_s=2.0,
    )


@pytest.fixture(scope="module")
def deterministic_scenario():
    return Scenario(
        arrivals=DeterministicArrivals(8.0),
        service=FixedService(5.0),
        n_requests=10,
        n_devices=2,
    )


class TestSeedStreams:
    def test_seed_stream_is_deterministic(self):
        a = np.random.default_rng(seed_stream(3, 11, 0)).random(4)
        b = np.random.default_rng(seed_stream(3, 11, 0)).random(4)
        assert np.array_equal(a, b)

    def test_seed_stream_distinguishes_words(self):
        a = np.random.default_rng(seed_stream(3, 11, 0)).random(4)
        b = np.random.default_rng(seed_stream(3, 11, 1)).random(4)
        assert not np.array_equal(a, b)

    def test_seed_stream_needs_words(self):
        with pytest.raises(ValueError):
            seed_stream()

    def test_crn_pairing_shares_streams_across_arms(self, stochastic_scenario):
        plan = ReplicationPlan(stochastic_scenario, n_replications=3, pairing="crn")
        for r in range(3):
            assert (
                plan.request_seed(r, arm=0).entropy
                == plan.request_seed(r, arm=1).entropy
            )
            assert plan.run_seed(r, arm=0).entropy == plan.run_seed(r, arm=1).entropy

    def test_independent_pairing_separates_arms(self, stochastic_scenario):
        plan = ReplicationPlan(
            stochastic_scenario, n_replications=3, pairing="independent"
        )
        assert (
            plan.request_seed(0, arm=0).entropy != plan.request_seed(0, arm=1).entropy
        )

    def test_replications_get_distinct_streams(self, stochastic_scenario):
        plan = ReplicationPlan(stochastic_scenario, n_replications=4)
        entropies = {tuple(plan.request_seed(r).entropy) for r in range(4)}
        assert len(entropies) == 4

    def test_request_and_dispatch_domains_are_disjoint(self, stochastic_scenario):
        plan = ReplicationPlan(stochastic_scenario, n_replications=2)
        assert plan.request_seed(0).entropy != plan.run_seed(0).entropy

    def test_negative_indices_rejected(self, stochastic_scenario):
        plan = ReplicationPlan(stochastic_scenario)
        with pytest.raises(ValueError):
            plan.request_seed(-1)
        with pytest.raises(ValueError):
            plan.run_seed(0, arm=-1)

    def test_crn_arms_replay_identical_requests(self, stochastic_scenario):
        plan = ReplicationPlan(stochastic_scenario, n_replications=2, pairing="crn")
        treatment = stochastic_scenario.with_options(sprint_enabled=False)
        for r in range(2):
            base = stochastic_scenario.requests(plan.request_seed(r, arm=0))
            treat = treatment.requests(plan.request_seed(r, arm=1))
            assert [(q.arrival_s, q.sustained_time_s) for q in base] == [
                (q.arrival_s, q.sustained_time_s) for q in treat
            ]


class TestReplicationBitIdentity:
    """Acceptance lock: replication count 1 == a direct FleetSimulator run."""

    @pytest.mark.parametrize("pairing", ["independent", "crn"])
    def test_single_replication_matches_direct_run(
        self, stochastic_scenario, pairing
    ):
        plan = ReplicationPlan(
            stochastic_scenario, n_replications=1, pairing=pairing, base_seed=42
        )
        layered = run_replications(plan, CONFIG).summaries[0]

        requests = stochastic_scenario.requests(plan.request_seed(0))
        fleet = stochastic_scenario.build_fleet(CONFIG)
        direct = fleet.run(requests, seed=plan.run_seed(0)).summary(
            slo_s=stochastic_scenario.slo_s
        )
        assert layered.to_dict() == direct.to_dict()

    def test_worker_count_does_not_change_results(self, stochastic_scenario):
        plan = ReplicationPlan(stochastic_scenario, n_replications=5)
        serial = run_replications(plan, CONFIG, workers=1)
        pooled = run_replications(plan, CONFIG, workers=3)
        assert [s.to_dict() for s in serial.summaries] == [
            s.to_dict() for s in pooled.summaries
        ]

    def test_sequential_stopping_is_bit_identical_to_fixed_count(
        self, stochastic_scenario
    ):
        plan = ReplicationPlan(stochastic_scenario, n_replications=2)
        stopped = run_until(
            plan, target_half_width=1e-9, max_replications=6, config=CONFIG
        )
        assert stopped.n_replications == 6  # tiny target: runs to the cap
        fixed = run_replications(plan.with_replications(6), CONFIG)
        assert [s.to_dict() for s in stopped.summaries] == [
            s.to_dict() for s in fixed.summaries
        ]


class TestSequentialStopping:
    def test_stops_when_target_met(self, stochastic_scenario):
        plan = ReplicationPlan(stochastic_scenario, n_replications=2)
        result = run_until(
            plan, target_half_width=1e9, max_replications=40, config=CONFIG
        )
        # An absurdly loose target is met by the first CI it can compute.
        assert result.n_replications == 2

    def test_deterministic_scenario_returns_immediately(
        self, deterministic_scenario
    ):
        plan = ReplicationPlan(deterministic_scenario, n_replications=8)
        result = run_until(plan, target_half_width=0.5, config=CONFIG)
        assert result.n_replications == 1
        assert result.estimate("p99_latency_s").half_width == 0.0

    def test_validation(self, stochastic_scenario):
        plan = ReplicationPlan(stochastic_scenario)
        with pytest.raises(ValueError):
            run_until(plan, target_half_width=0.0)
        with pytest.raises(ValueError):
            run_until(plan, target_half_width=1.0, max_replications=1)


class TestDeterministicCollapse:
    def test_plan_collapses_deterministic_scenario(self, deterministic_scenario):
        plan = ReplicationPlan(deterministic_scenario, n_replications=8)
        assert plan.effective_replications == 1
        result = run_replications(plan, CONFIG)
        assert result.n_replications == 1

    def test_collapsed_estimate_is_exact(self, deterministic_scenario):
        result = run_replications(
            ReplicationPlan(deterministic_scenario, n_replications=8), CONFIG
        )
        estimate = result.estimate("p99_latency_s")
        assert estimate.half_width == 0.0
        assert estimate.n == 1
        assert all(e.half_width == 0.0 for e in result.estimates().values())

    def test_random_policy_defeats_collapse(self, deterministic_scenario):
        jittery = deterministic_scenario.with_options(policy="random")
        assert not jittery.is_deterministic
        plan = ReplicationPlan(jittery, n_replications=3)
        assert plan.effective_replications == 3

    def test_stochastic_single_replication_has_unbounded_ci(
        self, stochastic_scenario
    ):
        result = run_replications(
            ReplicationPlan(stochastic_scenario, n_replications=1), CONFIG
        )
        assert math.isinf(result.estimate("p99_latency_s").half_width)


class TestCompare:
    def test_crn_delta_tighter_than_independent(self, stochastic_scenario):
        """The acceptance criterion: CRN strictly reduces paired variance."""
        treatment = stochastic_scenario
        baseline = treatment.with_options(sprint_enabled=False)
        crn = compare(
            baseline, treatment, n_replications=10, pairing="crn", config=CONFIG
        ).delta("p99_latency_s")
        independent = compare(
            baseline,
            treatment,
            n_replications=10,
            pairing="independent",
            config=CONFIG,
        ).delta("p99_latency_s")
        assert crn.stddev < independent.stddev
        assert crn.half_width < independent.half_width

    def test_paired_arms_align_by_replication(self, stochastic_scenario):
        treatment = stochastic_scenario.with_options(n_devices=3)
        duel = compare(stochastic_scenario, treatment, n_replications=4, config=CONFIG)
        assert isinstance(duel, ComparisonResult)
        assert duel.n_replications == 4
        assert duel.pairing == "crn"
        # Offered load is identical per replication under CRN: the arms
        # saw the same arrivals, so offered counts match pairwise.
        for base, treat in zip(duel.baseline.summaries, duel.treatment.summaries):
            assert base.offered_count == treat.offered_count

    def test_deterministic_pair_collapses(self, deterministic_scenario):
        treatment = deterministic_scenario.with_options(sprint_enabled=False)
        duel = compare(deterministic_scenario, treatment, n_replications=6, config=CONFIG)
        assert duel.n_replications == 1

    def test_format_reports(self, stochastic_scenario):
        duel = compare(
            stochastic_scenario.with_options(sprint_enabled=False),
            stochastic_scenario,
            n_replications=3,
            config=CONFIG,
        )
        assert "±" in duel.format_report()
        assert "±" in duel.baseline.format_report()


class TestStudentT:
    #: (p, df) -> quantile, from standard t tables.
    TABLE = {
        (0.975, 1): 12.7062,
        (0.975, 5): 2.5706,
        (0.975, 10): 2.2281,
        (0.975, 30): 2.0423,
        (0.995, 10): 3.1693,
        (0.95, 20): 1.7247,
    }

    def test_quantiles_match_tables(self):
        for (p, df), expected in self.TABLE.items():
            assert student_t_ppf(p, df) == pytest.approx(expected, abs=5e-4)

    def test_symmetry_and_median(self):
        assert student_t_ppf(0.5, 7) == 0.0
        assert student_t_ppf(0.1, 7) == pytest.approx(-student_t_ppf(0.9, 7), abs=1e-9)

    def test_cdf_inverts_ppf(self):
        for p in (0.05, 0.3, 0.7, 0.99):
            assert student_t_cdf(student_t_ppf(p, 12), 12) == pytest.approx(
                p, abs=1e-9
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            student_t_ppf(0.0, 5)
        with pytest.raises(ValueError):
            student_t_ppf(0.5, 0)
        with pytest.raises(ValueError):
            student_t_cdf(1.0, -1)


class TestConfidenceIntervals:
    def test_mean_ci_covers_normal_mean_at_nominal_rate(self):
        """95% CIs over i.i.d. normal samples cover the true mean ~95% of
        the time — the self-test that the t machinery is calibrated."""
        rng = np.random.default_rng(12345)
        true_mean, trials, n = 3.0, 400, 20
        covered = 0
        for _ in range(trials):
            est = mean_ci(rng.normal(true_mean, 1.0, size=n), confidence=0.95)
            covered += est.ci_low <= true_mean <= est.ci_high
        assert 0.92 <= covered / trials <= 0.98

    def test_batch_means_ci_covers_known_mean_at_nominal_rate(self):
        """Batch-means CIs on an AR(1) series with known mean cover it at
        the nominal rate once batches exceed the correlation length."""
        rng = np.random.default_rng(99)
        phi, trials = 0.6, 300
        covered = 0
        for _ in range(trials):
            noise = rng.normal(0.0, 1.0, size=2000)
            series = np.empty_like(noise)
            acc = 0.0
            for i, e in enumerate(noise):
                acc = phi * acc + e
                series[i] = acc
            est = batch_means_ci(series, n_batches=10, confidence=0.95)
            covered += est.ci_low <= 0.0 <= est.ci_high
        assert 0.90 <= covered / trials <= 0.99

    def test_batch_means_trims_warmup_from_the_front(self):
        series = [100.0] * 3 + [1.0] * 20
        est = batch_means_ci(series, n_batches=10)
        # 23 values, 10 batches of 2: the 3 leading values are dropped.
        assert est.mean == pytest.approx(1.0)

    def test_mean_ci_edge_cases(self):
        single = mean_ci([4.2])
        assert single.n == 1 and math.isinf(single.half_width)
        flat = mean_ci([2.0, 2.0, 2.0])
        assert flat.stddev == 0.0 and flat.half_width == 0.0
        exact = MetricEstimate.exact(1.5)
        assert exact.half_width == 0.0 and "n=1" in str(exact)
        with pytest.raises(ValueError):
            mean_ci([])
        with pytest.raises(ValueError):
            mean_ci([1.0, 2.0], confidence=1.0)
        with pytest.raises(ValueError):
            batch_means_ci([1.0, 2.0, 3.0], n_batches=10)
        with pytest.raises(ValueError):
            batch_means_ci([1.0] * 20, n_batches=1)

    def test_sign_test_exact_values(self):
        assert sign_test_p(10, 0) == pytest.approx(2 * 0.5**10)
        assert sign_test_p(5, 5) == 1.0
        assert sign_test_p(0, 0) == 1.0
        assert sign_test_p(8, 2) == pytest.approx(0.109375)
        with pytest.raises(ValueError):
            sign_test_p(-1, 2)

    def test_paired_delta(self):
        delta = paired_delta([1.0, 2.0, 3.0, 4.0], [2.0, 3.5, 4.0, 6.0])
        assert delta.mean_delta == pytest.approx(1.375)
        assert delta.n_positive == 4 and delta.n_negative == 0
        assert delta.sign_test_p == pytest.approx(0.125)
        assert "Δ" in str(delta)
        with pytest.raises(ValueError):
            paired_delta([1.0], [1.0, 2.0])

    def test_significance_flag(self):
        wide = paired_delta([0.0, 0.0, 0.0], [1.0, -1.0, 0.5])
        assert not wide.significant
        tight = paired_delta([0.0] * 5, [1.0, 1.01, 0.99, 1.0, 1.02])
        assert tight.significant


class TestAggregation:
    def test_aggregate_summaries_fields(self, stochastic_scenario):
        result = run_replications(
            ReplicationPlan(stochastic_scenario, n_replications=4), CONFIG
        )
        estimates = result.estimates()
        assert estimates["p99_latency_s"].n == 4
        assert "slo_attainment" in estimates  # the scenario sets an SLO
        assert estimates["request_count"].mean > 0

    def test_slo_attainment_skipped_without_slo(self, stochastic_scenario):
        no_slo = stochastic_scenario.with_options(slo_s=None)
        result = run_replications(ReplicationPlan(no_slo, n_replications=2), CONFIG)
        assert "slo_attainment" not in result.estimates()
        with pytest.raises(ValueError):
            result.values("slo_attainment")

    def test_aggregate_summaries_requires_input(self):
        with pytest.raises(ValueError):
            aggregate_summaries([])


class TestValidation:
    def test_plan_validation(self, stochastic_scenario):
        with pytest.raises(ValueError):
            ReplicationPlan(stochastic_scenario, n_replications=0)
        with pytest.raises(ValueError):
            ReplicationPlan(stochastic_scenario, pairing="antithetic")

    def test_scenario_validation(self):
        arrivals, service = PoissonArrivals(0.1), FixedService(2.0)
        with pytest.raises(ValueError):
            Scenario(arrivals=arrivals, service=service, n_requests=0)
        with pytest.raises(ValueError):
            Scenario(arrivals=arrivals, service=service, n_requests=5, n_devices=0)
        with pytest.raises(ValueError):
            Scenario(arrivals=arrivals, service=service, n_requests=5, policy="nope")
        for mode in ("nope", "fluid"):
            with pytest.raises(ValueError):
                Scenario(arrivals=arrivals, service=service, n_requests=5, mode=mode)
        with pytest.raises(ValueError):
            Scenario(
                arrivals=arrivals, service=service, n_requests=5, discipline="nope"
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sprint_speedup=math.nan),
            dict(sprint_speedup=0.5),
            dict(slo_s=math.nan),
            dict(slo_s=-1.0),
            dict(deadline_s=math.nan),
            dict(deadline_s=-1.0),
            dict(queue_bound=math.nan),
            dict(queue_bound=2.5),
            dict(shard_workers=math.nan),
            dict(shard_workers=1.5),
        ],
        ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_scenario_rejects_bad_numeric_knobs(self, kwargs):
        with pytest.raises(ValueError):
            Scenario(
                arrivals=PoissonArrivals(0.1),
                service=FixedService(2.0),
                n_requests=5,
                **kwargs,
            )

    def test_scenario_normalises_names_to_specs(self):
        scenario = Scenario(
            arrivals=PoissonArrivals(0.1),
            service=FixedService(2.0),
            n_requests=5,
            governor="unlimited",
            thermal="rc",
        )
        assert scenario.governor.policy == "unlimited"
        assert scenario.thermal.backend == "rc"
        # Hashable (frozen all the way down) — usable as a dict key.
        assert hash(scenario) == hash(scenario.with_options())

    def test_pool_map_contract(self):
        assert pool_map(lambda x: x * 2, [1, 2, 3], workers=1) == [2, 4, 6]
        with pytest.raises(ValueError):
            pool_map(lambda x: x, [1], workers=0)
