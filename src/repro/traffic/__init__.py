"""Sprint-aware fleet serving under stochastic request load.

The paper evaluates one device running one task; this package asks the
question the paper's motivation implies: what happens when a *fleet* of
sprint-capable devices serves a *stream* of requests whose arrivals are
bursty, diurnal, or measured from a trace?  It is organised as a pipeline:

* :mod:`repro.traffic.arrivals` — seeded stochastic arrival processes
  (deterministic, Poisson, bursty on-off MMPP, diurnal, trace-driven),
* :mod:`repro.traffic.request` — the request model and service-demand
  samplers, including draws from the Table 1 kernel suite,
* :mod:`repro.traffic.device` — a serving wrapper around the sprint
  pacing model, so consecutive requests share one thermal budget whose
  physics is a pluggable backend
  (:class:`~repro.core.thermal_backend.ThermalSpec`: linear
  rule-of-thumb, RC cooling, or PCM enthalpy with melt telemetry), and
  the struct-of-arrays ``FleetState`` a linear fleet keeps its devices in,
* :mod:`repro.traffic.engine` — the heap-based discrete-event core:
  arrival/device-free/deadline plus grant-release/breaker-reset events,
  immediate and central-queue dispatch modes, bounded queues with
  rejection, deadline abandonment, and an O(log n) least-loaded device
  index,
* :mod:`repro.traffic.governor` — the fleet power-budget governor:
  sprints acquire grants from a shared budget (unlimited, greedy,
  token-bucket, or cooperative-threshold policies) with breaker-trip
  modelling, so racks cannot sprint past their provisioned supply,
* :mod:`repro.traffic.fleet` — the fleet simulator built on the engine,
  with round-robin, least-loaded, thermal-aware and random dispatch,
* :mod:`repro.traffic.metrics` — p50/p95/p99 latency, SLO attainment,
  sprint fraction, throughput, lifecycle (rejected/abandoned/
  deadline-miss) and sprint-governance (granted/denied/trips/time-at-cap)
  summaries,
* :mod:`repro.traffic.telemetry` — streaming observability: fixed-memory
  mergeable quantile sketches (deterministic KLL-style compaction),
  windowed fleet timelines (queue depth, in-flight sprints, granted
  power, thermal peaks), and ring-buffered structured event traces,
* :mod:`repro.traffic.topology` — hierarchical rack/row/datacenter
  power topologies: each level carries its own budget and breaker, and
  a sprint grant must clear *every* ancestor budget (the grant cascade),
* :mod:`repro.traffic.shard` — sharded parallel execution of a
  topology: each rack becomes an independent engine job fanned over a
  process pool, with pre-planned arrivals and per-window budget slices
  so results are bit-identical for any worker count,
* :mod:`repro.traffic.sweep` — a multiprocessing scenario sweep over
  policy × rate × fleet × discipline × queue-bound × governor × thermal
  × topology grids with deterministic seeding and a replication axis,
* :mod:`repro.traffic.experiments` — the replicated-experiment layer:
  frozen scenarios replayed N times under controlled seed streams, with
  per-metric confidence intervals, common-random-numbers paired
  comparisons (variance reduction), and CI-driven sequential stopping.

Quick start:

>>> from repro import SystemConfig
>>> from repro.traffic import FleetSimulator, PoissonArrivals, FixedService
>>> from repro.traffic import generate_requests
>>> requests = generate_requests(
...     PoissonArrivals(rate_hz=0.2), FixedService(5.0), n=50, seed=42
... )
>>> fleet = FleetSimulator(SystemConfig.paper_default(), n_devices=4)
>>> result = fleet.run(requests)
>>> result.summary(slo_s=2.0).request_count
50
"""

from repro.core.thermal_backend import (
    THERMAL_BACKENDS,
    LinearReservoir,
    PcmReservoir,
    RCCooling,
    ThermalBackend,
    ThermalSpec,
)
from repro.traffic.arrivals import (
    ArrivalProcess,
    DeterministicArrivals,
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
    TraceArrivals,
    seed_stream,
)
from repro.traffic.device import (
    DeviceStatColumns,
    FleetState,
    ServedColumns,
    ServedRequest,
    SprintDevice,
)
from repro.traffic.experiments import (
    ComparisonResult,
    ExperimentResult,
    ReplicationPlan,
    Scenario,
    compare,
    run_replications,
    run_until,
)
from repro.traffic.engine import (
    DISPATCH_MODES,
    DISPATCH_POLICIES,
    EXECUTION_MODES,
    QUEUE_DISCIPLINES,
    DispatchFn,
    EngineResult,
    LeastLoadedIndex,
    ServingEngine,
)
from repro.traffic.fleet import (
    DeviceStats,
    FleetResult,
    FleetSimulator,
    resolve_telemetry,
)
from repro.traffic.governor import (
    GOVERNOR_POLICIES,
    CooperativeThresholdGovernor,
    GovernorSpec,
    GovernorStats,
    GreedyGovernor,
    SprintGovernor,
    TokenBucketGovernor,
    UnlimitedGovernor,
)
from repro.traffic.metrics import (
    SUMMARY_STAT_FIELDS,
    MetricEstimate,
    PairedDelta,
    TrafficSummary,
    aggregate_summaries,
    batch_means_ci,
    latency_percentiles,
    mean_ci,
    paired_delta,
    sign_test_p,
    slo_attainment,
    student_t_cdf,
    student_t_ppf,
    summarize,
)
from repro.traffic.request import (
    FixedService,
    GammaService,
    LognormalService,
    Request,
    RequestBlock,
    ServiceModel,
    SuiteService,
    generate_request_blocks,
    generate_requests,
)
from repro.traffic.sweep import (
    ARRIVAL_KINDS,
    PAIRING_MODES,
    SWEEP_DISCIPLINES,
    CellResult,
    SweepCell,
    SweepResult,
    SweepSpec,
    cell_is_deterministic,
    expand_cells,
    pool_map,
    run_cell,
    run_sweep,
)
from repro.traffic.shard import ShardPlan, plan_shards, run_sharded
from repro.traffic.telemetry import (
    TRACE_KINDS,
    EventTrace,
    FleetTimeline,
    QuantileSketch,
    RunTelemetry,
    StreamingMoments,
    TelemetrySpec,
    TimelineProbe,
    TraceRecord,
    TrafficTelemetry,
)
from repro.traffic.topology import (
    LEVELS,
    TOPOLOGY_DISPATCH,
    CascadeGovernor,
    RackSpec,
    RowSpec,
    TopologySpec,
    TopologyStats,
    apportion_slots,
)

__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalProcess",
    "CellResult",
    "CascadeGovernor",
    "ComparisonResult",
    "CooperativeThresholdGovernor",
    "DISPATCH_MODES",
    "DISPATCH_POLICIES",
    "DeterministicArrivals",
    "DeviceStatColumns",
    "DeviceStats",
    "DispatchFn",
    "DiurnalArrivals",
    "EXECUTION_MODES",
    "EngineResult",
    "EventTrace",
    "ExperimentResult",
    "FixedService",
    "FleetResult",
    "FleetState",
    "FleetSimulator",
    "FleetTimeline",
    "GOVERNOR_POLICIES",
    "GammaService",
    "GovernorSpec",
    "GovernorStats",
    "GreedyGovernor",
    "LEVELS",
    "LeastLoadedIndex",
    "LinearReservoir",
    "LognormalService",
    "MMPPArrivals",
    "MetricEstimate",
    "PAIRING_MODES",
    "PairedDelta",
    "PcmReservoir",
    "PoissonArrivals",
    "QUEUE_DISCIPLINES",
    "QuantileSketch",
    "RCCooling",
    "RackSpec",
    "ReplicationPlan",
    "Request",
    "RequestBlock",
    "RowSpec",
    "RunTelemetry",
    "SUMMARY_STAT_FIELDS",
    "SWEEP_DISCIPLINES",
    "Scenario",
    "ServedColumns",
    "ServedRequest",
    "ServiceModel",
    "ServingEngine",
    "ShardPlan",
    "SprintDevice",
    "SprintGovernor",
    "StreamingMoments",
    "SuiteService",
    "SweepCell",
    "SweepResult",
    "SweepSpec",
    "THERMAL_BACKENDS",
    "TOPOLOGY_DISPATCH",
    "TRACE_KINDS",
    "TelemetrySpec",
    "ThermalBackend",
    "ThermalSpec",
    "TimelineProbe",
    "TokenBucketGovernor",
    "TopologySpec",
    "TopologyStats",
    "TraceArrivals",
    "TraceRecord",
    "TrafficSummary",
    "TrafficTelemetry",
    "UnlimitedGovernor",
    "aggregate_summaries",
    "apportion_slots",
    "batch_means_ci",
    "cell_is_deterministic",
    "compare",
    "expand_cells",
    "generate_request_blocks",
    "generate_requests",
    "latency_percentiles",
    "mean_ci",
    "paired_delta",
    "plan_shards",
    "pool_map",
    "resolve_telemetry",
    "run_cell",
    "run_replications",
    "run_sharded",
    "run_sweep",
    "run_until",
    "seed_stream",
    "sign_test_p",
    "slo_attainment",
    "student_t_cdf",
    "student_t_ppf",
    "summarize",
]
