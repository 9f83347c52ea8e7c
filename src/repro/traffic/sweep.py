"""Scenario sweep engine: policy × rate × fleet × discipline × bound ×
governor × thermal grids.

One fleet run answers one question; the interesting questions — how much
fleet does a target SLO need, which dispatch policy wins under overload,
how much admission control buys at the tail, how tight a shared power
budget can be before the tail pays — are surfaces over a grid of
scenarios.  :func:`run_sweep` fans a grid of (policy, arrival rate, fleet
size, dispatch discipline, queue bound, governor) cells across worker
processes with :mod:`multiprocessing`, seeding each cell deterministically
from the sweep's base seed and the cell's position, so the full sweep is
reproducible and bit-identical whether it runs serially or on any number
of workers.

The ``disciplines`` axis selects the dispatch mode per cell:
``"immediate"`` runs the cell's policy at arrival (the legacy loop), while
``"fifo"`` and ``"edf"`` run the central-queue engine under that queue
discipline (the policy axis is not consulted there).  The ``queue_bounds``
axis only affects central-queue cells; immediate cells repeat unchanged
along it.  The ``governors`` axis applies a fleet power budget
(:class:`~repro.traffic.governor.GovernorSpec`) per cell; the request
stream does not depend on it, so governor comparisons are paired like
every other non-rate axis.  The ``thermals`` axis selects the pacing
fidelity (:class:`~repro.core.thermal_backend.ThermalSpec`: linear
rule-of-thumb, RC cooling, or PCM enthalpy) per cell — also paired, so a
sweep can answer "how much tail latency does the coarse reservoir hide?"
directly.  Redundant cells collapse: duplicate thermal specs keep their
first occurrence, and a sprint-disabled sweep keeps only the first
backend (a fleet that never sprints deposits no heat, so every backend
agrees).

Scenario knobs beyond the grid live in :class:`SweepSpec`: the arrival
process family (Poisson, bursty on-off, diurnal, or deterministic — all
parameterised by the cell's mean rate), the service-demand distribution,
an optional per-request deadline, the sprint speedup, and whether
sprinting is enabled at all (for paired sprint/no-sprint comparisons).

A :attr:`SweepSpec.topologies` axis puts hierarchical fleets
(:class:`~repro.traffic.topology.TopologySpec`) on the grid next to flat
ones; topology cells take their size and budgets from the spec, so the
``fleet_sizes`` and ``governors`` axes collapse to their first value for
those cells.

Usage — the grid is the cross product of the axes:

>>> from repro.traffic.sweep import SweepSpec, expand_cells
>>> spec = SweepSpec(
...     policies=("round_robin",),
...     arrival_rates_hz=(0.1, 0.2),
...     fleet_sizes=(2,),
... )
>>> len(expand_cells(spec))
2
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
from dataclasses import dataclass, replace

import numpy as np

from repro.core.config import SystemConfig
from repro.core.thermal_backend import ThermalSpec
from repro.traffic.arrivals import (
    ArrivalProcess,
    DeterministicArrivals,
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
)
from repro.traffic.arrivals import seed_stream
from repro.traffic.engine import EXECUTION_MODES, QUEUE_DISCIPLINES
from repro.traffic.fleet import DISPATCH_POLICIES, FleetSimulator, resolve_telemetry
from repro.traffic.governor import GovernorSpec
from repro.traffic.metrics import MetricEstimate, TrafficSummary, mean_ci, validate_count
from repro.traffic.request import FixedService, GammaService, generate_requests
from repro.traffic.telemetry import RunTelemetry, TelemetrySpec, TrafficTelemetry
from repro.traffic.topology import TopologySpec

#: Arrival families the sweep can instantiate from a cell's mean rate.
ARRIVAL_KINDS = ("poisson", "bursty", "diurnal", "deterministic")

#: Values of the discipline axis: immediate dispatch or a central-queue
#: discipline from :data:`repro.traffic.engine.QUEUE_DISCIPLINES`.
SWEEP_DISCIPLINES = ("immediate",) + QUEUE_DISCIPLINES

#: Replication seeding modes: ``"crn"`` (common random numbers — every
#: cell at the same arrival rate replays the same request stream per
#: replication, so comparisons along all non-rate axes stay paired) or
#: ``"independent"`` (each cell draws its own streams — the noisy
#: classical design, kept so the variance reduction can be measured).
PAIRING_MODES = ("crn", "independent")


def pool_map(fn, jobs, workers: int) -> list:
    """Map ``fn`` over ``jobs``, optionally fanned across worker processes.

    The shared fan-out primitive of the traffic stack: :func:`run_sweep`
    spreads grid cells through it and
    :func:`repro.traffic.experiments.run_replications` spreads replication
    jobs.  ``workers=1`` (or a single job) runs serially in-process;
    results always come back in job order, so callers are bit-identical
    for any worker count provided ``fn`` is deterministic per job.
    """
    validate_count(workers, "worker count")
    jobs = list(jobs)
    if workers == 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with multiprocessing.Pool(processes=min(workers, len(jobs))) as pool:
        return pool.map(fn, jobs)


@dataclass(frozen=True)
class SweepSpec:
    """The grid and the scenario shared by every cell.

    ``burst_factor`` and ``burst_mean_requests`` only matter for the
    ``bursty`` arrival kind: bursts run at ``burst_factor`` times the
    cell's mean rate, are sized so a burst carries ``burst_mean_requests``
    expected requests, and are spaced so the long-run mean rate is
    preserved.  ``diurnal_amplitude`` and ``diurnal_period_s`` only apply
    to ``diurnal``.  ``service_cv = 0`` gives fixed-size requests.
    ``deadline_s`` attaches the same relative latency budget to every
    request (central-queue cells then abandon requests that miss it before
    starting; every cell reports completion-past-deadline misses).

    ``replications`` runs every cell that many times under distinct
    replication seed streams and reports all replicate summaries on its
    :class:`CellResult` (confidence intervals via
    :meth:`CellResult.estimate`).  ``pairing`` selects the replication
    seeding: ``"crn"`` (default) keeps cells at the same arrival rate on
    common request streams per replication — paired comparisons along
    every non-rate axis, with replication 0 replaying the legacy stream
    so a default sweep is bit-identical to the pre-replication engine —
    while ``"independent"`` keys every replication of every cell by its
    grid index, so no two cells share a stream.
    Deterministic cells (deterministic arrivals, ``service_cv == 0``, and
    no ``random`` policy) collapse to a single replication: re-running an
    identical simulation is redundant.
    """

    policies: tuple[str, ...] = ("least_loaded",)
    arrival_rates_hz: tuple[float, ...] = (0.05, 0.1, 0.2)
    fleet_sizes: tuple[int, ...] = (1, 2, 4)
    disciplines: tuple[str, ...] = ("immediate",)
    queue_bounds: tuple[int | None, ...] = (None,)
    #: Fleet power-budget axis.  Policy names are accepted and normalised
    #: to :class:`GovernorSpec` (only ``"unlimited"`` works bare — the
    #: other policies need knobs, so pass specs).
    governors: tuple[GovernorSpec | str, ...] = (GovernorSpec(),)
    #: Pacing-fidelity axis.  Backend names are accepted and normalised to
    #: :class:`~repro.core.thermal_backend.ThermalSpec`.
    thermals: tuple[ThermalSpec | str, ...] = (ThermalSpec(),)
    #: Fleet-shape axis: ``None`` is the flat fleet (the ``fleet_sizes``
    #: axis applies); a :class:`~repro.traffic.topology.TopologySpec` runs
    #: hierarchically/sharded with the device count, budgets, and rack
    #: dispatch taken from the spec — such cells ignore the ``fleet_sizes``
    #: and ``governors`` axes (first value kept).
    topologies: tuple[TopologySpec | None, ...] = (None,)
    n_requests: int = 200
    arrival_kind: str = "poisson"
    service_mean_s: float = 5.0
    service_cv: float = 0.0
    deadline_s: float | None = None
    sprint_speedup: float = 10.0
    sprint_enabled: bool = True
    refuse_partial_sprints: bool = False
    slo_s: float | None = None
    base_seed: int = 0
    burst_factor: float = 5.0
    burst_mean_requests: float = 10.0
    diurnal_amplitude: float = 0.8
    diurnal_period_s: float = 3600.0
    replications: int = 1
    pairing: str = "crn"
    #: When False every cell runs sample-free (flat memory per cell, sketch
    #: summaries within the documented rank-error bound).
    keep_samples: bool = True
    #: Streaming instruments each cell runs (see
    #: :func:`repro.traffic.fleet.resolve_telemetry`); cell telemetry lands
    #: on :class:`CellResult` and merges across replicates and workers.
    telemetry: TelemetrySpec | bool | None = None
    #: Engine execution strategy of every cell: ``"batched"`` (default —
    #: vectorized fast path where eligible, bit-identical to the event
    #: loop, with the engagement outcome reported per cell on
    #: :attr:`CellResult.fast_path`) or ``"exact"``.
    engine: str = "batched"

    def __post_init__(self) -> None:
        if (
            not self.policies
            or not self.arrival_rates_hz
            or not self.fleet_sizes
            or not self.disciplines
            or not self.queue_bounds
            or not self.governors
            or not self.thermals
            or not self.topologies
        ):
            raise ValueError("every grid axis needs at least one value")
        # Normalise the governor and thermal axes so every cell carries a
        # spec (names validate themselves at construction).
        object.__setattr__(
            self,
            "governors",
            tuple(
                g if isinstance(g, GovernorSpec) else GovernorSpec(policy=g)
                for g in self.governors
            ),
        )
        object.__setattr__(
            self,
            "thermals",
            tuple(
                t if isinstance(t, ThermalSpec) else ThermalSpec(backend=t)
                for t in self.thermals
            ),
        )
        unknown = [p for p in self.policies if p not in DISPATCH_POLICIES]
        if unknown:
            raise ValueError(f"unknown dispatch policies: {unknown}")
        bad = [d for d in self.disciplines if d not in SWEEP_DISCIPLINES]
        if bad:
            raise ValueError(
                f"unknown disciplines: {bad}; available: {SWEEP_DISCIPLINES}"
            )
        for bound in self.queue_bounds:
            if bound is not None:
                validate_count(bound, "queue bound", minimum=0)
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ValueError("deadline must be positive (or None)")
        if self.arrival_kind not in ARRIVAL_KINDS:
            raise ValueError(
                f"unknown arrival kind {self.arrival_kind!r}; "
                f"available: {ARRIVAL_KINDS}"
            )
        if not all(0 < rate < math.inf for rate in self.arrival_rates_hz):
            raise ValueError("arrival rates must be positive and finite")
        for size in self.fleet_sizes:
            validate_count(size, "fleet size")
        if not self.n_requests >= 1:
            raise ValueError("at least one request per cell is required")
        if not 0 < self.service_mean_s < math.inf:
            raise ValueError("mean service time must be positive and finite")
        if not 0 <= self.service_cv < math.inf:
            raise ValueError(
                "service-time coefficient of variation must be non-negative and finite"
            )
        if self.slo_s is not None and not self.slo_s > 0:
            raise ValueError("SLO must be positive")
        if not 1.0 <= self.sprint_speedup < math.inf:
            raise ValueError("sprint speedup must be at least 1x and finite")
        if self.arrival_kind == "bursty":
            if not 1.0 < self.burst_factor < math.inf:
                raise ValueError(
                    "burst factor must exceed 1 (burst rate above mean) and be finite"
                )
            if not 0 < self.burst_mean_requests < math.inf:
                raise ValueError("mean requests per burst must be positive and finite")
        if self.arrival_kind == "diurnal":
            if not 0.0 <= self.diurnal_amplitude < 1.0:
                raise ValueError("diurnal amplitude must be in [0, 1)")
            if not 0 < self.diurnal_period_s < math.inf:
                raise ValueError("diurnal period must be positive and finite")
        if not self.replications >= 1:
            raise ValueError("at least one replication per cell is required")
        if self.pairing not in PAIRING_MODES:
            raise ValueError(
                f"unknown pairing mode {self.pairing!r}; available: {PAIRING_MODES}"
            )
        if self.engine not in EXECUTION_MODES:
            raise ValueError(
                f"unknown engine execution {self.engine!r}; "
                f"available: {EXECUTION_MODES}"
            )
        resolve_telemetry(self.telemetry, self.keep_samples)  # fail fast

    def with_sprint_enabled(self, enabled: bool) -> "SweepSpec":
        """Copy toggling sprinting (for paired sprint/no-sprint sweeps)."""
        return replace(self, sprint_enabled=enabled)

    def arrival_process(self, rate_hz: float) -> ArrivalProcess:
        """Instantiate the spec's arrival family at a cell's mean rate."""
        if self.arrival_kind == "poisson":
            return PoissonArrivals(rate_hz)
        if self.arrival_kind == "bursty":
            # Mean rate is preserved: bursts run at burst_factor * rate and
            # occupy 1/burst_factor of the time.
            mean_burst_s = self.burst_mean_requests / (self.burst_factor * rate_hz)
            mean_idle_s = mean_burst_s * (self.burst_factor - 1.0)
            return MMPPArrivals.bursty(
                burst_rate_hz=self.burst_factor * rate_hz,
                mean_burst_s=mean_burst_s,
                mean_idle_s=mean_idle_s,
            )
        if self.arrival_kind == "diurnal":
            return DiurnalArrivals(
                base_rate_hz=rate_hz,
                amplitude=self.diurnal_amplitude,
                period_s=self.diurnal_period_s,
            )
        return DeterministicArrivals(1.0 / rate_hz)


@dataclass(frozen=True)
class SweepCell:
    """One scenario in the grid, with its deterministic seed material."""

    index: int
    policy: str
    arrival_rate_hz: float
    n_devices: int
    base_seed: int
    #: Position on the arrival-rate axis.  Every other axis is deliberately
    #: excluded: the request stream depends only on the arrival process, so
    #: cells differing in policy, fleet size, discipline, or queue bound
    #: replay the exact same stream (paired comparisons on all of them).
    stream_key: tuple[int, ...] = (0,)
    #: Dispatch discipline: ``"immediate"`` (the policy axis applies) or a
    #: central-queue discipline (``"fifo"``/``"edf"``).
    discipline: str = "immediate"
    #: Central-queue admission limit (ignored by immediate cells).
    queue_bound: int | None = None
    #: Fleet power budget this cell sprints under.
    governor: GovernorSpec = GovernorSpec()
    #: Pacing fidelity this cell's devices simulate with.
    thermal: ThermalSpec = ThermalSpec()
    #: Hierarchical fleet shape (None = flat; budgets then come from
    #: ``governor``, otherwise from the topology's nodes).
    topology: TopologySpec | None = None

    @property
    def seed_sequence(self) -> np.random.SeedSequence:
        """Request-stream seed: stable under worker count, chunking, and the
        set of policies in the grid."""
        return np.random.SeedSequence([self.base_seed, *self.stream_key])


@dataclass(frozen=True)
class CellResult:
    """A cell and its serving metrics.

    ``summary`` is replication 0 (the legacy stream, so single-replication
    sweeps are bit-identical to the pre-replication engine); a replicated
    sweep additionally carries every replicate's summary in
    ``replicates`` and reduces them to confidence intervals with
    :meth:`estimate`.
    """

    cell: SweepCell
    summary: TrafficSummary
    #: All replicate summaries, in replication order (empty tuple means the
    #: cell ran once; :attr:`summaries` normalises that to ``(summary,)``).
    replicates: tuple[TrafficSummary, ...] = ()
    #: True when the sweep collapsed this cell's replications because the
    #: scenario is deterministic (its single value is exact, not sampled).
    collapsed: bool = False
    #: Per-replication streaming instruments, in replication order (empty
    #: when the sweep ran with telemetry off).  :meth:`pooled_stream`
    #: merges the sketches into one cell-level distribution.
    telemetries: tuple[RunTelemetry | None, ...] = ()
    #: True when replication 0 rode the vectorized fast path (always False
    #: under ``engine="exact"``).
    fast_path: bool = False
    #: Why the batched engine fell back to the exact loop for this cell
    #: (None when the fast path engaged or was never requested).
    fast_path_reason: str | None = None

    @property
    def summaries(self) -> tuple[TrafficSummary, ...]:
        """Every replication's summary (always at least ``(summary,)``)."""
        return self.replicates or (self.summary,)

    @property
    def telemetry(self) -> RunTelemetry | None:
        """Replication 0's instruments (None when telemetry was off)."""
        return self.telemetries[0] if self.telemetries else None

    def pooled_stream(self) -> TrafficTelemetry:
        """Merge every replication's streaming telemetry into one stream.

        The merged sketch summarises the cell's pooled latency
        distribution across replications in fixed memory — the sweep-side
        counterpart of
        :meth:`repro.traffic.experiments.ExperimentResult.pooled_stream`.
        """
        streams = [t.stream for t in self.telemetries if t is not None and t.stream]
        if not streams:
            raise ValueError(
                "no streaming telemetry to pool (run the sweep with "
                "keep_samples=False or an explicit TelemetrySpec)"
            )
        pooled = TrafficTelemetry(sketch_capacity=streams[0].latency.capacity)
        for stream in streams:
            pooled.merge(stream)
        return pooled

    def estimate(
        self, field: str = "p99_latency_s", confidence: float = 0.95
    ) -> MetricEstimate:
        """Replication-averaged mean / CI half-width of one summary field.

        A cell that ran once reports an exact zero-width estimate when the
        sweep collapsed it as deterministic, and an unbounded one when it
        simply was not replicated.
        """
        values = [getattr(s, field) for s in self.summaries]
        if any(v is None for v in values):
            raise ValueError(
                f"field {field!r} is unset on at least one replicate "
                "(set spec.slo_s to aggregate slo_attainment)"
            )
        if len(values) == 1 and self.collapsed:
            return MetricEstimate.exact(float(values[0]), confidence=confidence)
        return mean_ci(values, confidence=confidence)


def expand_cells(spec: SweepSpec) -> list[SweepCell]:
    """Enumerate the grid in deterministic (policy, rate, fleet, discipline,
    bound, governor, thermal) order — the legacy enumeration when the new
    axes keep their single-value defaults, so existing seeds reproduce.

    Combinations that cannot differ are collapsed to one canonical cell, so
    no scenario is ever simulated twice: central-queue cells ignore the
    policy axis (only the first policy is kept), immediate cells ignore the
    queue bound (only the first bound is kept), duplicate governor and
    thermal values collapse to their first occurrence, a sprint-disabled
    sweep keeps only the first governor and the first thermal backend (a
    fleet that never sprints deposits no heat, so no power governor and no
    reservoir physics can affect it).
    """
    governors = list(dict.fromkeys(spec.governors))  # ordered unique
    thermals = list(dict.fromkeys(spec.thermals))
    topologies = list(dict.fromkeys(spec.topologies))
    if not spec.sprint_enabled:
        governors = governors[:1]
        thermals = thermals[:1]
    grid = itertools.product(
        spec.policies,
        enumerate(spec.arrival_rates_hz),
        spec.fleet_sizes,
        spec.disciplines,
        spec.queue_bounds,
        governors,
        thermals,
        topologies,
    )
    cells = []
    for (
        policy,
        (rate_idx, rate),
        size,
        discipline,
        bound,
        governor,
        thermal,
        topology,
    ) in grid:
        if topology is not None:
            # A topology cell's device count and budgets come from the
            # spec tree; the fleet-size and governor axes have no meaning
            # there (first value kept, like the other collapses).
            if size != spec.fleet_sizes[0]:
                continue
            if governor != governors[0]:
                continue
            size = topology.total_devices
            governor = GovernorSpec()
        if discipline == "immediate":
            if bound != spec.queue_bounds[0]:
                continue
            bound = None
        elif policy != spec.policies[0]:
            continue
        cells.append(
            SweepCell(
                index=len(cells),
                policy=policy,
                arrival_rate_hz=rate,
                n_devices=size,
                base_seed=spec.base_seed,
                stream_key=(rate_idx,),
                discipline=discipline,
                queue_bound=bound,
                governor=governor,
                thermal=thermal,
                topology=topology,
            )
        )
    return cells


def cell_is_deterministic(spec: SweepSpec, cell: SweepCell) -> bool:
    """True when replications of this cell cannot differ.

    Deterministic arrivals with fixed service demands leave only the
    dispatch RNG, consumed solely by the ``random`` immediate-mode policy
    — every other combination replays identically, so the sweep collapses
    its replications to one (redundant-cell collapse on the replication
    axis).
    """
    if spec.arrival_kind != "deterministic" or spec.service_cv > 0:
        return False
    return not (cell.discipline == "immediate" and cell.policy == "random")


# Domain tags keeping the sweep's replication streams disjoint from each
# other and from every other seed universe (the legacy cell streams use
# shorter keys; repro.traffic.experiments uses its own tags).
_REP_REQUEST_DOMAIN = 17
_REP_DISPATCH_DOMAIN = 19


def _cell_seeds(
    spec: SweepSpec, cell: SweepCell, replication: int
) -> tuple[np.random.SeedSequence, np.random.SeedSequence]:
    """Request-stream and dispatch seeds of one replication of one cell.

    Under ``"crn"`` pairing, replication 0 replays the legacy streams —
    so default (``replications=1``) sweeps are bit-identical across
    engine versions — and later replications append a domain tag and the
    replication index to the stream key, keeping same-rate cells paired
    per replication.  ``"independent"`` pairing instead keys *every*
    replication (including 0) by the cell's grid index, so no two cells
    share a stream — which is the point of the mode, and why it forgoes
    the legacy replay.  The domain tags keep the request and dispatch
    universes disjoint even where ``cell.index`` happens to equal a
    stream-key word.
    """
    if spec.pairing == "independent":
        return (
            seed_stream(
                cell.base_seed,
                _REP_REQUEST_DOMAIN,
                *cell.stream_key,
                replication,
                1 + cell.index,
            ),
            seed_stream(cell.base_seed, _REP_DISPATCH_DOMAIN, cell.index, replication),
        )
    if replication == 0:
        return cell.seed_sequence, np.random.SeedSequence([cell.base_seed, cell.index])
    return (
        seed_stream(cell.base_seed, _REP_REQUEST_DOMAIN, *cell.stream_key, replication),
        seed_stream(cell.base_seed, _REP_DISPATCH_DOMAIN, cell.index, replication),
    )


def run_cell(
    spec: SweepSpec, cell: SweepCell, config: SystemConfig, replication: int = 0
) -> CellResult:
    """Simulate one replication of one grid cell end to end."""
    if spec.service_cv > 0:
        service = GammaService(mean_s=spec.service_mean_s, cv=spec.service_cv)
    else:
        service = FixedService(spec.service_mean_s)
    request_seed, run_seed = _cell_seeds(spec, cell, replication)
    requests = generate_requests(
        spec.arrival_process(cell.arrival_rate_hz),
        service,
        spec.n_requests,
        seed=request_seed,
        deadline_s=spec.deadline_s,
    )
    central = cell.discipline != "immediate"
    fleet = FleetSimulator(
        config,
        n_devices=None if cell.topology is not None else cell.n_devices,
        topology=cell.topology,
        policy=cell.policy,
        sprint_speedup=spec.sprint_speedup,
        sprint_enabled=spec.sprint_enabled,
        refuse_partial_sprints=spec.refuse_partial_sprints,
        mode="central_queue" if central else "immediate",
        discipline=cell.discipline if central else "fifo",
        queue_bound=cell.queue_bound if central else None,
        governor=cell.governor,
        thermal=cell.thermal,
        keep_samples=spec.keep_samples,
        telemetry=spec.telemetry,
        engine=spec.engine,
    )
    result = fleet.run(requests, seed=run_seed)
    telemetries = (result.telemetry,) if result.telemetry is not None else ()
    return CellResult(
        cell=cell,
        summary=result.summary(slo_s=spec.slo_s),
        telemetries=telemetries,
        fast_path=result.fast_path,
        fast_path_reason=result.fast_path_reason,
    )


def _run_cell_job(
    job: tuple[SweepSpec, SweepCell, SystemConfig] | tuple,
) -> CellResult:
    """Module-level unpacking shim so Pool.imap can pickle the work items."""
    spec, cell, config, *rest = job
    return run_cell(spec, cell, config, replication=rest[0] if rest else 0)


@dataclass(frozen=True)
class SweepResult:
    """All cell results of one sweep, in grid order."""

    spec: SweepSpec
    cells: tuple[CellResult, ...]

    def filtered(
        self,
        policy: str | None = None,
        arrival_rate_hz: float | None = None,
        n_devices: int | None = None,
        discipline: str | None = None,
        governor_policy: str | None = None,
        thermal_backend: str | None = None,
    ) -> list[CellResult]:
        """Cells matching the given axis values (None = any)."""
        out = []
        for result in self.cells:
            cell = result.cell
            if policy is not None and cell.policy != policy:
                continue
            if arrival_rate_hz is not None and cell.arrival_rate_hz != arrival_rate_hz:
                continue
            if n_devices is not None and cell.n_devices != n_devices:
                continue
            if discipline is not None and cell.discipline != discipline:
                continue
            if governor_policy is not None and cell.governor.policy != governor_policy:
                continue
            if thermal_backend is not None and cell.thermal.backend != thermal_backend:
                continue
            out.append(result)
        return out

    def best_cell(self, key: str = "p99_latency_s") -> CellResult:
        """The cell minimising a :class:`TrafficSummary` attribute."""
        return min(self.cells, key=lambda r: getattr(r.summary, key))

    def format_table(self) -> str:
        """Human-readable grid summary (one row per cell).

        Immediate cells show their policy; central-queue cells show the
        queue discipline and bound (the policy axis is not consulted
        there).  The thermal column is the cell's pacing-fidelity backend.
        The lifecycle columns count rejected and abandoned requests; the
        governance columns show the cell's power budget and its
        denied-sprint and breaker-trip counts.  The ``path`` column shows
        how each cell executed: ``vector`` (the batched fast path
        engaged) or ``exact`` (the event loop — hover
        :attr:`CellResult.fast_path_reason` for why).  A replicated sweep
        (``spec.replications > 1``) reports the replication-mean p99 with
        its CI half-width in place of the single-run p99.
        """
        replicated = self.spec.replications > 1
        p99_head = f"{'p99':>8} {'±95%':>7}" if replicated else f"{'p99':>8}"
        header = (
            f"{'dispatch':>16} {'governor':>16} {'thermal':>10} {'rate':>8} "
            f"{'fleet':>6} {'p50':>8} {p99_head} "
            f"{'sprint%':>8} {'full%':>6} {'rps':>8} {'rej':>5} {'abn':>5} "
            f"{'den':>5} {'trip':>4} {'path':>6}"
        )
        rows = [header]
        for result in self.cells:
            cell, s = result.cell, result.summary
            if cell.discipline == "immediate":
                dispatch = cell.policy
            else:
                bound = "∞" if cell.queue_bound is None else str(cell.queue_bound)
                dispatch = f"{cell.discipline}[{bound}]"
            if cell.topology is not None:
                dispatch = f"{dispatch}@{cell.topology.n_racks}r"
            if replicated:
                p99 = result.estimate("p99_latency_s")
                p99_text = f"{p99.mean:7.2f}s {p99.half_width:6.2f}s"
            else:
                p99_text = f"{s.p99_latency_s:7.2f}s"
            path = "vector" if result.fast_path else "exact"
            rows.append(
                f"{dispatch:>16} {cell.governor.label:>16} {cell.thermal.label:>10} "
                f"{cell.arrival_rate_hz:7.3f}/s {cell.n_devices:6d} "
                f"{s.p50_latency_s:7.2f}s {p99_text} "
                f"{s.sprint_fraction * 100:7.0f}% {s.mean_sprint_fullness * 100:5.0f}% "
                f"{s.throughput_rps:8.3f} {s.rejected_count:5d} {s.abandoned_count:5d} "
                f"{s.sprints_denied:5d} {s.breaker_trips:4d} {path:>6}"
            )
        return "\n".join(rows)


def run_sweep(
    spec: SweepSpec,
    config: SystemConfig | None = None,
    workers: int = 1,
) -> SweepResult:
    """Run every cell of the grid, optionally fanned across processes.

    ``workers=1`` runs serially in-process; ``workers>1`` fans the cell ×
    replication jobs through :func:`pool_map`.  Results are returned in
    grid order and are bit-identical for any worker count because every
    job's randomness is derived deterministically from the spec alone: the
    request stream from ``(base_seed, stream_key[, replication])`` — only
    the arrival-rate axis (plus the replication index), so policy and
    fleet-size comparisons are paired — and the dispatch RNG from
    ``(base_seed, cell index[, replication])``.  Deterministic cells
    collapse to a single replication (see :func:`cell_is_deterministic`).
    """
    config = config or SystemConfig.paper_default()
    cells = expand_cells(spec)
    reps = [
        1 if cell_is_deterministic(spec, cell) else spec.replications
        for cell in cells
    ]
    jobs = [
        (spec, cell, config, replication)
        for cell, n in zip(cells, reps)
        for replication in range(n)
    ]
    results = pool_map(_run_cell_job, jobs, workers)
    grouped: list[CellResult] = []
    offset = 0
    for cell, n in zip(cells, reps):
        group = results[offset : offset + n]
        offset += n
        replicates = tuple(r.summary for r in group)
        telemetries = tuple(r.telemetry for r in group)
        grouped.append(
            CellResult(
                cell=cell,
                summary=replicates[0],
                replicates=replicates if len(replicates) > 1 else (),
                collapsed=n == 1 and spec.replications > 1,
                telemetries=(
                    telemetries if any(t is not None for t in telemetries) else ()
                ),
                fast_path=group[0].fast_path,
                fast_path_reason=group[0].fast_path_reason,
            )
        )
    return SweepResult(spec=spec, cells=tuple(grouped))
