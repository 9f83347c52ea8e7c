"""The benchmark's four workloads: how each builds, runs and checks itself.

Every workload draws all of its inputs from the ``seed`` it is given, so the
simulator only ever sees generated inputs.  ``build`` is the set-up the
``setup_s`` metric times; ``run`` is the timed part and ends with the
summaries a user reads; ``check`` decides whether a run's output is correct.

Fleet workloads are checked against a reference digest of the same inputs
run on the exact event loop in one process (``build(..., reference=True)``),
so every batched or sharded run must reproduce the exact engine bit for bit.
The sweep is checked only for conservation and finite statistics per cell:
its seed derivation is expected to change, and a digest would pin it.

Calls into the sweep layer go through the ``sweep`` module attribute, so a
traced run (see ``spans.py``) sees the benchmark's own ``expand_cells`` call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

from repro.core.config import SystemConfig
from repro.traffic import sweep
from repro.traffic.arrivals import DiurnalArrivals, PoissonArrivals
from repro.traffic.fleet import FleetSimulator
from repro.traffic.governor import GovernorSpec
from repro.traffic.request import FixedService, GammaService
from repro.traffic.topology import TopologySpec


def _ledger(stats) -> dict | None:
    return None if stats is None else dataclasses.asdict(stats)


def fleet_digest(result) -> str:
    """Hash of everything a fleet run reports: summary and grant ledgers."""
    payload = {
        "summary": result.summary().to_dict(),
        "governor": _ledger(result.governor_stats),
        "topology": _ledger(result.topology_stats),
    }
    text = json.dumps(payload, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def ledger_counts(gov, topology) -> dict[str, float]:
    """Governor and topology grant counts of one run (0 where ungoverned)."""
    granted = 0 if gov is None else gov.sprints_granted
    denied = 0 if gov is None else gov.sprints_denied
    levels = (
        {"rack": 0, "row": 0, "datacenter": 0}
        if topology is None
        else topology.denied_by_level()
    )
    return {
        "governor.granted": granted,
        "governor.denied": denied,
        "governor.grant_ratio": granted / (granted + denied) if granted + denied else 0.0,
        "governor.released_unused": 0 if gov is None else gov.grants_released_unused,
        "topology.denied_rack": levels["rack"],
        "topology.denied_row": levels["row"],
        "topology.denied_datacenter": levels["datacenter"],
    }


class FleetWorkload:
    """One ``FleetSimulator.run_stream`` call on a fixed fleet shape."""

    has_reference = True

    def __init__(
        self, name, fleet_kwargs, arrivals, service, n_requests, cascade_binds=False
    ):
        self.name = name
        self._fleet_kwargs = fleet_kwargs
        self._arrivals = arrivals
        self._service = service
        self.n_requests = n_requests
        #: The run must record rack- and row-level denials: the workload
        #: exists to exercise the grant cascade, so a cascade that never
        #: binds is a failed run, not a fast one.
        self.cascade_binds = cascade_binds

    def build(self, config: SystemConfig, seed: int, reference: bool = False):
        kwargs = self._fleet_kwargs()
        if reference:
            kwargs["engine"] = "exact"
            if "shard_workers" in kwargs:
                kwargs["shard_workers"] = 1
        return FleetSimulator(config, **kwargs)

    def run(self, sim, config: SystemConfig, seed: int):
        result = sim.run_stream(
            self._arrivals,
            self._service,
            self.n_requests,
            request_seed=seed,
            run_seed=seed,
        )
        result.summary()
        return result

    def completed(self, result) -> int:
        return result.served_count

    def path(self, result) -> dict:
        # A merged sharded result carries only the first rack's reason.
        return {
            "fast_path": result.fast_path,
            "fast_path_reason": result.fast_path_reason,
        }

    def counts(self, result) -> dict[str, float]:
        return ledger_counts(result.governor_stats, result.topology_stats)

    def check(self, result, reference: str | None) -> str | None:
        """Why the run's output is wrong (None when it is correct)."""
        fates = result.served_count + result.rejected_count + result.abandoned_count
        if fates != self.n_requests:
            return f"served+rejected+abandoned = {fates} != {self.n_requests} requests"
        if reference is not None and fleet_digest(result) != reference:
            return "summary or ledger digest differs from the exact-engine reference"
        if self.cascade_binds:
            levels = self.counts(result)
            if not (levels["topology.denied_rack"] and levels["topology.denied_row"]):
                return "the rack/row grant cascade recorded no denials"
        return None


class SweepWorkload:
    """A replicated ``run_sweep`` grid of many small fleet runs."""

    has_reference = False

    def __init__(self, name, spec_kwargs):
        self.name = name
        self._spec_kwargs = spec_kwargs

    def build(self, config: SystemConfig, seed: int, reference: bool = False):
        spec = sweep.SweepSpec(base_seed=seed, **self._spec_kwargs)
        sweep.expand_cells(spec)
        return spec

    def run(self, spec, config: SystemConfig, seed: int):
        return sweep.run_sweep(spec, config, workers=1)

    def completed(self, result) -> int:
        return sum(s.request_count for c in result.cells for s in c.summaries)

    def path(self, result) -> dict:
        # CellResult records the path of replication 0 only.
        vector = sum(c.fast_path for c in result.cells)
        return {
            "vector_cell_share": vector / len(result.cells),
            "fast_path_reasons": sorted(
                {c.fast_path_reason for c in result.cells if c.fast_path_reason}
            ),
        }

    def counts(self, result) -> dict[str, float]:
        # The grid has no governor or topology axis: every cell is an
        # ungoverned flat fleet, so there is no grant ledger to read.
        return ledger_counts(None, None)

    def check(self, result, reference: str | None) -> str | None:
        n = result.spec.n_requests
        for cell in result.cells:
            for s in cell.summaries:
                if s.offered_count != n:
                    return f"cell {cell.cell.index}: {s.offered_count} fates for {n} requests"
                stats = (
                    s.mean_latency_s,
                    s.p50_latency_s,
                    s.p99_latency_s,
                    s.max_latency_s,
                    s.throughput_rps,
                    s.slo_attainment,
                )
                if not all(math.isfinite(v) for v in stats):
                    return f"cell {cell.cell.index}: non-finite summary statistic"
        return None


WORKLOADS = {
    w.name: w
    for w in (
        FleetWorkload(
            "governed_central",
            lambda: dict(
                n_devices=256,
                policy="round_robin",
                mode="central_queue",
                discipline="fifo",
                governor=GovernorSpec.greedy(64),
                keep_samples=False,
                telemetry=True,
                engine="batched",
            ),
            PoissonArrivals(50.0),
            FixedService(5.0),
            1_000_000,
        ),
        FleetWorkload(
            "wide_fleet",
            lambda: dict(
                n_devices=100_000,
                policy="round_robin",
                keep_samples=False,
                engine="batched",
            ),
            PoissonArrivals(1000.0),
            FixedService(5.0),
            100_000,
        ),
        FleetWorkload(
            "sharded_datacenter",
            lambda: dict(
                topology=TopologySpec.uniform(
                    10,
                    10,
                    20,
                    rack_governor=GovernorSpec.greedy(5),
                    row_governor=GovernorSpec.greedy(50),
                    window_s=60.0,
                ),
                shard_workers=2,
                engine="batched",
            ),
            DiurnalArrivals(200.0, 0.8, 600.0),
            GammaService(5.0, 0.5),
            100_000,
            cascade_binds=True,
        ),
        SweepWorkload(
            "replicated_sweep",
            dict(
                policies=("round_robin", "least_loaded", "thermal_aware"),
                arrival_rates_hz=(0.05, 0.1, 0.2, 0.3),
                fleet_sizes=(1, 2, 4),
                n_requests=2000,
                service_cv=0.5,
                slo_s=2.0,
                replications=2,
            ),
        ),
    )
}
