"""A sprint-capable device serving a stream of requests.

:class:`SprintDevice` wraps the thermal reservoir of
:class:`repro.core.pacing.SprintPacer` behind a serving interface: each
request it is handed runs sprinted if the device's remaining budget allows,
partially sprinted if only some does, or sustained otherwise — and the heat
it deposits is still there when the next request lands, so back-to-back
requests on a hot device genuinely see a depleted budget.  The reservoir
physics behind that budget is the device's ``thermal`` backend
(:mod:`repro.core.thermal_backend`): linear rule-of-thumb, RC cooling, or
per-request PCM enthalpy, whose temperature/melt telemetry rides on every
:class:`ServedRequest`.  The device also exposes the two projections a
dispatcher needs without perturbing state: when it will next be free, and
how much sprint budget a request arriving at a given time would find.
A run reports its served requests as :class:`ServedColumns` — one array per
:class:`ServedRequest` field — and builds the objects only for a caller
that reads them.

Two entry points hand the device work, matching the two dispatch modes of
:mod:`repro.traffic.engine`:

* :meth:`SprintDevice.serve` — immediate dispatch: the request joins the
  device at its arrival time and the pacer resolves any wait behind queued
  work (``queueing_delay_s`` comes from the pacer).
* :meth:`SprintDevice.execute` — deferred (central-queue) dispatch: the
  engine held the request in a shared queue and assigns it at a start time
  when the device is known to be free; the engine owns the queueing delay.

Usage — a cold device sprints the paper's canonical five-second task and
finishes it in half a second:

>>> from repro.core.config import SystemConfig
>>> from repro.traffic.device import SprintDevice
>>> from repro.traffic.request import Request
>>> dev = SprintDevice(SystemConfig.paper_default(), device_id=0)
>>> served = dev.serve(Request(index=0, arrival_s=0.0, sustained_time_s=5.0))
>>> served.sprinted, round(served.latency_s, 2)
(True, 0.5)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.config import SystemConfig
from repro.core.pacing import SprintPacer, TaskOutcome
from repro.core.thermal_backend import ThermalBackend, ThermalSpec
from repro.traffic.request import Request, RequestBlock


@dataclass(frozen=True)
class ServedRequest:
    """One request's fate after being dispatched and executed."""

    request: Request
    device_id: int
    sprinted: bool
    queueing_delay_s: float
    service_time_s: float
    stored_heat_before_j: float
    stored_heat_after_j: float
    #: How much of the achievable sprint speedup this request realised:
    #: 1.0 = full sprint, 0.0 = fully sustained, in between for partial
    #: sprints (``sprinted`` alone cannot distinguish a 97%-sustained
    #: partial sprint from a full one).
    sprint_fullness: float = 0.0
    #: Package temperature the device's thermal backend reported after the
    #: request completed (the linear backend maps fill linearly onto the
    #: ambient-to-limit range; physics backends report actual state).
    package_temperature_c: float = 0.0
    #: Liquid fraction of the device's PCM after the request (0 unless the
    #: device paces with the ``pcm`` backend).
    melt_fraction: float = 0.0

    @property
    def latency_s(self) -> float:
        """User-visible latency: queueing behind earlier work plus execution."""
        return self.queueing_delay_s + self.service_time_s

    @property
    def completed_at_s(self) -> float:
        """Absolute completion time."""
        return self.request.arrival_s + self.latency_s

    @property
    def missed_deadline(self) -> bool:
        """True when the request had a deadline and completed after it."""
        return self.completed_at_s > self.request.deadline_at_s


@dataclass(frozen=True)
class ServedColumns:
    """Served requests as columns, one row per request.

    The batched cores' native output and the source of truth behind every
    result's ``served`` tuple.  ``requests`` holds each row's request; the
    other columns hold the :class:`ServedRequest` fields of the same name.
    :meth:`to_objects` builds the equal :class:`ServedRequest` tuple for a
    caller that reads one, and summaries read the columns directly.
    """

    requests: RequestBlock
    device_id: np.ndarray
    sprinted: np.ndarray
    queueing_delay_s: np.ndarray
    service_time_s: np.ndarray
    stored_heat_before_j: np.ndarray
    stored_heat_after_j: np.ndarray
    sprint_fullness: np.ndarray
    package_temperature_c: np.ndarray
    melt_fraction: np.ndarray

    def __len__(self) -> int:
        return len(self.requests)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ServedColumns):
            return NotImplemented
        return self.to_objects() == other.to_objects()

    def _outcomes(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in _OUTCOME_FIELDS]

    @classmethod
    def empty(cls) -> "ServedColumns":
        """No served requests."""
        return cls.from_objects(())

    @classmethod
    def from_objects(cls, served: Sequence[ServedRequest]) -> "ServedColumns":
        """The columns of ``served``, in their order."""
        n = len(served)
        types = {"device_id": np.int64, "sprinted": bool}
        return cls(
            RequestBlock.from_requests([s.request for s in served]),
            *(
                np.fromiter(
                    (getattr(s, name) for s in served), dtype=types.get(name, float), count=n
                )
                for name in _OUTCOME_FIELDS
            ),
        )

    @classmethod
    def concat(cls, parts: Sequence["ServedColumns"]) -> "ServedColumns":
        """One table holding ``parts``' rows in order."""
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return cls.empty()
        return cls(
            RequestBlock.concat([p.requests for p in parts]),
            *map(np.concatenate, zip(*(p._outcomes() for p in parts))),
        )

    def take(self, rows: np.ndarray) -> "ServedColumns":
        """The table of rows ``rows`` (integer positions), in that order."""
        return ServedColumns(
            self.requests.take(rows), *(column[rows] for column in self._outcomes())
        )

    def in_index_order(self) -> "ServedColumns":
        """The rows sorted by request index."""
        order = self.requests.index_order()
        return self if order is None else self.take(order)

    def to_objects(self) -> tuple[ServedRequest, ...]:
        """The equal :class:`ServedRequest` tuple, row by row."""
        return tuple(
            ServedRequest(*fields)
            for fields in zip(
                self.requests.to_requests(), *(c.tolist() for c in self._outcomes())
            )
        )

    @property
    def latency_s(self) -> np.ndarray:
        """Per-row :attr:`ServedRequest.latency_s`."""
        return self.queueing_delay_s + self.service_time_s

    @property
    def completed_at_s(self) -> np.ndarray:
        """Per-row :attr:`ServedRequest.completed_at_s`."""
        return self.requests.arrival_s + self.latency_s

    @property
    def missed_deadline(self) -> np.ndarray:
        """Per-row :attr:`ServedRequest.missed_deadline`."""
        deadline_at = self.requests.deadline_at()
        if deadline_at is None:
            return np.zeros(len(self), dtype=bool)
        return self.completed_at_s > deadline_at


#: The ServedRequest fields a ServedColumns row holds besides its request.
_OUTCOME_FIELDS = tuple(f.name for f in dataclasses.fields(ServedColumns))[1:]


class SprintDevice:
    """One sprint-enabled machine in a fleet.

    Parameters
    ----------
    config:
        Platform description (package, policy, power) shared by the fleet.
    device_id:
        Stable identifier used in results and dispatch tie-breaking.
    sprint_speedup:
        Responsiveness gain of a full sprint over sustained execution.
    sprint_enabled:
        When False the device always runs sustained — the no-sprint
        baseline fleet of a comparison — while still tracking queueing.
    refuse_partial_sprints:
        Passed through to :class:`~repro.core.pacing.SprintPacer`.
    thermal:
        Reservoir fidelity of this device's package — a backend name, a
        :class:`~repro.core.thermal_backend.ThermalSpec`, or a prebuilt
        :class:`~repro.core.thermal_backend.ThermalBackend` (owned by this
        device; never share one instance across devices).  Passed through
        to :class:`~repro.core.pacing.SprintPacer`.
    """

    def __init__(
        self,
        config: SystemConfig,
        device_id: int = 0,
        sprint_speedup: float = 10.0,
        sprint_enabled: bool = True,
        refuse_partial_sprints: bool = False,
        thermal: str | ThermalSpec | ThermalBackend = "linear",
        label: str | None = None,
    ) -> None:
        self.device_id = device_id
        #: Stable hierarchical identity (``row0/rack2/dev5`` in a topology
        #: fleet); defaults to the flat ``dev{device_id}`` form.
        self.label = f"dev{device_id}" if label is None else label
        self.sprint_enabled = sprint_enabled
        self.pacer = SprintPacer(
            config,
            sprint_speedup=sprint_speedup,
            refuse_partial_sprints=refuse_partial_sprints,
            thermal=thermal,
        )
        self.requests_served = 0
        self.busy_seconds = 0.0
        self.sprints_served = 0
        self._sprint_fullness_total = 0.0
        self.peak_temperature_c = 0.0
        self.peak_melt_fraction = 0.0
        self.peak_stored_heat_j = 0.0

    # -- dispatcher-facing projections (read-only) --------------------------------

    @property
    def busy_until_s(self) -> float:
        """Absolute time at which the device finishes its queued work."""
        return self.pacer.busy_until_s

    def start_time_for(self, arrival_s: float) -> float:
        """When a request arriving at ``arrival_s`` would begin executing."""
        return max(arrival_s, self.busy_until_s)

    def available_fraction_at(self, time_s: float) -> float:
        """Projected sprint-budget fraction available at a future instant."""
        return self.pacer.available_fraction_at(time_s)

    @property
    def thermal_backend(self) -> ThermalBackend:
        """The thermal backend owning this device's reservoir state."""
        return self.pacer.backend

    @property
    def sprint_fullness_mean(self) -> float:
        """Mean realised sprint fullness over every request served so far."""
        if self.requests_served == 0:
            return 0.0
        return self._sprint_fullness_total / self.requests_served

    # -- serving --------------------------------------------------------------------

    def serve(self, request: Request, allow_sprint: bool | None = None) -> ServedRequest:
        """Execute one request; requests must be handed over in arrival order.

        Immediate-dispatch entry point: the request joins this device at its
        arrival time and waits behind any queued work (the pacer reports that
        wait in ``queueing_delay_s``).  ``allow_sprint`` is the grant
        handshake of a governed fleet: a power governor that denied this
        request's sprint grant passes False to force sustained execution
        (``None`` leaves the decision to the device's own
        ``sprint_enabled``; a grant never overrides a sprint-disabled
        device).
        """
        outcome = self.pacer.task_arrival(
            request.arrival_s,
            request.sustained_time_s,
            index=request.index,
            allow_sprint=self._may_sprint(allow_sprint),
        )
        return self._record(request, outcome)

    def execute(
        self, request: Request, start_s: float, allow_sprint: bool | None = None
    ) -> ServedRequest:
        """Execute one request starting exactly at ``start_s``.

        Central-queue entry point: the engine held the request in a shared
        queue and only assigns it when this device is free, so the queueing
        delay is the engine's (``start_s - arrival_s``), not the pacer's.
        ``allow_sprint`` carries a power governor's grant decision, as in
        :meth:`serve`.
        """
        outcome = self.pacer.execute_at(
            start_s,
            request.sustained_time_s,
            index=request.index,
            allow_sprint=self._may_sprint(allow_sprint),
            arrival_s=request.arrival_s,
        )
        return self._record(request, outcome)

    def _may_sprint(self, allow_sprint: bool | None) -> bool:
        if allow_sprint is None:
            return self.sprint_enabled
        return allow_sprint and self.sprint_enabled

    def _record(self, request: Request, outcome: TaskOutcome) -> ServedRequest:
        self.requests_served += 1
        self.busy_seconds += outcome.response_time_s
        self.sprints_served += int(outcome.sprinted)
        self._sprint_fullness_total += outcome.sprint_fullness
        # Running per-device thermal peaks: the hotspot record survives in
        # O(1) even when the run keeps no ServedRequest samples.
        if outcome.package_temperature_c > self.peak_temperature_c:
            self.peak_temperature_c = outcome.package_temperature_c
        if outcome.melt_fraction > self.peak_melt_fraction:
            self.peak_melt_fraction = outcome.melt_fraction
        if outcome.stored_heat_after_j > self.peak_stored_heat_j:
            self.peak_stored_heat_j = outcome.stored_heat_after_j
        return ServedRequest(
            request=request,
            device_id=self.device_id,
            sprinted=outcome.sprinted,
            queueing_delay_s=outcome.queueing_delay_s,
            service_time_s=outcome.response_time_s,
            stored_heat_before_j=outcome.stored_heat_before_j,
            stored_heat_after_j=outcome.stored_heat_after_j,
            sprint_fullness=outcome.sprint_fullness,
            package_temperature_c=outcome.package_temperature_c,
            melt_fraction=outcome.melt_fraction,
        )

    def absorb_batch(
        self,
        *,
        served: int,
        busy_seconds: float,
        sprints: int,
        fullness_total: float,
        clock_s: float,
        last_arrival_s: float,
        stored_heat_j: float,
        deposited_j: float,
        drained_j: float,
        peak_stored_heat_j: float,
        peak_temperature_c: float,
    ) -> None:
        """Fold a vectorized run's aggregates into this device's state.

        The batched engine path (:mod:`repro.traffic.fastpath`) executes a
        device's whole request chain in numpy with the exact scalar float
        ops, then lands counters, pacer clock, reservoir heat, and thermal
        peaks here in one step — bit-identical to having called
        :meth:`serve` per request.  Only meaningful for runs on the linear
        backend (the vector form exists only there); melt state never moves.
        """
        if served < 0 or sprints < 0 or sprints > served:
            raise ValueError("batch counters are inconsistent")
        self.requests_served += served
        self.busy_seconds += busy_seconds
        self.sprints_served += sprints
        self._sprint_fullness_total += fullness_total
        self.pacer.advance_to(clock_s, last_arrival_s)
        self.pacer.backend.absorb_batch(stored_heat_j, deposited_j, drained_j)
        if peak_temperature_c > self.peak_temperature_c:
            self.peak_temperature_c = peak_temperature_c
        if peak_stored_heat_j > self.peak_stored_heat_j:
            self.peak_stored_heat_j = peak_stored_heat_j

    def reset(self) -> None:
        """Cool the package and forget all serving history."""
        self.pacer.reset()
        self.requests_served = 0
        self.busy_seconds = 0.0
        self.sprints_served = 0
        self._sprint_fullness_total = 0.0
        self.peak_temperature_c = 0.0
        self.peak_melt_fraction = 0.0
        self.peak_stored_heat_j = 0.0
