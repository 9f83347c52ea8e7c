"""Sprint-capable devices serving a stream of requests, as objects or columns.

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

Under the linear reservoir a device carries only a few numbers from one
request to the next — when it next frees and how much heat it stores — so
a linear fleet keeps its devices as columns: :class:`FleetState`, one
array per quantity, which the batched cores (:mod:`repro.traffic.fastpath`)
read and write in place.  Results are columns too: :class:`ServedColumns`
(one array per :class:`ServedRequest` field) and :class:`DeviceStatColumns`
(one per :class:`DeviceStats` field), with the objects built only for a
caller that reads them.

Two entry points hand a device work, matching the two dispatch modes of
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
import functools
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

import numpy as np

from repro.core.config import SystemConfig
from repro.core.pacing import SprintPacer, TaskOutcome
from repro.core.thermal_backend import LinearReservoir, ThermalBackend, ThermalSpec
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

    The object form of a device, and the only one the exact event loop and
    the physics backends (``rc``, ``pcm``) serve on.  A linear fleet keeps
    its devices as a :class:`FleetState` and builds these objects only for
    a caller that reads them (:meth:`FleetState.sync_devices`).

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


@dataclass(frozen=True)
class DeviceStats:
    """Per-device accounting at the end of a run."""

    device_id: int
    requests_served: int
    busy_seconds: float
    stored_heat_j: float
    #: Stable hierarchical identity — ``row0/rack2/dev5`` in a topology
    #: fleet, ``dev{device_id}`` in a flat one ("" on results produced
    #: before labels existed).  ``device_id`` stays the flat integer id.
    device_label: str = ""
    #: Requests that sprinted at all on this device (partial sprints included).
    sprints_served: int = 0
    #: Mean realised sprint fullness on this device — low values flag a
    #: thermal hotspot that is nominally sprinting but mostly sustained.
    sprint_fullness_mean: float = 0.0
    #: Package temperature the device's thermal backend reported at the end
    #: of the run.
    package_temperature_c: float = 0.0
    #: Liquid PCM fraction at the end of the run (0 unless the fleet paces
    #: with the ``pcm`` backend).
    melt_fraction: float = 0.0
    #: Running peaks over the whole run (maintained in O(1) on the device,
    #: so hotspot identification survives ``keep_samples=False`` runs).
    peak_temperature_c: float = 0.0
    peak_melt_fraction: float = 0.0
    peak_stored_heat_j: float = 0.0


def _labels(label: tuple[str, ...] | str, n: int) -> Sequence[str]:
    """Per-device labels: the tuple itself, or ``f"{prefix}dev{i}"`` from a prefix."""
    return label if isinstance(label, tuple) else [f"{label}dev{i}" for i in range(n)]


#: The DeviceStats fields, in order; a DeviceStatColumns holds one column each.
_STAT_FIELDS = tuple(f.name for f in dataclasses.fields(DeviceStats))

#: Integer DeviceStats fields (every other numeric field is a float).
_STAT_INTS = ("device_id", "requests_served", "sprints_served")

#: Where a SprintDevice keeps the DeviceStats fields it does not hold itself.
_STAT_PATHS = {
    "stored_heat_j": "pacer.stored_heat_j",
    "device_label": "label",
    "package_temperature_c": "pacer.backend.temperature_c",
    "melt_fraction": "pacer.backend.melt_fraction",
}


@dataclass(frozen=True, eq=False)
class DeviceStatColumns:
    """Per-device accounting as columns, one row per device in fleet order.

    One array per :class:`DeviceStats` field of the same name, except
    ``device_label``: a tuple with one label per device, or a prefix from
    which device ``i``'s label is ``f"{prefix}dev{i}"``.
    :meth:`to_objects` builds the equal :class:`DeviceStats` tuple, which
    is what ``FleetResult.device_stats`` reads on first access.

    >>> from repro.core.config import SystemConfig
    >>> from repro.traffic.device import DeviceStatColumns, SprintDevice
    >>> from repro.traffic.request import Request
    >>> devices = [SprintDevice(SystemConfig.paper_default(), device_id=i) for i in range(2)]
    >>> _ = devices[1].serve(Request(0, 0.0, 5.0))
    >>> columns = DeviceStatColumns.of(devices)
    >>> columns.requests_served.tolist(), columns.to_objects()[1].device_label
    ([0, 1], 'dev1')
    """

    device_id: np.ndarray
    requests_served: np.ndarray
    busy_seconds: np.ndarray
    stored_heat_j: np.ndarray
    device_label: tuple[str, ...] | str
    sprints_served: np.ndarray
    sprint_fullness_mean: np.ndarray
    package_temperature_c: np.ndarray
    melt_fraction: np.ndarray
    peak_temperature_c: np.ndarray
    peak_melt_fraction: np.ndarray
    peak_stored_heat_j: np.ndarray

    def __len__(self) -> int:
        return self.device_id.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeviceStatColumns):
            return NotImplemented
        return self.to_objects() == other.to_objects()

    @classmethod
    def empty(cls) -> "DeviceStatColumns":
        """No devices."""
        return cls.of(())

    @classmethod
    def of(cls, fleet: "FleetState | Sequence[SprintDevice]") -> "DeviceStatColumns":
        """A snapshot of each device's accounting as it stands, in fleet order."""
        if isinstance(fleet, FleetState):
            return fleet.stat_columns()
        n = len(fleet)

        def column(name: str):
            read = map(attrgetter(_STAT_PATHS.get(name, name)), fleet)
            if name == "device_label":
                return tuple(read)
            return np.fromiter(read, np.int64 if name in _STAT_INTS else float, n)

        return cls(*map(column, _STAT_FIELDS))

    @classmethod
    def concat(cls, parts: Sequence["DeviceStatColumns"]) -> "DeviceStatColumns":
        """One table holding ``parts``' rows in order."""
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return cls.empty()

        def column(name: str):
            if name == "device_label":
                return tuple(label for p in parts for label in p.labels())
            return np.concatenate([getattr(p, name) for p in parts])

        return cls(*map(column, _STAT_FIELDS))

    def labels(self) -> Sequence[str]:
        """Every device's label, in fleet order."""
        return _labels(self.device_label, len(self))

    def to_objects(self) -> tuple[DeviceStats, ...]:
        """The equal :class:`DeviceStats` tuple, device by device."""
        columns = [
            self.labels() if name == "device_label" else getattr(self, name).tolist()
            for name in _STAT_FIELDS
        ]
        return tuple(DeviceStats(*row) for row in zip(*columns))


#: Each run-state column of a FleetState: where a SprintDevice keeps that
#: quantity, and the column's dtype.
_RUN_STATE = {
    "clock": ("pacer.busy_until_s", float),
    "stored": ("pacer.stored_heat_j", float),
    "served": ("requests_served", np.int64),
    "sprints": ("sprints_served", np.int64),
    "busy_seconds": ("busy_seconds", float),
    "fullness_total": ("_sprint_fullness_total", float),
    "deposited": ("pacer.backend.total_deposited_j", float),
    "drained": ("pacer.backend.total_drained_j", float),
    "peak_stored": ("peak_stored_heat_j", float),
    "last_arrival": ("pacer.last_arrival_s", float),
}


def _pacer_constants(pacer: SprintPacer) -> dict[str, float | bool]:
    """The per-device constants of a FleetState, as one pacer defines them."""
    backend = pacer.backend
    return {
        "drain_w": backend.drain_power_w,
        "excess_w": pacer.config.sprint_power_w - pacer.drain_power_w,
        "speedup": pacer.sprint_speedup,
        "capacity": backend.capacity_j,
        "ambient": backend.limits.ambient_c,
        "headroom_c": backend.limits.headroom_c,
        "refuse": pacer.refuse_partial_sprints,
    }


def _dtype(value: float | bool) -> type:
    return bool if isinstance(value, bool) else float


class FleetState:
    """The device state of a linear-backend fleet, one array per quantity.

    Position ``i`` of every column is device ``i``.  The constants come
    from one template :class:`~repro.core.pacing.SprintPacer`:
    ``device_ids``, ``drain_w``, ``excess_w`` (sprint power above the
    drain), ``speedup``, ``capacity``, ``ambient``, ``headroom_c``,
    ``allow`` (sprint-enabled) and ``refuse`` (refuse partial sprints).
    The run state is what a :class:`SprintDevice` carries, history
    included: ``clock`` (busy-until), ``stored`` heat, ``served``,
    ``sprints``, ``busy_seconds``, ``fullness_total``, the reservoir ledger
    (``deposited``, ``drained``), ``peak_stored`` and ``last_arrival``.

    The batched cores read and write the arrays in place.  Device objects
    exist only for a caller that asks: :meth:`sync_devices` builds them
    once and writes the arrays into them after a run, and :meth:`load`
    gathers them back after the exact loop served on them.

    Usage — a two-device fleet as columns; one request moves them in place:

    >>> import numpy as np
    >>> from repro.core.config import SystemConfig
    >>> from repro.core.pacing import SprintPacer
    >>> from repro.traffic.device import FleetState
    >>> from repro.traffic.engine import ServingEngine
    >>> from repro.traffic.request import Request
    >>> state = FleetState(SprintPacer(SystemConfig.paper_default()), 2, label_prefix="rack0/")
    >>> engine = ServingEngine(state, execution="batched")
    >>> _ = engine.run([Request(0, 0.0, 5.0)], np.random.default_rng(0))
    >>> state.served.tolist(), state.labels[1]
    ([1, 0], 'rack0/dev1')
    >>> device = state.sync_devices()[0]
    >>> device.requests_served, round(device.busy_until_s, 2)
    (1, 0.5)
    """

    def __init__(
        self,
        template: SprintPacer,
        n_devices: int,
        *,
        sprint_enabled: bool = True,
        first_id: int = 0,
        label_prefix: str = "",
    ) -> None:
        if type(template.backend) is not LinearReservoir:
            raise TypeError(
                f"a FleetState holds linear devices, not {template.backend.name!r} ones"
            )
        #: The pacer every device copies (None when gathered from objects).
        self.template: SprintPacer | None = template
        self.device_ids = np.arange(first_id, first_id + n_devices, dtype=np.int64)
        for name, value in _pacer_constants(template).items():
            setattr(self, name, np.full(n_devices, value, dtype=_dtype(value)))
        self.allow = np.full(n_devices, bool(sprint_enabled))
        #: Device labels: a prefix (device ``i`` is ``f"{prefix}dev{i}"``)
        #: or one per device.
        self.device_label: tuple[str, ...] | str = label_prefix
        for name, (_, dtype) in _RUN_STATE.items():
            setattr(self, name, np.zeros(n_devices, dtype))
        self._devices: list[SprintDevice] | None = None
        self._synced = False
        #: Nothing served since construction or the last reset.
        self._pristine = True

    @classmethod
    def from_devices(cls, devices: Sequence[SprintDevice]) -> "FleetState":
        """The columns of a list of linear devices, serving history included.

        :meth:`sync_devices` writes a run on the state back into the same
        objects.
        """
        state = cls.__new__(cls)  # gathered from objects, not from a template
        n = len(devices)
        state.template = None
        state.device_ids = np.fromiter((d.device_id for d in devices), np.int64, n)
        constants = [_pacer_constants(d.pacer) for d in devices]
        for name, value in constants[0].items():
            setattr(state, name, np.fromiter((c[name] for c in constants), _dtype(value), n))
        state.allow = np.fromiter((d.sprint_enabled for d in devices), bool, n)
        state.device_label = tuple(d.label for d in devices)
        state._devices = list(devices)
        state._pristine = False
        state.load(devices)
        return state

    def __len__(self) -> int:
        return self.device_ids.size

    @functools.cached_property
    def labels(self) -> Sequence[str]:
        """Every device's label, in position order."""
        return _labels(self.device_label, len(self))

    def reset(self) -> None:
        """Cool every package and forget all serving history."""
        for name in _RUN_STATE:
            getattr(self, name).fill(0)
        self._synced = False
        self._pristine = True

    def changed(self) -> None:
        """Note that a run moved the arrays past the device objects."""
        self._synced = False
        self._pristine = False

    def load(self, devices: Sequence[SprintDevice]) -> None:
        """Gather the run state of ``devices`` (one per position) into the arrays."""
        for name, (path, dtype) in _RUN_STATE.items():
            setattr(self, name, np.fromiter(map(attrgetter(path), devices), dtype, len(self)))
        self._synced = True
        self._pristine = False

    def sync_devices(self) -> list[SprintDevice]:
        """The fleet as :class:`SprintDevice` objects carrying this state.

        Built on the first call; every call returns the same list, and
        writes the arrays into it when a run or :meth:`reset` has moved
        them since the last call.
        """
        if self._devices is None:
            template = self.template
            backend = template.backend
            self._devices = [
                SprintDevice(
                    template.config,
                    device_id=device_id,
                    sprint_speedup=template.sprint_speedup,
                    sprint_enabled=allow,
                    refuse_partial_sprints=template.refuse_partial_sprints,
                    thermal=LinearReservoir(
                        backend.capacity_j, backend.drain_power_w, backend.limits
                    ),
                    label=label,
                )
                for device_id, allow, label in zip(
                    self.device_ids.tolist(), self.allow.tolist(), self.labels
                )
            ]
            # New objects are cold, as a reset state is.
            self._synced = self._pristine
        if not self._synced:
            self._store(self._devices)
            self._synced = True
        return self._devices

    def _store(self, devices: list[SprintDevice]) -> None:
        """Write the run state into ``devices``, exactly as serving left it."""
        if self._pristine:
            for device in devices:
                device.reset()
            return
        rows = zip(
            devices,
            *(getattr(self, name).tolist() for name in _RUN_STATE),
            self._peak_temperature().tolist(),
        )
        # Unpacked in _RUN_STATE order, then the derived peak temperature.
        for device, clock, stored, served, sprints, busy, fullness, *rest in rows:
            deposited, drained, peak_stored, last_arrival, peak_temperature = rest
            device.reset()
            device.requests_served = served
            device.sprints_served = sprints
            device.busy_seconds = busy
            device._sprint_fullness_total = fullness
            device.peak_stored_heat_j = peak_stored
            device.peak_temperature_c = peak_temperature
            device.pacer.advance_to(clock, last_arrival)
            device.pacer.backend.absorb_batch(stored, deposited, drained)

    def _temperature(self, heat: np.ndarray) -> np.ndarray:
        """Package temperature at ``heat`` stored: the linear backend's fill map."""
        capacity = self.capacity
        fill = np.divide(heat, capacity, out=np.zeros(len(self)), where=capacity > 0.0)
        return self.ambient + fill * self.headroom_c

    def _peak_temperature(self) -> np.ndarray:
        """Hottest temperature each device has reported (0 before it served).

        The fill map is monotone, so the hottest instant is the one with
        the most stored heat.
        """
        peak = self._temperature(self.peak_stored)
        return np.where((self.served > 0) & (peak > 0.0), peak, 0.0)

    def stat_columns(self) -> DeviceStatColumns:
        """A snapshot of each device's accounting, bit-identical to the objects'."""
        n = len(self)
        served = self.served.copy()
        return DeviceStatColumns(
            device_id=self.device_ids,
            requests_served=served,
            busy_seconds=self.busy_seconds.copy(),
            stored_heat_j=self.stored.copy(),
            device_label=self.device_label,
            sprints_served=self.sprints.copy(),
            sprint_fullness_mean=np.divide(
                self.fullness_total, served, out=np.zeros(n), where=served > 0
            ),
            package_temperature_c=self._temperature(self.stored),
            melt_fraction=np.zeros(n),
            peak_temperature_c=self._peak_temperature(),
            peak_melt_fraction=np.zeros(n),
            peak_stored_heat_j=self.peak_stored.copy(),
        )
