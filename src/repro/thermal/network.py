"""Lumped RC thermal network solver.

Figure 3 of the paper models the phone's thermal path as an equivalent
electrical circuit: heat sources inject power into capacitive nodes (die
junction, PCM block, case) connected by thermal resistances, with the
ambient environment acting as a fixed-temperature rail.  This module
implements that abstraction as a small graph-based solver:

* :class:`ThermalNetwork` holds nodes and resistive connections,
* capacitive nodes integrate ``C dT/dt = sum of heat flows + injected power``,
* PCM nodes use the enthalpy formulation from :mod:`repro.thermal.pcm`,
* fixed nodes (ambient) never change temperature and absorb whatever heat
  reaches them.

Integration uses forward-Euler with automatic sub-stepping so that the step
size is always well below the smallest node time constant; this keeps the
solver simple, robust to the stiff junction node (tiny capacitance, small
resistance to the PCM), and exactly energy conserving up to float rounding,
which the property tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.thermal.pcm import PhaseChangeBlock

PowerMap = Mapping[str, float]


@dataclass
class _CapacitanceNode:
    name: str
    capacitance_j_k: float
    temperature_c: float

    def add_heat(self, joules: float) -> None:
        self.temperature_c += joules / self.capacitance_j_k

    def effective_capacity(self) -> float:
        return self.capacitance_j_k


@dataclass
class _PcmNode:
    name: str
    block: PhaseChangeBlock

    @property
    def temperature_c(self) -> float:
        return self.block.temperature_c

    def add_heat(self, joules: float) -> None:
        self.block.add_heat(joules)

    def effective_capacity(self) -> float:
        return self.block.effective_capacity_j_k()


@dataclass
class _FixedNode:
    name: str
    temperature_c: float
    absorbed_j: float = 0.0

    def add_heat(self, joules: float) -> None:
        self.absorbed_j += joules

    def effective_capacity(self) -> float:
        return float("inf")


@dataclass(frozen=True)
class _Edge:
    node_a: str
    node_b: str
    resistance_k_w: float


@dataclass
class NetworkState:
    """Snapshot of node temperatures and bookkeeping counters."""

    time_s: float
    temperatures_c: dict[str, float]
    melt_fractions: dict[str, float] = field(default_factory=dict)


class ThermalNetwork:
    """A lumped-parameter thermal RC network.

    Typical construction (mirroring Figure 3(d) of the paper)::

        net = ThermalNetwork(ambient_c=25.0)
        net.add_capacitance_node("junction", capacitance_j_k=0.1)
        net.add_pcm_node("pcm", PhaseChangeBlock(mass_g=0.150))
        net.add_capacitance_node("case", capacitance_j_k=20.0)
        net.add_fixed_node("ambient", temperature_c=25.0)
        net.connect("junction", "pcm", resistance_k_w=0.5)
        net.connect("pcm", "case", resistance_k_w=3.5)
        net.connect("case", "ambient", resistance_k_w=30.0)
        net.step(dt_s=0.01, power_w={"junction": 16.0})
    """

    #: Fraction of the smallest node time constant used as the sub-step size.
    #: Forward Euler is stable below 1.0; 0.05 keeps the discretisation error
    #: of exponential decays below a few percent.
    stability_safety = 0.05

    def __init__(self, ambient_c: float = 25.0) -> None:
        self.ambient_c = ambient_c
        self._nodes: dict[str, _CapacitanceNode | _PcmNode | _FixedNode] = {}
        self._edges: list[_Edge] = []
        #: (node, summed edge conductance) of every coupled node, in node
        #: order; rebuilt whenever a node or an edge is added.
        self._coupled: list[tuple] = []
        self._time_s = 0.0
        self._injected_j = 0.0

    # -- construction ----------------------------------------------------------

    def add_capacitance_node(
        self,
        name: str,
        capacitance_j_k: float,
        initial_temperature_c: float | None = None,
    ) -> None:
        """Add a node with plain sensible heat capacity."""
        self._check_new_name(name)
        if capacitance_j_k <= 0:
            raise ValueError(f"capacitance must be positive, got {capacitance_j_k}")
        temperature = (
            self.ambient_c if initial_temperature_c is None else initial_temperature_c
        )
        self._nodes[name] = _CapacitanceNode(name, capacitance_j_k, temperature)
        self._sum_conductances()

    def add_pcm_node(self, name: str, block: PhaseChangeBlock) -> None:
        """Add a node whose state is a :class:`PhaseChangeBlock`."""
        self._check_new_name(name)
        self._nodes[name] = _PcmNode(name, block)
        self._sum_conductances()

    def add_fixed_node(self, name: str, temperature_c: float | None = None) -> None:
        """Add a fixed-temperature node (the ambient environment)."""
        self._check_new_name(name)
        temperature = self.ambient_c if temperature_c is None else temperature_c
        self._nodes[name] = _FixedNode(name, temperature)
        self._sum_conductances()

    def connect(self, node_a: str, node_b: str, resistance_k_w: float) -> None:
        """Connect two nodes with a thermal resistance in K/W."""
        if resistance_k_w <= 0:
            raise ValueError(f"resistance must be positive, got {resistance_k_w}")
        for name in (node_a, node_b):
            if name not in self._nodes:
                raise KeyError(f"unknown node {name!r}")
        if node_a == node_b:
            raise ValueError("cannot connect a node to itself")
        self._edges.append(_Edge(node_a, node_b, resistance_k_w))
        self._sum_conductances()

    def _sum_conductances(self) -> None:
        """Cache each node's total edge conductance (topology changes only)."""
        conductance: dict[str, float] = {name: 0.0 for name in self._nodes}
        for edge in self._edges:
            g = 1.0 / edge.resistance_k_w
            conductance[edge.node_a] += g
            conductance[edge.node_b] += g
        self._coupled = [
            (node, conductance[name])
            for name, node in self._nodes.items()
            if conductance[name] != 0.0
        ]

    def _check_new_name(self, name: str) -> None:
        if not name:
            raise ValueError("node name must be non-empty")
        if name in self._nodes:
            raise ValueError(f"node {name!r} already exists")

    # -- introspection ---------------------------------------------------------

    @property
    def time_s(self) -> float:
        """Simulated time elapsed since construction (seconds)."""
        return self._time_s

    @property
    def node_names(self) -> list[str]:
        """Names of all nodes in insertion order."""
        return list(self._nodes)

    def temperature(self, name: str) -> float:
        """Temperature of a single node in Celsius."""
        return self._nodes[name].temperature_c

    def temperatures(self) -> dict[str, float]:
        """Mapping from node name to current temperature."""
        return {name: node.temperature_c for name, node in self._nodes.items()}

    def melt_fraction(self, name: str) -> float:
        """Melt fraction of a PCM node (0 for non-PCM nodes)."""
        node = self._nodes[name]
        if isinstance(node, _PcmNode):
            return node.block.melt_fraction
        return 0.0

    def pcm_block(self, name: str) -> PhaseChangeBlock:
        """Return the PCM block backing a PCM node."""
        node = self._nodes[name]
        if not isinstance(node, _PcmNode):
            raise TypeError(f"node {name!r} is not a PCM node")
        return node.block

    def state(self) -> NetworkState:
        """Snapshot of the current network state."""
        melt = {
            name: node.block.melt_fraction
            for name, node in self._nodes.items()
            if isinstance(node, _PcmNode)
        }
        return NetworkState(self._time_s, self.temperatures(), melt)

    # -- energy accounting ------------------------------------------------------

    @property
    def injected_energy_j(self) -> float:
        """Total energy injected through :meth:`step` power maps."""
        return self._injected_j

    @property
    def dissipated_energy_j(self) -> float:
        """Total energy absorbed by fixed-temperature (ambient) nodes."""
        return sum(
            node.absorbed_j
            for node in self._nodes.values()
            if isinstance(node, _FixedNode)
        )

    def stored_energy_j(self, reference_c: float | None = None) -> float:
        """Energy stored in capacitive/PCM nodes relative to a reference.

        The reference defaults to the ambient temperature, so that a network
        in equilibrium with the environment stores zero energy.
        """
        reference = self.ambient_c if reference_c is None else reference_c
        total = 0.0
        for node in self._nodes.values():
            if isinstance(node, _CapacitanceNode):
                total += node.capacitance_j_k * (node.temperature_c - reference)
            elif isinstance(node, _PcmNode):
                block = node.block
                baseline = block.sensible_capacity_j_k * (
                    reference - block.melting_point_c
                )
                if reference > block.melting_point_c:
                    baseline += block.latent_capacity_j
                total += block.enthalpy_j - baseline
        return total

    # -- integration -------------------------------------------------------------

    def step(self, dt_s: float, power_w: PowerMap | None = None) -> None:
        """Advance the network by ``dt_s`` seconds.

        Parameters
        ----------
        dt_s:
            Duration to advance.  Internally split into sub-steps that
            respect the smallest node time constant.
        power_w:
            Mapping from node name to injected power in watts, held constant
            over the step.  Unlisted nodes receive no power.
        """
        if dt_s < 0:
            raise ValueError(f"dt must be non-negative, got {dt_s}")
        if dt_s == 0:
            return
        power = dict(power_w or {})
        for name in power:
            if name not in self._nodes:
                raise KeyError(f"power injected into unknown node {name!r}")

        remaining = dt_s
        while remaining > 1e-15:
            sub_dt = min(remaining, self._stable_dt())
            self._euler_substep(sub_dt, power)
            remaining -= sub_dt
        self._time_s += dt_s
        self._injected_j += sum(power.values()) * dt_s

    def run(
        self,
        duration_s: float,
        power_w: PowerMap | Callable[[float], PowerMap],
        sample_dt_s: float = 0.01,
        callback: Callable[[NetworkState], None] | None = None,
    ) -> list[NetworkState]:
        """Run for ``duration_s`` seconds, sampling the state periodically.

        ``power_w`` may be a constant mapping or a callable of simulated time
        returning a mapping.  Returns the list of sampled states including
        the initial state.
        """
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        if sample_dt_s <= 0:
            raise ValueError("sample_dt_s must be positive")
        states = [self.state()]
        if callback is not None:
            callback(states[0])
        elapsed = 0.0
        while elapsed < duration_s - 1e-12:
            step = min(sample_dt_s, duration_s - elapsed)
            current_power = power_w(self._time_s) if callable(power_w) else power_w
            self.step(step, current_power)
            elapsed += step
            snapshot = self.state()
            states.append(snapshot)
            if callback is not None:
                callback(snapshot)
        return states

    # -- internals ----------------------------------------------------------------

    def _stable_dt(self) -> float:
        """Largest forward-Euler step that keeps every node stable.

        Conductances change only with the topology, so they come from the
        cache; capacities are read per call because a PCM node's effective
        capacity changes with its phase.
        """
        smallest = float("inf")
        for node, g in self._coupled:
            capacity = node.effective_capacity()
            if capacity == float("inf"):
                continue
            smallest = min(smallest, capacity / g)
        if smallest == float("inf"):
            # No resistive couplings: any step size is stable.
            return float("inf")
        return self.stability_safety * smallest

    def _euler_substep(self, dt_s: float, power: dict[str, float]) -> None:
        heat: dict[str, float] = {name: 0.0 for name in self._nodes}
        temps = {name: node.temperature_c for name, node in self._nodes.items()}
        for edge in self._edges:
            flow_w = (temps[edge.node_a] - temps[edge.node_b]) / edge.resistance_k_w
            heat[edge.node_a] -= flow_w * dt_s
            heat[edge.node_b] += flow_w * dt_s
        for name, watts in power.items():
            heat[name] += watts * dt_s
        for name, joules in heat.items():
            self._nodes[name].add_heat(joules)


def total_resistance_between(
    edges: Iterable[tuple[str, str, float]], path: list[str]
) -> float:
    """Sum series resistances along a node path.

    Convenience helper used by package builders and tests to reason about
    steady-state temperature drops: the sustained power budget of the paper's
    design is ``(T_melt - T_ambient) / total_resistance``.
    """
    lookup: dict[frozenset[str], float] = {}
    for node_a, node_b, resistance in edges:
        lookup[frozenset((node_a, node_b))] = resistance
    total = 0.0
    for node_a, node_b in zip(path, path[1:]):
        key = frozenset((node_a, node_b))
        if key not in lookup:
            raise KeyError(f"no edge between {node_a!r} and {node_b!r}")
        total += lookup[key]
    return total
