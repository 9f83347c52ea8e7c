"""Tests for the pluggable thermal backends under sprint pacing.

Covers the :class:`ThermalSpec` validation surface, each backend's
reservoir arithmetic and telemetry, and the two properties the serving
stack leans on: projections must agree with the mutating drain path
(dispatchers rank devices by them), and the energy ledger must balance
(deposits minus drains equals the stored-heat delta).  The headline
physics properties from the issue are here too: :class:`RCCooling`
converges to :class:`LinearReservoir` as the time constant grows, and
:class:`PcmReservoir` conserves energy under randomized task streams.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SystemConfig
from repro.core.pacing import SprintPacer
from repro.core.thermal_backend import (
    THERMAL_BACKENDS,
    LinearReservoir,
    PcmReservoir,
    RCCooling,
    ThermalSpec,
)
from repro.thermal.package import CONVENTIONAL_PACKAGE


@pytest.fixture
def config():
    return SystemConfig.paper_default()


class TestThermalSpec:
    def test_default_is_linear(self, config):
        spec = ThermalSpec()
        assert spec.backend == "linear"
        assert isinstance(spec.build(config), LinearReservoir)

    def test_every_backend_name_builds(self, config):
        built = {name: ThermalSpec(backend=name).build(config) for name in THERMAL_BACKENDS}
        assert isinstance(built["linear"], LinearReservoir)
        assert isinstance(built["rc"], RCCooling)
        assert isinstance(built["pcm"], PcmReservoir)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown thermal backend"):
            ThermalSpec(backend="magma")

    def test_time_constant_only_for_rc(self):
        with pytest.raises(ValueError, match="does not take time_constant_s"):
            ThermalSpec(backend="linear", time_constant_s=5.0)
        with pytest.raises(ValueError, match="does not take time_constant_s"):
            ThermalSpec(backend="pcm", time_constant_s=5.0)
        with pytest.raises(ValueError, match="must be positive"):
            ThermalSpec.rc(0.0)

    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    def test_rc_rejects_non_finite_time_constant(self, tau):
        with pytest.raises(ValueError, match="time constant"):
            ThermalSpec.rc(tau)

    def test_labels(self):
        assert ThermalSpec.linear().label == "linear"
        assert ThermalSpec.rc().label == "rc"
        assert ThermalSpec.rc(12.0).label == "rc[12s]"
        assert ThermalSpec.pcm().label == "pcm"

    def test_spec_is_hashable_for_grid_axes(self):
        axis = {ThermalSpec.linear(), ThermalSpec.rc(), ThermalSpec.rc(12.0)}
        assert len(axis) == 3

    def test_rc_default_time_constant_from_package(self, config):
        """The default is the package RC constant R_total * C_eff, which
        equals capacity / sustainable power — the no-stranding bound."""
        backend = ThermalSpec.rc().build(config)
        package = config.package
        effective_c = backend.capacity_j / (
            package.melting_point_c - package.limits.ambient_c
        )
        assert backend.time_constant_s == pytest.approx(
            package.total_resistance_k_w * effective_c
        )
        assert backend.time_constant_s == pytest.approx(
            backend.capacity_j / config.sustainable_power_w
        )

    def test_rc_rejects_time_constants_that_would_strand_heat(self, config):
        bound = ThermalSpec.rc().build(config).time_constant_s
        with pytest.raises(ValueError, match="stored joule"):
            ThermalSpec.rc(bound * 0.5).build(config)
        ThermalSpec.rc(bound * 1.5).build(config)  # above the bound is fine

    def test_pcm_requires_pcm_package(self, config):
        bare = SystemConfig(package=CONVENTIONAL_PACKAGE)
        with pytest.raises(TypeError, match="needs a PcmPackage"):
            ThermalSpec.pcm().build(bare)

    def test_capacity_matches_package_budget_for_every_backend(self, config):
        expected = config.package.sprint_budget_j(config.sprint_power_w)
        for name in THERMAL_BACKENDS:
            backend = ThermalSpec(backend=name).build(config)
            assert backend.capacity_j == pytest.approx(expected), name


class TestLinearReservoir:
    def test_deposit_then_drain_to_floor(self, config):
        backend = ThermalSpec.linear().build(config)
        backend.deposit(5.0)
        assert backend.stored_heat_j == 5.0
        backend.drain(1.0)
        assert backend.stored_heat_j == pytest.approx(5.0 - backend.drain_power_w)
        backend.drain(1e6)
        assert backend.stored_heat_j == 0.0

    def test_headroom_tracks_capacity(self, config):
        backend = ThermalSpec.linear().build(config)
        assert backend.headroom_j == backend.capacity_j
        backend.deposit(backend.capacity_j)
        assert backend.headroom_j == 0.0

    def test_negative_arguments_rejected(self, config):
        backend = ThermalSpec.linear().build(config)
        with pytest.raises(ValueError):
            backend.deposit(-1.0)
        with pytest.raises(ValueError):
            backend.drain(-1.0)

    def test_temperature_proxy_spans_ambient_to_limit(self, config):
        backend = ThermalSpec.linear().build(config)
        limits = config.package.limits
        assert backend.temperature_c == pytest.approx(limits.ambient_c)
        backend.deposit(backend.capacity_j)
        assert backend.temperature_c == pytest.approx(limits.max_junction_c)
        assert backend.melt_fraction == 0.0

    def test_reset_clears_state_and_ledger(self, config):
        backend = ThermalSpec.linear().build(config)
        backend.deposit(3.0)
        backend.drain(0.5)
        backend.reset()
        assert backend.stored_heat_j == 0.0
        assert backend.total_deposited_j == 0.0
        assert backend.total_drained_j == 0.0


class TestRCCooling:
    def test_drains_no_faster_than_linear(self, config):
        """The exponential factor is below 1, so every gap drains less heat
        than the constant-rate rule of thumb."""
        rc = ThermalSpec.rc().build(config)
        linear = ThermalSpec.linear().build(config)
        for backend in (rc, linear):
            backend.deposit(10.0)
        for gap in (0.1, 1.0, 5.0, 20.0):
            assert rc.projected_stored_heat_j(gap) >= linear.projected_stored_heat_j(gap)

    def test_longer_time_constant_is_closer_to_linear(self, config):
        linear = ThermalSpec.linear().build(config)
        linear.deposit(10.0)
        target = linear.projected_stored_heat_j(4.0)
        gaps = []
        for tau in (20.0, 50.0, 500.0, 5e4):
            rc = ThermalSpec.rc(tau).build(config)
            rc.deposit(10.0)
            gaps.append(rc.projected_stored_heat_j(4.0) - target)
        assert all(gap > 0 for gap in gaps)
        assert gaps == sorted(gaps, reverse=True)

    @settings(max_examples=25, deadline=None)
    @given(
        interarrival=st.floats(min_value=0.2, max_value=30.0),
        task_time=st.floats(min_value=0.5, max_value=8.0),
        tasks=st.integers(min_value=1, max_value=20),
    )
    def test_converges_to_linear_reservoir_as_time_constant_grows(
        self, interarrival, task_time, tasks
    ):
        """The issue's property: lim tau->inf RCCooling == LinearReservoir.

        At tau = 1e12 the drained energy P*tau*(1-e^(-dt/tau)) equals P*dt
        to double precision, so whole task streams must match essentially
        bit-for-bit through the pacer."""
        config = SystemConfig.paper_default()
        linear = SprintPacer(config, thermal="linear").simulate_periodic(
            interarrival, task_time, tasks
        )
        rc = SprintPacer(config, thermal=ThermalSpec.rc(1e12)).simulate_periodic(
            interarrival, task_time, tasks
        )
        for a, b in zip(linear.outcomes, rc.outcomes):
            assert b.response_time_s == pytest.approx(a.response_time_s, abs=1e-9)
            assert b.stored_heat_after_j == pytest.approx(a.stored_heat_after_j, abs=1e-6)
        assert rc.sprint_fraction == linear.sprint_fraction

    def test_instantaneous_rate_decays_within_a_gap(self, config):
        """Cooling slows as the package approaches ambient: the second half
        of a long gap drains less than the first half."""
        rc = ThermalSpec.rc().build(config)
        rc.deposit(15.0)
        tau = rc.time_constant_s
        first_half = 15.0 - rc.projected_stored_heat_j(tau)
        second_half = rc.projected_stored_heat_j(tau) - rc.projected_stored_heat_j(2 * tau)
        assert second_half < first_half

    @settings(max_examples=25, deadline=None)
    @given(
        total_idle=st.floats(min_value=0.5, max_value=60.0),
        cuts=st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=0, max_size=6),
    )
    def test_fragmented_idle_drains_like_one_contiguous_gap(self, total_idle, cuts):
        """The cooling clock persists across gaps: slicing the same idle
        time into many drain() calls (e.g. around zero-deposit sustained
        tasks) must not drain more than one contiguous gap would."""
        config = SystemConfig.paper_default()
        contiguous = ThermalSpec.rc().build(config)
        fragmented = ThermalSpec.rc().build(config)
        for backend in (contiguous, fragmented):
            backend.deposit(12.0)
        contiguous.drain(total_idle)
        remaining = total_idle
        for cut in cuts:
            piece = remaining * cut
            fragmented.drain(piece)
            remaining -= piece
        fragmented.drain(remaining)
        assert fragmented.stored_heat_j == pytest.approx(
            contiguous.stored_heat_j, abs=1e-9
        )

    def test_deposit_restarts_the_cooling_clock(self, config):
        """A sprint re-heats the junction, so cooling after a deposit
        restarts at the full sustainable rate."""
        rc = ThermalSpec.rc().build(config)
        rc.deposit(10.0)
        rc.drain(2.0 * rc.time_constant_s)  # deep into the slow tail
        slow = rc.stored_heat_j - rc.projected_stored_heat_j(1.0)
        rc.deposit(5.0)
        fast = rc.stored_heat_j - rc.projected_stored_heat_j(1.0)
        assert fast > slow

    def test_no_heat_is_ever_stranded(self, config):
        """Regression for the decay-envelope trap: however the reservoir is
        filled, the full budget eventually returns — a once-sprinted device
        must not be down-ranked by dispatch forever."""
        from repro.core.pacing import SprintPacer

        pacer = SprintPacer(config, thermal="rc")
        # One maximal sprint fills the reservoir to (nearly) capacity.
        pacer.task_arrival(0.0, sustained_time_s=20.0)
        assert pacer.available_fraction < 0.1
        assert pacer.available_fraction_at(1e9) == pytest.approx(1.0, abs=1e-6)
        backend = pacer.backend
        assert backend.projected_stored_heat_j(1e9) == pytest.approx(0.0, abs=1e-6)


class TestPcmReservoir:
    def test_temperature_pinned_during_melt(self, config):
        backend = ThermalSpec.pcm().build(config)
        melt_c = config.package.melting_point_c
        assert backend.temperature_c == pytest.approx(config.package.limits.ambient_c)
        # Deposit past the sensible warm-up into the latent region.
        sensible_to_melt = backend.block.sensible_capacity_j_k * (
            melt_c - config.package.limits.ambient_c
        )
        backend.deposit(sensible_to_melt + 0.5 * backend.block.latent_capacity_j)
        assert backend.temperature_c == pytest.approx(melt_c)
        assert 0.0 < backend.melt_fraction < 1.0

    def test_plateau_drains_at_constant_power(self, config):
        backend = ThermalSpec.pcm().build(config)
        sensible_to_melt = backend.block.sensible_capacity_j_k * (
            config.package.melting_point_c - config.package.limits.ambient_c
        )
        backend.deposit(sensible_to_melt + 0.9 * backend.block.latent_capacity_j)
        dt = 0.5
        drained_1 = backend.stored_heat_j - backend.projected_stored_heat_j(dt)
        assert drained_1 == pytest.approx(backend.plateau_power_w * dt)

    def test_solid_phase_drains_exponentially_slowly(self, config):
        """The last joules drain far slower than the plateau — the regime
        where the linear rule of thumb is optimistic."""
        backend = ThermalSpec.pcm().build(config)
        backend.deposit(0.1 * backend.capacity_j)  # stays in the solid region
        dt = 1.0
        drained = backend.stored_heat_j - backend.projected_stored_heat_j(dt)
        assert drained < backend.plateau_power_w * dt
        # Newton cooling is asymptotic: heat survives long after the linear
        # rule of thumb would have emptied the reservoir.
        linear = ThermalSpec.linear().build(SystemConfig.paper_default())
        linear.deposit(0.1 * linear.capacity_j)
        horizon = 3.0 * backend.solid_time_constant_s
        assert linear.projected_stored_heat_j(horizon) == 0.0
        assert backend.projected_stored_heat_j(horizon) > 0.0

    def test_liquid_phase_cools_back_to_plateau(self, config):
        backend = ThermalSpec.pcm().build(config)
        backend.deposit(backend.capacity_j)  # fully molten, at the limit
        assert backend.temperature_c == pytest.approx(
            config.package.limits.max_junction_c
        )
        melt_c = config.package.melting_point_c
        # A long drain passes back down through the plateau.
        backend.drain(2.0 * backend.solid_time_constant_s)
        assert backend.temperature_c <= melt_c + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        gaps=st.lists(st.floats(min_value=0.0, max_value=30.0), min_size=1, max_size=10),
        task_times=st.lists(
            st.floats(min_value=0.2, max_value=8.0), min_size=10, max_size=10
        ),
    )
    def test_conserves_energy_under_randomized_task_streams(self, gaps, task_times):
        """The issue's property: deposits - drains = enthalpy delta."""
        config = SystemConfig.paper_default()
        pacer = SprintPacer(config, thermal="pcm")
        backend = pacer.backend
        floor = backend.block.enthalpy_j
        for gap, task_time in zip(gaps, task_times):
            pacer.execute_at(pacer.busy_until_s + gap, task_time)
        enthalpy_delta = backend.block.enthalpy_j - floor
        assert backend.total_deposited_j - backend.total_drained_j == pytest.approx(
            enthalpy_delta, abs=1e-9
        )
        assert backend.stored_heat_j == pytest.approx(enthalpy_delta, abs=1e-12)


class TestProjectionConsistency:
    """Dispatchers rank devices by projections; they must match reality."""

    @settings(max_examples=30, deadline=None)
    @given(
        backend_name=st.sampled_from(THERMAL_BACKENDS),
        deposits=st.lists(st.floats(min_value=0.0, max_value=6.0), min_size=1, max_size=8),
        gaps=st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=8, max_size=8),
    )
    def test_projected_equals_mutating_drain(self, backend_name, deposits, gaps):
        config = SystemConfig.paper_default()
        backend = ThermalSpec(backend=backend_name).build(config)
        for joules, gap in zip(deposits, gaps):
            headroom = backend.headroom_j
            backend.deposit(min(joules, headroom))
            projected = backend.projected_stored_heat_j(gap)
            backend.drain(gap)
            assert backend.stored_heat_j == pytest.approx(projected, abs=1e-12)
            assert 0.0 <= backend.stored_heat_j <= backend.capacity_j + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(
        backend_name=st.sampled_from(THERMAL_BACKENDS),
        gaps=st.lists(st.floats(min_value=0.0, max_value=25.0), min_size=1, max_size=8),
        task_times=st.lists(
            st.floats(min_value=0.2, max_value=8.0), min_size=8, max_size=8
        ),
    )
    def test_pacer_projections_agree_for_every_backend(
        self, backend_name, gaps, task_times
    ):
        """Extends test_core_pacing's linear-only projection property to the
        physics backends, which thermal_aware dispatch relies on."""
        config = SystemConfig.paper_default()
        pacer = SprintPacer(config, thermal=backend_name)
        for gap, task_time in zip(gaps, task_times):
            start = pacer.busy_until_s + gap
            projected_heat = pacer.stored_heat_at(start)
            outcome = pacer.execute_at(start, task_time)
            assert outcome.stored_heat_before_j == pytest.approx(projected_heat, abs=1e-12)

    def test_projections_never_mutate(self, config):
        for name in THERMAL_BACKENDS:
            backend = ThermalSpec(backend=name).build(config)
            backend.deposit(4.0)
            stored = backend.stored_heat_j
            for probe in (0.0, 0.5, 5.0, 500.0):
                backend.projected_stored_heat_j(probe)
            assert backend.stored_heat_j == stored


class TestLedger:
    def test_ledger_balances_for_every_backend(self, config):
        for name in THERMAL_BACKENDS:
            pacer = SprintPacer(config, thermal=name)
            pacer.simulate_periodic(1.5, 3.0, 25)
            backend = pacer.backend
            assert backend.total_deposited_j - backend.total_drained_j == pytest.approx(
                backend.stored_heat_j, abs=1e-9
            ), name

    def test_shared_backend_instance_is_accepted(self, config):
        """A prebuilt backend may be handed to a pacer (which then owns it)."""
        backend = ThermalSpec.rc(30.0).build(config)
        pacer = SprintPacer(config, thermal=backend)
        assert pacer.backend is backend
        assert isinstance(pacer.backend, RCCooling)
        assert math.isclose(pacer.backend.time_constant_s, 30.0)

    def test_bad_thermal_argument_rejected(self, config):
        with pytest.raises(ValueError, match="unknown thermal backend"):
            SprintPacer(config, thermal="lava")
        with pytest.raises(TypeError, match="thermal must be"):
            SprintPacer(config, thermal=42)
