"""Runtime health supervisor: plausibility checks, watchdog, degradation.

The supervisor's contract has two halves:

* **transparency** — with every check enabled, a healthy compass must
  produce *bit-identical* measurements to one with supervision disabled
  (the golden regression below pins both against recorded values), and
* **honesty** — when a check fails, the result is either a typed error
  (strict mode) or a measurement that *says* it is degraded.
"""

import dataclasses
import gc
import weakref

import pytest

from repro.analog.frontend import FrontEndConfig
from repro.core.compass import CompassConfig, IntegratedCompass
from repro.core.health import HEALTHY, HealthConfig, HealthReport, HealthSupervisor
from repro.errors import (
    ConfigurationError,
    DegradedOperationError,
    FaultError,
    ProtocolError,
)
from repro.faults import REGISTRY
from repro.physics.noise import TYPICAL_1997_CMOS

# Recorded from the design-point compass (ideal-target sensors, 50 µT,
# 8-period window, 8-iteration CORDIC).  Any arithmetic change anywhere
# in the chain shows up here.
GOLDEN = [
    (0.5, 0.44921875, 1545, -15, 39.77779830568831),
    (45.0, 45.0, 1093, -1095, 39.831282628672135),
    (123.0, 123.40234375, -843, -1297, 39.8244928366837),
    (222.25, 221.9453125, -1143, 1037, 39.73251690350487),
    (359.5, 359.55078125, 1545, 13, 39.77733175007646),
]


def _compass(**health_kwargs):
    return IntegratedCompass(CompassConfig(health=HealthConfig(**health_kwargs)))


class TestTransparency:
    @pytest.mark.parametrize("truth,heading,x,y,field", GOLDEN)
    def test_supervised_matches_golden(self, truth, heading, x, y, field):
        m = IntegratedCompass().measure_heading(truth)
        assert m.heading_deg == heading
        assert (m.x_count, m.y_count) == (x, y)
        assert m.field_estimate_a_per_m == field
        assert m.health is not None and m.health.ok

    @pytest.mark.parametrize("truth,heading,x,y,field", GOLDEN)
    def test_unsupervised_matches_golden(self, truth, heading, x, y, field):
        m = _compass(enabled=False).measure_heading(truth)
        assert m.heading_deg == heading
        assert (m.x_count, m.y_count) == (x, y)
        assert m.field_estimate_a_per_m == field
        assert m.health is None

    def test_dropped_compass_is_freed_without_the_cycle_collector(self):
        # The supervisor must not keep its compass (and all the compass
        # holds) alive in a reference cycle.
        compass = IntegratedCompass()
        compass.measure_heading(45.0)
        alive = weakref.ref(compass)
        gc.disable()
        try:
            del compass
            assert alive() is None
        finally:
            gc.enable()

    def test_clean_reports_share_the_healthy_constant(self):
        # Healthy measurements all carry the same HealthReport instance,
        # so scalar/batch equality comparisons stay cheap and exact.
        m = IntegratedCompass().measure_heading(45.0)
        assert m.health is HEALTHY
        assert not m.degraded


class TestWatchdog:
    def test_oversized_measurement_rejected(self):
        compass = _compass(watchdog_periods=4)
        with pytest.raises(ProtocolError, match="watchdog"):
            compass.measure_heading(45.0)  # schedule wants 9 periods

    def test_normal_schedule_passes(self):
        assert _compass(watchdog_periods=64).measure_heading(45.0).health.ok


class TestStrictMode:
    def test_rom_corruption_raises_fault_error(self):
        compass = _compass(degrade=False)
        with REGISTRY.inject("digital.cordic_rom_bitflip", compass, 3.0):
            with pytest.raises(FaultError, match="ROM"):
                compass.measure_heading(45.0)

    def test_counter_corruption_raises_fault_error(self):
        compass = _compass(degrade=False)
        with REGISTRY.inject("digital.counter_stuck_bit", compass, 12.0):
            with pytest.raises(FaultError, match="count"):
                compass.measure_heading(45.0)

    def test_faulted_compass_is_freed_without_the_cycle_collector(self):
        # The re-raised FaultError's traceback holds the fallback's
        # frame; that frame must not hold the exception back, or the
        # pair keeps the compass alive until a cyclic collection.
        compass = _compass(degrade=False)
        alive = weakref.ref(compass)
        gc.disable()
        try:
            with REGISTRY.inject("digital.cordic_rom_bitflip", compass, 3.0):
                try:
                    compass.measure_heading(45.0)
                except FaultError:
                    pass
            del compass
            assert alive() is None
        finally:
            gc.enable()


class TestStaleFallback:
    def test_degrade_mode_serves_last_known_good(self):
        compass = _compass(degrade=True)
        good = compass.measure_heading(45.0)
        with REGISTRY.inject("digital.cordic_rom_bitflip", compass, 3.0):
            stale = compass.measure_heading(123.0)
        assert stale.heading_deg == good.heading_deg
        assert stale.degraded
        assert stale.health.fallback == "last-known-good"
        assert stale.health.stale_measurements >= 1
        assert stale.health.staleness_s > 0.0

    def test_staleness_accumulates(self):
        compass = _compass(degrade=True)
        compass.measure_heading(45.0)
        with REGISTRY.inject("digital.cordic_rom_bitflip", compass, 3.0):
            first = compass.measure_heading(123.0)
            second = compass.measure_heading(123.0)
        assert second.health.stale_measurements == first.health.stale_measurements + 1
        assert second.health.staleness_s > first.health.staleness_s

    def test_no_history_raises_degraded_operation(self):
        compass = _compass(degrade=True)
        with REGISTRY.inject("digital.cordic_rom_bitflip", compass, 3.0):
            with pytest.raises(DegradedOperationError):
                compass.measure_heading(45.0)

    def test_recovery_clears_staleness(self):
        compass = _compass(degrade=True)
        compass.measure_heading(45.0)
        with REGISTRY.inject("digital.cordic_rom_bitflip", compass, 3.0):
            assert compass.measure_heading(123.0).degraded
        recovered = compass.measure_heading(123.0)
        assert recovered.health.ok
        assert recovered.health.stale_measurements == 0

    def test_flagged_recovery_also_clears_staleness(self):
        # Regression: a replica recovering *into* a soft-degraded state
        # (fresh measurement, field merely out of band) used to keep its
        # old stale-serve streak, so the next hard fault resumed the
        # count as if the recovery never happened.
        compass = _compass(degrade=True)
        compass.measure_heading(45.0)
        with REGISTRY.inject("digital.cordic_rom_bitflip", compass, 3.0):
            assert compass.measure_heading(123.0).health.stale_measurements == 1
        # Recovery, but into the out-of-band regime: freshly computed,
        # flagged, no fallback — this must end the streak.
        with REGISTRY.inject("sensor.common_gain_drift", compass, 4.0):
            flagged = compass.measure_heading(123.0)
        assert flagged.degraded
        assert flagged.health.fallback is None
        # A new hard fault starts a *new* streak at 1, not at 2.
        with REGISTRY.inject("digital.cordic_rom_bitflip", compass, 3.0):
            assert compass.measure_heading(123.0).health.stale_measurements == 1

    def test_flagged_recovery_does_not_become_reference(self):
        # The flagged reading ends the streak but must NOT update the
        # last-known-good record the stale fallback serves from.
        compass = _compass(degrade=True)
        good = compass.measure_heading(45.0)
        with REGISTRY.inject("sensor.common_gain_drift", compass, 4.0):
            compass.measure_heading(123.0)
        with REGISTRY.inject("digital.cordic_rom_bitflip", compass, 3.0):
            stale = compass.measure_heading(123.0)
        assert stale.heading_deg == good.heading_deg
        assert stale.field_estimate_a_per_m == good.field_estimate_a_per_m

    def test_single_axis_staleness_accumulates(self):
        # Regression: single_axis_fallback reported `stale + 1` without
        # storing it, so back-to-back one-axis headings all claimed the
        # same staleness instead of an increasing one.
        compass = _compass(degrade=True)
        compass.measure_heading(45.0)
        with REGISTRY.inject("sensor.axis_gain_mismatch", compass, 0.9):
            first = compass.measure_heading(50.0)
            second = compass.measure_heading(50.0)
        assert first.health.fallback == "single-axis-y"
        assert second.health.stale_measurements == (
            first.health.stale_measurements + 1
        )
        assert second.health.staleness_s > first.health.staleness_s


class TestSingleAxisFallback:
    def test_dead_x_channel_degrades_with_quadrant_flag(self):
        compass = _compass(degrade=True)
        compass.measure_heading(45.0)
        with REGISTRY.inject("sensor.axis_gain_mismatch", compass, 0.9):
            m = compass.measure_heading(50.0)
        assert m.degraded
        assert m.health.fallback == "single-axis-y"
        assert m.health.quadrant_ambiguity
        assert m.x_count == 0 and m.duty_x == 0.0
        # The surviving y channel plus last-known-good quadrant context
        # recovers the heading coarsely (gain errors land on the axis
        # projection, not the spec'd 1°).
        assert abs(((m.heading_deg - 50.0) + 180.0) % 360.0 - 180.0) < 15.0

    def test_strict_mode_reraises_channel_failure(self):
        compass = _compass(degrade=False)
        compass.measure_heading(45.0)
        with REGISTRY.inject("sensor.axis_gain_mismatch", compass, 0.9):
            with pytest.raises(ConfigurationError, match="no pulses"):
                compass.measure_heading(50.0)

    @pytest.mark.parametrize(
        "fault,severity,pinned",
        [
            # The open coil trips the V-I compliance check before the x
            # amplifier draws noise: the measurement consumes one draw.
            (
                "sensor.open_excitation_coil",
                1.0,
                ((0, -1207, 51.404808381887065), (767, -1351, 60.37890625), 1),
            ),
            # The pickup gain loss fails in the detector, after the x
            # amplifier drew: the measurement consumes both draws.
            (
                "sensor.axis_gain_mismatch",
                0.9,
                ((0, -1195, 50.696582201675106), (775, -1339, 59.9296875), 2),
            ),
        ],
    )
    def test_noisy_fallback_keeps_the_noise_draw_order(
        self, fault, severity, pinned
    ):
        # A channel that fails before its amplifier runs draws no noise,
        # so the surviving channel and every later measurement see the
        # same stream positions as before the failure was handled.
        compass = IntegratedCompass(
            CompassConfig(
                front_end=FrontEndConfig(noise=TYPICAL_1997_CMOS, noise_seed=42),
                health=HealthConfig(degrade=True),
            )
        )
        compass.measure_heading(45.0)
        amplifier = compass.front_end.amplifier
        before = amplifier.noise_draws
        with REGISTRY.inject(fault, compass, severity):
            fallback = compass.measure_heading(50.0)
        drawn = amplifier.noise_draws - before
        after = compass.measure_heading(60.0)
        assert fallback.health.fallback == "single-axis-y"
        assert (
            (fallback.x_count, fallback.y_count, fallback.heading_deg),
            (after.x_count, after.y_count, after.heading_deg),
            drawn,
        ) == pinned

    def test_both_channels_dead_is_degraded_operation(self):
        compass = _compass(degrade=True)
        compass.measure_heading(45.0)
        with REGISTRY.inject("sensor.saturation_loss", compass, 0.8):
            with pytest.raises(DegradedOperationError, match="both"):
                compass.measure_heading(45.0)


class TestFieldBand:
    def test_low_field_flags_but_measures(self):
        # Near-pole horizontal fields are legitimate: flagged, not fatal.
        m = IntegratedCompass().measure_heading(45.0, field_magnitude_t=8e-6)
        assert m.degraded
        assert any("below" in flag for flag in m.health.flags)

    def test_in_band_field_unflagged(self):
        assert IntegratedCompass().measure_heading(45.0, 60e-6).health.ok

    def test_top_of_band_unflagged(self):
        assert IntegratedCompass().measure_heading(45.0, 65e-6).health.ok

    def test_above_rated_range_flags(self):
        # Above 65 µT (+5 %) the 1° rating ends: the heading is served,
        # but flagged, well below the 97.5 µT out-of-band limit.
        m = IntegratedCompass().measure_heading(45.0, 70e-6)
        assert m.degraded
        assert any("field-above-rating" in flag for flag in m.health.flags)

    def test_drive_loss_at_top_of_band_is_flagged_not_silent(self):
        # A 20 % excitation-turn loss reads a 64 µT field as ~73 µT and
        # bends the heading 1.09° off: before the rated-range limit the
        # field band let this through unflagged.
        compass = IntegratedCompass(CompassConfig(health=HealthConfig(degrade=True)))
        compass.measure_heading(0.5, 64.17e-6)
        with REGISTRY.inject("sensor.saturation_loss", compass, 0.2):
            m = compass.measure_heading(98.87, 64.17e-6)
        assert abs(m.heading_deg - 98.87) > 1.0
        assert m.degraded
        assert any("field-above-rating" in flag for flag in m.health.flags)


class TestReportAndConfig:
    def test_reports_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            HEALTHY.status = "degraded"

    def test_degraded_requires_flags_or_fallback(self):
        report = HealthReport(status="degraded", flags=("x",))
        assert report.degraded and not report.ok

    def test_supervisor_disabled_never_reviews(self):
        compass = _compass(enabled=False)
        assert not compass.supervisor.enabled
        with REGISTRY.inject("digital.cordic_rom_bitflip", compass, 3.0):
            m = compass.measure_heading(45.0)  # corrupt but unsupervised
        assert m.health is None

    def test_supervisor_snapshot_predates_injection(self):
        # The golden ROM is captured at construction: a supervisor built
        # *after* corruption would trust the corrupt table, so the
        # compass builds its supervisor in __init__ before any injection
        # can happen.
        compass = IntegratedCompass()
        golden = compass.supervisor._rom_golden
        with REGISTRY.inject("digital.cordic_rom_bitflip", compass, 3.0):
            assert tuple(compass.back_end.cordic.rom) != golden
        assert tuple(compass.back_end.cordic.rom) == golden
