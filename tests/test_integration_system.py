"""End-to-end integration tests across every subsystem."""

import dataclasses

import pytest

from repro.analog.mux import MeasurementSchedule
from repro.btest.interconnect import FaultKind, InterconnectFault, SubstrateHarness
from repro.batch import BatchCompass
from repro.core.accuracy import ErrorStats
from repro.core.compass import CompassConfig, IntegratedCompass
from repro.core.heading import headings_evenly_spaced
from repro.digital.display import DisplayMode
from repro.errors import ComplianceError, ConfigurationError
from repro.physics.earth_field import DipoleEarthField, LOCATIONS
from repro.physics.noise import NoiseBudget
from repro.sensors.parameters import IDEAL_TARGET
from repro.soc.mcm import build_compass_mcm
from repro.soc.netlist import CompassNetlist


def _turntable_stats(compass, n_points):
    """Error statistics of an ``n_points`` batch heading sweep from 0.5°."""
    headings = headings_evenly_spaced(n_points, 0.5)
    measurements = BatchCompass(compass).sweep_headings(headings)
    return ErrorStats.from_sweep(headings, measurements)


class TestFullChainAtLocations:
    @pytest.mark.parametrize("location", ["enschede", "singapore", "san_francisco"])
    def test_compass_works_worldwide(self, location):
        compass = IntegratedCompass()
        lat, lon = LOCATIONS[location]
        field = DipoleEarthField().field_at(lat, lon)
        for true_heading in (30.0, 200.0):
            m = compass.measure_in_field(field, true_heading)
            assert m.error_against(true_heading) < 1.0

    def test_weak_horizontal_field_near_pole_still_measures(self):
        # Near the geomagnetic pole the horizontal component collapses;
        # the compass still returns a heading while counts stay nonzero.
        compass = IntegratedCompass()
        field = DipoleEarthField().field_at(75.0, -70.0)
        assert field.horizontal < 15e-6
        m = compass.measure_in_field(field, 45.0)
        # Weak field → fewer counts → coarser heading, but still bounded.
        assert m.error_against(45.0) < 2.0


class TestMeasureDisplayRoundTrip:
    def test_measurement_reaches_the_glass(self):
        compass = IntegratedCompass()
        compass.select_display(DisplayMode.DIRECTION)
        compass.measure_heading(270.0)
        frame = compass.read_display()
        assert frame.text == "W270"

    def test_watch_keeps_time_across_measurements(self):
        compass = IntegratedCompass()
        compass.set_time(8, 0, 0)
        compass.back_end.watch.advance_seconds(90)
        for heading in (10.0, 20.0):
            compass.measure_heading(heading)
        compass.select_display(DisplayMode.TIME)
        assert compass.read_display().text == "0801"


class TestNoiseRobustness:
    def _noisy_compass(self, white_density, seed=11):
        config = CompassConfig(
            front_end=dataclasses.replace(
                CompassConfig().front_end,
                noise=NoiseBudget(
                    white_density=white_density,
                    flicker_corner_hz=1e3,
                    comparator_offset_sigma=0.0,
                    clock_jitter_rms=100e-12,
                ),
                noise_seed=seed,
            )
        )
        return IntegratedCompass(config)

    def test_accuracy_holds_with_low_noise_front_end(self):
        # 20 nV/√Hz — a good large-input-pair CMOS preamp of the era.
        # The x and y channels draw *independent* noise realizations (an
        # earlier amplifier bug reused the same seed per call, so the two
        # channels' noise was identical and cancelled ratiometrically —
        # flattering this sweep).  With honest statistics a single
        # 12-point sweep can spike slightly past 1° on an unlucky draw;
        # the rms budget is the stable statistic at this noise floor.
        compass = self._noisy_compass(20e-9)
        stats = _turntable_stats(compass, 12)
        assert stats.rms_error < 0.5
        assert stats.max_error < 1.25

    def test_noisy_front_end_is_the_bottleneck(self):
        # §4: "there will always be a bottle neck in the previous parts as
        # the sensitivity of the fluxgate sensor and the analogue section
        # are limited" — at a conservative 50 nV/√Hz the timing jitter of
        # the shallow pulse tails, not the digital section, sets accuracy.
        compass = self._noisy_compass(50e-9)
        stats = _turntable_stats(compass, 12)
        assert stats.rms_error < 1.5
        assert stats.max_error < 3.0


class TestHardwareEnvelope:
    def test_high_resistance_sensor_rejected_end_to_end(self):
        # An 900 Ω sensor breaks the §3.1 compliance limit at 5 V.
        params = dataclasses.replace(IDEAL_TARGET, series_resistance=900.0)
        compass = IntegratedCompass(CompassConfig(sensor=params))
        with pytest.raises(ComplianceError):
            compass.measure_heading(0.0)

    def test_low_supply_drives_fewer_ohms(self):
        from repro.analog.excitation import ExcitationSettings
        from repro.analog.frontend import FrontEndConfig
        from repro.analog.vi_converter import VIConverterParameters

        settings_35 = ExcitationSettings(
            converter=VIConverterParameters(supply_voltage=3.5)
        )
        params = dataclasses.replace(IDEAL_TARGET, series_resistance=600.0)
        config = CompassConfig(
            sensor=params,
            front_end=FrontEndConfig(excitation=settings_35),
        )
        compass = IntegratedCompass(config)
        with pytest.raises(ComplianceError):
            compass.measure_heading(0.0)
        # At 5 V the same sensor works.
        ok = IntegratedCompass(CompassConfig(sensor=params))
        assert ok.measure_heading(0.0).error_against(0.0) < 1.0


class TestChipAndAssembly:
    def test_netlist_and_mcm_consistent(self):
        # The chip fits the array, the assembly validates, and the scan
        # chain tests it — the complete §2 story in one test.
        array = CompassNetlist().place()
        assert array.quarters_fully_used_by("digital") >= 2
        harness = SubstrateHarness(build_compass_mcm())
        assert harness.test_passes()

    def test_assembly_fault_caught_before_shipping(self):
        harness = SubstrateHarness(build_compass_mcm())
        harness.inject(InterconnectFault(FaultKind.OPEN, "x_pick_p"))
        assert not harness.test_passes()


class TestScheduleTradeoffs:
    def test_longer_windows_tighter_headings(self):
        short = IntegratedCompass(
            CompassConfig(schedule=MeasurementSchedule(count_periods=2))
        )
        long = IntegratedCompass(
            CompassConfig(schedule=MeasurementSchedule(count_periods=16))
        )
        stats_short = _turntable_stats(short, 10)
        stats_long = _turntable_stats(long, 10)
        assert stats_long.rms_error <= stats_short.rms_error + 0.05
        # Short windows trade accuracy for update rate.
        assert short.update_rate_hz() > long.update_rate_hz()
