"""Failure-injection tests: the system must fail loudly, not wrongly.

Each test breaks one physical assumption and checks the library raises a
typed error (or degrades in the documented way) instead of returning a
silently wrong heading.
"""

import dataclasses

import numpy as np
import pytest

from repro.analog import fastpath
from repro.analog.frontend import AnalogFrontEnd, FrontEndConfig
from repro.analog.mux import MeasurementSchedule
from repro.analog.pulse_detector import DetectorParameters
from repro.core.compass import CompassConfig, IntegratedCompass
from repro.digital.counter import CounterConfig
from repro.errors import (
    ComplianceError,
    ConfigurationError,
    ProtocolError,
)
from repro.faults import FaultCampaign, Outcome, REGISTRY, registered_faults
from repro.sensors.fluxgate import FluxgateSensor
from repro.sensors.parameters import IDEAL_TARGET, MICROMACHINED_KAW95
from repro.simulation.engine import TimeGrid
from repro.simulation.signals import Trace


class TestSensorFailures:
    def test_unsaturable_sensor_rejected_at_build(self):
        with pytest.raises(ConfigurationError):
            IntegratedCompass(CompassConfig(sensor=MICROMACHINED_KAW95))

    def test_open_sensor_coil(self):
        # An open excitation coil looks like infinite resistance: the
        # V-I converter's compliance check trips.
        broken = dataclasses.replace(IDEAL_TARGET, series_resistance=1e6)
        compass = IntegratedCompass(CompassConfig(sensor=broken))
        with pytest.raises(ComplianceError):
            compass.measure_heading(0.0)

    def test_dead_pickup_coil(self):
        # A shorted pickup (zero turns ≈ no signal) produces no pulses.
        front_end = AnalogFrontEnd()
        sensor = FluxgateSensor(IDEAL_TARGET)
        grid = TimeGrid(4)

        class DeadPickupSensor:
            params = IDEAL_TARGET

            def simulate(self, current, h_external=0.0):
                waves = sensor.simulate(current, h_external)
                silent = dataclasses.replace(
                    waves,
                    pickup_voltage=waves.pickup_voltage.scaled(0.0),
                )
                return silent

        with pytest.raises(ConfigurationError, match="no pulses"):
            front_end.measure_channel(DeadPickupSensor(), "x", 0.0, grid)


class TestDetectorFailures:
    def test_threshold_above_pulses(self):
        config = CompassConfig(
            front_end=dataclasses.replace(
                CompassConfig().front_end,
                detector=DetectorParameters(threshold=5.0),
            )
        )
        compass = IntegratedCompass(config)
        with pytest.raises(ConfigurationError, match="no pulses"):
            compass.measure_heading(0.0)


class TestCounterFailures:
    def test_narrow_counter_overflows_loudly(self):
        config = CompassConfig(
            counter=CounterConfig(width_bits=8, strict_overflow=True),
            schedule=MeasurementSchedule(count_periods=8),
        )
        compass = IntegratedCompass(config)
        with pytest.raises(ConfigurationError, match="overflow"):
            compass.measure_heading(0.5)

    def test_wrapping_counter_never_silently_wrong(self):
        config = CompassConfig(
            counter=CounterConfig(width_bits=8, strict_overflow=False),
        )
        compass = IntegratedCompass(config)
        # Either the wrapped counts land below the weak-field trust
        # threshold (ProtocolError), or the raw result carries the
        # overflow flag for the control logic — never a quiet bad heading.
        try:
            compass.measure_heading(0.5)
        except ProtocolError:
            return
        assert compass.back_end.last_result.x_result.overflowed


class TestFieldFailures:
    def test_zero_field_raises_protocol_error(self):
        compass = IntegratedCompass()
        with pytest.raises((ProtocolError, ConfigurationError)):
            compass.measure_components(0.0, 0.0)

    def test_field_beyond_measurable_range(self):
        # 300 A/m (≈ 3.8 G, a nearby magnet) exceeds Ha: the pulse pair
        # degenerates.  The system must not return a plausible heading
        # silently — it either errors or the counts rail to full scale.
        compass = IntegratedCompass()
        try:
            m = compass.measure_components(300.0, 0.0)
        except (ConfigurationError, ProtocolError):
            return
        full_scale = compass.count_full_scale()
        assert abs(m.x_count) > 0.9 * full_scale


class TestConfigurationSanity:
    def test_zero_cordic_iterations_rejected(self):
        with pytest.raises(ConfigurationError):
            IntegratedCompass(CompassConfig(cordic_iterations=0))

    def test_degenerate_sampling_rejected(self):
        with pytest.raises(ConfigurationError):
            IntegratedCompass(CompassConfig(samples_per_period=4)).measure_heading(0.0)


def _registered_measurement_cases():
    """(fault, severity) pairs for every measurement-probed fault."""
    return [
        pytest.param(spec, severity, id=f"{spec.name}@{severity:g}")
        for spec in registered_faults()
        if spec.probe == "measurement"
        for severity in spec.severities
    ]


def _registered_scan_cases():
    return [
        pytest.param(spec, severity, id=f"{spec.name}@{severity:g}")
        for spec in registered_faults()
        if spec.probe == "scan"
        for severity in spec.severities
    ]


class TestRegisteredFaultPopulation:
    """Every fault in the registry honours its declared outcome contract.

    This is the extensible half of this module: registering a new fault
    in :mod:`repro.faults.model` automatically adds it here, and the
    invariant enforced for every (fault, severity, heading) cell is the
    campaign's core guarantee — *no silent-wrong headings*.
    """

    HEADINGS = (45.0, 222.25)

    @pytest.mark.parametrize("spec,severity", _registered_measurement_cases())
    def test_scalar_outcome_conforms(self, spec, severity):
        campaign = FaultCampaign(headings_deg=self.HEADINGS, paths=("scalar",))
        cells = campaign._run_scalar(spec, severity)
        assert cells, "campaign produced no cells"
        for cell in cells:
            assert cell.outcome is not Outcome.SILENT_WRONG, cell
            assert cell.conforms, (cell.outcome, spec.allowed_outcomes(severity))

    @pytest.mark.parametrize("spec,severity", _registered_measurement_cases())
    def test_batch_outcome_conforms(self, spec, severity):
        campaign = FaultCampaign(headings_deg=self.HEADINGS, paths=("batch",))
        cells = campaign._run_batch(spec, severity)
        assert cells, "campaign produced no cells"
        for cell in cells:
            assert cell.outcome is not Outcome.SILENT_WRONG, cell
            assert cell.conforms, (cell.outcome, spec.allowed_outcomes(severity))

    @pytest.mark.parametrize("spec,severity", _registered_scan_cases())
    def test_scan_outcome_conforms(self, spec, severity):
        campaign = FaultCampaign(headings_deg=self.HEADINGS)
        cells = campaign._run_scan(spec, severity)
        for cell in cells:
            assert cell.outcome is Outcome.DETECTED, cell

    @pytest.mark.parametrize("spec,severity", _registered_measurement_cases())
    def test_injection_is_reversible(self, spec, severity):
        """After the context exits the compass measures bit-identically."""
        compass = IntegratedCompass()
        before = compass.measure_heading(45.0)
        with REGISTRY.inject(spec.name, compass, severity):
            pass  # inject and immediately revert
        after = compass.measure_heading(45.0)
        assert after.heading_deg == before.heading_deg
        assert after.x_count == before.x_count
        assert after.y_count == before.y_count

    def test_registry_covers_every_layer(self):
        layers = {spec.layer for spec in registered_faults()}
        assert layers == {
            "sensor", "analog", "digital", "scan", "environment", "array",
        }

    def test_select_defaults_to_every_fault_of_the_probe_kind(self):
        for probe in ("measurement", "scan", "scenario", "array"):
            assert REGISTRY.select(probe) == [
                spec.name for spec in registered_faults()
                if spec.probe == probe
            ]

    def test_select_keeps_named_faults_of_the_probe_kind(self):
        names = REGISTRY.select("measurement")[:2][::-1]
        assert REGISTRY.select("measurement", names) == names


def _scalar_chain(compass):
    """One x-channel measurement row: the faulted pickup from the sensor
    kernel, then the amplifier's scalar view."""
    front_end = compass.front_end
    sensor = compass.sensors.sensor_x
    front_end.excitation.select_channel("x")
    current = front_end.excitation.current(
        TimeGrid(4), "x", sensor.params.series_resistance
    )
    pickup = Trace(current.t, sensor.simulate_batch(current, np.array([20.0]))[0])
    return pickup, front_end.amplifier.amplify(pickup)


class TestWrapperFaultsReachScalarViews:
    """The faults that once wrapped a batch kernel now patch a value that
    kernel reads (``pickup_scales``, ``output_offset``, ``stuck``); the
    scalar methods are one-row views of those kernels, so they see it
    too, and the fast path reads the same value instead of refusing."""

    @staticmethod
    def _no_pulses(compass, clean, severity):
        _, amplified = _scalar_chain(compass)
        with pytest.raises(ConfigurationError, match="no pulses"):
            compass.front_end.detector.detect(amplified)

    @staticmethod
    def _offset(compass, clean, severity):
        pickup, amplified = _scalar_chain(compass)
        clean_amplified = clean.front_end.amplifier.amplify(pickup)
        offset_out = severity * compass.front_end.amplifier.gain
        assert np.array_equal(amplified.v, clean_amplified.v + offset_out)

    @staticmethod
    def _stuck(compass, clean, severity):
        _, amplified = _scalar_chain(compass)
        positive = compass.front_end.detector.comparator_positive
        assert clean.front_end.detector.comparator_positive.falling_edges(
            amplified
        ).size > 0
        assert positive.falling_edges(amplified).size == 0

    @pytest.mark.parametrize(
        "name,severity,probe",
        [
            ("sensor.shorted_pickup_coil", 1.0, "_no_pulses"),
            ("sensor.axis_gain_mismatch", 0.9, "_no_pulses"),
            ("analog.amplifier_offset", 2e-3, "_offset"),
            ("analog.stuck_comparator", 1.0, "_stuck"),
        ],
    )
    def test_fault_is_armed_and_visible(self, name, severity, probe):
        compass, clean = IntegratedCompass(), IntegratedCompass()
        sensor = compass.sensors.sensor_x
        assert fastpath.ineligibility_reason(compass.front_end, sensor) is None
        with REGISTRY.inject(name, compass, severity):
            assert compass.armed_faults
            assert fastpath.ineligibility_reason(compass.front_end, sensor) is None
            getattr(self, probe)(compass, clean, severity)
        assert fastpath.ineligibility_reason(compass.front_end, sensor) is None

    def test_hysteretic_pickup_is_scaled_exactly_once(self):
        config = dataclasses.replace(CompassConfig(), core_model="jiles-atherton")
        compass = IntegratedCompass(config)
        sensor = compass.sensors.sensor_x
        current = compass.front_end.excitation.current(
            TimeGrid(2), "x", sensor.params.series_resistance
        )
        fields = np.array([-15.0, 20.0])
        with REGISTRY.inject("sensor.shorted_pickup_coil", compass, 0.3):
            faulted = sensor.simulate_batch(current, fields)
            probe = sensor.simulate(current, 20.0).pickup_voltage.v
        clean = np.stack(
            [sensor.simulate(current, h).pickup_voltage.v for h in fields]
        )
        assert np.array_equal(faulted, clean * (1.0 - 0.3))
        # ``simulate`` stays the unfaulted full-waveform probe.
        assert np.array_equal(probe, clean[1])
