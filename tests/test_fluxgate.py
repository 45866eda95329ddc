"""Tests for the fluxgate sensor model against the pulse-position theory."""

import numpy as np
import pytest

from repro.analog.excitation import ExcitationSource
from repro.errors import ConfigurationError
from repro.sensors.fluxgate import FluxgateSensor
from repro.sensors.parameters import DISCRETE_MINIATURE, IDEAL_TARGET, MICROMACHINED_KAW95
from repro.simulation import scratch as workspace
from repro.simulation.engine import TimeGrid
from repro.simulation.signals import find_pulses
from repro.units import EXCITATION_CURRENT_PP

AMPLITUDE = EXCITATION_CURRENT_PP / 2.0


@pytest.fixture(scope="module")
def grid():
    return TimeGrid(n_periods=4)


@pytest.fixture(scope="module")
def current(grid):
    return ExcitationSource().current(grid, "x", IDEAL_TARGET.series_resistance)


class TestExcitationField:
    def test_field_scales_with_coil_constant(self, grid, current):
        sensor = FluxgateSensor(IDEAL_TARGET)
        field = sensor.excitation_field(current)
        expected_peak = IDEAL_TARGET.excitation_coil_constant * AMPLITUDE
        assert np.max(field.v) == pytest.approx(expected_peak, rel=1e-3)

    def test_field_is_symmetric(self, grid, current):
        sensor = FluxgateSensor(IDEAL_TARGET)
        field = sensor.excitation_field(current)
        assert abs(field.mean()) < 0.01 * np.max(np.abs(field.v))


class TestPickupPulses:
    def test_two_pulses_per_period_no_field(self, grid, current):
        sensor = FluxgateSensor(IDEAL_TARGET)
        waves = sensor.simulate(current, h_external=0.0)
        threshold = 0.5 * sensor.peak_pickup_voltage(AMPLITUDE, grid.frequency_hz)
        pulses = find_pulses(waves.pickup_voltage, threshold)
        # 4 periods → 4 positive + 4 negative transitions (edge periods
        # may clip one), alternating polarity.
        assert len(pulses) >= 6
        polarities = [p.polarity for p in pulses]
        assert all(a != b for a, b in zip(polarities, polarities[1:]))

    def test_pulse_peak_matches_analytic(self, grid, current):
        sensor = FluxgateSensor(IDEAL_TARGET)
        waves = sensor.simulate(current, h_external=0.0)
        predicted = sensor.peak_pickup_voltage(AMPLITUDE, grid.frequency_hz)
        assert np.max(waves.pickup_voltage.v) == pytest.approx(predicted, rel=0.02)

    def test_pulses_shift_with_external_field(self, grid, current):
        # Figure 3: the pulse pair moves apart/together under H_ext.
        sensor = FluxgateSensor(IDEAL_TARGET)
        threshold = 0.5 * sensor.peak_pickup_voltage(AMPLITUDE, grid.frequency_hz)
        no_field = find_pulses(sensor.simulate(current, 0.0).pickup_voltage, threshold)
        with_field = find_pulses(sensor.simulate(current, 20.0).pickup_voltage, threshold)
        t_no = [p.time for p in no_field if p.polarity > 0]
        t_with = [p.time for p in with_field if p.polarity > 0]
        shift = t_with[0] - t_no[0]
        # Rising-ramp crossing at H_exc = -H_ext happens *earlier* for
        # positive H_ext (less ramp needed): shift must be negative and
        # equal to H_ext / slew.
        h_amp = IDEAL_TARGET.excitation_coil_constant * AMPLITUDE
        slew = 4.0 * h_amp * grid.frequency_hz
        assert shift == pytest.approx(-20.0 / slew, rel=0.05)

    def test_kaw95_sensor_produces_no_pulses(self, grid, current):
        # §2.1.1: the measured device never saturates at this drive.
        sensor = FluxgateSensor(MICROMACHINED_KAW95)
        waves = sensor.simulate(current, 0.0)
        ideal = FluxgateSensor(IDEAL_TARGET)
        threshold = 0.5 * ideal.peak_pickup_voltage(AMPLITUDE, grid.frequency_hz)
        assert find_pulses(waves.pickup_voltage, threshold) == ()


class TestExcitationCoilVoltage:
    def test_impedance_drop_in_saturation(self, grid):
        # Figure 4: "Notice also the change in impedance of the excitation
        # coil, when saturation is reached."  In saturation the coil
        # voltage is nearly resistive; crossing zero field it carries the
        # extra inductive component.
        sensor = FluxgateSensor(DISCRETE_MINIATURE)
        current = ExcitationSource().current(
            grid, "x", DISCRETE_MINIATURE.series_resistance
        )
        waves = sensor.simulate(current, 0.0)
        resistive = current.scaled(DISCRETE_MINIATURE.series_resistance)
        excess = np.abs(waves.excitation_voltage.v - resistive.v)
        # The inductive excess is concentrated near the field zero
        # crossings and absent near the current peaks (saturation).
        h = waves.core_field.v
        hk = DISCRETE_MINIATURE.core.anisotropy_field
        near_zero = np.abs(h) < 0.2 * hk
        saturated = np.abs(h) > 1.8 * hk
        # >5× contrast: the tanh core keeps a small residual permeability
        # at 1.8·HK and the leakage inductance never saturates, so the
        # contrast is large but not infinite.
        assert excess[near_zero].max() > 5.0 * excess[saturated].max()

    def test_resistive_component_present(self, grid, current):
        sensor = FluxgateSensor(IDEAL_TARGET)
        waves = sensor.simulate(current, 0.0)
        # Correlation with i·R dominates the waveform.
        resistive = current.v * IDEAL_TARGET.series_resistance
        corr = np.corrcoef(waves.excitation_voltage.v, resistive)[0, 1]
        assert corr > 0.99


class TestAnalyticOracles:
    def test_expected_duty_cycle_zero_field(self):
        sensor = FluxgateSensor(IDEAL_TARGET)
        assert sensor.expected_duty_cycle(AMPLITUDE, 0.0) == pytest.approx(0.5)

    def test_expected_duty_cycle_linear(self):
        sensor = FluxgateSensor(IDEAL_TARGET)
        h_amp = IDEAL_TARGET.excitation_coil_constant * AMPLITUDE
        duty = sensor.expected_duty_cycle(AMPLITUDE, 10.0)
        assert duty == pytest.approx(0.5 + 10.0 / (2 * h_amp))

    def test_duty_cycle_requires_saturation(self):
        sensor = FluxgateSensor(MICROMACHINED_KAW95)
        with pytest.raises(ConfigurationError, match="does not saturate"):
            sensor.expected_duty_cycle(AMPLITUDE, 0.0)

    def test_field_from_duty_cycle_inverts(self):
        sensor = FluxgateSensor(IDEAL_TARGET)
        for h_ext in (-30.0, 0.0, 17.5):
            duty = sensor.expected_duty_cycle(AMPLITUDE, h_ext)
            assert sensor.field_from_duty_cycle(duty, AMPLITUDE) == pytest.approx(h_ext)

    def test_sensitivity_decreases_with_amplitude(self):
        sensor = FluxgateSensor(IDEAL_TARGET)
        assert sensor.sensitivity(AMPLITUDE) > sensor.sensitivity(2 * AMPLITUDE)

    def test_measurable_range(self):
        sensor = FluxgateSensor(IDEAL_TARGET)
        h_amp = IDEAL_TARGET.excitation_coil_constant * AMPLITUDE
        expected = h_amp - IDEAL_TARGET.core.anisotropy_field
        assert sensor.measurable_field_range(AMPLITUDE) == pytest.approx(expected)

    def test_measurable_range_zero_when_unsaturated(self):
        sensor = FluxgateSensor(MICROMACHINED_KAW95)
        assert sensor.measurable_field_range(AMPLITUDE) == 0.0


class TestSimulatedVsAnalyticDuty:
    @pytest.mark.parametrize("h_ext", [-25.0, -10.0, 0.0, 10.0, 25.0])
    def test_detected_duty_matches_theory(self, grid, current, h_ext):
        from repro.analog.comparator import PickupAmplifier
        from repro.analog.pulse_detector import PulsePositionDetector

        sensor = FluxgateSensor(IDEAL_TARGET)
        waves = sensor.simulate(current, h_ext)
        amplified = PickupAmplifier().amplify(waves.pickup_voltage)
        duty = PulsePositionDetector().detect(amplified).duty_cycle()
        expected = sensor.expected_duty_cycle(AMPLITUDE, h_ext)
        assert duty == pytest.approx(expected, abs=2e-3)

    def test_hysteretic_core_biases_timing(self, grid, current):
        # Ablation: a coercive core shifts both pulses the same way, so
        # the duty cycle stays near 0.5 at zero field (the differential
        # measurement rejects the common-mode hysteresis shift).
        from repro.analog.comparator import PickupAmplifier
        from repro.analog.pulse_detector import PulsePositionDetector

        sensor = FluxgateSensor(IDEAL_TARGET, core_model="jiles-atherton")
        waves = sensor.simulate(current, 0.0)
        amplified = PickupAmplifier().amplify(waves.pickup_voltage)
        duty = PulsePositionDetector().detect(amplified).duty_cycle()
        assert duty == pytest.approx(0.5, abs=0.02)


class TestBatchScratchBound:
    """A sensor keeps its batch buffers only in the process-wide, bounded
    workspace (two buffers per shape)."""

    @pytest.fixture(autouse=True)
    def _empty(self):
        workspace._held.cache_clear()

    def test_scratch_bounded_lru(self, current):
        sensor = FluxgateSensor(IDEAL_TARGET)
        for rows in range(2, 2 + workspace.SCRATCH_ENTRIES):
            sensor.simulate_batch(current, np.zeros(rows))
        assert workspace._held.cache_info().currsize == workspace.SCRATCH_ENTRIES
        misses = workspace._held.cache_info().misses
        sensor.simulate_batch(current, np.zeros(rows))  # the newest was kept
        assert workspace._held.cache_info().misses == misses

    def test_one_row_call_keeps_nothing(self, current):
        sensor = FluxgateSensor(IDEAL_TARGET)
        sensor.simulate_batch(current, np.zeros(1))
        assert workspace._held.cache_info().currsize == 0

    def test_scratch_reuse_tracks_recency(self, current):
        # Two and three rows fill four entries, a refreshed two rows
        # becomes the newest, and just enough new shapes to overflow the
        # bound then evict three rows first.
        sensor = FluxgateSensor(IDEAL_TARGET)
        sensor.simulate_batch(current, np.zeros(2))
        sensor.simulate_batch(current, np.zeros(3))
        sensor.simulate_batch(current, np.zeros(2))
        for rows in range(4, 5 + (workspace.SCRATCH_ENTRIES - 4) // 2):
            sensor.simulate_batch(current, np.zeros(rows))
        misses = workspace._held.cache_info().misses
        sensor.simulate_batch(current, np.zeros(2))
        assert workspace._held.cache_info().misses == misses
        sensor.simulate_batch(current, np.zeros(3))
        assert workspace._held.cache_info().misses > misses
