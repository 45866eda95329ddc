"""Tests for the pulse-position detector (§3.2)."""

import numpy as np
import pytest

from repro.analog.pulse_detector import (
    DetectorOutput,
    DetectorParameters,
    LogicEdge,
    PulsePositionDetector,
)
from repro.errors import ConfigurationError
from repro.simulation.signals import Trace


def pulse_train(
    positive_times, negative_times, duration=1e-3, n=20000, width=10e-6, amp=1.0
):
    """Synthesise a pickup-like waveform with gaussian pulses."""
    t = np.linspace(0.0, duration, n)
    v = np.zeros_like(t)
    for tp in positive_times:
        v += amp * np.exp(-(((t - tp) / width) ** 2))
    for tn in negative_times:
        v -= amp * np.exp(-(((t - tn) / width) ** 2))
    return Trace(t, v)


class TestDetectorOutput:
    def test_value_at_follows_edges(self):
        out = DetectorOutput(
            edges=(LogicEdge(1e-4, 1), LogicEdge(5e-4, 0)),
            initial_value=0,
            window=(0.0, 1e-3),
        )
        assert out.value_at(0.0) == 0
        assert out.value_at(2e-4) == 1
        assert out.value_at(9e-4) == 0

    def test_duty_cycle_from_edges(self):
        out = DetectorOutput(
            edges=(LogicEdge(2e-4, 1), LogicEdge(7e-4, 0)),
            initial_value=0,
            window=(0.0, 1e-3),
        )
        assert out.duty_cycle() == pytest.approx(0.5)

    def test_duty_cycle_initial_high(self):
        out = DetectorOutput(
            edges=(LogicEdge(5e-4, 0),), initial_value=1, window=(0.0, 1e-3)
        )
        assert out.duty_cycle() == pytest.approx(0.5)

    def test_duty_cycle_over_a_sub_window(self):
        # High 1–3 and 5–9 (×1e-4 s); the sub-window 2–8 starts high,
        # drops at 3, rises at 5 and ends before the reset at 9.
        out = DetectorOutput(
            edges=(
                LogicEdge(1e-4, 1),
                LogicEdge(3e-4, 0),
                LogicEdge(5e-4, 1),
                LogicEdge(9e-4, 0),
            ),
            initial_value=0,
            window=(0.0, 1e-3),
        )
        assert out.duty_cycle((2e-4, 8e-4)) == pytest.approx(4.0 / 6.0)
        assert out.duty_cycle() == pytest.approx(0.6)
        assert out.duty_cycle() == out.duty_cycle(out.window)

    def test_empty_window_rejected(self):
        out = DetectorOutput(edges=(), initial_value=0, window=(1.0, 1.0))
        with pytest.raises(ConfigurationError):
            out.duty_cycle()
        with pytest.raises(ConfigurationError):
            DetectorOutput(
                edges=(), initial_value=0, window=(0.0, 1.0)
            ).duty_cycle((0.5, 0.5))

    def test_as_trace_renders_levels(self):
        out = DetectorOutput(
            edges=(LogicEdge(5e-4, 1),), initial_value=0, window=(0.0, 1e-3)
        )
        tr = out.as_trace(n_samples=100)
        assert tr.v[0] == 0.0
        assert tr.v[-1] == 1.0


class TestDetection:
    def test_set_after_positive_reset_after_negative(self):
        # §3.2: 1 after the positive pulse's falling edge, 0 after the
        # negative pulse's rising (recovering) edge.
        tr = pulse_train([0.2e-3], [0.7e-3])
        out = PulsePositionDetector(DetectorParameters(threshold=0.3)).detect(tr)
        assert out.value_at(0.4e-3) == 1
        assert out.value_at(0.9e-3) == 0

    def test_edges_sit_on_pulse_trailing_edges(self):
        tr = pulse_train([0.2e-3], [0.7e-3], width=10e-6)
        params = DetectorParameters(threshold=0.3, comparator_delay=0.0)
        out = PulsePositionDetector(params).detect(tr)
        set_edge = out.edges[0]
        reset_edge = out.edges[1]
        assert set_edge.value == 1
        # Trailing edge of a gaussian at threshold 0.3: t0 + w·sqrt(ln(1/0.3)).
        expected_offset = 10e-6 * np.sqrt(np.log(1.0 / 0.3))
        assert set_edge.time == pytest.approx(0.2e-3 + expected_offset, abs=1e-6)
        assert reset_edge.time == pytest.approx(0.7e-3 + expected_offset, abs=1e-6)

    def test_duty_equals_pulse_centre_spacing(self):
        # Using trailing edges of both pulses makes duty width-independent.
        for width in (5e-6, 20e-6):
            tr = pulse_train([0.2e-3, 1.2e-3], [0.7e-3, 1.7e-3], duration=2e-3, width=width)
            out = PulsePositionDetector(DetectorParameters(threshold=0.3)).detect(tr)
            duty = out.duty_cycle()
            assert duty == pytest.approx(0.5, abs=0.02)

    def test_no_pulses_raises(self):
        t = np.linspace(0, 1e-3, 1000)
        flat = Trace(t, np.zeros_like(t))
        with pytest.raises(ConfigurationError, match="no pulses"):
            PulsePositionDetector().detect(flat)

    def test_repeated_sets_are_idempotent(self):
        # Two positive pulses in a row (field beyond range) must not
        # produce two consecutive set edges.
        tr = pulse_train([0.2e-3, 0.4e-3], [0.8e-3])
        out = PulsePositionDetector(DetectorParameters(threshold=0.3)).detect(tr)
        values = [e.value for e in out.edges]
        assert all(a != b for a, b in zip(values, values[1:]))

    def test_initial_value_inferred(self):
        # First event is a reset → the latch must have started high.
        tr = pulse_train([0.7e-3], [0.2e-3])
        out = PulsePositionDetector(DetectorParameters(threshold=0.3)).detect(tr)
        assert out.initial_value == 1

    def test_comparator_delay_is_common_mode(self):
        tr = pulse_train([0.2e-3, 1.2e-3], [0.7e-3, 1.7e-3], duration=2e-3)
        fast = PulsePositionDetector(
            DetectorParameters(threshold=0.3, comparator_delay=0.0)
        ).detect(tr)
        slow = PulsePositionDetector(
            DetectorParameters(threshold=0.3, comparator_delay=1e-6)
        ).detect(tr)
        assert slow.duty_cycle() == pytest.approx(fast.duty_cycle(), abs=1e-3)

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            DetectorParameters(threshold=0.0)

    def test_hardware_cost_has_no_adc(self):
        cost = PulsePositionDetector.hardware_cost()
        assert cost["needs_adc"] is False
