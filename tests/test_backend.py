"""Tests for the composed digital back-end."""

import pytest

from repro.analog.pulse_detector import DetectorOutput, LogicEdge
from repro.digital.backend import DigitalBackEnd
from repro.errors import ProtocolError, only_row


def square_detector(duty, period=125e-6, n_periods=8, t0=0.0):
    """Synthesise a latch waveform with a given duty cycle."""
    edges = []
    for k in range(n_periods):
        start = t0 + k * period
        edges.append(LogicEdge(start + (1.0 - duty) * period / 2.0, 1))
        edges.append(LogicEdge(start + (1.0 + duty) * period / 2.0, 0))
    return DetectorOutput(
        edges=tuple(edges),
        initial_value=0,
        window=(t0, t0 + n_periods * period),
    )


def process_one(backend, detector_x, detector_y, **windows):
    """The back end over one row: its result, or its error raised."""
    return only_row(backend.process_measurement([detector_x], [detector_y], **windows))


class TestProcessMeasurement:
    def test_heading_from_duty_pair(self):
        backend = DigitalBackEnd()
        # duty 0.75 on x (positive h_x), 0.5 on y (zero h_y) → heading 0.
        result = process_one(
            backend, square_detector(0.75), square_detector(0.5)
        )
        assert result.heading_deg == pytest.approx(0.0, abs=1.0) or \
            result.heading_deg == pytest.approx(360.0, abs=1.0)
        assert result.x_count > 0
        assert abs(result.y_count) <= 2

    def test_45_degree_heading(self):
        backend = DigitalBackEnd()
        # Equal positive x and negative y components.
        result = process_one(
            backend, square_detector(0.7), square_detector(0.3)
        )
        assert result.heading_deg == pytest.approx(45.0, abs=1.0)

    def test_cordic_cycles_reported(self):
        backend = DigitalBackEnd()
        result = process_one(
            backend, square_detector(0.7), square_detector(0.4)
        )
        assert result.cordic_cycles == 8

    def test_zero_field_raises(self):
        backend = DigitalBackEnd()
        # Clock-aligned 50 % duty: exactly equal high/low tick counts, so
        # both counters integrate to exactly zero.
        tick = 1.0 / backend.counter.config.clock_hz
        aligned = square_detector(0.5, period=512 * tick, n_periods=8)
        with pytest.raises(ProtocolError, match="too weak"):
            process_one(backend, aligned, aligned)

    def test_counter_gated_after_measurement(self):
        backend = DigitalBackEnd()
        process_one(backend, square_detector(0.7), square_detector(0.4))
        assert not backend.counter.enabled  # §4 power gating

    def test_explicit_windows(self):
        backend = DigitalBackEnd()
        det = square_detector(0.75, n_periods=10)
        # Count only the last 8 periods.
        result = process_one(
            backend, det, square_detector(0.5, n_periods=10),
            window_x=(2 * 125e-6, 10 * 125e-6),
            window_y=(2 * 125e-6, 10 * 125e-6),
        )
        assert result.x_result.total_ticks == pytest.approx(4194, abs=2)


class TestDisplayIntegration:
    def test_display_shows_last_heading(self):
        backend = DigitalBackEnd()
        process_one(backend, square_detector(0.7), square_detector(0.3))
        frame = backend.render_display()
        # 45° sits on the N/E boundary; the driver tie-breaks eastward.
        assert frame.text == "E045"

    def test_display_before_measurement_shows_zero(self):
        backend = DigitalBackEnd()
        assert backend.render_display().text == "N000"

    def test_time_mode_uses_watch(self):
        from repro.digital.display import DisplayMode

        backend = DigitalBackEnd()
        backend.watch.set_time(9, 41)
        backend.display.select_mode(DisplayMode.TIME)
        assert backend.render_display().text == "0941"
