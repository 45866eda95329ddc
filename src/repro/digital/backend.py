"""The complete digital back-end of Figure 1 (§4).

Counter + CORDIC + control logic + display + watch, composed exactly as
the block diagram shows: the back-end consumes the two detector outputs
(one per multiplexed channel slot), produces the integer pair (x, y), runs
the arctangent, and hands the result to the display driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..analog.mux import MeasurementSchedule
from ..analog.pulse_detector import DetectorOutput
from ..errors import ProtocolError
from ..observe import DISABLED, Observer
from ..observe.trace import (
    STAGE_BACKEND,
    STAGE_CORDIC,
    STAGE_CORDIC_ITER,
    STAGE_COUNTER,
)
from ..units import CORDIC_ITERATIONS, EXCITATION_FREQUENCY_HZ
from .control import CompassController
from .cordic import CordicArctan, CordicStep
from .counter import CounterConfig, CountResult, UpDownCounter
from .display import DisplayDriver, DisplayFrame
from .watch import WatchTimekeeper


@dataclass(frozen=True)
class BackEndResult:
    """One complete digital measurement."""

    x_count: int
    y_count: int
    heading_deg: float
    cordic_cycles: int
    x_result: CountResult
    y_result: CountResult
    #: Per-iteration CORDIC state; populated only when a tracer or
    #: replay recorder asked the datapath to record its steps.
    cordic_steps: Tuple[CordicStep, ...] = ()


class DigitalBackEnd:
    """Pulse count + arctan + control + watch/display (Figure 1 right)."""

    #: Minimum counter magnitude (on the larger axis) for a heading to be
    #: trusted: below this the counts are dominated by the ±1 window
    #: quantisation and the arctangent would be noise.  16 counts is
    #: ~0.4 % of the default 8-period full scale (≈ 0.3 µT) — far below
    #: any terrestrial operating point.
    MINIMUM_COUNT = 16

    def __init__(
        self,
        counter_config: CounterConfig = CounterConfig(),
        cordic_iterations: int = CORDIC_ITERATIONS,
        schedule: MeasurementSchedule = MeasurementSchedule(),
        excitation_frequency_hz: Optional[float] = None,
    ):
        self.counter = UpDownCounter(counter_config)
        self.cordic = CordicArctan(iterations=cordic_iterations)
        # The sequencer is clocked off the excitation oscillator (a
        # comparator on the triangle wave), so its state durations track
        # the *actual* RC-drifted frequency, not the design constant.
        # That drift is what makes the measurement period usable as an
        # on-chip thermometer (repro.scenario's oscillator cross-check).
        self.controller = CompassController(
            schedule=schedule,
            excitation_frequency_hz=(
                EXCITATION_FREQUENCY_HZ
                if excitation_frequency_hz is None
                else excitation_frequency_hz
            ),
            cordic_iterations=cordic_iterations,
            clock_hz=counter_config.clock_hz,
        )
        self.display = DisplayDriver()
        self.watch = WatchTimekeeper(crystal_hz=counter_config.clock_hz)
        self.schedule = schedule
        self._last_result: Optional[BackEndResult] = None
        #: Set by the owning compass; DISABLED keeps this path span-free.
        self.observer: Observer = DISABLED

    def process_measurement(
        self,
        detector_x: DetectorOutput,
        detector_y: DetectorOutput,
        window_x: Optional[Tuple[float, float]] = None,
        window_y: Optional[Tuple[float, float]] = None,
    ) -> BackEndResult:
        """Count both channels and compute the heading.

        The controller sequences the power enables; the counter integrates
        each channel over its (settled) window; the CORDIC turns the
        integer pair into a heading.
        """
        observer = self.observer
        tracing = observer.tracer is not None
        record_steps = tracing or observer.recorder is not None
        with observer.span(STAGE_BACKEND):
            self.controller.run_measurement()
            self.counter.enable()
            with observer.span(f"{STAGE_COUNTER}.x", channel="x") as span_x:
                x_result = self.counter.count_window(detector_x, window_x)
                span_x.set(count=x_result.count, ticks=x_result.total_ticks)
            with observer.span(f"{STAGE_COUNTER}.y", channel="y") as span_y:
                y_result = self.counter.count_window(detector_y, window_y)
                span_y.set(count=y_result.count, ticks=y_result.total_ticks)
            self.counter.disable()

            if max(abs(x_result.count), abs(y_result.count)) < self.MINIMUM_COUNT:
                raise ProtocolError(
                    f"field too weak: counter pair ({x_result.count}, "
                    f"{y_result.count}) below the {self.MINIMUM_COUNT}-count "
                    "trust threshold — no heading computed"
                )
            with observer.span(STAGE_CORDIC) as cordic_span:
                cordic_result = self.cordic.arctan_first_quadrant(
                    abs(-y_result.count), abs(x_result.count),
                    record_steps=record_steps,
                )
                # heading_degrees, without running the datapath again.
                heading = self.cordic.fold_quadrant(
                    cordic_result.angle_deg, -y_result.count, x_result.count
                )
                cordic_span.set(
                    iterations=cordic_result.cycles,
                    angle_deg=cordic_result.angle_deg,
                    heading_deg=heading,
                )
                for step in cordic_result.steps:
                    # Retrospective per-iteration spans: the datapath is
                    # combinational, so structure (not wall time) is the
                    # information — residuals sensitise ROM/datapath bugs.
                    with observer.span(
                        f"{STAGE_CORDIC_ITER}.{step.iteration}"
                    ) as it:
                        it.set(
                            shift=step.shift,
                            rotated=step.rotated,
                            residual_y=step.y_reg,
                            x_reg=step.x_reg,
                            angle_fixed=step.angle_fixed,
                        )

        result = BackEndResult(
            x_count=x_result.count,
            y_count=y_result.count,
            heading_deg=heading,
            cordic_cycles=cordic_result.cycles,
            x_result=x_result,
            y_result=y_result,
            cordic_steps=cordic_result.steps,
        )
        self._last_result = result
        return result

    @property
    def last_result(self) -> Optional[BackEndResult]:
        return self._last_result

    def render_display(self) -> DisplayFrame:
        """Render the LCD with the latest heading (or the time)."""
        heading = self._last_result.heading_deg if self._last_result else 0.0
        return self.display.render(
            heading_deg=heading,
            hours=self.watch.time.hours,
            minutes=self.watch.time.minutes,
            blink_phase=self.watch.blink_phase,
        )
