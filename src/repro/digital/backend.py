"""The complete digital back-end of Figure 1 (§4).

Counter + CORDIC + control logic + display + watch, composed exactly as
the block diagram shows: the back-end consumes the two detector outputs
(one per multiplexed channel slot), produces the integer pair (x, y), runs
the arctangent, and hands the result to the display driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..analog.mux import MeasurementSchedule
from ..analog.pulse_detector import DetectorOutput
from ..errors import ProtocolError, ReproError
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
from .fixed_point import from_fixed
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
        #: The result of the row last computed or served; the display
        #: shows its heading.
        self.last_result: Optional[BackEndResult] = None
        #: Set by the owning compass; DISABLED keeps this path span-free.
        self.observer: Observer = DISABLED

    def process_measurement(
        self,
        detectors_x: Sequence[DetectorOutput],
        detectors_y: Sequence[DetectorOutput],
        window_x: Optional[Tuple[float, float]] = None,
        window_y: Optional[Tuple[float, float]] = None,
    ) -> Tuple[List[BackEndResult], Optional[ReproError]]:
        """Count both channels and compute the heading of every row.

        The counter integrates each channel over its (settled) window;
        the CORDIC turns each integer pair into a heading.  Both run
        over all rows at once, with one range check each per call.
        Returns the results of the rows before the first row that fails
        (a counter overflow, a pair below :attr:`MINIMUM_COUNT`, a
        CORDIC register overflow) and that row's error, ``None`` when
        every row passes; the caller raises it after serving the rows
        before it.  :attr:`last_result` becomes the last computed row.

        The controller walk and the per-row spans belong to serving a
        row (:meth:`serve`).
        """
        observer = self.observer
        record_steps = observer.tracer is not None or observer.recorder is not None
        counter = self.counter
        counter.enable()
        x_results, x_error = counter.count_rows(detectors_x, window_x)
        y_results, y_error = counter.count_rows(detectors_y, window_y)
        counter.disable()

        # Within a row the x count comes first, then y, the trust
        # threshold and the CORDIC.
        error = x_error if len(x_results) <= len(y_results) else y_error
        pairs = []
        for x_result, y_result in zip(x_results, y_results):
            if max(abs(x_result.count), abs(y_result.count)) < self.MINIMUM_COUNT:
                error = ProtocolError(
                    f"field too weak: counter pair ({x_result.count}, "
                    f"{y_result.count}) below the {self.MINIMUM_COUNT}-count "
                    "trust threshold — no heading computed"
                )
                break
            pairs.append((abs(y_result.count), abs(x_result.count)))
        arctans, cordic_error = self.cordic.arctan_rows(pairs, record_steps)
        if cordic_error is not None:
            error = cordic_error

        fold = self.cordic.fold_quadrant
        results = [
            BackEndResult(
                x_count=x_result.count,
                y_count=y_result.count,
                heading_deg=fold(arctan.angle_deg, -y_result.count, x_result.count),
                cordic_cycles=arctan.cycles,
                x_result=x_result,
                y_result=y_result,
                cordic_steps=arctan.steps,
            )
            for arctan, x_result, y_result in zip(arctans, x_results, y_results)
        ]
        if results:
            self.last_result = results[-1]
        return results, error

    def serve(self, result: Optional[BackEndResult]) -> None:
        """Account one row of a measurement call as the compass serves it.

        The controller walks one measurement, the row's span tree
        (``backend`` over ``counter.x``, ``counter.y`` and ``cordic``
        with its iterations) opens under the caller's span, and the row
        becomes :attr:`last_result`.  ``None`` is a row the datapath
        failed on: it walks, but has no counts or heading to show.

        The spans are retrospective, and each says so with the fixed
        attribute ``retrospective=True``: the datapath ran for every row
        of the call at once, so they carry its structure (counts, ticks,
        the CORDIC residuals that sensitise ROM and datapath bugs), not
        its wall time.
        """
        observer = self.observer
        with observer.span(STAGE_BACKEND, retrospective=True):
            self.controller.run_measurement()
            if result is not None and observer.tracer is not None:
                for channel, count in (("x", result.x_result), ("y", result.y_result)):
                    with observer.span(
                        f"{STAGE_COUNTER}.{channel}",
                        channel=channel,
                        retrospective=True,
                    ) as span:
                        span.set(count=count.count, ticks=count.total_ticks)
                with observer.span(STAGE_CORDIC, retrospective=True) as span:
                    span.set(
                        iterations=result.cordic_cycles,
                        angle_deg=from_fixed(
                            result.cordic_steps[-1].angle_fixed,
                            self.cordic.angle_frac_bits,
                        ),
                        heading_deg=result.heading_deg,
                    )
                    for step in result.cordic_steps:
                        with observer.span(
                            f"{STAGE_CORDIC_ITER}.{step.iteration}",
                            retrospective=True,
                        ) as it:
                            it.set(
                                shift=step.shift,
                                rotated=step.rotated,
                                residual_y=step.y_reg,
                                x_reg=step.x_reg,
                                angle_fixed=step.angle_fixed,
                            )
        if result is not None:
            self.last_result = result

    def render_display(self) -> DisplayFrame:
        """Render the LCD with the latest heading (or the time)."""
        heading = self.last_result.heading_deg if self.last_result else 0.0
        return self.display.render(
            heading_deg=heading,
            hours=self.watch.time.hours,
            minutes=self.watch.time.minutes,
            blink_phase=self.watch.blink_phase,
        )
