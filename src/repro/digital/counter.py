"""The high-speed up-down counter of the digital section (§4).

"The pulse count part contains a high-frequency (4.194304 MHz) up-down
counter, which transforms the output of the pulse detector into two
integer values x and y, each indicating the field component of the x- and
y-sensor."

Operating principle: the counter samples the pulse-position latch every
clock tick, counting **up while the latch is high and down while it is
low**.  Over a window of ``n`` ticks containing a duty cycle ``D`` the
count converges to ``n·(2·D − 1)``; with the triangular excitation duty
``D = 1/2 + H_ext/(2·Ha)`` the count is ``n·H_ext/Ha`` — a signed integer
directly proportional to the field component, with the no-field 50 % duty
exactly cancelled.

The model is exact rather than tick-looped: the number of clock ticks that
fall inside each latch-high interval is a floor-difference, so counts are
bit-identical to sampling 4.2 million times per second without doing so.
The detector's :class:`~repro.analog.pulse_detector.EdgeBlock` computes
those floor-differences for all its rows in one pass per window;
:meth:`UpDownCounter.count_rows` reads every row of a measurement call
from it, and :meth:`UpDownCounter.count_window` is its one-row form.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..analog.pulse_detector import DetectorOutput
from ..errors import ConfigurationError, ReproError, only_row
from ..units import COUNTER_CLOCK_HZ
from .fixed_point import fits_signed, signed_max, signed_min, wrap_signed


@dataclass(frozen=True)
class CounterConfig:
    """Up-down counter hardware parameters.

    Attributes
    ----------
    clock_hz:
        Sampling clock [Hz]; the paper's 4.194304 MHz (= 2^22).
    width_bits:
        Register width; 16 bits comfortably holds the ±4200-count swing of
        an 8-period measurement.
    strict_overflow:
        If true, overflow raises; if false, the register wraps like the
        silicon would.
    """

    clock_hz: float = COUNTER_CLOCK_HZ
    width_bits: int = 16
    strict_overflow: bool = True

    def __post_init__(self) -> None:
        if self.clock_hz <= 0.0:
            raise ConfigurationError("clock frequency must be positive")
        if not 4 <= self.width_bits <= 48:
            raise ConfigurationError("counter width must be 4..48 bits")

    @property
    def tick(self) -> float:
        """Clock period [s]."""
        return 1.0 / self.clock_hz


@dataclass(frozen=True)
class CountResult:
    """Outcome of one counting window."""

    count: int
    total_ticks: int
    high_ticks: int
    overflowed: bool

    @property
    def duty_cycle(self) -> float:
        """Duty cycle as the counter saw it (tick-quantised)."""
        if self.total_ticks == 0:
            raise ConfigurationError("empty counting window")
        return self.high_ticks / self.total_ticks


class UpDownCounter:
    """Bit-accurate model of the 4.194304 MHz up-down counter."""

    def __init__(self, config: CounterConfig = CounterConfig()):
        self.config = config
        self._enabled = True

    # -- power gating (§4) ---------------------------------------------------

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    @property
    def enabled(self) -> bool:
        return self._enabled

    # -- counting ----------------------------------------------------------------

    def _ticks_in(self, t_start: float, t_end: float, t_origin: float) -> int:
        """Number of clock ticks in ``[t_start, t_end)``.

        Ticks occur at ``t_origin + k·T_clk``; the count is an exact
        floor-difference, avoiding a 4.2 MHz sample loop.
        """
        if t_end <= t_start:
            return 0
        tick = self.config.tick
        first = math.ceil((t_start - t_origin) / tick - 1e-12)
        last = math.ceil((t_end - t_origin) / tick - 1e-12)
        return max(0, last - first)

    def count_rows(
        self,
        detectors: Sequence[DetectorOutput],
        window: Optional[Tuple[float, float]] = None,
    ) -> Tuple[List[CountResult], Optional[ReproError]]:
        """Integrate each detector output over a window, in row order.

        Parameters
        ----------
        detectors:
            The pulse-position latch signals, one per row.
        window:
            (start, end) [s]; defaults to each detector's own window.
            The counter is assumed clock-aligned to the window start
            (the control logic releases the counter reset
            synchronously).

        Returns the counts of the rows before the first row that cannot
        be counted, and that row's error (``None`` when every row
        counts).  A strict counter fails a row whose count overflows the
        register; the range is checked once for the whole call.
        """
        if not self._enabled:
            raise ConfigurationError("counter is powered down")
        tick = self.config.tick
        width = self.config.width_bits
        results: List[CountResult] = []
        block = None
        for detector in detectors:
            if detector.block is not block:
                block = detector.block
                t_start, t_end = block.window if window is None else window
                if t_end <= t_start:
                    return results, ConfigurationError("empty counting window")
                total_ticks = self._ticks_in(t_start, t_end, t_start)
                high = block.high_ticks((t_start, t_end), tick)
            high_ticks = int(high[detector.row])
            results.append(
                CountResult(
                    count=2 * high_ticks - total_ticks,
                    total_ticks=total_ticks,
                    high_ticks=high_ticks,
                    overflowed=False,
                )
            )
        if results:
            counts = [result.count for result in results]
            if min(counts) < signed_min(width) or max(counts) > signed_max(width):
                return self._overflowed(results)
        return results, None

    def _overflowed(
        self, results: List[CountResult]
    ) -> Tuple[List[CountResult], Optional[ReproError]]:
        """The rows of a call that overflowed the register somewhere: a
        strict counter stops at the first overflowing row, a wrapping
        one wraps and flags each."""
        width = self.config.width_bits
        checked = []
        for result in results:
            if not fits_signed(result.count, width):
                if self.config.strict_overflow:
                    return checked, ConfigurationError(
                        f"counter overflow: {result.count} does not fit "
                        f"{width} bits"
                    )
                result = dataclasses.replace(
                    result, count=wrap_signed(result.count, width), overflowed=True
                )
            checked.append(result)
        return checked, None

    def count_window(
        self,
        detector: DetectorOutput,
        window: Optional[Tuple[float, float]] = None,
    ) -> CountResult:
        """Integrate one detector output over a window: a one-row
        :meth:`count_rows` that raises the row's error."""
        return only_row(self.count_rows((detector,), window))

    # -- analytic helpers ---------------------------------------------------------

    def expected_count(self, duty_cycle: float, window_seconds: float) -> float:
        """Ideal (unquantised) count for a duty cycle over a window."""
        if not 0.0 <= duty_cycle <= 1.0:
            raise ConfigurationError("duty cycle must be within [0, 1]")
        ticks = window_seconds * self.config.clock_hz
        return ticks * (2.0 * duty_cycle - 1.0)

    def count_resolution_ticks(self, window_seconds: float) -> int:
        """Total ticks in a window — the count's full-scale reference."""
        if window_seconds <= 0.0:
            raise ConfigurationError("window must be positive")
        return int(round(window_seconds * self.config.clock_hz))
