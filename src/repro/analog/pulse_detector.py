"""The pulse-position detector (§3.2 of the paper).

"Their position in time with respect to each other is measured by
detecting both the falling edge of the positive pulse and the rising edge
of the falling pulse.  The pulse position detector processes a digital 1
after the falling edge of the positive pulse, which changes to a digital 0
after the rising edge of the negative pulse, and vice versa."

Concretely: two comparators watch the amplified pickup voltage —

* comparator P trips while the voltage exceeds ``+V_th`` (positive pulse),
* comparator N trips while the voltage is below ``−V_th`` (negative pulse)

— and an SR latch is **set** when P releases (the positive pulse's falling
edge) and **reset** when N releases (the negative pulse's recovering,
i.e. rising, edge).  Using the *trailing* edge of both pulses makes the
latch duty cycle equal to the pulse-centre spacing independent of pulse
width, which is why "the fraction of time in a period at which the output
of the pulse detector is high is a direct indication of the field
component measured" and no ADC is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..simulation.signals import Trace
from .comparator import Comparator, ComparatorParameters


@dataclass(frozen=True)
class LogicEdge:
    """One transition of the detector output."""

    time: float
    value: int  # 1 after a set event, 0 after a reset event


@dataclass
class DetectorOutput:
    """The detector's digital-compatible output signal.

    Attributes
    ----------
    edges:
        Time-ordered output transitions.
    initial_value:
        Latch state before the first edge.
    window:
        (start, end) of the observation interval [s].
    """

    edges: Tuple[LogicEdge, ...]
    initial_value: int
    window: Tuple[float, float]

    def value_at(self, time: float) -> int:
        """Latch state at an arbitrary instant."""
        value = self.initial_value
        for edge in self.edges:
            if edge.time > time:
                break
            value = edge.value
        return value

    def duty_cycle(self, window: Optional[Tuple[float, float]] = None) -> float:
        """Exact fraction of ``window`` spent high.

        This is the quantity §3.2 calls "a direct indication of the field
        component measured"; the hardware approximates it with the
        up-down counter.  ``window`` defaults to the observation window,
        settling periods included; the health supervisor passes the
        counting window so the duty compares directly with the count.
        """
        t_start, t_end = self.window if window is None else window
        if t_end <= t_start:
            raise ConfigurationError("empty observation window")
        high_time = 0.0
        value = self.initial_value
        t_prev = t_start
        for edge in self.edges:
            t_clamped = min(max(edge.time, t_start), t_end)
            if value == 1:
                high_time += t_clamped - t_prev
            t_prev = t_clamped
            value = edge.value
        if value == 1:
            high_time += t_end - t_prev
        return high_time / (t_end - t_start)

    def as_trace(self, n_samples: int = 2048) -> Trace:
        """Render the latch output as a sampled logic trace (for plotting)."""
        t_start, t_end = self.window
        t = np.linspace(t_start, t_end, n_samples)
        v = np.empty_like(t)
        value = self.initial_value
        edge_iter = iter(self.edges)
        edge = next(edge_iter, None)
        for i, ti in enumerate(t):
            while edge is not None and edge.time <= ti:
                value = edge.value
                edge = next(edge_iter, None)
            v[i] = float(value)
        return Trace(t, v)


@dataclass(frozen=True)
class DetectorParameters:
    """Configuration of the pulse-position detector.

    Attributes
    ----------
    threshold:
        Comparator threshold [V], referred to the amplifier output.  The
        default is ~40 % of the ideal-target pulse peak: high enough that
        the comparator releases close to the pulse centre (so the pulse
        tail completes within the excitation ramp even at the 65 µT field
        maximum), low enough for ample noise margin.
    hysteresis:
        Comparator hysteresis [V].  Sized at ~6× the band-limited noise
        at the amplifier output so noise dips during a pulse flank cannot
        cause early release (the classic Schmitt-trigger sizing rule).
    comparator_delay:
        Propagation delay of both comparators [s].
    offset:
        Static input-referred offset of both comparators [V], referred to
        the amplifier output.  A common-mode shift of both thresholds —
        the dominant untrimmed imperfection of a Sea-of-Gates comparator.
    """

    threshold: float = 0.10
    hysteresis: float = 0.040
    comparator_delay: float = 50e-9
    offset: float = 0.0

    def __post_init__(self) -> None:
        if self.threshold <= 0.0:
            raise ConfigurationError("detector threshold must be positive")


class PulsePositionDetector:
    """Comparator pair + SR latch converting pickup pulses to a logic signal."""

    def __init__(self, params: Optional[DetectorParameters] = None):
        params = DetectorParameters() if params is None else params
        self.params = params
        p = params
        self.comparator_positive = Comparator(
            ComparatorParameters(
                threshold=p.threshold,
                hysteresis=p.hysteresis,
                offset=p.offset,
                delay=p.comparator_delay,
            )
        )
        # The negative comparator watches -v with the same threshold.
        self.comparator_negative = Comparator(
            ComparatorParameters(
                threshold=p.threshold,
                hysteresis=p.hysteresis,
                offset=p.offset,
                delay=p.comparator_delay,
            )
        )

    def detect(self, amplified_pickup: Trace) -> DetectorOutput:
        """Run the detector over one amplified pickup trace.

        A one-row :meth:`detect_batch`.

        Raises
        ------
        ConfigurationError
            If no pulses cross the comparator thresholds (core not
            saturated, threshold too high, or gain too low) — the
            condition under which the measured Kaw95 sensor fails.
        """
        (output,) = self.detect_batch(
            amplified_pickup.v[None, :], amplified_pickup.t
        )
        return output

    def _assemble(
        self,
        set_times: np.ndarray,
        reset_times: np.ndarray,
        window: Tuple[float, float],
    ) -> DetectorOutput:
        """SR-latch the comparator edge streams into a detector output."""
        if set_times.size == 0 and reset_times.size == 0:
            raise ConfigurationError(
                "pulse-position detector saw no pulses above "
                f"{self.params.threshold} V"
            )

        events: List[LogicEdge] = sorted(
            [LogicEdge(float(t), 1) for t in set_times]
            + [LogicEdge(float(t), 0) for t in reset_times],
            key=lambda e: e.time,
        )
        # SR-latch semantics: repeated sets (or resets) are idempotent.
        deduped: List[LogicEdge] = []
        last_value = None
        for event in events:
            if event.value != last_value:
                deduped.append(event)
                last_value = event.value
        # Before the first edge, the latch held the opposite of that edge.
        initial = 1 - deduped[0].value if deduped else 0
        return DetectorOutput(
            edges=tuple(deduped),
            initial_value=initial,
            window=window,
        )

    def detect_batch(
        self, amplified: np.ndarray, times: np.ndarray
    ) -> List[DetectorOutput]:
        """Run the detector over ``(N, n_samples)`` amplified waveforms.

        All rows share the ``times`` axis.  The negative comparator is
        evaluated on the negated thresholds instead of a materialised
        ``-amplified`` matrix.
        """
        sets = self.comparator_positive.falling_edges_batch(amplified, times)
        resets = self.comparator_negative.falling_edges_batch(
            amplified, times, negate=True
        )
        window = (float(times[0]), float(times[-1]))
        return [
            self._assemble(set_times, reset_times, window)
            for set_times, reset_times in zip(sets, resets)
        ]

    @staticmethod
    def hardware_cost() -> dict:
        """Analogue hardware of this readout (for the PPOS1 comparison).

        §3.2: "Since the analogue output consists only of one digital
        compatible signal, a complicated AD-converter is not necessary."
        """
        return {
            "comparator_transistors": 2 * 20,
            "latch_transistors": 8,
            "needs_adc": False,
            "needs_precision_references": False,
        }
