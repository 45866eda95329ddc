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

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..simulation.signals import Trace
from .comparator import Comparator, ComparatorParameters


@dataclass(frozen=True)
class LogicEdge:
    """One transition of the detector output.

    Built only when a caller reads :attr:`DetectorOutput.edges`; the
    measurement engine works on :class:`EdgeBlock` arrays.
    ``constructed`` counts every instance ever built.
    """

    time: float
    value: int  # 1 after a set event, 0 after a reset event

    constructed: ClassVar[int] = 0

    def __post_init__(self) -> None:
        LogicEdge.constructed += 1


class EdgeBlock:
    """The detector outputs of ``N`` channel-rows as one array of edge times.

    A latch output is fully described by its edges.  Row ``i`` holds
    ``counts[i]`` time-ordered edge times in ``times[i]``, padded on the
    right with ``+inf`` (``counts`` is ``None`` when no row is padded);
    ``values[i]`` is the latch value after each edge (one ``(1, M)``
    row when every row shares them) and ``initial[i]`` the value before
    the first one.  Every row shares the observation ``window``.

    The per-window values the back end reads (the counter's high ticks,
    duty cycles and set/reset tallies) are computed for every row in
    one vectorised pass per window, the first time any row asks, and
    kept for the block's lifetime as lists of Python numbers; a one-row
    block walks its row once per window instead.  Either way the
    arithmetic is the per-edge loop's own, so a row reads exactly what
    walking its edges one by one would give.
    """

    __slots__ = ("times", "values", "initial", "counts", "window", "_high", "_memo")

    def __init__(
        self,
        times: np.ndarray,
        values: np.ndarray,
        initial: np.ndarray,
        window: Tuple[float, float],
        counts: Optional[np.ndarray] = None,
    ):
        self.times = times
        self.values = values
        self.initial = initial
        self.counts = counts
        self.window = window
        self._high: Optional[np.ndarray] = None
        #: Per-window results, indexable by row.
        self._memo: Dict[tuple, Sequence] = {}

    def __len__(self) -> int:
        return self.times.shape[0]

    def rows(self) -> List["DetectorOutput"]:
        """One :class:`DetectorOutput` view per row."""
        return [DetectorOutput.view(self, row) for row in range(len(self))]

    @property
    def high(self) -> np.ndarray:
        """``(N, M + 1)``: whether the latch is high before the first edge
        (column 0) and after each edge."""
        if self._high is None:
            high = np.empty((len(self), self.times.shape[1] + 1), dtype=bool)
            np.equal(self.initial, 1, out=high[:, 0])
            np.equal(self.values, 1, out=high[:, 1:])
            high.flags.writeable = False
            self._high = high
        return self._high

    def duty(self, window: Tuple[float, float]) -> Sequence[float]:
        """Fraction of ``window`` each row spends high, indexed by row."""
        key = ("duty", window)
        if key not in self._memo:
            self._pass(window, None)
        return self._memo[key]

    def high_ticks(self, window: Tuple[float, float], tick: float) -> Sequence[float]:
        """Counter clock ticks each row spends high inside ``window``
        (integral values, indexed by row), the counter clocked from the
        window start."""
        key = ("high-ticks", window, tick)
        if key not in self._memo:
            self._pass(window, tick)
        return self._memo[key]

    def tally(self, window: Tuple[float, float]) -> Tuple[Sequence[int], Sequence[int]]:
        """(set events, reset events) strictly inside ``window``, each
        indexed by row."""
        key = ("tally", window)
        if key not in self._memo:
            if len(self) == 1:
                self._walk(window, None)
            else:
                t_start, t_end = window
                inside = self.times > t_start
                inside &= self.times < t_end
                events = np.add.reduce(inside, axis=1)
                inside &= self.high[:, 1:]
                sets = np.add.reduce(inside, axis=1)
                self._memo[key] = (sets.tolist(), (events - sets).tolist())
        return self._memo[key]

    def _pass(self, window: Tuple[float, float], tick: Optional[float]) -> None:
        """The duty (and, with ``tick``, the high-tick) pass over ``window``.

        Each edge time is clamped into the window and framed by the
        window ends; between consecutive bounds the latch holds
        :attr:`high`.  Edges before the window collapse onto its start
        and edges after it (the ``+inf`` padding too) onto its end, so
        their segments have zero length.  The high time and the high
        ticks accumulate segment by segment along each row
        (``np.add.accumulate``), in the order of the per-edge loop; a
        segment ``[a, b)`` holds the ticks between the tick indices
        ``ceil((t − start)/tick − 1e-12)`` of its ends, the arithmetic
        of ``UpDownCounter._ticks_in``.  Every measurement also reads
        the duty over the block's own observation window, so the first
        pass over another window covers that one too.

        A one-row block walks its edges instead (:meth:`_walk`): for one
        row, numpy's per-call overhead costs more than the whole walk.
        """
        if len(self) == 1:
            self._walk(window, tick)
            return
        windows = [window]
        if window != self.window and ("duty", self.window) not in self._memo:
            windows.append(self.window)
        rows, width = self.times.shape
        layers = np.empty((len(windows) + (tick is not None), rows, width + 2))
        for bounds, (t_start, t_end) in zip(layers, windows):
            bounds[:, 0] = t_start
            np.maximum(self.times, t_start, out=bounds[:, 1:-1])
            np.minimum(bounds[:, 1:-1], t_end, out=bounds[:, 1:-1])
            bounds[:, -1] = t_end
        if tick is not None:
            index = np.subtract(layers[0], window[0], out=layers[-1])
            index /= tick
            index -= 1e-12
            np.ceil(index, out=index)
        segments = np.where(self.high, layers[:, :, 1:] - layers[:, :, :-1], 0.0)
        totals = np.add.accumulate(segments, axis=2)[:, :, -1]
        for total, (t_start, t_end) in zip(totals, windows):
            self._memo[("duty", (t_start, t_end))] = (
                total / (t_end - t_start)
            ).tolist()
        if tick is not None:
            self._memo[("high-ticks", window, tick)] = totals[-1].tolist()

    def _walk(self, window: Tuple[float, float], tick: Optional[float]) -> None:
        """:meth:`_pass` and :meth:`tally` of a one-row block, in one walk
        over its edges with the same arithmetic.

        Like :meth:`_pass`, the walk also fills the duty over the block's
        own observation window, so a measurement walks each row once.
        """
        t_start, t_end = window
        o_start, o_end = self.window
        own = window != self.window and ("duty", self.window) not in self._memo
        count = self.times.shape[1] if self.counts is None else int(self.counts[0])
        high_time = own_time = 0.0
        high_ticks = sets = resets = index_prev = 0
        value = int(self.initial[0])
        t_prev = t_start
        own_prev = o_start
        for time, edge_value in zip(
            self.times[0, :count].tolist(), self.values[0, :count].tolist()
        ):
            if t_start < time < t_end:
                if edge_value == 1:
                    sets += 1
                else:
                    resets += 1
            # min(max(time, t_start), t_end), without the builtin calls.
            clamped = t_start if t_start > time else time
            if t_end < clamped:
                clamped = t_end
            if tick is not None:
                index = math.ceil((clamped - t_start) / tick - 1e-12)
                if value == 1:
                    high_ticks += index - index_prev
                index_prev = index
            if value == 1:
                high_time += clamped - t_prev
            t_prev = clamped
            if own:
                clamped = o_start if o_start > time else time
                if o_end < clamped:
                    clamped = o_end
                if value == 1:
                    own_time += clamped - own_prev
                own_prev = clamped
            value = edge_value
        if value == 1:
            high_time += t_end - t_prev
            own_time += o_end - own_prev
            if tick is not None:
                high_ticks += math.ceil((t_end - t_start) / tick - 1e-12) - index_prev
        self._memo[("duty", window)] = (high_time / (t_end - t_start),)
        self._memo[("tally", window)] = ((sets,), (resets,))
        if tick is not None:
            self._memo[("high-ticks", window, tick)] = (high_ticks,)
        if own:
            self._memo[("duty", self.window)] = (own_time / (o_end - o_start),)


def read_rows(
    detectors: Sequence["DetectorOutput"], read: Callable[[EdgeBlock], Sequence]
) -> List:
    """``read(block)[row]`` for each detector output, in order.

    The rows of one call usually share a few blocks, so ``read`` runs
    once per run of rows from the same block rather than once per row.
    """
    values = []
    block = column = None
    for detector in detectors:
        if detector.block is not block:
            block = detector.block
            column = read(block)
        values.append(column[detector.row])
    return values


class DetectorOutput:
    """The detector's digital-compatible output signal: one row of an
    :class:`EdgeBlock`.

    Constructed from ``edges`` (time-ordered :class:`LogicEdge`
    transitions), ``initial_value`` (latch state before the first edge)
    and ``window`` ((start, end) of the observation interval [s]), it is
    a one-row block; the detector and the closed-form solver hand out
    views of their many-row blocks instead.
    """

    __slots__ = ("block", "row", "_edges")

    def __init__(
        self,
        edges: Sequence[LogicEdge],
        initial_value: int,
        window: Tuple[float, float],
    ):
        edges = tuple(edges)
        times = np.array([edge.time for edge in edges], dtype=float)
        if np.isnan(times).any() or (times[1:] < times[:-1]).any():
            raise ConfigurationError("detector edges must be time-ordered")
        self.block = EdgeBlock(
            times[None, :],
            np.array([[edge.value for edge in edges]], dtype=np.int64),
            np.array([initial_value], dtype=np.int64),
            tuple(window),
        )
        self.row = 0
        self._edges: Optional[Tuple[LogicEdge, ...]] = edges

    @classmethod
    def view(cls, block: EdgeBlock, row: int) -> "DetectorOutput":
        """Row ``row`` of ``block``."""
        output = cls.__new__(cls)
        output.block = block
        output.row = row
        output._edges = None
        return output

    @property
    def initial_value(self) -> int:
        return int(self.block.initial[self.row])

    @property
    def window(self) -> Tuple[float, float]:
        return self.block.window

    @property
    def edge_count(self) -> int:
        counts = self.block.counts
        return self.block.times.shape[1] if counts is None else int(counts[self.row])

    def _row(self) -> Tuple[np.ndarray, np.ndarray]:
        """This row's edge times and values, padding dropped."""
        count = self.edge_count
        values = self.block.values
        return (
            self.block.times[self.row, :count],
            values[self.row if len(values) > 1 else 0, :count],
        )

    @property
    def edges(self) -> Tuple[LogicEdge, ...]:
        """Time-ordered output transitions, built on first access."""
        if self._edges is None:
            times, values = self._row()
            self._edges = tuple(map(LogicEdge, times.tolist(), values.tolist()))
        return self._edges

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DetectorOutput):
            return NotImplemented
        times, values = self._row()
        other_times, other_values = other._row()
        return (
            self.initial_value == other.initial_value
            and self.window == other.window
            and times.tolist() == other_times.tolist()
            and values.tolist() == other_values.tolist()
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"DetectorOutput(edges={self.edge_count}, "
            f"initial_value={self.initial_value}, window={self.window})"
        )

    def value_at(self, time: float) -> int:
        """Latch state at an arbitrary instant."""
        times, values = self._row()
        index = int(np.searchsorted(times, time, side="right"))
        return self.initial_value if index == 0 else int(values[index - 1])

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
        return float(self.block.duty((t_start, t_end))[self.row])

    def as_trace(self, n_samples: int = 2048) -> Trace:
        """Render the latch output as a sampled logic trace (for plotting)."""
        t_start, t_end = self.window
        t = np.linspace(t_start, t_end, n_samples)
        times, values = self._row()
        levels = np.concatenate(([self.initial_value], values)).astype(float)
        return Trace(t, levels[np.searchsorted(times, t, side="right")])


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

    def _latch(
        self, set_times: np.ndarray, reset_times: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """SR-latch one row's comparator edge streams: (times, values)."""
        if set_times.size == 0 and reset_times.size == 0:
            raise ConfigurationError(
                "pulse-position detector saw no pulses above "
                f"{self.params.threshold} V"
            )
        times = np.concatenate((set_times, reset_times)).astype(float, copy=False)
        values = np.concatenate(
            (np.ones(set_times.size, np.int8), np.zeros(reset_times.size, np.int8))
        )
        # Time order; a set sorts before a reset at the same instant.
        order = np.argsort(times, kind="stable")
        times, values = times[order], values[order]
        # SR-latch semantics: repeated sets (or resets) are idempotent.
        keep = np.empty(values.size, dtype=bool)
        keep[0] = True
        np.not_equal(values[1:], values[:-1], out=keep[1:])
        return times[keep], values[keep]

    def detect_batch(
        self, amplified: np.ndarray, times: np.ndarray
    ) -> List[DetectorOutput]:
        """Run the detector over ``(N, n_samples)`` amplified waveforms.

        All rows share the ``times`` axis.  The negative comparator is
        evaluated on the negated thresholds instead of a materialised
        ``-amplified`` matrix.  The rows come back as views of one
        :class:`EdgeBlock`, ragged rows padded with ``+inf``.
        """
        sets = self.comparator_positive.falling_edges_batch(amplified, times)
        resets = self.comparator_negative.falling_edges_batch(
            amplified, times, negate=True
        )
        latched = [
            self._latch(set_times, reset_times)
            for set_times, reset_times in zip(sets, resets)
        ]
        counts = np.array([row_times.size for row_times, _ in latched])
        width = int(counts.max()) if latched else 0
        block_times = np.full((len(latched), width), np.inf)
        block_values = np.zeros((len(latched), width), dtype=np.int8)
        for row, (row_times, row_values) in enumerate(latched):
            block_times[row, : row_times.size] = row_times
            block_values[row, : row_values.size] = row_values
        # Before the first edge, the latch held the opposite of that edge.
        initial = 1 - block_values[:, 0] if width else np.zeros(0, np.int8)
        window = (float(times[0]), float(times[-1]))
        return EdgeBlock(block_times, block_values, initial, window, counts).rows()

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
