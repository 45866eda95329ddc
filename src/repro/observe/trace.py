"""Structured tracing for the measurement signal chain.

The silicon of the paper is observable on the bench — every block of
Figure 1 has probeable nodes, and the design was debugged by watching
them in the Compass/ELDO waveform viewers.  The software reproduction
hides all of that behind one heading readout; this module restores the
bench view as *spans*: nested, timed, attributed records of every stage
a measurement passes through (excitation → pickup → comparator →
counter → CORDIC iterations).

Design rules, in order of priority:

1. **Transparency** — tracing never touches measurement arithmetic.  A
   traced measurement is bit-identical to an untraced one (pinned by the
   golden-vector suite in ``tests/test_golden_vectors.py``).
2. **Zero cost when off** — the disabled path is a single attribute
   check; the compass hot path stays within the overhead contract of
   ``BENCH_observe.json`` (see ``docs/observability.md``).
3. **Zero dependencies** — plain stdlib; sinks cover an in-memory ring
   buffer, JSONL files and the existing :mod:`repro.simulation.vcd`
   waveform writer.

The tracer is single-threaded by design, like the simulation engine it
observes: one tracer belongs to one compass.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, IO, List, Optional, Tuple, Union

from ..errors import ConfigurationError
from ..simulation.vcd import VCDWriter

#: Span names emitted by the instrumented signal chain, in stage order.
#: ``tests/test_observe.py`` and ``repro trace`` treat this as the
#: taxonomy contract; see docs/observability.md for attribute tables.
STAGE_MEASURE = "measure"
STAGE_BATCH = "batch.sweep"        # one BatchCompass call (N measure rows)
STAGE_CHANNEL = "channel"          # channel.x / channel.y
STAGE_EXCITATION = "excitation"
STAGE_PICKUP = "pickup"
STAGE_COMPARATOR = "comparator"
STAGE_FASTPATH = "fastpath"        # closed-form front-end solve
STAGE_BACKEND = "backend"
STAGE_COUNTER = "counter"          # counter.x / counter.y
STAGE_CORDIC = "cordic"
STAGE_CORDIC_ITER = "cordic.iter"  # cordic.iter.0 … cordic.iter.N-1
STAGE_REQUEST = "service.request"  # one HeadingService request
STAGE_ATTEMPT = "service.attempt"  # service.attempt.<replica>.<n>
STAGE_FLEET_REQUEST = "fleet.request"    # one fleet front-door request
STAGE_FLEET_DISPATCH = "fleet.dispatch"  # fleet.dispatch.<shard>

#: Root spans a :class:`RingBufferSink` keeps (``Observability.ring_capacity``).
RING_CAPACITY = 256
#: Nanoseconds per VCD time unit (``Observability.vcd_timescale_ns``).
VCD_TIMESCALE_NS = 1000.0

AttributeValue = Union[str, int, float, bool, None]


@dataclass
class Span:
    """One traced operation: a named interval with attributes.

    Spans form a tree: ``parent_id`` is ``None`` for a root (one
    measurement), children are recorded in creation order.  Attributes
    are scalar-valued (str/int/float/bool) so every sink can serialise
    them without a schema.
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    depth: int
    start_s: float
    end_s: Optional[float] = None
    attributes: Dict[str, AttributeValue] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)
    status: str = "ok"

    @property
    def duration_s(self) -> float:
        """Span duration [s]; 0.0 while the span is still open."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    @property
    def finished(self) -> bool:
        return self.end_s is not None

    def set(self, **attributes: AttributeValue) -> "Span":
        """Attach (or overwrite) attributes on this span."""
        self.attributes.update(attributes)
        return self

    def walk(self) -> List["Span"]:
        """This span and every descendant, depth-first pre-order."""
        spans = [self]
        for child in self.children:
            spans.extend(child.walk())
        return spans

    def to_dict(self) -> Dict:
        """Flat JSON-friendly record (children referenced by parent_id)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "status": self.status,
            "attributes": dict(self.attributes),
        }


class _NullSpan:
    """Reusable no-op stand-in for a span when tracing is disabled.

    Stateless, so one shared instance can be nested and re-entered
    freely; ``set`` swallows attributes that were never computed lazily
    by the caller (call sites must keep their own work behind an
    ``enabled`` check when it is expensive).
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set(self, **attributes: AttributeValue) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager binding one :class:`Span` to a :class:`Tracer`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._span.status = "error"
            self._span.attributes.setdefault("error", repr(exc))
        self._tracer._finish(self._span)


class SpanSink:
    """Receives every finished span; subclass for new back-ends."""

    def emit(self, span: Span) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Flush/close underlying resources (default: nothing)."""


class RingBufferSink(SpanSink):
    """Keeps the most recent finished *root* spans in memory.

    The natural unit of inspection is one measurement (one root span
    with its whole subtree); bounding the buffer by roots keeps the
    memory footprint proportional to recent measurements, not to span
    fan-out.
    """

    def __init__(self, capacity: int = RING_CAPACITY):
        if capacity < 1:
            raise ConfigurationError("ring buffer capacity must be >= 1")
        self.capacity = capacity
        self._roots: List[Span] = []

    def emit(self, span: Span) -> None:
        if span.parent_id is not None:
            return  # children arrive attached to their root
        self._roots.append(span)
        if len(self._roots) > self.capacity:
            del self._roots[: len(self._roots) - self.capacity]

    @property
    def roots(self) -> Tuple[Span, ...]:
        """Buffered root spans, oldest first."""
        return tuple(self._roots)

    def clear(self) -> None:
        self._roots.clear()


class JSONLSink(SpanSink):
    """Appends one JSON object per finished span to a file (or handle).

    Children are emitted before their parent (completion order), so a
    consumer can rebuild trees by ``parent_id`` once the root arrives.
    """

    def __init__(self, path_or_handle: Union[str, IO[str]]):
        if isinstance(path_or_handle, str):
            self._handle: IO[str] = open(path_or_handle, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = path_or_handle
            self._owns_handle = False

    def emit(self, span: Span) -> None:
        self._handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")

    def close(self) -> None:
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()


class VCDSink(SpanSink):
    """Renders span activity as waveforms via :class:`VCDWriter`.

    Each distinct span name becomes a 1-bit wire that is high while a
    span of that name is active — the software equivalent of probing the
    block-enable nets of Figure 1 in GTKWave.  Timestamps are wall-clock
    nanoseconds relative to the earliest span seen.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        module: str = "observe",
    ):
        self.path = path
        self.writer = VCDWriter(timescale_ns=VCD_TIMESCALE_NS, module=module)
        self._roots: List[Span] = []

    def emit(self, span: Span) -> None:
        # Children finish before their root, so the time origin (the
        # earliest root start) is only known once trees are complete;
        # buffer roots and render on close/render().
        if span.parent_id is None and span.finished:
            self._roots.append(span)

    def render(self) -> str:
        """The VCD document for every buffered measurement tree."""
        if not self._roots:
            raise ConfigurationError("VCD sink saw no finished root spans")
        t0 = min(root.start_s for root in self._roots)
        for root in self._roots:
            for span in root.walk():
                if span.name not in self.writer._signals:
                    self.writer.add_wire(span.name)
                self.writer.record(span.start_s - t0, span.name, 1)
                self.writer.record(span.end_s - t0, span.name, 0)
        self._roots.clear()
        return self.writer.render()

    def close(self) -> None:
        if self.path is not None and self._roots:
            with open(self.path, "w", encoding="utf-8") as handle:
                handle.write(self.render())


class Tracer:
    """Emits well-nested spans describing one compass's activity.

    Usage::

        tracer = Tracer(sinks=[RingBufferSink()])
        with tracer.span("measure", path="scalar") as root:
            with tracer.span("channel.x", channel="x") as ch:
                ch.set(edges=18)
            root.set(heading_deg=45.0)

    Nesting is tracked with an explicit stack, so spans are *always*
    well nested and balanced — the property-test suite drives arbitrary
    interleavings through this class and asserts exactly that.
    """

    def __init__(
        self,
        sinks: Optional[List[SpanSink]] = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.sinks: List[SpanSink] = list(sinks) if sinks else []
        self._clock = clock
        self._stack: List[Span] = []
        self._next_id = 0
        self._finished_spans = 0

    # -- span lifecycle --------------------------------------------------------

    def span(self, name: str, **attributes: AttributeValue) -> _ActiveSpan:
        """Open a child span of the innermost active span."""
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=None if parent is None else parent.span_id,
            depth=len(self._stack),
            start_s=self._clock(),
            attributes=dict(attributes),
        )
        self._next_id += 1
        if parent is not None:
            parent.children.append(span)
        self._stack.append(span)
        return _ActiveSpan(self, span)

    def _finish(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise ConfigurationError(
                f"span {span.name!r} closed out of order; the tracer "
                "stack is corrupted"
            )
        self._stack.pop()
        span.end_s = self._clock()
        self._finished_spans += 1
        for sink in self.sinks:
            sink.emit(span)

    # -- bookkeeping -----------------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of currently open spans."""
        return len(self._stack)

    @property
    def balanced(self) -> bool:
        """True when every opened span has been closed."""
        return not self._stack

    @property
    def finished_spans(self) -> int:
        """Total spans closed over this tracer's lifetime."""
        return self._finished_spans

    def close(self) -> None:
        """Close every sink (flushes files, writes the VCD)."""
        if self._stack:
            raise ConfigurationError(
                f"cannot close tracer with {len(self._stack)} open span(s)"
            )
        for sink in self.sinks:
            sink.close()


def validate_tree(root: Span) -> None:
    """Assert the structural invariants of one finished span tree.

    Raises :class:`ConfigurationError` on the first violation; used by
    tests and by ``repro trace`` before rendering.  Invariants:

    * every span is finished with ``end_s >= start_s``,
    * every child's interval nests inside its parent's,
    * depths increase by exactly one per tree level,
    * ``parent_id`` links match the containment structure.
    """
    for span in root.walk():
        if not span.finished:
            raise ConfigurationError(f"span {span.name!r} never finished")
        if span.end_s < span.start_s:
            raise ConfigurationError(f"span {span.name!r} ends before it starts")
        for child in span.children:
            if child.parent_id != span.span_id:
                raise ConfigurationError(
                    f"span {child.name!r} parent link does not match the tree"
                )
            if child.depth != span.depth + 1:
                raise ConfigurationError(
                    f"span {child.name!r} depth {child.depth} under parent "
                    f"depth {span.depth}"
                )
            if child.start_s < span.start_s or (
                child.end_s is not None
                and span.end_s is not None
                and child.end_s > span.end_s
            ):
                raise ConfigurationError(
                    f"span {child.name!r} interval escapes its parent "
                    f"{span.name!r}"
                )
