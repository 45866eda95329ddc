"""In-memory span tracing around the compass stack's public entry points.

The benchmark's traced run wraps each entry point listed in
:data:`ENTRY_POINTS` with a span recorder *from the benchmark's side*:
the program's own ``Observability`` stays off.  Wrappers are installed on
the class (or module) that defines the entry point, never on instances,
because the analog fast path treats an instance-level method override as
an armed fault and falls back to the stepped engine.

A span is ``[span_id, parent_id, request_id, name, layer, start, end]``.
Spans nest on one stack (the workloads are single-threaded), children
inherit their root's request id, and a coroutine entry point
(``HeadingFleet.submit``) records one span per synchronous segment, all
sharing the request id of the call.  A layer's self time is its spans'
durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional

#: Span record fields, by index.
SPAN_ID, PARENT, REQUEST, NAME, LAYER, START, END = range(7)


class Tracer:
    """Spans and counters kept in memory until the run ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: Every ``FastPathStats`` created while the tracer was installed.
        self.fastpath_stats: list = []
        self._stack: List[list] = []
        self._next_request = 0

    def open(self, name: str, layer: str, request: Optional[int] = None) -> list:
        parent = self._stack[-1] if self._stack else None
        if request is None:
            if parent is not None:
                request = parent[REQUEST]
            else:
                request = self._next_request
                self._next_request += 1
        span = [
            len(self.spans),
            None if parent is None else parent[SPAN_ID],
            request,
            name,
            layer,
            self.clock(),
            None,
        ]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = self.clock()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span[NAME]!r} closed out of order")

    def write_jsonl(self, path) -> None:
        keys = ("id", "parent", "request", "name", "layer", "start", "end")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans: Iterable[list]) -> List[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval and merged before
    subtracting, so overlapping or overhanging children never count twice.
    """
    spans = list(spans)
    children: Dict[int, List[tuple]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    result = []
    for span in spans:
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span[SPAN_ID], ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


def self_time_by_layer(spans: Iterable[list]) -> Dict[str, float]:
    spans = list(spans)
    totals: Dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span[LAYER]] += own
    return dict(totals)


def inclusive_time_by_name(spans: Iterable[list]) -> Dict[str, float]:
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span[NAME]] += span[END] - span[START]
    return dict(totals)


def root_time(spans: Iterable[list]) -> float:
    """Wall time covered by root spans (roots never overlap: one stack)."""
    return sum(s[END] - s[START] for s in spans if s[PARENT] is None)


def has_ancestor_layer(spans: List[list], span: list, layer: str) -> bool:
    parent = span[PARENT]
    while parent is not None:
        if spans[parent][LAYER] == layer:
            return True
        parent = spans[parent][PARENT]
    return False


# -- counting hooks -----------------------------------------------------------
#
# A hook runs after the wrapped call returns: hook(tracer, args, kwargs,
# result, before), where ``before`` is what the entry's probe returned
# just before the call (or None).


def _count_noise_samples(tracer, args, kwargs, result, before):
    tracer.counters["physics.noise_samples"] += len(result)


def _count_simulate(tracer, args, kwargs, result, before):
    tracer.counters["sensors.samples"] += len(result.pickup_voltage)


def _count_simulate_batch(tracer, args, kwargs, result, before):
    tracer.counters["sensors.samples"] += result.size


def _count_amplify(tracer, args, kwargs, result, before):
    tracer.counters["analog.stepped_channels"] += 1


def _count_amplify_batch(tracer, args, kwargs, result, before):
    tracer.counters["analog.stepped_channels"] += len(result)


def _count_backend(tracer, args, kwargs, result, before):
    tracer.counters["digital.measurements"] += 1


def _count_build(tracer, args, kwargs, result, before):
    tracer.counters["core.compasses_built"] += 1


def _count_batch_call(tracer, args, kwargs, result, before):
    tracer.counters["batch.calls"] += 1
    tracer.counters["batch.rows"] += len(result)


def _probe_cache_hits(args, kwargs):
    return args[0].hits


def _count_cache_lookup(tracer, args, kwargs, result, before):
    hit = args[0].hits > before
    tracer.counters["batch.cache_hits" if hit else "batch.cache_misses"] += 1


def _count_service_request(tracer, args, kwargs, result, before):
    tracer.counters["service.requests"] += 1
    tracer.counters["service.attempts"] += result.attempt_count


def _count_service_scene(tracer, args, kwargs, result, before):
    tracer.counters["service.requests"] += len(result)
    tracer.counters["service.attempts"] += sum(r.attempt_count for r in result)


def _count_scenario_run(tracer, args, kwargs, result, before):
    tracer.counters["scenario.steps"] += len(result.steps)


def _count_fusion(tracer, args, kwargs, result, before):
    tracer.counters["array.fusions"] += 1


def _count_sweep_fusions(tracer, args, kwargs, result, before):
    tracer.counters["array.fusions"] += len(result)


def _count_diagnosis(tracer, args, kwargs, result, before):
    tracer.counters["btest.diagnoses"] += 1


def _stage_name(args, kwargs):
    return args[0] if args else kwargs["stage"]


def _register_fastpath_stats(tracer, args, kwargs, result, before):
    tracer.fastpath_stats.append(args[0])


class EntryPoint(NamedTuple):
    """One wrapped callable: ``module:Qualified.name`` in ``layer``."""

    layer: str
    target: str
    hook: Optional[Callable] = None
    probe: Optional[Callable] = None
    #: False for count-only entries that record no span.
    span: bool = True
    #: Span-name suffix from the call's arguments (the factory stage name).
    label: Optional[Callable] = None


#: Every entry point the traced run wraps, grouped by layer.  Module-level
#: functions are patched where their callers look them up: the analog
#: engines call ``fastpath.solve_channel*`` through the module, and the
#: factory line calls ``run_stage``/``run_field_oracle`` through its own
#: module globals.
ENTRY_POINTS = (
    EntryPoint("physics", "repro.physics.noise:NoiseGenerator.voltage_noise",
               _count_noise_samples),
    EntryPoint("sensors", "repro.sensors.fluxgate:FluxgateSensor.simulate",
               _count_simulate),
    EntryPoint("sensors", "repro.sensors.fluxgate:FluxgateSensor.simulate_batch",
               _count_simulate_batch),
    EntryPoint("analog", "repro.analog.frontend:AnalogFrontEnd.measure_channel"),
    EntryPoint("analog", "repro.analog.comparator:PickupAmplifier.amplify",
               _count_amplify),
    EntryPoint("analog", "repro.analog.comparator:PickupAmplifier.amplify_batch",
               _count_amplify_batch),
    EntryPoint("analog", "repro.analog.pulse_detector:PulsePositionDetector.detect"),
    EntryPoint("analog",
               "repro.analog.pulse_detector:PulsePositionDetector.detect_batch"),
    EntryPoint("analog.fastpath", "repro.analog.fastpath:solve_channel"),
    EntryPoint("analog.fastpath", "repro.analog.fastpath:solve_channel_batch"),
    EntryPoint("analog.fastpath", "repro.analog.fastpath:FastPathStats.__init__",
               _register_fastpath_stats, span=False),
    EntryPoint("digital", "repro.digital.backend:DigitalBackEnd.process_measurement",
               _count_backend),
    EntryPoint("core", "repro.core.compass:IntegratedCompass.measure_components"),
    EntryPoint("core", "repro.core.compass:IntegratedCompass.assemble_measurement"),
    EntryPoint("core.health", "repro.core.health:HealthSupervisor.review"),
    EntryPoint("core.build", "repro.core.compass:IntegratedCompass.__init__",
               _count_build),
    EntryPoint("batch", "repro.batch.engine:BatchCompass.measure_components_batch",
               _count_batch_call),
    EntryPoint("batch", "repro.batch.engine:ExcitationTraceCache.entry",
               _count_cache_lookup, _probe_cache_hits),
    EntryPoint("service", "repro.service.service:HeadingService.measure_heading",
               _count_service_request),
    EntryPoint("service", "repro.service.service:HeadingService.measure_scene",
               _count_service_scene),
    EntryPoint("fleet", "repro.fleet.fleet:HeadingFleet.submit"),
    EntryPoint("scenario", "repro.scenario.runner:ScenarioRunner.run",
               _count_scenario_run),
    EntryPoint("scenario",
               "repro.scenario.compensation:CompensationChain.process"),
    EntryPoint("array", "repro.array.device:ArrayCompass.measure_heading",
               _count_fusion),
    EntryPoint("array", "repro.array.device:ArrayCompass.measure_world",
               _count_fusion),
    EntryPoint("array", "repro.array.device:ArrayCompass.sweep_headings",
               _count_sweep_fusions),
    EntryPoint("factory", "repro.factory.line:FactoryLine.run"),
    EntryPoint("factory", "repro.factory.line:run_stage",
               label=_stage_name),
    EntryPoint("factory", "repro.factory.line:run_field_oracle"),
    EntryPoint("btest",
               "repro.btest.interconnect:SubstrateHarness.diagnose_with_complement",
               _count_diagnosis),
)


def _resolve(target: str):
    module_name, qualname = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = vars(owner)[attr]
    if not callable(original):
        raise TypeError(f"entry point {target} is not a plain function")
    return owner, attr, original


class _TracedAwaitable:
    """Drives a coroutine, recording one span per synchronous segment."""

    __slots__ = ("_tracer", "_name", "_layer", "_coro")

    def __init__(self, tracer: Tracer, name: str, layer: str, coro):
        self._tracer = tracer
        self._name = name
        self._layer = layer
        self._coro = coro

    def __await__(self):
        tracer, coro = self._tracer, self._coro
        request = None
        step, value = coro.send, None
        while True:
            span = tracer.open(self._name, self._layer, request)
            request = span[REQUEST]
            try:
                command = step(value)
            except StopIteration as stop:
                tracer.close(span)
                return stop.value
            except BaseException:
                tracer.close(span)
                raise
            tracer.close(span)
            try:
                step, value = coro.send, (yield command)
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as error:  # forwarded into the coroutine
                step, value = coro.throw, error


def _wrap(tracer: Tracer, entry: EntryPoint, original: Callable) -> Callable:
    name = entry.target.split(":")[1]
    layer, hook, probe, label = entry.layer, entry.hook, entry.probe, entry.label

    if inspect.iscoroutinefunction(original):

        @functools.wraps(original)
        def traced_coroutine(*args, **kwargs):
            return _TracedAwaitable(tracer, name, layer, original(*args, **kwargs))

        return traced_coroutine

    @functools.wraps(original)
    def traced(*args, **kwargs):
        before = probe(args, kwargs) if probe is not None else None
        if entry.span:
            span = tracer.open(
                name if label is None else f"{name}.{label(args, kwargs)}", layer
            )
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
        else:
            result = original(*args, **kwargs)
        if hook is not None:
            hook(tracer, args, kwargs, result, before)
        return result

    return traced


class installed:
    """Context manager: wrap every entry point for the duration."""

    def __init__(self, tracer: Tracer, entries=ENTRY_POINTS):
        self.tracer = tracer
        self.entries = entries
        self._undo: List[tuple] = []

    def __enter__(self) -> Tracer:
        try:
            for entry in self.entries:
                owner, attr, original = _resolve(entry.target)
                setattr(owner, attr, _wrap(self.tracer, entry, original))
                self._undo.append((owner, attr, original))
        except BaseException:
            self._restore()
            raise
        return self.tracer

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
