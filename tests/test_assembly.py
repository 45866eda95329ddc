"""All-rows assembly against one-row-at-a-time assembly.

``IntegratedCompass.assemble_measurement`` serves every row of a call
from one back-end pass and one health review.  Each row must come out
exactly as it would from a call of its own: the same record, the same
error at the same row, and the same supervisor, display and controller
state afterwards.  The reference below assembles the rows one call per
row, each row a fresh one-row edge block, and stops at the first error,
which is what the per-row loop did before the pass existed.
"""

import contextlib

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analog.excitation import DEFAULT_TRACE_CACHE
from repro.analog.frontend import FrontEndConfig
from repro.analog.pulse_detector import DetectorOutput
from repro.core.compass import CompassConfig, IntegratedCompass
from repro.core.health import HealthConfig
from repro.errors import ReproError
from repro.faults.model import REGISTRY
from repro.observe import Observability
from repro.replay.recorder import LogRecorder, attach_recorder

ENGINES = {
    "fastpath": FrontEndConfig(),
    "stepped": FrontEndConfig(fastpath=False),
}

#: (fault name, severity): a stuck bit 12 breaks the count/duty identity
#: of rows with a positive count and leaves negative ones alone, so it
#: fails rows in the middle of a call; the ROM bit-flip fails every row.
FAULTS = {
    "none": None,
    "counter-stuck-bit": ("digital.counter_stuck_bit", 12.0),
    "rom-bitflip": ("digital.cordic_rom_bitflip", 9.0),
}

_DETECTORS = {}


def _detectors(engine, h_x, h_y):
    """Both channels' detector outputs for the rows, and the count window."""
    key = (engine, tuple(h_x), tuple(h_y))
    if key not in _DETECTORS:
        compass = IntegratedCompass(CompassConfig(front_end=ENGINES[engine]))
        grid = compass._channel_grid()
        outputs = [
            compass._channel_rows(
                sensor, channel, h, grid, None, DEFAULT_TRACE_CACHE, "batch"
            )
            for sensor, channel, h in (
                (compass.sensors.sensor_x, "x", h_x),
                (compass.sensors.sensor_y, "y", h_y),
            )
        ]
        _DETECTORS[key] = (*outputs, compass._count_window(grid))
    return _DETECTORS[key]


def _one_row_block(detector):
    return DetectorOutput(detector.edges, detector.initial_value, detector.window)


def _assemble(config, fault, primed, recording, h_x, h_y, detectors, rows_per_call):
    """Assemble the rows ``rows_per_call`` at a time on a fresh compass.

    Returns what a caller of one call over all rows sees (the records,
    or the error raised) and the state left behind, including whatever
    the compass's observer captured of each served row.
    """
    detectors_x, detectors_y, window = detectors
    compass = IntegratedCompass(config)
    if primed:
        compass.measure_heading(10.0)
    recorder = attach_recorder(compass, LogRecorder()) if recording else None
    records, raised = [], None
    injected = (
        contextlib.nullcontext()
        if fault is None
        else REGISTRY.inject(fault[0], compass, fault[1])
    )
    with injected:
        try:
            for start in range(0, len(h_x), rows_per_call):
                rows = slice(start, start + rows_per_call)
                xs, ys = detectors_x[rows], detectors_y[rows]
                if rows_per_call == 1:
                    xs, ys = [_one_row_block(xs[0])], [_one_row_block(ys[0])]
                records += compass.assemble_measurement(
                    h_x[rows], h_y[rows], xs, ys, window, "batch"
                )
        except ReproError as exc:
            raised = (type(exc), str(exc))
            records = []
    supervisor = compass.supervisor
    observer = compass.observer
    state = (
        supervisor._last_good,
        supervisor._stale_measurements,
        compass.back_end.last_result,
        list(compass.back_end.controller.history),
        None if recorder is None else recorder.records,
        None if observer.metrics is None else observer.metrics.snapshot(),
        # A ``measure`` span's ``row`` is the row's index in its call.
        None if observer.tracer is None else [
            (span.name, span.status, sorted(
                (key, value) for key, value in span.attributes.items() if key != "row"
            ))
            for root in observer.ring().roots
            for span in root.walk()
        ],
    )
    return records, raised, state


@st.composite
def calls(draw):
    """A 1-24-row call, maybe with a weak-field row in it."""
    rows = draw(st.integers(1, 24))
    headings = draw(
        st.lists(st.floats(0.0, 360.0, allow_nan=False), min_size=rows, max_size=rows)
    )
    pair = IntegratedCompass().sensors
    fields = [pair.axis_fields_from_tesla(50e-6, heading) for heading in headings]
    weak = draw(st.none() | st.integers(0, rows - 1))
    if weak is not None:
        fields[weak] = (0.0, 0.0)
    h_x = np.array([h for h, _ in fields])
    h_y = np.array([h for _, h in fields])
    return (
        draw(st.sampled_from(sorted(ENGINES))),
        draw(st.sampled_from(sorted(FAULTS))),
        draw(st.booleans()),
        draw(st.booleans()),
        draw(st.booleans()),
        draw(st.booleans()),
        h_x,
        h_y,
    )


class TestAllRowsEqualOneRowAtATime:
    @given(calls())
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_records_errors_and_state_match(self, call):
        engine, fault_name, degrade, primed, recording, observed, h_x, h_y = call
        config = CompassConfig(
            front_end=ENGINES[engine],
            health=HealthConfig(degrade=degrade),
            observe=Observability.on() if observed else Observability(),
        )
        detectors = _detectors(engine, h_x, h_y)
        drawn = (config, FAULTS[fault_name], primed, recording, h_x, h_y, detectors)
        assert _assemble(*drawn, len(h_x)) == _assemble(*drawn, 1)

    def test_a_failing_row_ends_the_call_after_the_rows_before_it(self):
        # A weak-field row in the middle: the rows before it are served
        # (the supervisor and the display moved on), then the call raises.
        compass = IntegratedCompass()
        pair = compass.sensors
        fields = [pair.axis_fields_from_tesla(50e-6, h) for h in (10.0, 20.0, 30.0)]
        fields.insert(2, (0.0, 0.0))
        h_x = np.array([h for h, _ in fields])
        h_y = np.array([h for _, h in fields])
        detectors = _detectors("fastpath", h_x, h_y)
        records, raised, state = _assemble(
            CompassConfig(), None, False, False, h_x, h_y, detectors, len(h_x)
        )
        assert records == []
        assert raised[1].startswith("field too weak")
        last_good, _, last_result, history, *_ = state
        assert last_good.heading_deg == last_result.heading_deg
        assert abs(last_good.heading_deg - 20.0) < 1.0
        walks = len(history) // len(compass.back_end.controller.measurement_sequence)
        assert walks == 3
