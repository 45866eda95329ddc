"""The edge-time block against the per-edge loops it replaced.

A detector output is one row of an :class:`EdgeBlock`; the counter's
high ticks, both duty cycles, the health review's set/reset tally and
``value_at`` are read from per-window passes over the whole block (a
numpy pass over many rows, a walk over a one-row block).  The oracles
below are the per-edge loops the repository used before the block
existed, copied verbatim apart from taking ``(time, value)`` pairs: every
value the block serves must equal theirs with ``==``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analog import fastpath
from repro.analog.frontend import FrontEndConfig
from repro.analog.pulse_detector import DetectorOutput, EdgeBlock, LogicEdge
from repro.batch import BatchCompass
from repro.core.compass import CompassConfig, IntegratedCompass
from repro.core.health import _edges_in_window
from repro.digital.counter import CounterConfig, CountResult, UpDownCounter
from repro.errors import ConfigurationError

COUNTER = CounterConfig(width_bits=32)
TICK = COUNTER.tick


# -- the per-edge loops, as they were ---------------------------------------


def oracle_value_at(edges, initial, time):
    value = initial
    for edge_time, edge_value in edges:
        if edge_time > time:
            break
        value = edge_value
    return value


def oracle_duty(edges, initial, window):
    t_start, t_end = window
    high_time = 0.0
    value = initial
    t_prev = t_start
    for edge_time, edge_value in edges:
        t_clamped = min(max(edge_time, t_start), t_end)
        if value == 1:
            high_time += t_clamped - t_prev
        t_prev = t_clamped
        value = edge_value
    if value == 1:
        high_time += t_end - t_prev
    return high_time / (t_end - t_start)


def _ticks_in(t_start, t_end, t_origin):
    if t_end <= t_start:
        return 0
    first = math.ceil((t_start - t_origin) / TICK - 1e-12)
    last = math.ceil((t_end - t_origin) / TICK - 1e-12)
    return max(0, last - first)


def oracle_count(edges, initial, window):
    t_start, t_end = window
    total_ticks = _ticks_in(t_start, t_end, t_start)
    high_ticks = 0
    value = oracle_value_at(edges, initial, t_start)
    t_prev = t_start
    for edge_time, edge_value in edges:
        if edge_time <= t_start:
            value = edge_value
            continue
        if edge_time >= t_end:
            break
        if value == 1:
            high_ticks += _ticks_in(t_prev, edge_time, t_start)
        t_prev = edge_time
        value = edge_value
    if value == 1:
        high_ticks += _ticks_in(t_prev, t_end, t_start)
    count = 2 * high_ticks - total_ticks
    return CountResult(
        count=count, total_ticks=total_ticks, high_ticks=high_ticks, overflowed=False
    )


def oracle_tally(edges, window):
    t_start, t_end = window
    sets = resets = 0
    for edge_time, edge_value in edges:
        if t_start < edge_time < t_end:
            if edge_value == 1:
                sets += 1
            else:
                resets += 1
    return sets, resets


# -- draws --------------------------------------------------------------------


def _nudged(time, ulps):
    for _ in range(abs(ulps)):
        time = math.nextafter(time, math.copysign(math.inf, ulps))
    return time


@st.composite
def streams(draw, origin, span):
    """One row's ``(initial, [(time, value), ...])`` around the counting
    window ``[origin, origin + span·tick]``: edges exactly on ticks and a
    few ulps either side (where the tick arithmetic's ``- 1e-12``
    decides), between ticks, exactly at either window end, outside the
    window, and anywhere in ``[0, end]`` with any mantissa (so sums of
    segment lengths round, and summation order shows); values need not
    alternate."""
    t_end = origin + span * TICK
    tick_index = st.integers(-8, span + 8)
    time = st.one_of(
        st.tuples(tick_index, st.integers(-3, 3)).map(
            lambda kn: _nudged(origin + kn[0] * TICK, kn[1])
        ),
        st.tuples(tick_index, st.floats(0.0, 1.0)).map(
            lambda kf: origin + (kf[0] + kf[1]) * TICK
        ),
        st.floats(0.0, t_end),
        st.sampled_from([origin, t_end, t_end + 40 * TICK]),
    )
    times = sorted(draw(st.lists(time, max_size=40)))
    if draw(st.booleans()):
        values = [(i + draw(st.integers(0, 1))) % 2 for i in range(len(times))]
    else:
        values = draw(st.lists(st.integers(0, 1), min_size=len(times),
                               max_size=len(times)))
    return draw(st.integers(0, 1)), list(zip(times, values))


#: Counting-window origins: zero, and off zero like the compass's
#: (after the settling periods), so tick indices see a real origin.
ORIGINS = st.sampled_from([0.0, 1.7e-6, 3.0e-4])


@st.composite
def blocks(draw):
    """A block of 1–4 ragged rows, its counting and observation windows
    and which window the first reader asks for."""
    origin = draw(ORIGINS)
    span = draw(st.integers(1, 300))
    count_window = (origin, origin + span * TICK)
    rows = draw(st.lists(streams(origin, span), min_size=1, max_size=4))
    observation = draw(st.sampled_from([
        (0.0, count_window[1]),
        count_window,
        (origin + 0.25 * span * TICK, origin + 0.75 * span * TICK + TICK),
        (-TICK, count_window[1] + 50 * TICK),
    ]))
    if observation[0] >= observation[1]:
        observation = (observation[0], observation[0] + TICK)
    width = max(len(edges) for _, edges in rows)
    times = np.full((len(rows), width), np.inf)
    values = np.zeros((len(rows), width), dtype=np.int8)
    for row, (_, edges) in enumerate(rows):
        for column, (time, value) in enumerate(edges):
            times[row, column] = time
            values[row, column] = value
    block = EdgeBlock(
        times,
        values,
        np.array([initial for initial, _ in rows], dtype=np.int8),
        observation,
        np.array([len(edges) for _, edges in rows]),
    )
    return block, rows, count_window, draw(st.booleans())


def _check(block, rows, count_window, observation_first):
    counter = UpDownCounter(COUNTER)
    observation = block.window
    for output, (initial, edges) in zip(block.rows(), rows):
        if observation_first:
            assert output.duty_cycle() == oracle_duty(edges, initial, observation)
        assert counter.count_window(output, count_window) == oracle_count(
            edges, initial, count_window
        )
        assert output.duty_cycle(count_window) == oracle_duty(
            edges, initial, count_window
        )
        assert _edges_in_window(output, count_window) == oracle_tally(
            edges, count_window
        )
        assert output.duty_cycle() == oracle_duty(edges, initial, observation)
        for probe in count_window + observation + tuple(t for t, _ in edges):
            assert output.value_at(probe) == oracle_value_at(edges, initial, probe)
        assert output.initial_value == initial
        assert [(e.time, e.value) for e in output.edges] == edges


class TestOracle:
    @given(blocks())
    @settings(max_examples=300, deadline=None)
    def test_block_values_equal_the_per_edge_loops(self, drawn):
        _check(*drawn)

    @pytest.mark.slow
    @given(blocks())
    @settings(max_examples=5000, deadline=None)
    def test_block_values_equal_the_per_edge_loops_long(self, drawn):
        _check(*drawn)

    @given(ORIGINS.flatmap(lambda origin: st.tuples(
        st.just(origin), streams(origin, 120), st.booleans()
    )))
    @settings(max_examples=300, deadline=None)
    def test_constructed_output_is_a_one_row_block(self, drawn):
        origin, stream, observation_first = drawn
        initial, edges = stream
        window = (0.0, origin + 120 * TICK)
        output = DetectorOutput(
            edges=[LogicEdge(time, value) for time, value in edges],
            initial_value=initial,
            window=window,
        )
        assert output.block.times.shape == (1, len(edges))
        _check(output.block, [stream], (origin, window[1]), observation_first)


class TestDetectorOutput:
    def test_out_of_order_edges_rejected(self):
        with pytest.raises(ConfigurationError, match="time-ordered"):
            DetectorOutput(
                edges=(LogicEdge(2e-4, 1), LogicEdge(1e-4, 0)),
                initial_value=0,
                window=(0.0, 1e-3),
            )

    def test_equality_compares_the_stream(self):
        def output(last):
            return DetectorOutput(
                edges=(LogicEdge(1e-4, 1), LogicEdge(last, 0)),
                initial_value=0,
                window=(0.0, 1e-3),
            )

        assert output(5e-4) == output(5e-4)
        assert output(5e-4) != output(6e-4)


class TestNoPerEdgeObjects:
    """The measurement paths carry edge times as arrays: ``LogicEdge``
    objects exist only once someone reads ``.edges``."""

    def test_default_and_stepped_paths_build_none(self):
        before = LogicEdge.constructed
        IntegratedCompass().measure_heading(123.0)
        BatchCompass().sweep_headings(n_points=24)
        stepped = CompassConfig(front_end=FrontEndConfig(fastpath=False))
        BatchCompass(stepped).sweep_headings(n_points=2)
        IntegratedCompass(stepped).measure_heading(123.0)
        assert LogicEdge.constructed == before

    def test_reading_edges_builds_them(self):
        compass = IntegratedCompass()
        grid = compass._channel_grid()
        output = fastpath.solve_channel(
            compass.front_end, compass.sensors.sensor_x, "x", 20.0, grid
        )
        before = LogicEdge.constructed
        assert len(output.edges) == 2 * grid.n_periods
        assert LogicEdge.constructed == before + 2 * grid.n_periods


class TestOneWalkPerRow:
    def test_one_measurement_walks_each_channel_once(self, monkeypatch):
        # A one-row block serves the counter's window and its own
        # observation window (duty_x/duty_y) from a single edge walk.
        walked = []
        walk = EdgeBlock._walk

        def counting_walk(block, window, tick):
            walked.append(block)
            walk(block, window, tick)

        compass = IntegratedCompass()
        monkeypatch.setattr(EdgeBlock, "_walk", counting_walk)
        compass.measure_heading(123.0)
        assert len(walked) == 2
        assert walked[0] is not walked[1]
