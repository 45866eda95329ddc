"""The excitation-trace cache every stepped measurement reads.

The cache is keyed by the values an excitation trace is built from, so
it must never hand one device another device's trace, must never store
a trace a fault wrapper produced, and must stay bounded.  Tests that
inspect the cache build private instances: the default one is shared by
every compass in the process.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.signal import lfilter, lfilter_zi

from repro.analog import fastpath
from repro.analog.comparator import PickupAmplifier
from repro.analog.excitation import (
    DEFAULT_TRACE_CACHE,
    ExcitationSettings,
    ExcitationSource,
    ExcitationTraceCache,
)
from repro.analog.frontend import FrontEndConfig
from repro.analog.waveform import OscillatorParameters
from repro.array import ArrayCompass
from repro.batch import BatchCompass
from repro.core.compass import CompassConfig, IntegratedCompass
from repro.observe import M_CACHE_EVENTS, Observability
from repro.simulation.engine import TimeGrid
from repro.simulation.signals import TimeGradient, Trace

HEADING = 30.0

#: The stepped engine, pinned: the one the cache serves.
STEPPED = CompassConfig(front_end=FrontEndConfig(fastpath=False))

#: Differs from the stepped compass only in the oscillator's slope
#: asymmetry — a value the excitation trace depends on.
SKEWED = CompassConfig(
    front_end=FrontEndConfig(
        excitation=ExcitationSettings(
            oscillator=OscillatorParameters(slope_asymmetry=0.05)
        ),
        fastpath=False,
    )
)


def counts(compass, cache):
    """Every number a measurement carries, for bit-for-bit comparison."""
    (m,) = BatchCompass(compass, cache=cache).sweep_headings([HEADING])
    return (
        m.x_count,
        m.y_count,
        m.heading_deg,
        m.duty_x,
        m.duty_y,
        m.field_estimate_a_per_m,
    )


def small_grid(t_start=0.0):
    return TimeGrid(1, samples_per_period=16, t_start=t_start)


class TestKey:
    def test_oscillator_parameters_are_part_of_the_key(self):
        shared = ExcitationTraceCache()
        plain = counts(IntegratedCompass(STEPPED), shared)
        skewed = counts(IntegratedCompass(SKEWED), shared)
        assert plain == counts(IntegratedCompass(STEPPED), ExcitationTraceCache())
        assert skewed == counts(IntegratedCompass(SKEWED), ExcitationTraceCache())
        assert skewed != plain
        assert len(shared) == 2

    def test_channels_share_one_entry(self):
        cache = ExcitationTraceCache()
        source = ExcitationSource()
        source.select_channel("x")
        x = cache.entry(source, small_grid(), "x", 77.0)
        source.select_channel("y")
        assert cache.entry(source, small_grid(), "y", 77.0) is x
        assert (cache.misses, cache.hits, len(cache)) == (1, 1, 1)


class TestBound:
    def test_least_recently_used_entry_is_evicted_at_capacity(self):
        cache = ExcitationTraceCache()
        source = ExcitationSource()
        grids = [small_grid(t_start=k * 1e-3) for k in range(cache.CAPACITY + 1)]
        first = [cache.entry(source, g, "x", 77.0) for g in grids[:-1]]
        assert cache.entry(source, grids[0], "x", 77.0) is first[0]
        cache.entry(source, grids[-1], "x", 77.0)
        assert len(cache) == cache.CAPACITY
        assert cache.entry(source, grids[0], "x", 77.0) is first[0]
        misses = cache.misses
        assert cache.entry(source, grids[1], "x", 77.0) is not first[1]
        assert cache.misses == misses + 1

    def test_cached_arrays_reject_in_place_writes(self):
        trace = ExcitationTraceCache().entry(
            ExcitationSource(), small_grid(), "x", 77.0
        )
        with pytest.raises(ValueError):
            trace.current.v[0] = 1.0
        with pytest.raises(ValueError):
            trace.current.t[0] = 1.0

    def test_powered_down_converter_bypasses_the_cache(self):
        cache = ExcitationTraceCache()
        source = ExcitationSource()
        source.select_channel("y")
        trace = cache.entry(source, small_grid(), "x", 77.0)
        assert not trace.current.v.any()
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (0, 0)


class TestArmedFault:
    def test_shadowed_generate_runs_and_is_never_stored(self):
        cache = ExcitationTraceCache()
        compass = IntegratedCompass(STEPPED)
        baseline = counts(compass, cache)
        (clean,) = cache._entries.values()

        def arm(target):
            oscillator = target.front_end.excitation.oscillator
            original = oscillator.generate
            calls = []

            def weakened(grid):
                calls.append(grid)
                triangle = original(grid)
                return Trace(triangle.t, 0.9 * triangle.v)

            oscillator.generate = weakened
            return calls

        calls = arm(compass)
        wrapped = counts(compass, cache)
        assert calls
        cold = IntegratedCompass(STEPPED)
        arm(cold)
        assert wrapped == counts(cold, ExcitationTraceCache())
        assert wrapped != baseline

        del compass.front_end.excitation.oscillator.generate
        assert counts(compass, cache) == baseline
        assert list(cache._entries.values()) == [clean]
        assert cache.misses == 1

    def test_fastpath_and_cache_share_the_armed_check(self):
        compass = IntegratedCompass(
            CompassConfig(front_end=FrontEndConfig(fastpath=True))
        )
        front_end = compass.front_end
        sensor = compass.sensors.sensor_x
        assert not front_end.excitation.fault_armed
        assert fastpath.ineligibility_reason(front_end, sensor) is None
        front_end.excitation.oscillator.generate = (
            front_end.excitation.oscillator.generate
        )
        assert front_end.excitation.fault_armed
        assert fastpath.ineligibility_reason(front_end, sensor) == "armed-fault"


class TestDefaultCache:
    def test_every_compass_shares_the_default_cache(self):
        assert BatchCompass().cache is DEFAULT_TRACE_CACHE
        assert BatchCompass(CompassConfig()).cache is DEFAULT_TRACE_CACHE
        assert ArrayCompass().cache is DEFAULT_TRACE_CACHE

    def test_scalar_lookups_are_counted(self):
        compass = IntegratedCompass(
            dataclasses.replace(STEPPED, observe=Observability.on())
        )
        compass.measure_heading(HEADING)
        events = compass.observer.metrics.get(M_CACHE_EVENTS)
        assert events.value(event="hit") + events.value(event="miss") == 2


class TestRowScratch:
    @staticmethod
    def stencil_2d(gradient, values):
        """The whole-matrix interior stencil the row loop replaced."""
        a, b, c, dx = gradient._a, gradient._b, gradient._c, gradient._dx
        out = np.empty_like(values)
        np.multiply(a, values[:, :-2], out=out[:, 1:-1])
        tmp = b * values[:, 1:-1]
        out[:, 1:-1] += tmp
        np.multiply(c, values[:, 2:], out=tmp)
        out[:, 1:-1] += tmp
        out[:, 0] = (values[:, 1] - values[:, 0]) / dx[0]
        out[:, -1] = (values[:, -1] - values[:, -2]) / dx[-1]
        return out

    def test_gradient_keeps_one_row_and_matches_the_2d_stencil(self):
        t = TimeGrid(2, samples_per_period=512).times()
        gradient = TimeGradient(t)
        assert not gradient._uniform

        def held():
            arrays = [v for v in vars(gradient).values() if isinstance(v, np.ndarray)]
            return sum(v.nbytes for v in arrays)

        before = held()
        rng = np.random.default_rng(7)
        for rows in (12, 5):
            values = rng.standard_normal((rows, t.size))
            result = gradient.apply(values)
            assert np.array_equal(result, self.stencil_2d(gradient, values))
            assert np.array_equal(result, np.gradient(values, t, axis=1))
        assert held() - before == (t.size - 2) * 8


class TestLowpassMemo:
    @staticmethod
    def direct(amplifier, values, sample_rate):
        alpha = math.exp(-2.0 * math.pi * amplifier.bandwidth_hz / sample_rate)
        b, a = [1.0 - alpha], [1.0, -alpha]
        return lfilter(
            b, a, values, axis=-1, zi=lfilter_zi(b, a) * values[:, :1]
        )[0]

    def test_memo_matches_direct_filter_across_sample_rates(self):
        amplifier = PickupAmplifier()
        rng = np.random.default_rng(11)
        for sample_rate in (32.768e6, 8.0e6, 32.768e6, 11.3e6):
            for shape in ((1, 256), (3, 256)):
                values = rng.standard_normal(shape)
                assert np.array_equal(
                    amplifier._lowpass(values, sample_rate),
                    self.direct(amplifier, values, sample_rate),
                )
