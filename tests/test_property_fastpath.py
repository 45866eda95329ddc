"""Property-based equivalence: certified fast path ≡ stepped engine.

Hypothesis draws axis fields, comparator imperfections (threshold,
hysteresis, propagation delay, static offset) and devices shifted by
temperature and by production tolerances, and asserts that the fast
path never changes the measurement: either the certified closed form is
used — its edges near a counter tick resolved to the stepped edges bit
for bit — or the front end falls back to the stepped engine.  Either way
counts, heading, field estimate and health compare with ``==``.  The
values the measurement faults patch (pickup scales, an amplifier output
offset, a stuck comparator) are drawn too, and every registered
measurement fault is checked on a sample of the golden vectors.
"""

import contextlib
import dataclasses
import json
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analog import fastpath
from repro.analog.excitation import DEFAULT_TRACE_CACHE
from repro.analog.frontend import AnalogFrontEnd, FrontEndConfig
from repro.analog.pulse_detector import DetectorParameters
from repro.core.compass import CompassConfig, IntegratedCompass
from repro.core.tolerance import PRODUCTION_1997, perturbed_config
from repro.errors import ReproError
from repro.faults.model import REGISTRY, _patched, arming
from repro.physics.thermal import compass_config_at_temperature
from repro.sensors.fluxgate import FluxgateSensor
from repro.sensors.parameters import IDEAL_TARGET
from repro.simulation.engine import TimeGrid

# Axis fields a little past the ±52 A/m validity envelope, so draws
# exercise the fallback seam too.
axis_fields = st.floats(min_value=-56.0, max_value=56.0)
thresholds = st.floats(min_value=0.08, max_value=0.14)
hysteresis_values = st.floats(min_value=0.02, max_value=0.05)
delays = st.floats(min_value=0.0, max_value=120e-9)
offsets = st.floats(min_value=-0.006, max_value=0.006)
temperatures = st.one_of(st.none(), st.floats(min_value=-40.0, max_value=85.0))
tolerance_seeds = st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1))
# One or two pickup gain factors in (0, 1], as shorted turns and an axis
# gain loss arm them.
pickup_scale_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True), max_size=2
)
# Amplifier output offsets [V] of either sign: 5 µV input-referred is
# 5e-4 V here, and the release level is 0.08 V.
output_offsets = st.one_of(st.just(0.0), st.floats(min_value=-0.04, max_value=0.04))

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "compass_vectors.json"
#: Every sixth golden vector: 8 headings across the rated fields.
SAMPLED_VECTORS = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["vectors"][::6]
MEASUREMENT_FAULTS = [
    (name, severity)
    for name in REGISTRY.select("measurement")
    for severity in REGISTRY.get(name).severities
]


def detector_strategy():
    return st.builds(
        DetectorParameters,
        threshold=thresholds,
        hysteresis=hysteresis_values,
        comparator_delay=delays,
        offset=offsets,
    )


def device(detector, temperature_c, tolerance_seed) -> CompassConfig:
    config = CompassConfig(front_end=FrontEndConfig(detector=detector))
    if temperature_c is not None:
        config = compass_config_at_temperature(config, temperature_c)
    if tolerance_seed is not None:
        config = perturbed_config(
            config, PRODUCTION_1997, np.random.default_rng(tolerance_seed)
        )
    return config


def engine(config: CompassConfig, fast: bool) -> IntegratedCompass:
    front_end = dataclasses.replace(config.front_end, fastpath=fast)
    return IntegratedCompass(dataclasses.replace(config, front_end=front_end))


@contextlib.contextmanager
def value_faults(compass, scales, offset, stuck):
    """Arm the drawn fault values on ``compass`` as the registry does."""
    with contextlib.ExitStack() as stack:
        sensor = compass.sensors.sensor_x
        for scale in scales:
            stack.enter_context(arming(compass, _patched(
                sensor, "pickup_scales", sensor.pickup_scales + (scale,)
            )))
        if offset:
            stack.enter_context(arming(compass, _patched(
                compass.front_end.amplifier, "output_offset", offset
            )))
        if stuck:
            stack.enter_context(arming(compass, _patched(
                compass.front_end.detector.comparator_positive, "stuck", True
            )))
        yield


def served(compass: IntegratedCompass, h_x: float, h_y: float):
    """The measurement's served values, or the typed error it raised."""
    try:
        m = compass.measure_components(h_x, h_y)
    except ReproError as error:
        return type(error).__name__, str(error)
    return m.x_count, m.y_count, m.heading_deg, m.field_estimate_a_per_m, m.health


class TestCompassEquivalenceProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        h_x=axis_fields,
        h_y=axis_fields,
        detector=detector_strategy(),
        temperature_c=temperatures,
        tolerance_seed=tolerance_seeds,
    )
    # The uncertified closed form read y = -469 (stepped -471) and
    # x = -285 (stepped -287) here: one edge each within ps of a tick.
    @example(
        h_x=-26.88036490132368, h_y=-12.07800985652365,
        detector=DetectorParameters(), temperature_c=None, tolerance_seed=None,
    )
    @example(
        h_x=-7.371475062976813, h_y=-1.530562648430049,
        detector=DetectorParameters(), temperature_c=None, tolerance_seed=None,
    )
    def test_certified_measurement_equals_stepped(
        self, h_x, h_y, detector, temperature_c, tolerance_seed
    ):
        config = device(detector, temperature_c, tolerance_seed)
        fast = engine(config, fast=True)
        stepped = engine(config, fast=False)
        assert served(fast, h_x, h_y) == served(stepped, h_x, h_y)
        stats = fast.front_end.fastpath_stats
        assert stats.attempted == 2
        assert stats.used + stats.fallback_total == 2


class TestResolverProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        h=st.floats(min_value=-50.0, max_value=50.0),
        detector=detector_strategy(),
        temperature_c=temperatures,
        tolerance_seed=tolerance_seeds,
    )
    def test_every_resolved_edge_is_the_stepped_edge(
        self, h, detector, temperature_c, tolerance_seed
    ):
        compass = engine(device(detector, temperature_c, tolerance_seed), True)
        front_end, sensor = compass.front_end, compass.sensors.sensor_x
        grid = compass._channel_grid()
        tick = compass.back_end.counter.config.tick
        lattice = fastpath.CountLattice(*compass._count_window(grid), tick)
        front_end.excitation.select_channel("x")
        stats = fastpath.FastPathStats()
        # A guard of one whole tick marks every edge near: all of them go
        # through the exact resolver.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fastpath, "TICK_GUARD_S", tick)
            solved = fastpath.solve_channel_batch(
                front_end, sensor, "x", np.array([h]), grid, lattice, stats
            )
        if solved is None:
            # Only the envelope may refuse: a resolver that gives up on
            # an edge (``tick-margin``) fails the property.
            assert set(stats.fallbacks) == {"validity-envelope"}
            return  # outside the envelope: the fallback seam applies
        stepped = front_end.measure_channel(sensor, "x", h, grid).detector_output
        assert stats.resolved == len(stepped.edges) == 2 * grid.n_periods
        assert solved[0].edges == stepped.edges


class TestSolverEdgeProperty:
    GRID = TimeGrid(n_periods=9)

    @settings(max_examples=25, deadline=None)
    @given(
        h_external=st.floats(min_value=-52.0, max_value=52.0),
        detector=detector_strategy(),
    )
    def test_edges_within_one_tick_whenever_solver_accepts(
        self, h_external, detector
    ):
        fe = AnalogFrontEnd(FrontEndConfig(detector=detector))
        sensor = FluxgateSensor(IDEAL_TARGET)
        fast = fastpath.solve_channel(fe, sensor, "x", h_external, self.GRID)
        if fast is None:
            return  # outside the drawn envelope: the fallback seam applies
        stepped = fe.measure_channel(
            sensor, "x", h_external, self.GRID
        ).detector_output
        assert [e.value for e in fast.edges] == [e.value for e in stepped.edges]
        worst = max(
            abs(a.time - b.time) for a, b in zip(fast.edges, stepped.edges)
        )
        assert worst < self.GRID.dt


class TestValueFaultProperty:
    """The patched values the solver reads: measurement and resolver."""

    @settings(max_examples=30, deadline=None)
    @given(
        h_x=axis_fields,
        h_y=axis_fields,
        scales=pickup_scale_lists,
        offset=output_offsets,
        stuck=st.booleans(),
    )
    # The registered severities: 0.3 shorted pickup nested with 0.02 axis
    # loss, a 5 µV offset (5e-4 V out) of each sign, the stuck comparator.
    @example(
        h_x=-26.88036490132368, h_y=-12.07800985652365,
        scales=[0.7, 0.98], offset=5e-4, stuck=True,
    )
    @example(
        h_x=-7.371475062976813, h_y=-1.530562648430049,
        scales=[0.7], offset=-5e-4, stuck=False,
    )
    def test_faulted_measurement_equals_stepped(self, h_x, h_y, scales, offset, stuck):
        fast = engine(CompassConfig(), fast=True)
        stepped = engine(CompassConfig(), fast=False)
        with value_faults(fast, scales, offset, stuck):
            a = served(fast, h_x, h_y)
        with value_faults(stepped, scales, offset, stuck):
            b = served(stepped, h_x, h_y)
        assert a == b
        stats = fast.front_end.fastpath_stats
        assert stats.used + stats.fallback_total == stats.attempted
        assert "armed-fault" not in stats.fallbacks

    @settings(max_examples=15, deadline=None)
    @given(
        h=st.floats(min_value=-50.0, max_value=50.0),
        scales=pickup_scale_lists,
        offset=output_offsets,
        stuck=st.booleans(),
    )
    @example(h=10.0, scales=[0.7, 0.98], offset=5e-4, stuck=True)
    def test_every_resolved_edge_is_the_stepped_edge(self, h, scales, offset, stuck):
        compass = engine(CompassConfig(), True)
        front_end, sensor = compass.front_end, compass.sensors.sensor_x
        grid = compass._channel_grid()
        tick = compass.back_end.counter.config.tick
        lattice = fastpath.CountLattice(*compass._count_window(grid), tick)
        front_end.excitation.select_channel("x")
        stats = fastpath.FastPathStats()
        with value_faults(compass, scales, offset, stuck):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(fastpath, "TICK_GUARD_S", tick)
                solved = fastpath.solve_channel_batch(
                    front_end, sensor, "x", np.array([h]), grid, lattice, stats
                )
        if solved is None:
            assert set(stats.fallbacks) == {"validity-envelope"}
            return
        # The stepped reference is the compass's own row engine: the
        # waveform probe ``measure_channel`` leaves sensor faults out.
        reference = engine(CompassConfig(), False)
        reference.front_end.excitation.select_channel("x")
        with value_faults(reference, scales, offset, stuck):
            (stepped,) = reference._channel_rows(
                reference.sensors.sensor_x, "x", np.array([h]), grid, None,
                DEFAULT_TRACE_CACHE, "scalar",
            )
        assert stats.resolved == stepped.edge_count
        assert solved[0] == stepped


@pytest.mark.parametrize("name,severity", MEASUREMENT_FAULTS)
def test_registered_fault_measures_as_stepped(name, severity):
    """Every registered measurement fault on 8 golden vectors: the default
    compass serves what the stepped pin serves, errors included."""
    fast = engine(CompassConfig(), fast=True)
    stepped = engine(CompassConfig(), fast=False)
    for vector in SAMPLED_VECTORS:
        h_x, h_y = fast.sensors.axis_fields_from_tesla(
            vector["field_ut"] * 1e-6, vector["true_heading_deg"]
        )
        with REGISTRY.inject(name, fast, severity):
            a = served(fast, h_x, h_y)
        with REGISTRY.inject(name, stepped, severity):
            b = served(stepped, h_x, h_y)
        assert a == b
    assert "armed-fault" not in fast.front_end.fastpath_stats.fallbacks
