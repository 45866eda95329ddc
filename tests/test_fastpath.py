"""Tests for the closed-form analog fast path (`repro.analog.fastpath`).

The contract under test: the default compass either (a) uses the
certified closed form — edge times within well below one grid tick of
the stepped engine, and every edge near a counter tick resolved to the
stepped edge exactly, so counts and headings are bit-identical — or
(b) falls back to the stepped engine, with *identical* results, whenever
noise, an armed method wrapper, a non-tanh core, the field-dependent
validity envelope or an unresolvable edge makes the algebra inexact.
Every registered measurement fault patches a value the solver reads, so
the method-wrapper route is exercised with test doubles.
``FrontEndConfig(fastpath=False)`` pins the stepped engine as the
reference.  The fast path must never change what is measured.
"""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.analog import fastpath
from repro.analog.excitation import DEFAULT_TRACE_CACHE
from repro.analog.frontend import AnalogFrontEnd, FrontEndConfig
from repro.analog.pulse_detector import DetectorParameters
from repro.batch.engine import BatchCompass
from repro.core.compass import CompassConfig, IntegratedCompass
from repro.faults.model import REGISTRY, _patched, arming
from repro.observe import Observability
from repro.observe.trace import STAGE_FASTPATH
from repro.physics.noise import NoiseBudget
from repro.replay import LogRecorder, attach_recorder
from repro.sensors.fluxgate import FluxgateSensor
from repro.sensors.parameters import IDEAL_TARGET
from repro.simulation.engine import TimeGrid

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "compass_vectors.json"
GOLDEN_VECTORS = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["vectors"]

#: The stepped engine, pinned: the reference every fast result is held to.
STEPPED = CompassConfig(front_end=FrontEndConfig(fastpath=False))


def fast_compass():
    return IntegratedCompass()


def stepped_compass():
    return IntegratedCompass(STEPPED)


@pytest.fixture
def front_end():
    return AnalogFrontEnd()


@pytest.fixture
def sensor():
    return FluxgateSensor(IDEAL_TARGET)


@pytest.fixture
def grid(front_end):
    osc = front_end.excitation.oscillator.params
    return TimeGrid(frequency_hz=osc.frequency_hz, n_periods=9)


def measurement_key(m):
    return (m.x_count, m.y_count, m.heading_deg, m.field_estimate_a_per_m)


def wrapped_amplifier_offset(compass, volts):
    """A method-wrapper double: ``volts`` input-referred, added to the
    output of the amplifier's ``amplify_batch``, armed on ``compass``."""
    amplifier = compass.front_end.amplifier
    original = amplifier.amplify_batch
    offset = volts * amplifier.gain

    def amplify_batch(values, sample_rate, draw_indices=None):
        return original(values, sample_rate, draw_indices) + offset

    return arming(compass, _patched(amplifier, "amplify_batch", amplify_batch))


class TestEligibility:
    def test_default_configuration_is_eligible(self, front_end, sensor):
        assert fastpath.ineligibility_reason(front_end, sensor) is None

    def test_noise_budget_refused(self, sensor):
        fe = AnalogFrontEnd(
            FrontEndConfig(noise=NoiseBudget(white_density=20e-9))
        )
        assert fastpath.ineligibility_reason(fe, sensor) == "noise-budget"

    @pytest.mark.parametrize("core_model", ["piecewise", "jiles-atherton"])
    def test_non_tanh_core_refused(self, front_end, core_model):
        sensor = FluxgateSensor(IDEAL_TARGET, core_model=core_model)
        assert fastpath.ineligibility_reason(front_end, sensor) == "core-model"

    def test_armed_analog_fault_refused(self, sensor):
        compass = fast_compass()
        fe = compass.front_end
        assert fastpath.ineligibility_reason(fe, sensor) is None
        with wrapped_amplifier_offset(compass, 0.0002):
            assert fastpath.ineligibility_reason(fe, sensor) == "armed-fault"
        assert fastpath.ineligibility_reason(fe, sensor) is None

    def test_stuck_comparator_fault_refused(self, sensor):
        compass = fast_compass()
        fe = compass.front_end
        comparator = fe.detector.comparator_positive

        def falling_edges_batch(values, times, negate=False):
            return [np.empty(0) for _ in range(values.shape[0])]

        wrapper = _patched(comparator, "falling_edges_batch", falling_edges_batch)
        with arming(compass, wrapper):
            assert fastpath.ineligibility_reason(fe, sensor) == "armed-fault"
        # The registered fault sets the comparator's ``stuck`` flag, a
        # value the solver reads.
        with REGISTRY.inject("analog.stuck_comparator", compass, 1.0):
            assert fastpath.ineligibility_reason(fe, sensor) is None


class TestClosedFormEdges:
    """The solver's edge stream vs the stepped engine's, edge by edge."""

    @pytest.mark.parametrize("h_external", [0.0, 10.0, 25.0, 40.0, 51.7, -51.7])
    def test_edges_agree_sub_tick(self, front_end, sensor, grid, h_external):
        fast = fastpath.solve_channel(front_end, sensor, "x", h_external, grid)
        assert fast is not None
        stepped = front_end.measure_channel(
            sensor, "x", h_external, grid
        ).detector_output
        assert fast.initial_value == stepped.initial_value == 0
        assert fast.window == stepped.window
        assert [e.value for e in fast.edges] == [e.value for e in stepped.edges]
        worst = max(
            abs(a.time - b.time) for a, b in zip(fast.edges, stepped.edges)
        )
        # One grid tick is the certification bound; the curvature-
        # corrected algebra actually lands ~30 ps (≈0.001 ticks).
        assert worst < 0.05 * grid.dt

    def test_out_of_envelope_field_refused(self, front_end, sensor, grid):
        # 60 A/m pushes the release crossing into the apex guard band.
        assert fastpath.solve_channel(front_end, sensor, "x", 60.0, grid) is None

    def test_batch_rows_match_scalar_solver(self, front_end, sensor, grid):
        fields = np.array([-40.0, -10.0, 0.0, 25.0, 51.0])
        batch = fastpath.solve_channel_batch(front_end, sensor, "x", fields, grid)
        assert batch is not None and len(batch) == fields.size
        for h, row in zip(fields, batch):
            single = fastpath.solve_channel(front_end, sensor, "x", h, grid)
            assert [(e.time, e.value) for e in row.edges] == [
                (e.time, e.value) for e in single.edges
            ]

    def test_batch_refuses_whole_batch_on_one_bad_row(
        self, front_end, sensor, grid
    ):
        fields = np.array([0.0, 25.0, 60.0])  # last row out of envelope
        assert (
            fastpath.solve_channel_batch(front_end, sensor, "x", fields, grid)
            is None
        )


class TestCertificate:
    """Edges near a counter tick are resolved to the stepped edge exactly."""

    #: Axis fields whose uncertified closed form misread a count by 2
    #: (one edge across one tick): y -469 for -471, and x -285 for -287.
    NEAR_TICK = [
        (-26.88036490132368, -12.07800985652365),
        (-7.371475062976813, -1.530562648430049),
    ]

    def test_resolved_edge_equals_the_stepped_edge_bit_for_bit(self):
        compass = fast_compass()
        h = self.NEAR_TICK[0][1]
        front_end, sensor = compass.front_end, compass.sensors.sensor_y
        grid = compass._channel_grid()
        lattice = fastpath.CountLattice(
            *compass._count_window(grid), compass.back_end.counter.config.tick
        )
        front_end.excitation.select_channel("y")
        stats = fastpath.FastPathStats()
        (solved,) = fastpath.solve_channel_batch(
            front_end, sensor, "y", np.array([h]), grid, lattice, stats
        )
        plain = fastpath.solve_channel(front_end, sensor, "y", h, grid)
        reference = front_end.measure_channel(sensor, "y", h, grid)
        stepped = reference.detector_output.edges
        near = lattice.near(np.array([e.time for e in plain.edges]))
        assert stats.resolved == int(near.sum()) >= 1
        for i, resolved in enumerate(near):
            if resolved:
                assert solved.edges[i] == stepped[i] != plain.edges[i]
            else:
                assert solved.edges[i] == plain.edges[i]

    @pytest.mark.parametrize("h_x,h_y", NEAR_TICK)
    def test_near_tick_fields_count_like_the_stepped_engine(self, h_x, h_y):
        fast = fast_compass()
        a = fast.measure_components(h_x, h_y)
        b = stepped_compass().measure_components(h_x, h_y)
        assert measurement_key(a) == measurement_key(b)
        stats = fast.front_end.fastpath_stats
        assert stats.used == 2 and stats.resolved >= 1

    def test_unresolvable_edge_refuses_with_tick_margin(self, monkeypatch):
        monkeypatch.setattr(
            fastpath._ExactWindow, "release_time", lambda self, *args: None
        )
        h_x, h_y = self.NEAR_TICK[0]
        fast = fast_compass()
        a = fast.measure_components(h_x, h_y)
        b = stepped_compass().measure_components(h_x, h_y)
        assert measurement_key(a) == measurement_key(b)
        stats = fast.front_end.fastpath_stats
        assert stats.fallbacks == {"tick-margin": 1}
        assert stats.used == 1 and stats.resolved == 0

    def test_resolving_compass_never_imports_scipy_signal(self):
        # The resolver runs the filter recursion itself: a default compass
        # pays neither scipy.signal's import time nor its memory.
        h_x, h_y = self.NEAR_TICK[0]
        script = (
            "import sys\n"
            "from repro.core.compass import IntegratedCompass\n"
            "compass = IntegratedCompass()\n"
            f"compass.measure_components({h_x!r}, {h_y!r})\n"
            "assert compass.front_end.fastpath_stats.resolved >= 1\n"
            "assert 'scipy.signal' not in sys.modules, 'scipy.signal imported'\n"
        )
        src = str(pathlib.Path(fastpath.__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (src, env.get("PYTHONPATH")) if part
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr

    def test_error_budget_bounds_the_served_envelope(self):
        # Near the pulse peak the closed form's modelled error passes
        # half the guard, so the solver refuses instead of certifying.
        fe = AnalogFrontEnd(FrontEndConfig(
            detector=DetectorParameters(threshold=0.24, hysteresis=0.0)
        ))
        sensor = FluxgateSensor(IDEAL_TARGET)
        grid = TimeGrid(n_periods=9)
        assert fastpath.solve_channel(fe, sensor, "x", 0.0, grid) is None
        stats = fastpath.FastPathStats()
        fastpath.solve_channel_batch(
            fe, sensor, "x", np.array([0.0]), grid, stats=stats
        )
        assert stats.fallbacks == {"validity-envelope": 1}

    def test_fastpath_outcomes_are_exported_and_traced(self):
        compass = IntegratedCompass(CompassConfig(observe=Observability.on()))
        h_x, h_y = self.NEAR_TICK[0]
        compass.measure_components(h_x, h_y)
        with wrapped_amplifier_offset(compass, 0.0002):
            compass.measure_components(h_x, h_y)
        total = compass.observer.metrics.get("fastpath_total")
        assert total.value(outcome="used", reason="none") == 2
        assert total.value(outcome="fallback", reason="armed-fault") == 2
        spans = [
            s for root in compass.observer.ring().roots for s in root.walk()
            if s.name == STAGE_FASTPATH
        ]
        assert [s.attributes["resolved"] for s in spans] == [0, 1]


class TestFrontEndRouting:
    """The front-end chain is routed once, at the compass entry point."""

    @staticmethod
    def _count_waveforms(monkeypatch):
        # Class-level spies count every sensor's calls.  A spy is no
        # armed fault: only the registry's arming seam arms one.
        calls = []
        for name in ("simulate", "simulate_batch"):
            original = getattr(FluxgateSensor, name)

            def spy(self, *args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(FluxgateSensor, name, spy)
        return calls

    @staticmethod
    def _edges(compass, h_x, h_y):
        grid = compass._channel_grid()
        compass.front_end.enable()
        edges = {}
        for channel, sensor, h in (
            ("x", compass.sensors.sensor_x, h_x),
            ("y", compass.sensors.sensor_y, h_y),
        ):
            (output,) = compass._channel_rows(
                sensor, channel, np.array([h]), grid, None,
                DEFAULT_TRACE_CACHE, "scalar",
            )
            edges[channel] = [(e.time, e.value) for e in output.edges]
        return edges

    def test_fastpath_measurement_skips_waveforms(self, monkeypatch, grid):
        calls = self._count_waveforms(monkeypatch)
        fast = fast_compass()
        edges = self._edges(fast, 30.0, -20.0)
        assert calls == []
        assert fast.front_end.fastpath_stats.used == 2
        ref = self._edges(stepped_compass(), 30.0, -20.0)
        for channel in ("x", "y"):
            assert [v for _, v in edges[channel]] == [
                v for _, v in ref[channel]
            ]
            worst = max(
                abs(a - b) for (a, _), (b, _) in zip(edges[channel], ref[channel])
            )
            assert worst < 0.05 * grid.dt

    def test_envelope_fallback_is_silent_and_identical(self, monkeypatch):
        calls = self._count_waveforms(monkeypatch)
        fast = fast_compass()
        edges = self._edges(fast, 60.0, 0.0)
        assert calls  # the stepped engine ran for the x channel
        ref = self._edges(stepped_compass(), 60.0, 0.0)
        assert edges["x"] == ref["x"]
        stats = fast.front_end.fastpath_stats
        assert stats.fallbacks == {"validity-envelope": 1}
        assert stats.used == 1

    def test_default_config_attempts_fastpath(self):
        compass = IntegratedCompass()
        compass.measure_components(30.0, -20.0)
        stats = compass.front_end.fastpath_stats
        assert stats.attempted == stats.used == 2

    def test_stepped_pin_never_attempts_fastpath(self):
        compass = stepped_compass()
        compass.measure_components(30.0, -20.0)
        assert compass.front_end.fastpath_stats.attempted == 0

    def test_recording_compass_measures_stepped(self):
        fast = IntegratedCompass(
            CompassConfig(front_end=FrontEndConfig(fastpath=True))
        )
        recorded = attach_recorder(fast, LogRecorder())
        fast.measure_components(30.0, -20.0)
        assert fast.front_end.fastpath_stats.attempted == 0
        stepped = stepped_compass()
        reference = attach_recorder(stepped, LogRecorder())
        stepped.measure_components(30.0, -20.0)
        assert recorded.records[0].channels == reference.records[0].channels

    @pytest.mark.parametrize("path", ["scalar", "batch"])
    def test_solver_runs_inside_the_fastpath_span(self, monkeypatch, path):
        compass = IntegratedCompass(CompassConfig(observe=Observability.on()))
        solves = []
        original = fastpath.solve_channel_batch

        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            solves.append((start, time.perf_counter()))
            return result

        monkeypatch.setattr(fastpath, "solve_channel_batch", timed)
        if path == "scalar":
            compass.measure_heading(45.0)
        else:
            BatchCompass(compass).sweep_headings([45.0, 90.0])
        root = compass.observer.ring().roots[-1]
        spans = [s for s in root.walk() if s.name == STAGE_FASTPATH]
        assert len(solves) == len(spans) == 2
        for (start, end), span in zip(solves, spans):
            assert span.start_s <= start and end <= span.end_s


class TestCompassEquivalence:
    FIELDS_UT = (25.0, 50.0, 65.0)

    def test_headings_bit_identical_across_fields(self):
        stepped = stepped_compass()
        fast = fast_compass()
        for field_ut in self.FIELDS_UT:
            for heading in (0.5, 77.0, 138.0, 221.5, 305.0):
                a = stepped.measure_heading(heading, field_ut * 1e-6)
                b = fast.measure_heading(heading, field_ut * 1e-6)
                assert measurement_key(a) == measurement_key(b)
        stats = fast.front_end.fastpath_stats
        assert stats.used == stats.attempted == 30
        assert stats.fallbacks == {}

    def test_batch_sweep_bit_identical(self):
        headings = np.linspace(0.0, 360.0, 24, endpoint=False)
        fast = BatchCompass()
        stepped = BatchCompass(STEPPED)
        out_fast = fast.sweep_headings(headings, 50e-6)
        out_stepped = stepped.sweep_headings(headings, 50e-6)
        for a, b in zip(out_stepped, out_fast):
            assert measurement_key(a) == measurement_key(b)
        stats = fast.compass.front_end.fastpath_stats
        assert stats.used == stats.attempted == 2 * headings.size

    def test_armed_fault_falls_back_to_faulty_stepped_result(self):
        fast = fast_compass()
        stepped = stepped_compass()
        with wrapped_amplifier_offset(fast, 0.0002):
            a = fast.measure_heading(120.0, 50e-6)
        with wrapped_amplifier_offset(stepped, 0.0002):
            b = stepped.measure_heading(120.0, 50e-6)
        assert measurement_key(a) == measurement_key(b)
        assert fast.front_end.fastpath_stats.fallbacks == {"armed-fault": 2}
        # Fault gone -> the fast path resumes.
        fast.measure_heading(10.0, 50e-6)
        assert fast.front_end.fastpath_stats.used == 2

    def test_noisy_budget_falls_back_to_seeded_stepped_result(self):
        noise = NoiseBudget(white_density=20e-9)
        fast = IntegratedCompass(CompassConfig(
            front_end=FrontEndConfig(noise=noise, noise_seed=7)
        ))
        stepped = IntegratedCompass(CompassConfig(
            front_end=FrontEndConfig(fastpath=False, noise=noise, noise_seed=7)
        ))
        a = fast.measure_heading(42.0, 50e-6)
        b = stepped.measure_heading(42.0, 50e-6)
        assert measurement_key(a) == measurement_key(b)
        assert fast.front_end.fastpath_stats.fallbacks == {"noise-budget": 2}

    @pytest.mark.parametrize("core_model", ["piecewise", "jiles-atherton"])
    def test_non_tanh_core_falls_back(self, core_model):
        fast = IntegratedCompass(CompassConfig(core_model=core_model))
        stepped = IntegratedCompass(
            dataclasses.replace(STEPPED, core_model=core_model)
        )
        a = fast.measure_heading(42.0, 50e-6)
        b = stepped.measure_heading(42.0, 50e-6)
        assert measurement_key(a) == measurement_key(b)
        assert fast.front_end.fastpath_stats.fallbacks == {"core-model": 2}


ENVELOPE = "validity-envelope"
USED = ("used", "used")

#: The (x, y) channel routing of every registered measurement fault ×
#: severity at a rated field (30°, 50 µT): ``used`` or the fallback
#: reason.  Each one patches a value the solver reads, so none is an
#: ``armed-fault``; only a severity that leaves the envelope refuses.
FAULT_ROUTES = {
    ("analog.amplifier_offset", 5e-6): USED,
    ("analog.amplifier_offset", 2e-3): (ENVELOPE, ENVELOPE),
    ("analog.stuck_comparator", 1.0): USED,
    ("digital.cordic_rom_bitflip", 0.0): USED,
    ("digital.cordic_rom_bitflip", 9.0): USED,
    ("digital.counter_stuck_bit", 1.0): USED,
    ("digital.counter_stuck_bit", 12.0): USED,
    ("sensor.axis_gain_mismatch", 0.02): USED,
    ("sensor.axis_gain_mismatch", 0.9): (ENVELOPE, "used"),
    ("sensor.common_gain_drift", 0.05): USED,
    ("sensor.common_gain_drift", 4.0): (ENVELOPE, ENVELOPE),
    ("sensor.open_excitation_coil", 1.0): (ENVELOPE, "used"),
    ("sensor.saturation_loss", 0.2): USED,
    ("sensor.saturation_loss", 0.8): (ENVELOPE, ENVELOPE),
    ("sensor.shorted_pickup_coil", 0.3): USED,
    ("sensor.shorted_pickup_coil", 0.9): (ENVELOPE, "used"),
    ("sensor.shorted_pickup_coil", 1.0): (ENVELOPE, "used"),
}


class TestFaultRouting:
    """Which channels of a faulted compass the closed form serves."""

    @staticmethod
    def _route(compass, channel, sensor, h):
        """``used``, or the reason ``fastpath_stats.fallbacks`` gained."""
        stats = compass.front_end.fastpath_stats
        before = dict(stats.fallbacks)
        compass.front_end.excitation.select_channel(channel)
        solved = compass._closed_form_rows(
            sensor, channel, np.array([h]), compass._channel_grid()
        )
        if solved is not None:
            return "used"
        (reason,) = [r for r, n in stats.fallbacks.items() if n != before.get(r, 0)]
        return reason

    def test_every_measurement_fault_is_pinned(self):
        assert set(FAULT_ROUTES) == {
            (name, severity)
            for name in REGISTRY.select("measurement")
            for severity in REGISTRY.get(name).severities
        }

    @pytest.mark.parametrize("name,severity", sorted(FAULT_ROUTES))
    def test_routing_per_channel(self, name, severity):
        compass = fast_compass()
        h_x, h_y = compass.sensors.axis_fields_from_tesla(50e-6, 30.0)
        with REGISTRY.inject(name, compass, severity):
            routes = (
                self._route(compass, "x", compass.sensors.sensor_x, h_x),
                self._route(compass, "y", compass.sensors.sensor_y, h_y),
            )
        assert "armed-fault" not in routes
        assert routes == FAULT_ROUTES[name, severity]


class TestGoldenConformance:
    def test_all_48_vectors_conform_on_fastpath(self):
        """Measurement-level exact conformance: the default compass and the
        pinned stepped engine serve identical records on every vector."""
        assert len(GOLDEN_VECTORS) == 48
        fast = fast_compass()
        stepped = stepped_compass()
        stats = fast.front_end.fastpath_stats
        for vector in GOLDEN_VECTORS:
            used = stats.used
            args = (vector["true_heading_deg"], vector["field_ut"] * 1e-6)
            a = fast.measure_heading(*args)
            b = stepped.measure_heading(*args)
            assert measurement_key(a) == measurement_key(b)
            assert a.health == b.health
            assert stats.used - used == 2
        assert stats.fallbacks == {}
