"""The stepped chain's one scratch workspace is bounded and leaks nothing."""

import numpy as np
import pytest

from repro.analog.comparator import Comparator, ComparatorParameters, PickupAmplifier
from repro.analog.excitation import ExcitationSource
from repro.analog.pulse_detector import PulsePositionDetector
from repro.physics.noise import NoiseBudget
from repro.sensors.fluxgate import FluxgateSensor
from repro.sensors.parameters import DISCRETE_MINIATURE, IDEAL_TARGET
from repro.simulation import scratch as workspace
from repro.simulation.engine import TimeGrid
from repro.simulation.signals import Trace


@pytest.fixture
def held():
    """The workspace's ``lru_cache``, emptied for the test."""
    workspace._held.cache_clear()
    return workspace._held


class TestWorkspace:
    def test_holds_no_more_than_its_bound(self, held):
        last = 2 + workspace.SCRATCH_ENTRIES + 3
        for rows in range(2, last + 1):
            workspace.scratch("probe", (rows, 3))
        assert held.cache_info().currsize == workspace.SCRATCH_ENTRIES
        newest = workspace.scratch("probe", (last, 3))
        assert held.cache_info().misses == last - 1  # the newest was kept
        workspace.scratch("probe", (2, 3))
        assert held.cache_info().misses == last  # the oldest was not
        assert newest.shape == (last, 3)

    def test_one_key_one_buffer(self, held):
        a = workspace.scratch("a", (2, 5))
        assert workspace.scratch("a", (2, 5)) is a
        assert workspace.scratch("b", (2, 5)) is not a
        assert workspace.scratch("a", (2, 5), np.int8) is not a
        assert workspace.scratch("a", (2, 5), np.int8).dtype == np.int8

    def test_one_row_call_adds_nothing(self, held):
        one = workspace.scratch("a", (1, 5))
        assert workspace.scratch("a", (1, 5)) is not one
        workspace.scratch("a", (0, 5))
        assert held.cache_info().currsize == 0


class TestOwners:
    def test_sensor_scratch_is_reused_and_results_match(self, held):
        grid = TimeGrid(1, samples_per_period=64)
        current = Trace(grid.times(), 6e-3 * np.sin(2 * np.pi * 8e3 * grid.times()))
        fields = np.array([0.0, 5.0, -5.0])
        first = FluxgateSensor(IDEAL_TARGET).simulate_batch(current, fields)
        expected = first.copy()
        misses = held.cache_info().misses
        second = FluxgateSensor(IDEAL_TARGET).simulate_batch(current, fields)
        assert second is first
        assert np.array_equal(second, expected)
        assert held.cache_info().misses == misses

    def test_comparator_scratch_is_reused(self, held):
        t = np.linspace(0.0, 1e-3, 500)
        v = np.tile(np.sin(2 * np.pi * 4e3 * t), (2, 1))
        expected = Comparator(ComparatorParameters(threshold=0.1)).falling_edges_batch(v, t)
        misses = held.cache_info().misses
        result = Comparator(ComparatorParameters(threshold=0.1)).falling_edges_batch(v, t)
        assert held.cache_info().misses == misses
        assert len(expected[0]) > 0
        assert all(np.array_equal(a, b) for a, b in zip(result, expected))

    def test_noisy_amplifier_scratch_is_reused_and_results_match(self, held):
        budget = NoiseBudget(white_density=1e-6)
        t = np.arange(1000) * 1e-6
        pickup = np.tile(np.sin(2 * np.pi * 4e3 * t), (3, 1))
        amplifier = PickupAmplifier(budget, seed=5)
        first = amplifier.amplify_batch(pickup, 1e6, [0, 1, 2])
        misses = held.cache_info().misses
        second = amplifier.amplify_batch(pickup, 1e6, [0, 1, 2])
        assert held.cache_info().misses == misses
        assert second is not first
        assert np.array_equal(first, second)
        for row, index in enumerate([0, 1, 2]):
            alone = amplifier.amplify_batch(pickup[row:row + 1], 1e6, [index])
            assert np.array_equal(alone[0], first[row])


class TestInterleavedOwners:
    def test_batch_rows_equal_per_row_calls(self, held):
        # Two sensors, both comparators of a detector and a remainder
        # chunk, in the stepped chain's order: each channel's chunk is
        # consumed before the next channel asks for the same buffers.
        grid = TimeGrid(2)
        source = ExcitationSource()
        sensors = (FluxgateSensor(IDEAL_TARGET), FluxgateSensor(DISCRETE_MINIATURE))
        currents = [
            source.current(grid, channel, sensor.params.series_resistance)
            for channel, sensor in zip("xy", sensors)
        ]
        amplifier = PickupAmplifier()
        detector = PulsePositionDetector()
        comparators = (detector.comparator_positive, detector.comparator_negative)
        fields = np.linspace(-20.0, 20.0, 17)
        for chunk in (fields[:12], fields[12:]):
            for sensor, current in zip(sensors, currents):
                pickup = sensor.simulate_batch(current, chunk)
                rows = [sensor.simulate(current, h).pickup_voltage.v for h in chunk]
                assert np.array_equal(pickup, np.stack(rows))
                amplified = amplifier.amplify_batch(pickup, current.sample_rate)
                for negate, comparator in enumerate(comparators):
                    edges = comparator.falling_edges_batch(
                        amplified, current.t, negate=bool(negate)
                    )
                    for row, row_edges in zip(amplified, edges):
                        alone = comparator.falling_edges_batch(
                            row[None, :], current.t, negate=bool(negate)
                        )[0]
                        assert row_edges.size > 0
                        assert np.array_equal(row_edges, alone)
        assert held.cache_info().currsize <= workspace.SCRATCH_ENTRIES
