"""Scratch buffers pass from a freed owner to exactly one new owner."""

import gc

import numpy as np

from repro.analog.comparator import Comparator, ComparatorParameters
from repro.sensors.fluxgate import FluxgateSensor
from repro.sensors.parameters import IDEAL_TARGET
from repro.simulation.engine import TimeGrid
from repro.simulation.scratch import ScratchPool
from repro.simulation.signals import Trace


class Owner:
    pass


class TestScratchPool:
    def test_freed_owner_buffers_go_to_one_taker(self):
        pool = ScratchPool(capacity=4)
        owner, buffer = Owner(), np.empty(3)
        scratch = {(3,): buffer}
        pool.track(owner, scratch)
        assert pool.take((3,)) is None  # owner still alive
        del owner
        gc.collect()
        assert pool.take((3,)) is buffer
        assert pool.take((3,)) is None

    def test_a_miss_frees_the_stale_entries(self):
        pool = ScratchPool(capacity=4)
        owner = Owner()
        pool.track(owner, {(3,): np.empty(3)})
        del owner
        gc.collect()
        assert pool.take((2,)) is None
        assert len(pool) == 0

    def test_only_the_newest_entries_are_kept(self):
        pool = ScratchPool(capacity=2)
        for index in range(3):
            owner = Owner()
            pool.track(owner, {(index,): index})
            del owner
        gc.collect()
        assert len(pool) == 2
        assert (pool.take((2,)), pool.take((1,))) == (2, 1)
        assert pool.take((0,)) is None


class TestOwners:
    def test_sensor_scratch_is_reused_and_results_match(self):
        grid = TimeGrid(1, samples_per_period=64)
        current = Trace(grid.times(), 6e-3 * np.sin(2 * np.pi * 8e3 * grid.times()))
        fields = np.array([0.0, 5.0, -5.0])
        first = FluxgateSensor(IDEAL_TARGET)
        expected = first.simulate_batch(current, fields).copy()
        buffers = first._batch_scratch[(3, len(current))]
        del first
        gc.collect()
        second = FluxgateSensor(IDEAL_TARGET)
        assert np.array_equal(second.simulate_batch(current, fields), expected)
        assert second._batch_scratch[(3, len(current))] is buffers

    def test_comparator_scratch_is_reused(self):
        t = np.linspace(0.0, 1e-3, 500)
        v = np.tile(np.sin(2 * np.pi * 4e3 * t), (2, 1))
        first = Comparator(ComparatorParameters(threshold=0.1))
        expected = first.falling_edges_batch(v, t)
        buffers = first._batch_scratch[(2, 500)]
        del first
        gc.collect()
        second = Comparator(ComparatorParameters(threshold=0.1))
        result = second.falling_edges_batch(v, t)
        assert len(expected[0]) > 0
        assert all(np.array_equal(a, b) for a, b in zip(result, expected))
        assert second._batch_scratch[(2, 500)] is buffers
