"""Tests for the simulation time grid."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.simulation.engine import TimeGrid
from repro.simulation.signals import Trace
from repro.units import EXCITATION_FREQUENCY_HZ


class TestTimeGrid:
    def test_defaults_align_to_paper_excitation(self):
        grid = TimeGrid(n_periods=4)
        assert grid.frequency_hz == EXCITATION_FREQUENCY_HZ
        assert grid.period == pytest.approx(125e-6)
        assert grid.duration == pytest.approx(500e-6)

    def test_sample_count(self):
        grid = TimeGrid(n_periods=3, samples_per_period=256)
        assert grid.n_samples == 768
        assert grid.times().size == 768

    def test_times_exclude_endpoint(self):
        grid = TimeGrid(n_periods=1, samples_per_period=128)
        t = grid.times()
        assert t[0] == 0.0
        assert t[-1] < grid.duration

    def test_grids_concatenate(self):
        a = TimeGrid(1, samples_per_period=64)
        b = TimeGrid(1, samples_per_period=64, t_start=a.duration)
        combined = np.concatenate([a.times(), b.times()])
        assert np.all(np.diff(combined) > 0.0)
        assert np.allclose(np.diff(combined), a.dt)

    def test_window(self):
        grid = TimeGrid(2, t_start=1.0)
        start, end = grid.window()
        assert start == 1.0
        assert end == pytest.approx(1.0 + 2 * grid.period)

    def test_trace_wrapper(self):
        grid = TimeGrid(1, samples_per_period=64)
        tr = grid.trace(np.ones(64))
        assert isinstance(tr, Trace)
        assert len(tr) == 64

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_periods": 0},
            {"n_periods": 1, "samples_per_period": 8},
            {"n_periods": 1, "frequency_hz": 0.0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigurationError):
            TimeGrid(**kwargs)

    def test_timestep_resolution_below_counter_clock(self):
        # The default grid must resolve edges finer than the 238 ns
        # counter clock period, or the modelled quantiser would not be the
        # dominant one.
        grid = TimeGrid(1)
        assert grid.dt < 1.0 / 4.194304e6 / 5.0
