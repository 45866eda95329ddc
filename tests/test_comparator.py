"""Tests for the comparator and pickup amplifier."""

import numpy as np
import pytest

from repro.analog.comparator import Comparator, ComparatorParameters, PickupAmplifier
from repro.errors import ConfigurationError
from repro.physics.noise import NOISELESS, NoiseBudget
from repro.simulation.signals import Trace


def ramp_trace(start=-1.0, stop=1.0, n=1000, duration=1e-3):
    t = np.linspace(0.0, duration, n)
    return Trace(t, np.linspace(start, stop, n))


class TestComparatorLevels:
    def test_trip_and_release_levels(self):
        p = ComparatorParameters(threshold=0.1, hysteresis=0.02, offset=0.005)
        assert p.trip_level == pytest.approx(0.115)
        assert p.release_level == pytest.approx(0.095)

    def test_negative_hysteresis_rejected(self):
        with pytest.raises(ConfigurationError):
            ComparatorParameters(threshold=0.1, hysteresis=-0.01)


class TestComparatorBehaviour:
    def test_trips_on_rising_input(self):
        comp = Comparator(ComparatorParameters(threshold=0.0))
        out = comp.compare(ramp_trace())
        assert out.v[0] == 0.0
        assert out.v[-1] == 1.0

    def test_hysteresis_prevents_chatter(self):
        # A small ripple around the threshold must not toggle the output.
        t = np.linspace(0.0, 1e-3, 2000)
        ripple = 0.1 + 0.004 * np.sin(2 * np.pi * 50e3 * t)
        comp_hyst = Comparator(
            ComparatorParameters(threshold=0.1, hysteresis=0.02)
        )
        out = comp_hyst.compare(Trace(t, ripple))
        assert np.count_nonzero(np.diff(out.v)) == 0
        comp_bare = Comparator(ComparatorParameters(threshold=0.1))
        chatter = comp_bare.compare(Trace(t, ripple))
        assert np.count_nonzero(np.diff(chatter.v)) > 10

    def test_offset_shifts_edge_time(self):
        clean = Comparator(ComparatorParameters(threshold=0.0))
        offset = Comparator(ComparatorParameters(threshold=0.0, offset=0.5))
        tr = ramp_trace()
        assert offset.rising_edges(tr)[0] > clean.rising_edges(tr)[0]

    def test_delay_shifts_edges(self):
        delayed = Comparator(ComparatorParameters(threshold=0.0, delay=10e-6))
        clean = Comparator(ComparatorParameters(threshold=0.0))
        tr = ramp_trace()
        assert delayed.rising_edges(tr)[0] - clean.rising_edges(tr)[0] == pytest.approx(
            10e-6
        )

    def test_falling_edges_use_release_level(self):
        comp = Comparator(ComparatorParameters(threshold=0.0, hysteresis=0.2))
        tr = ramp_trace(start=1.0, stop=-1.0)
        edge = comp.falling_edges(tr)[0]
        # Release at -0.1 on a 1 → -1 ramp over 1 ms: at 0.55 ms.
        assert edge == pytest.approx(0.55e-3, rel=1e-2)


class TestPickupAmplifier:
    def test_gain(self):
        amp = PickupAmplifier(gain=50.0)
        tr = ramp_trace()
        assert np.allclose(amp.amplify(tr).v, 50.0 * tr.v)

    def test_invalid_gain(self):
        with pytest.raises(ConfigurationError):
            PickupAmplifier(gain=0.0)

    def test_noise_added_input_referred(self):
        budget = NoiseBudget(white_density=1e-6)
        amp = PickupAmplifier(gain=100.0, budget=budget, seed=1)
        t = np.arange(10000) * 1e-6
        silent = Trace(t, np.zeros_like(t))
        out = amp.amplify(silent)
        assert np.std(out.v) > 0.0
        # Input-referred: output noise scales with gain.
        amp2 = PickupAmplifier(gain=200.0, budget=budget, seed=1)
        out2 = amp2.amplify(silent)
        assert np.std(out2.v) == pytest.approx(2.0 * np.std(out.v), rel=1e-6)

    def test_noiseless_budget_is_pure_gain(self):
        amp = PickupAmplifier(gain=10.0, budget=NOISELESS)
        tr = ramp_trace()
        assert np.array_equal(amp.amplify(tr).v, 10.0 * tr.v)

    def test_seeded_noise_reproducible(self):
        budget = NoiseBudget(white_density=1e-6)
        t = np.arange(1000) * 1e-6
        silent = Trace(t, np.zeros_like(t))
        a = PickupAmplifier(100.0, budget, seed=5).amplify(silent)
        b = PickupAmplifier(100.0, budget, seed=5).amplify(silent)
        assert np.array_equal(a.v, b.v)


class TestNoiseStream:
    """Regression tests for the per-call noise stream.

    The amplifier used to reseed its generator on *every* ``amplify``
    call, so the x and y channels of one measurement saw the identical
    noise realization — a correlated-noise bug that quietly cancelled in
    the ratiometric heading math.  The stream must advance between calls
    yet stay reproducible across identically-seeded instances.
    """

    def _silent(self, n=1000):
        t = np.arange(n) * 1e-6
        return Trace(t, np.zeros_like(t))

    def test_successive_calls_draw_independent_noise(self):
        # Within one measurement these are the x and y channels.
        amp = PickupAmplifier(100.0, NoiseBudget(white_density=1e-6), seed=3)
        silent = self._silent()
        first = amp.amplify(silent)
        second = amp.amplify(silent)
        assert not np.array_equal(first.v, second.v)
        assert amp.noise_draws == 2

    def test_identically_seeded_streams_agree_draw_for_draw(self):
        budget = NoiseBudget(white_density=1e-6)
        silent = self._silent()
        a = PickupAmplifier(100.0, budget, seed=5)
        b = PickupAmplifier(100.0, budget, seed=5)
        for _ in range(3):
            assert np.array_equal(a.amplify(silent).v, b.amplify(silent).v)

    def test_noise_realizations_are_random_access(self):
        # The batch engine replays the stream out of order by index.
        budget = NoiseBudget(white_density=1e-6)
        amp = PickupAmplifier(100.0, budget, seed=7)
        other = PickupAmplifier(100.0, budget, seed=7)
        direct = [amp.noise_realization(64, 1e6, i) for i in range(4)]
        replay = [other.noise_realization(64, 1e6, i) for i in (2, 0, 3, 1)]
        assert np.array_equal(direct[2], replay[0])
        assert np.array_equal(direct[0], replay[1])
        assert np.array_equal(direct[3], replay[2])
        assert np.array_equal(direct[1], replay[3])

    def test_consume_noise_draws_reserves_a_block(self):
        amp = PickupAmplifier(100.0, NoiseBudget(white_density=1e-6), seed=1)
        assert amp.consume_noise_draws(4) == 0
        assert amp.consume_noise_draws(2) == 4
        assert amp.noise_draws == 6
        with pytest.raises(ConfigurationError):
            amp.consume_noise_draws(-1)


class TestBatchCaches:
    def _edges(self, comp, n, rows=2):
        t = np.linspace(0.0, 1e-3, n)
        v = np.tile(np.sin(2 * np.pi * 4e3 * t), (rows, 1))
        return comp.falling_edges_batch(v, t)

    def test_code_cache_holds_multiple_grid_sizes(self):
        # Regression: a new grid size used to *replace* the whole cache,
        # so alternating sizes (chunk + remainder) recomputed every call.
        comp = Comparator(ComparatorParameters(threshold=0.1))
        self._edges(comp, 500)
        first = comp._code_cache[500]
        self._edges(comp, 300)
        assert set(comp._code_cache) == {500, 300}
        self._edges(comp, 500)
        assert comp._code_cache[500] is first  # not recomputed

    def test_scratch_cache_bounded_lru(self):
        comp = Comparator(ComparatorParameters(threshold=0.1))
        for n in (400, 500, 600):
            self._edges(comp, n)
        assert len(comp._batch_scratch) == comp.SCRATCH_CAPACITY == 2
        # Oldest shape (400) was evicted; most recent two remain.
        assert set(comp._batch_scratch) == {(2, 500), (2, 600)}

    def test_scratch_reuse_tracks_recency(self):
        comp = Comparator(ComparatorParameters(threshold=0.1))
        self._edges(comp, 400)
        self._edges(comp, 500)
        self._edges(comp, 400)  # refresh 400 -> 500 is now oldest
        self._edges(comp, 600)
        assert set(comp._batch_scratch) == {(2, 400), (2, 600)}

    def test_one_row_call_keeps_nothing(self):
        # A scalar measurement is a one-row batch; it must not leave
        # per-compass scratch or code tables behind.
        comp = Comparator(ComparatorParameters(threshold=0.1))
        self._edges(comp, 500, rows=1)
        assert comp._batch_scratch == {} and comp._code_cache == {}
