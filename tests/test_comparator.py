"""Tests for the comparator and pickup amplifier."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analog.comparator import (
    AMPLIFIER_GAIN,
    Comparator,
    ComparatorParameters,
    PickupAmplifier,
    _event_codes,
)
from repro.errors import ConfigurationError
from repro.physics.noise import NOISELESS, NoiseBudget
from repro.simulation import scratch as workspace
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
        amp = PickupAmplifier()
        tr = ramp_trace()
        assert amp.gain == AMPLIFIER_GAIN
        assert np.allclose(amp.amplify(tr).v, AMPLIFIER_GAIN * tr.v)

    def test_noise_added_input_referred(self):
        budget = NoiseBudget(white_density=1e-6)
        amp = PickupAmplifier(budget=budget, seed=1, bandwidth_hz=None)
        t = np.arange(10000) * 1e-6
        silent = Trace(t, np.zeros_like(t))
        out = amp.amplify(silent)
        assert np.std(out.v) > 0.0
        # Input-referred: the output is the input noise times the gain.
        noise = amp.noise_realization(t.size, silent.sample_rate, 0)
        assert np.array_equal(out.v, AMPLIFIER_GAIN * noise)

    def test_noiseless_budget_is_pure_gain(self):
        amp = PickupAmplifier(budget=NOISELESS)
        tr = ramp_trace()
        assert np.array_equal(amp.amplify(tr).v, AMPLIFIER_GAIN * tr.v)

    def test_seeded_noise_reproducible(self):
        budget = NoiseBudget(white_density=1e-6)
        t = np.arange(1000) * 1e-6
        silent = Trace(t, np.zeros_like(t))
        a = PickupAmplifier(budget, seed=5).amplify(silent)
        b = PickupAmplifier(budget, seed=5).amplify(silent)
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
        amp = PickupAmplifier(NoiseBudget(white_density=1e-6), seed=3)
        silent = self._silent()
        first = amp.amplify(silent)
        second = amp.amplify(silent)
        assert not np.array_equal(first.v, second.v)
        assert amp.noise_draws == 2

    def test_identically_seeded_streams_agree_draw_for_draw(self):
        budget = NoiseBudget(white_density=1e-6)
        silent = self._silent()
        a = PickupAmplifier(budget, seed=5)
        b = PickupAmplifier(budget, seed=5)
        for _ in range(3):
            assert np.array_equal(a.amplify(silent).v, b.amplify(silent).v)

    def test_noise_realizations_are_random_access(self):
        # The batch engine replays the stream out of order by index.
        budget = NoiseBudget(white_density=1e-6)
        amp = PickupAmplifier(budget, seed=7)
        other = PickupAmplifier(budget, seed=7)
        direct = [amp.noise_realization(64, 1e6, i) for i in range(4)]
        replay = [other.noise_realization(64, 1e6, i) for i in (2, 0, 3, 1)]
        assert np.array_equal(direct[2], replay[0])
        assert np.array_equal(direct[0], replay[1])
        assert np.array_equal(direct[3], replay[2])
        assert np.array_equal(direct[1], replay[3])

    def test_consume_noise_draws_reserves_a_block(self):
        amp = PickupAmplifier(NoiseBudget(white_density=1e-6), seed=1)
        assert amp.consume_noise_draws(4) == 0
        assert amp.consume_noise_draws(2) == 4
        assert amp.noise_draws == 6
        with pytest.raises(ConfigurationError):
            amp.consume_noise_draws(-1)


class TestBatchCaches:
    """A comparator keeps its batch buffers and code tables only in the
    process-wide, bounded caches."""

    @pytest.fixture(autouse=True)
    def _empty(self):
        workspace._held.cache_clear()
        _event_codes.cache_clear()

    def _edges(self, comp, n, rows=2):
        t = np.linspace(0.0, 1e-3, n)
        v = np.tile(np.sin(2 * np.pi * 4e3 * t), (rows, 1))
        return comp.falling_edges_batch(v, t)

    def test_code_cache_holds_multiple_grid_sizes(self):
        # Regression: a new grid size used to *replace* the whole cache,
        # so alternating sizes (chunk + remainder) recomputed every call.
        comp = Comparator(ComparatorParameters(threshold=0.1))
        self._edges(comp, 500)
        first = _event_codes(500)
        self._edges(comp, 300)
        assert _event_codes.cache_info().currsize == 2
        self._edges(comp, 500)
        assert _event_codes(500) is first  # not recomputed
        assert not first[0].flags.writeable

    def test_scratch_cache_bounded_lru(self):
        comp = Comparator(ComparatorParameters(threshold=0.1))
        for n in range(400, 400 + 10 * workspace.SCRATCH_ENTRIES, 10):
            self._edges(comp, n)
        assert workspace._held.cache_info().currsize == workspace.SCRATCH_ENTRIES
        misses = workspace._held.cache_info().misses
        self._edges(comp, n)  # the newest shape was kept
        assert workspace._held.cache_info().misses == misses

    def test_scratch_reuse_tracks_recency(self):
        # The comparator asks for five buffers per shape: 400 and 500
        # fill ten entries, a refreshed 400 becomes the newest, and just
        # enough new shapes to overflow the bound then evict 500 first.
        comp = Comparator(ComparatorParameters(threshold=0.1))
        self._edges(comp, 400)
        self._edges(comp, 500)
        self._edges(comp, 400)
        for n in range(600, 601 + (workspace.SCRATCH_ENTRIES - 10) // 5):
            self._edges(comp, n)
        misses = workspace._held.cache_info().misses
        self._edges(comp, 400)
        assert workspace._held.cache_info().misses == misses
        self._edges(comp, 500)
        assert workspace._held.cache_info().misses > misses

    def test_one_row_call_keeps_nothing(self):
        # A scalar measurement is a one-row batch; it must not leave
        # scratch or code tables behind.
        comp = Comparator(ComparatorParameters(threshold=0.1))
        self._edges(comp, 500, rows=1)
        assert workspace._held.cache_info().currsize == 0
        assert _event_codes.cache_info().currsize == 0


def latch_oracle(values, times, params, negate=False):
    """Per-sample Schmitt trigger in plain Python: ``(states, rising,
    falling)``, the edges interpolated to the trip / release level."""
    x = [-float(v) for v in values] if negate else [float(v) for v in values]
    state, states = 0, []
    for value in x:
        if value > params.trip_level:
            state = 1
        elif value < params.release_level:
            state = 0
        states.append(state)
    rising, falling = [], []
    for i in range(len(x) - 1):
        if states[i] == states[i + 1]:
            continue
        level = params.trip_level if states[i + 1] else params.release_level
        v0, v1 = x[i], x[i + 1]
        frac = (level - v0) / (v1 - v0) if v1 != v0 else 0.0
        frac = min(max(frac, 0.0), 1.0)
        t0, t1 = float(times[i]), float(times[i + 1])
        edge = t0 + frac * (t1 - t0) + params.delay
        (rising if states[i + 1] else falling).append(edge)
    return states, rising, falling


@st.composite
def comparator_cases(draw):
    n_samples = draw(st.integers(min_value=1, max_value=40))
    n_rows = draw(st.integers(min_value=1, max_value=4))
    level = st.floats(min_value=-1.0, max_value=1.0)
    rows = [
        draw(st.lists(level, min_size=n_samples, max_size=n_samples))
        for _ in range(n_rows)
    ]
    steps = draw(
        st.lists(
            st.floats(min_value=1e-9, max_value=1e-6),
            min_size=n_samples, max_size=n_samples,
        )
    )
    params = ComparatorParameters(
        threshold=draw(st.floats(min_value=-0.5, max_value=0.5)),
        hysteresis=draw(st.floats(min_value=0.0, max_value=0.5)),
        offset=draw(st.floats(min_value=-0.2, max_value=0.2)),
        delay=draw(st.floats(min_value=0.0, max_value=1e-6)),
    )
    return np.array(rows), np.cumsum(steps), params, draw(st.booleans())


class TestLatchOracle:
    """The batch kernel against a per-sample latch written independently."""

    @given(comparator_cases())
    @settings(max_examples=200, deadline=None)
    def test_kernel_matches_per_sample_latch(self, case):
        values, times, params, negate = case
        comp = Comparator(params)
        batch = comp.falling_edges_batch(values, times, negate=negate)
        assert len(batch) == values.shape[0]
        for row, edges in zip(values, batch):
            assert edges.tolist() == latch_oracle(row, times, params, negate)[2]
        trace = Trace(times, values[0])
        states, rising, falling = latch_oracle(values[0], times, params)
        assert comp.falling_edges(trace).tolist() == falling
        assert comp.rising_edges(trace).tolist() == rising
        out = comp.compare(trace)
        assert out.v.tolist() == [float(s) for s in states]
        shifted = times + params.delay if params.delay > 0.0 else times
        assert np.array_equal(out.t, shifted)
