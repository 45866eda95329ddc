"""Batch-engine property tests: the scalar chain, bit for bit.

``repro.batch`` promises that a batched sweep is an *optimisation*, not
an approximation: every count, heading, duty cycle and noise draw must
equal the scalar ``measure_heading`` loop exactly.  These tests hold the
engine to that promise over the paper's worldwide field range, with and
without front-end noise.
"""

import dataclasses

import numpy as np
import pytest

from repro.analog.frontend import FrontEndConfig
from repro.batch import BatchCompass, ExcitationTraceCache, monte_carlo
from repro.core.accuracy import monte_carlo_accuracy
from repro.core.compass import CompassConfig, IntegratedCompass
from repro.core.heading import headings_evenly_spaced
from repro.digital.counter import CountResult
from repro.errors import ConfigurationError
from repro.physics.noise import NOISELESS, TYPICAL_1997_CMOS

#: Full 1997-era noise budget — white floor, flicker, offset and jitter.
NOISY_CONFIG = CompassConfig(
    front_end=FrontEndConfig(noise=TYPICAL_1997_CMOS, noise_seed=42)
)


def scalar_sweep(config, headings, magnitude_t):
    compass = IntegratedCompass(config)
    return [
        compass.measure_heading(h, field_magnitude_t=magnitude_t)
        for h in headings
    ]


def assert_bit_identical(batch, scalar):
    assert len(batch) == len(scalar)
    for b, s in zip(batch, scalar):
        assert b.x_count == s.x_count
        assert b.y_count == s.y_count
        assert b.heading_deg == s.heading_deg
        assert b.duty_x == s.duty_x
        assert b.duty_y == s.duty_y
        assert b.field_estimate_a_per_m == s.field_estimate_a_per_m


class TestBitIdentity:
    # The golden suite (test_golden_vectors.py) pins batch-vs-scalar
    # bit-identity on every default run; this wider sweep stays as the
    # slow-tier exhaustive check.
    @pytest.mark.slow
    @pytest.mark.parametrize("magnitude_t", [25e-6, 50e-6, 65e-6])
    def test_full_circle_matches_scalar(self, magnitude_t):
        headings = headings_evenly_spaced(12, 0.5)
        scalar = scalar_sweep(CompassConfig(), headings, magnitude_t)
        batch = BatchCompass().sweep_headings(
            headings, field_magnitude_t=magnitude_t
        )
        assert_bit_identical(batch, scalar)

    def test_noisy_chain_matches_scalar(self):
        # Draw-for-draw replication: the batch engine reserves the scalar
        # loop's x0, y0, x1, y1, … noise stream up front and indexes into
        # it per row, so even a noisy sweep is bit-identical.
        headings = headings_evenly_spaced(4, 10.0)
        scalar = scalar_sweep(NOISY_CONFIG, headings, 50e-6)
        batch = BatchCompass(NOISY_CONFIG).sweep_headings(
            headings, field_magnitude_t=50e-6
        )
        assert_bit_identical(batch, scalar)

    def test_chunk_boundaries_do_not_leak(self):
        # A chunk size that does not divide the batch exercises the ragged
        # final chunk; results must not depend on the chunking at all.
        headings = headings_evenly_spaced(7, 3.0)
        scalar = scalar_sweep(CompassConfig(), headings, 50e-6)
        for chunk_size in (1, 3, 7, 16):
            batch = BatchCompass(chunk_size=chunk_size).sweep_headings(
                headings, field_magnitude_t=50e-6
            )
            assert_bit_identical(batch, scalar)

    def test_magnitude_sweep_matches_scalar_nesting(self):
        magnitudes = [25e-6, 65e-6]
        headings = headings_evenly_spaced(4, 0.5)
        grouped = BatchCompass().sweep_magnitudes(magnitudes, n_headings=4)
        assert [m for m, _ in grouped] == magnitudes
        for magnitude, measurements in grouped:
            scalar = scalar_sweep(CompassConfig(), headings, magnitude)
            assert_bit_identical(measurements, scalar)

    def test_monte_carlo_matches_scalar_runner(self):
        result = monte_carlo(n_trials=2, n_headings=4)
        scalar_stats = monte_carlo_accuracy(
            CompassConfig(), n_trials=2, n_headings=4
        )
        assert result.stats.max_error == scalar_stats.max_error
        assert result.stats.rms_error == scalar_stats.rms_error
        assert result.stats.n_samples == scalar_stats.n_samples == 8
        assert len(result.records) == 2


class TestExcitationCache:
    def test_cache_fills_once_and_is_reused(self):
        cache = ExcitationTraceCache()
        BatchCompass(cache=cache).sweep_headings(headings_evenly_spaced(3, 0.5))
        # Both converters share one parameter set: x and y share one trace.
        assert len(cache) == 1
        assert (cache.misses, cache.hits) == (1, 1)
        (entry,) = cache._entries.values()
        # A second compass on an equal config reuses it, by identity.
        BatchCompass(CompassConfig(), cache=cache).sweep_headings(
            headings_evenly_spaced(3, 90.5)
        )
        assert len(cache) == 1
        assert next(iter(cache._entries.values())) is entry
        assert (cache.misses, cache.hits) == (1, 3)


class TestBatchApi:
    def test_empty_batch_is_empty(self):
        assert BatchCompass().measure_components_batch([], []) == []

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchCompass().measure_components_batch([1.0, 2.0], [1.0])

    def test_bad_compass_argument_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchCompass(compass="not a compass")

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchCompass(chunk_size=0)

    @pytest.mark.parametrize(
        "noise,counts",
        [
            (NOISELESS, [(1545, -15), (-1545, 13)]),
            (TYPICAL_1997_CMOS, [(1533, -9), (-1529, 5)]),
        ],
        ids=["noiseless", "noisy"],
    )
    def test_hysteretic_core_falls_back_to_scalar(self, noise, counts):
        sensor = CompassConfig().sensor
        config = dataclasses.replace(
            CompassConfig(),
            front_end=FrontEndConfig(noise=noise, noise_seed=42),
            core_model="jiles-atherton",
            sensor=dataclasses.replace(
                sensor,
                core=dataclasses.replace(sensor.core, coercive_field=5.0),
            ),
        )
        headings = headings_evenly_spaced(2, 0.5)
        scalar = scalar_sweep(config, headings, 50e-6)
        batch = BatchCompass(config).sweep_headings(
            headings, field_magnitude_t=50e-6
        )
        assert_bit_identical(batch, scalar)
        assert [(m.x_count, m.y_count) for m in scalar] == counts


class TestZeroTickGuard:
    def test_zero_tick_channel_raises(self, monkeypatch):
        # A degenerate window cannot be produced through the public
        # measurement path (the back-end's trust threshold fires first),
        # so stub the back-end result to pin the guard itself.
        compass = IntegratedCompass()
        good = CountResult(count=100, total_ticks=1000, high_ticks=550, overflowed=False)
        empty = CountResult(count=100, total_ticks=0, high_ticks=0, overflowed=False)

        def fake_process(detector_x, detector_y, window_x=None, window_y=None):
            from repro.digital.backend import BackEndResult

            return BackEndResult(
                x_count=100,
                y_count=100,
                heading_deg=45.0,
                cordic_cycles=8,
                x_result=good,
                y_result=empty,
            )

        monkeypatch.setattr(compass.back_end, "process_measurement", fake_process)
        with pytest.raises(ConfigurationError, match="zero counter ticks on channel y"):
            compass.assemble_measurement(None, None, (0.0, 1.0))
