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
from repro.analog.mux import MeasurementSchedule
from repro.batch import BatchCompass, ExcitationTraceCache
from repro.core.compass import CHUNK_ROWS, CompassConfig, IntegratedCompass
from repro.core.heading import headings_evenly_spaced
from repro.digital.counter import CountResult
from repro.errors import ConfigurationError
from repro.observe import M_BATCH_CHUNKS, Observability
from repro.physics.noise import NOISELESS, TYPICAL_1997_CMOS, NoiseBudget

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


def noisy(noise, seed):
    return CompassConfig(front_end=FrontEndConfig(noise=noise, noise_seed=seed))


def fastpath_record(compass):
    stats = compass.front_end.fastpath_stats
    return stats.attempted, stats.used, stats.resolved, stats.fallbacks


def assert_bit_identical(batch, scalar):
    assert len(batch) == len(scalar)
    for b, s in zip(batch, scalar):
        assert b.x_count == s.x_count
        assert b.y_count == s.y_count
        assert b.heading_deg == s.heading_deg
        assert b.duty_x == s.duty_x
        assert b.duty_y == s.duty_y
        assert b.field_estimate_a_per_m == s.field_estimate_a_per_m


#: Both engines, for the noiseless cases.  The default (closed-form fast
#: path) never reaches the chunked stepped chain, so each batch-vs-scalar
#: check also runs with the stepped engine pinned.
ENGINES = (
    CompassConfig(),
    CompassConfig(front_end=FrontEndConfig(fastpath=False)),
)


#: Every configuration the sweep callers run (datasheet, ``repro sweep``,
#: the ACC1/MAG1/ABL1/PREC1 benches): core laws, counting windows,
#: CORDIC depth and noisy front ends.
SWEEP_CONFIGS = {
    "default": CompassConfig(),
    "piecewise": CompassConfig(core_model="piecewise"),
    "jiles-atherton": CompassConfig(core_model="jiles-atherton"),
    "count-2": CompassConfig(schedule=MeasurementSchedule(count_periods=2)),
    "count-32-cordic-14": CompassConfig(
        schedule=MeasurementSchedule(count_periods=32), cordic_iterations=14
    ),
    "white-50nv-seed-7": noisy(
        NoiseBudget(white_density=50e-9, flicker_corner_hz=1e3), 7
    ),
    "cmos-1997-seed-3": noisy(TYPICAL_1997_CMOS, 3),
}


class TestBitIdentity:
    # The golden suite (test_golden_vectors.py) pins batch-vs-scalar
    # bit-identity on every default run; this wider sweep stays as the
    # slow-tier exhaustive check.
    @pytest.mark.slow
    @pytest.mark.parametrize("magnitude_t", [25e-6, 50e-6, 65e-6])
    def test_full_circle_matches_scalar(self, magnitude_t):
        headings = headings_evenly_spaced(12, 0.5)
        for config in ENGINES:
            scalar = scalar_sweep(config, headings, magnitude_t)
            batch = BatchCompass(config).sweep_headings(
                headings, field_magnitude_t=magnitude_t
            )
            assert_bit_identical(batch, scalar)

    @pytest.mark.parametrize(
        "config", SWEEP_CONFIGS.values(), ids=SWEEP_CONFIGS.keys()
    )
    def test_sweep_matches_measure_heading_loop(self, config):
        # The reference is a plain measure_heading loop; the batch sweep
        # must match it bit for bit and route every row the same way.
        headings = headings_evenly_spaced(3, 0.5)
        compass = IntegratedCompass(config)
        scalar = [compass.measure_heading(h) for h in headings]
        batch = BatchCompass(config)
        assert_bit_identical(batch.sweep_headings(headings), scalar)
        assert fastpath_record(batch.compass) == fastpath_record(compass)

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
        # A row count that is not a multiple of the chunk size exercises
        # the ragged final chunk of the stepped chain; a noisy front end
        # makes each row's noise draw index cross the chunk boundaries.
        rows = 25
        assert rows % CHUNK_ROWS
        config = dataclasses.replace(
            NOISY_CONFIG,
            front_end=dataclasses.replace(NOISY_CONFIG.front_end, fastpath=False),
        )
        headings = headings_evenly_spaced(rows, 3.0)
        scalar = scalar_sweep(config, headings, 50e-6)
        batch = BatchCompass(
            dataclasses.replace(config, observe=Observability.on(tracing=False))
        )
        assert_bit_identical(
            batch.sweep_headings(headings, field_magnitude_t=50e-6), scalar
        )
        chunks = batch.compass.observer.metrics.get(M_BATCH_CHUNKS)
        assert chunks.value(channel="x") == chunks.value(channel="y") == 3

    def test_magnitude_sweep_matches_scalar_nesting(self):
        magnitudes = [25e-6, 65e-6]
        headings = headings_evenly_spaced(4, 0.5)
        for config in ENGINES:
            grouped = BatchCompass(config).sweep_magnitudes(
                magnitudes, n_headings=4
            )
            assert [m for m, _ in grouped] == magnitudes
            for magnitude, measurements in grouped:
                scalar = scalar_sweep(config, headings, magnitude)
                assert_bit_identical(measurements, scalar)

    def test_monte_carlo_matches_scalar_runner(self):
        # Trial t is a measure_heading loop on noise seed t, its headings
        # offset by t/(n_trials·n_headings) of a turn.
        for config in ENGINES:
            result = BatchCompass.monte_carlo(config, n_trials=2, n_headings=4)
            assert len(result.records) == 2
            for trial, records in enumerate(result.records):
                headings = headings_evenly_spaced(4, 0.5 + 360.0 * trial / 8)
                seeded = dataclasses.replace(
                    config,
                    front_end=dataclasses.replace(
                        config.front_end, noise_seed=trial
                    ),
                )
                assert [h for h, _ in records] == list(headings)
                assert_bit_identical(
                    [m for _, m in records], scalar_sweep(seeded, headings, 50e-6)
                )
            errors = [m.error_against(h) for rs in result.records for h, m in rs]
            assert result.stats.max_error == max(errors)
            assert result.stats.n_samples == 8


class TestExcitationCache:
    def test_cache_fills_once_and_is_reused(self):
        # The cache serves the stepped engine, so pin it.
        stepped = CompassConfig(front_end=FrontEndConfig(fastpath=False))
        cache = ExcitationTraceCache()
        BatchCompass(stepped, cache=cache).sweep_headings(
            headings_evenly_spaced(3, 0.5)
        )
        # Both converters share one parameter set: x and y share one trace.
        assert len(cache) == 1
        assert (cache.misses, cache.hits) == (1, 1)
        (entry,) = cache._entries.values()
        # A second compass on an equal config reuses it, by identity.
        BatchCompass(stepped, cache=cache).sweep_headings(
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

        def fake_process(detectors_x, detectors_y, window_x=None, window_y=None):
            from repro.digital.backend import BackEndResult

            return [
                BackEndResult(
                    x_count=100,
                    y_count=100,
                    heading_deg=45.0,
                    cordic_cycles=8,
                    x_result=good,
                    y_result=empty,
                )
            ], None

        monkeypatch.setattr(compass.back_end, "process_measurement", fake_process)
        with pytest.raises(ConfigurationError, match="zero counter ticks on channel y"):
            compass.assemble_measurement(
                np.zeros(1), np.zeros(1), [None], [None], (0.0, 1.0)
            )
