"""PREC1 — arbitrary precision and the analogue bottleneck (§4).

"The pulse count part and the arctan part can be modified easily to
compute the direction with an arbitrary precision.  However, there will
always be a bottle neck in the previous parts as the sensitivity of the
fluxgate sensor and the analogue section are limited."

This bench sweeps the two digital precision knobs (counting periods and
CORDIC iterations) on a *noiseless* front end — showing precision
improves as promised — then repeats the counting-window sweep with a
noisy front end, showing the error flooring at the analogue limit.
"""

import dataclasses

import pytest

from conftest import emit
from repro.analog.mux import MeasurementSchedule
from repro.batch import BatchCompass
from repro.core.accuracy import ErrorStats
from repro.core.compass import CompassConfig
from repro.core.heading import headings_evenly_spaced
from repro.physics.noise import NoiseBudget


def _batch(count_periods, cordic_iterations, noise=None, seed=0):
    config = CompassConfig(
        schedule=MeasurementSchedule(count_periods=count_periods),
        cordic_iterations=cordic_iterations,
    )
    if noise is not None:
        config = dataclasses.replace(
            config,
            front_end=dataclasses.replace(
                config.front_end, noise=noise, noise_seed=seed
            ),
        )
    return BatchCompass(config)


def _turntable_stats(batch, n_points):
    headings = headings_evenly_spaced(n_points, 0.7)
    return ErrorStats.from_sweep(headings, batch.sweep_headings(headings))


def run_digital_scaling():
    rows = [f"{'periods':>8} {'cordic it':>10} {'max err °':>10} {'rms err °':>10}"]
    results = {}
    for periods, iterations in ((2, 8), (8, 8), (8, 12), (16, 12), (32, 14)):
        stats = _turntable_stats(_batch(periods, iterations), 16)
        rows.append(
            f"{periods:8d} {iterations:10d} {stats.max_error:10.4f} "
            f"{stats.rms_error:10.4f}"
        )
        results[(periods, iterations)] = stats
    return rows, results


def test_prec1_digital_precision_scales(benchmark):
    rows, results = benchmark(run_digital_scaling)
    emit("PREC1 digital precision scaling (noiseless front end)", rows)
    # More periods + iterations → strictly better than the paper point.
    assert results[(32, 14)].rms_error < results[(8, 8)].rms_error
    assert results[(32, 14)].max_error < 0.25
    # The paper's 8/8 point meets its own budget.
    assert results[(8, 8)].in_spec


def test_prec1_analog_bottleneck(benchmark):
    def run_noisy_scaling():
        noise = NoiseBudget(white_density=50e-9, flicker_corner_hz=1e3)
        rows = [f"{'periods':>8} {'rms err ° (noisy)':>18}"]
        results = {}
        for periods in (8, 32):
            stats = _turntable_stats(_batch(periods, 12, noise=noise, seed=7), 10)
            rows.append(f"{periods:8d} {stats.rms_error:18.4f}")
            results[periods] = stats
        return rows, results

    rows, results = benchmark(run_noisy_scaling)
    emit("PREC1 the analogue bottleneck (noisy front end)", rows)
    # Quadrupling the digital precision no longer buys a 4× improvement:
    # the analogue noise floor dominates — §4's bottleneck sentence.
    improvement = results[8].rms_error / max(results[32].rms_error, 1e-9)
    assert improvement < 3.0
