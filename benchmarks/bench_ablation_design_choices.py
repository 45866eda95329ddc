"""ABL1 — ablations of the design choices DESIGN.md §5 calls out.

Three studies:

1. **Core magnetisation law** — piecewise-linear (ideal), tanh (the
   paper's ELDO-style model) and Jiles-Atherton hysteresis: the system
   accuracy must not hinge on the idealisation.
2. **Counting window** — integer vs non-integer numbers of excitation
   periods: the up-down counter's rejection of the 50 % baseline duty
   requires whole periods; a half-period window biases the count.
3. **Detector edge choice** — the paper sets the latch on the positive
   pulse's *trailing* edge and resets on the negative pulse's *trailing*
   (recovering) edge, making the duty independent of pulse width.  A
   mixed-edge detector (reset on the negative pulse's leading edge) is
   width-sensitive: its reading moves with the comparator threshold,
   i.e. with production spread.
"""

import numpy as np
import pytest

from conftest import emit
from repro.analog.comparator import Comparator, ComparatorParameters, PickupAmplifier
from repro.analog.excitation import ExcitationSource
from repro.analog.pulse_detector import DetectorParameters, PulsePositionDetector
from repro.batch import BatchCompass
from repro.core.accuracy import ErrorStats
from repro.core.compass import CompassConfig
from repro.core.heading import headings_evenly_spaced
from repro.digital.counter import UpDownCounter
from repro.sensors.fluxgate import FluxgateSensor
from repro.sensors.parameters import IDEAL_TARGET
from repro.simulation.engine import TimeGrid


def run_core_model_ablation():
    rows = [f"{'core model':<16} {'max err °':>10} {'rms err °':>10}"]
    results = {}
    for model in ("piecewise", "tanh", "jiles-atherton"):
        batch = BatchCompass(CompassConfig(core_model=model))
        n = 6 if model == "jiles-atherton" else 12  # JA is loop-bound
        headings = headings_evenly_spaced(n, 7.0)
        stats = ErrorStats.from_sweep(headings, batch.sweep_headings(headings))
        rows.append(f"{model:<16} {stats.max_error:10.3f} {stats.rms_error:10.3f}")
        results[model] = stats
    return rows, results


def test_abl1_core_models(benchmark):
    rows, results = benchmark.pedantic(run_core_model_ablation, rounds=1, iterations=1)
    emit("ABL1 core magnetisation law vs system accuracy", rows)
    # The 1° budget holds for every law, including real hysteresis —
    # the pulse-position readout is differential in time, so the
    # common-mode hysteresis shift cancels.
    for model, stats in results.items():
        assert stats.in_spec, f"budget broken with {model} core"


def test_abl1_counting_window(benchmark):
    def run_window_ablation():
        sensor = FluxgateSensor(IDEAL_TARGET)
        grid = TimeGrid(n_periods=9)
        current = ExcitationSource().current(grid, "x", IDEAL_TARGET.series_resistance)
        waves = sensor.simulate(current, 20.0)
        output = PulsePositionDetector().detect(
            PickupAmplifier().amplify(waves.pickup_voltage)
        )
        counter = UpDownCounter()
        period = grid.period
        rows = [f"{'window / periods':>17} {'count':>7} {'field est A/m':>14}"]
        estimates = {}
        for n_periods in (8.0, 7.5, 8.25):
            window = (0.5 * period, (0.5 + n_periods) * period)
            result = counter.count_window(output, window)
            duty = result.duty_cycle
            estimate = sensor.field_from_duty_cycle(duty, 6e-3)
            rows.append(f"{n_periods:17.2f} {result.count:7d} {estimate:14.3f}")
            estimates[n_periods] = estimate
        return rows, estimates

    rows, estimates = benchmark(run_window_ablation)
    emit("ABL1 counting window: integer vs fractional periods", rows)
    # Integer windows nail the 20 A/m input; fractional windows bias it.
    assert abs(estimates[8.0] - 20.0) < 0.2
    assert abs(estimates[7.5] - 20.0) > 5.0 * abs(estimates[8.0] - 20.0)
    assert abs(estimates[8.25] - 20.0) > abs(estimates[8.0] - 20.0)


def _mixed_edge_duty(amplified, threshold):
    """A naive detector: set on + pulse trailing, reset on − pulse LEADING."""
    pos = Comparator(ComparatorParameters(threshold=threshold, hysteresis=0.04))
    neg = Comparator(ComparatorParameters(threshold=threshold, hysteresis=0.04))
    set_times = pos.falling_edges(amplified)
    reset_times = neg.rising_edges(amplified.scaled(-1.0))
    events = sorted(
        [(float(t), 1) for t in set_times] + [(float(t), 0) for t in reset_times]
    )
    t0, t1 = float(amplified.t[0]), float(amplified.t[-1])
    high, state, prev = 0.0, 0, t0
    for t, value in events:
        if state:
            high += t - prev
        state, prev = value, t
    if state:
        high += t1 - prev
    return high / (t1 - t0)


def test_abl1_detector_edge_choice(benchmark):
    def run_edge_ablation():
        sensor = FluxgateSensor(IDEAL_TARGET)
        grid = TimeGrid(n_periods=8)
        current = ExcitationSource().current(grid, "x", IDEAL_TARGET.series_resistance)
        waves = sensor.simulate(current, 0.0)  # true duty: exactly 0.5
        amplified = PickupAmplifier().amplify(waves.pickup_voltage)

        rows = [f"{'threshold V':>12} {'paper duty':>11} {'mixed-edge duty':>16}"]
        paper, mixed = {}, {}
        for threshold in (0.08, 0.10, 0.12):
            detector = PulsePositionDetector(
                DetectorParameters(threshold=threshold)
            )
            paper[threshold] = detector.detect(amplified).duty_cycle()
            mixed[threshold] = _mixed_edge_duty(amplified, threshold)
            rows.append(
                f"{threshold:12.2f} {paper[threshold]:11.4f} "
                f"{mixed[threshold]:16.4f}"
            )
        return rows, paper, mixed

    rows, paper, mixed = benchmark(run_edge_ablation)
    emit("ABL1 detector edge choice vs comparator threshold", rows)

    # The paper's trailing/trailing latch: duty pinned at 0.5 regardless
    # of threshold (pulse-width cancellation).
    paper_spread = max(paper.values()) - min(paper.values())
    assert paper_spread < 2e-3
    assert all(abs(d - 0.5) < 2e-3 for d in paper.values())
    # The mixed-edge detector folds the pulse width into the duty: its
    # reading is both offset from 0.5 and threshold-dependent.
    mixed_spread = max(mixed.values()) - min(mixed.values())
    assert mixed_spread > 5.0 * max(paper_spread, 1e-6)
    assert all(abs(d - 0.5) > 0.01 for d in mixed.values())
