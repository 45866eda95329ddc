"""ACC1 — full-system heading accuracy (Abstract / §6).

"The compass has been designed to have an accuracy of one degree. ...
Simulations indicate that an accuracy within one degree is possible."

This bench runs the complete closed loop — field projection, multiplexed
excitation, fluxgate physics, pulse-position detection, up-down counting,
CORDIC — over a full-circle sweep and reports the error distribution.
The sweep goes through the batch engine (bit-identical to a scalar
``measure_heading`` loop; see BENCH_sweep.json for the speedup record).
"""

import pytest

from conftest import emit
from repro.batch import BatchCompass
from repro.core.accuracy import ErrorStats
from repro.core.heading import headings_evenly_spaced
from repro.units import angular_difference_deg


def run_sweep():
    headings = headings_evenly_spaced(36, 0.5)
    return headings, BatchCompass().sweep_headings(headings)


def test_acc1_system_accuracy(benchmark):
    headings, measurements = benchmark(run_sweep)
    stats = ErrorStats.from_sweep(headings, measurements)

    rows = [f"{'true °':>8} {'measured °':>11} {'error °':>8}"]
    for h, m in list(zip(headings, measurements))[::4]:
        rows.append(
            f"{h:8.1f} {m.heading_deg:11.3f} "
            f"{angular_difference_deg(m.heading_deg, h):8.3f}"
        )
    rows.append("-" * 30)
    rows.append(f"max |error| : {stats.max_error:.3f} deg (paper claim: < 1 deg)")
    rows.append(f"rms error   : {stats.rms_error:.3f} deg")
    rows.append(f"samples     : {stats.n_samples}")
    emit("ACC1 full-system heading sweep", rows)

    assert stats.in_spec
    assert stats.rms_error < 0.5
