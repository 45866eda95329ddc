"""MAG1 — insensitivity to the earth-field magnitude (§4).

"The calculation method is insensitive to local variations of the
magnitude of the earths magnetic field, which is necessary since the
magnitude varies between 25µT in south America and 65µT near the south
pole."

This bench sweeps the horizontal field magnitude across (and slightly
beyond) the paper's worldwide range and reports the heading-error
statistics at each point.  All magnitudes run as one fused batch through
the batch engine — bit-identical to a scalar ``measure_heading`` loop
nested magnitude-major.
"""

import pytest

from conftest import emit
from repro.batch import BatchCompass
from repro.core.accuracy import ErrorStats
from repro.core.heading import headings_evenly_spaced


def run_magnitude_study():
    magnitudes = [25e-6, 35e-6, 45e-6, 55e-6, 65e-6]
    n_headings = 16
    headings = headings_evenly_spaced(n_headings, 0.5)
    grouped = BatchCompass().sweep_magnitudes(magnitudes, n_headings=n_headings)
    return [
        (magnitude, ErrorStats.from_sweep(headings, measurements))
        for magnitude, measurements in grouped
    ]


def test_mag1_field_magnitude_insensitivity(benchmark):
    results = benchmark(run_magnitude_study)

    rows = [f"{'|B| µT':>8} {'max err °':>10} {'rms err °':>10}"]
    for magnitude, stats in results:
        rows.append(
            f"{magnitude * 1e6:8.0f} {stats.max_error:10.3f} {stats.rms_error:10.3f}"
        )
    emit("MAG1 heading error vs field magnitude (25…65 µT)", rows)

    for magnitude, stats in results:
        assert stats.in_spec, f"budget broken at {magnitude * 1e6:.0f} µT"

    # Insensitivity also means no trend: the error at 65 µT is not
    # meaningfully worse than at 45 µT.
    by_magnitude = {round(m * 1e6): s for m, s in results}
    assert by_magnitude[65].max_error < by_magnitude[45].max_error + 0.3
