"""Differential conformance and divergence localisation.

Two claims under test:

* **Zero drift** — all 48 golden vectors (the repo's conformance
  contract, ``tests/golden/compass_vectors.json``), recorded live and
  pushed through the diff runner across execution paths, produce zero
  divergences — and the recorded values equal the pinned ones.
* **Sharp localisation** — a deliberately injected back-end fault is
  reported at its first divergent stage: a poisoned CORDIC ROM word at
  the exact ``cordic.iter.N`` register, a corrupted counter at the
  exact clock tick.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.core.compass import IntegratedCompass
from repro.errors import DivergenceError, ReplayError
from repro.replay import (
    CLASS_METADATA,
    CLASS_SILENT_WRONG,
    CLASS_TOLERATED,
    LogRecorder,
    ReplayPlayer,
    attach_recorder,
    bisect_onset,
    circular_delta_deg,
    diff_record,
    diff_records,
    first_divergent_record,
    localize_backend_fault,
    reader_from_records,
    require_conformance,
    run_conformance,
)
from repro.replay.bisect import bisect_counter_tick

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "compass_vectors.json"
RECORD = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
VECTORS = RECORD["vectors"]
HEADINGS = RECORD["meta"]["headings_deg"]
MAGNITUDES = RECORD["meta"]["field_magnitudes_ut"]


@pytest.fixture(scope="module")
def golden_reader():
    """The full 48-vector golden grid, recorded live on the scalar path."""
    compass = IntegratedCompass()
    recorder = attach_recorder(compass, LogRecorder())
    for field_ut in MAGNITUDES:
        for truth in HEADINGS:
            compass.measure_heading(truth, field_ut * 1e-6)
    return reader_from_records(recorder.header, recorder.records)


class TestGoldenConformance:
    def test_recorded_grid_matches_pinned_vectors(self, golden_reader):
        """The recording itself is bit-identical to the golden contract."""
        assert len(golden_reader) == len(VECTORS) == 48
        by_key = {
            (v["true_heading_deg"], v["field_ut"]): v for v in VECTORS
        }
        for field_ut in MAGNITUDES:
            for truth in HEADINGS:
                record = golden_reader.record(
                    MAGNITUDES.index(field_ut) * len(HEADINGS)
                    + HEADINGS.index(truth)
                )
                vector = by_key[(truth, field_ut)]
                assert record.counter["x"].count == vector["x_count"]
                assert record.counter["y"].count == vector["y_count"]
                assert record.heading_deg == vector["heading_deg"]
                assert (
                    record.field_estimate_a_per_m
                    == vector["field_estimate_a_per_m"]
                )
                assert record.cordic.cycles == vector["cordic_cycles"]

    def test_all_48_vectors_zero_divergences_cheap_paths(self, golden_reader):
        """recorded vs back-end replay vs batch: zero divergences."""
        results = run_conformance(
            golden_reader, paths=("recorded", "backend", "batch")
        )
        for result in results:
            assert result.clean, result.divergences[0].describe()
        assert require_conformance(results) == 3 * 48

    def test_nominal_column_all_live_paths(self, golden_reader):
        """50 µT column through scalar, instrumented and service replica."""
        nominal = [
            record for record in golden_reader
            if abs(record.field_estimate_a_per_m) > 0
        ][len(HEADINGS):2 * len(HEADINGS)]
        reader = reader_from_records(golden_reader.header, [
            dataclasses.replace(record, seq=i)
            for i, record in enumerate(nominal)
        ])
        results = run_conformance(
            reader, paths=("recorded", "scalar", "instrumented", "service")
        )
        for result in results:
            assert result.clean, result.divergences[0].describe()


class TestDivergenceClassification:
    @pytest.fixture(scope="class")
    def reader(self):
        compass = IntegratedCompass()
        recorder = attach_recorder(compass, LogRecorder())
        for truth in (45.0, 123.0):
            compass.measure_heading(truth, 50.0e-6)
        return reader_from_records(recorder.header, recorder.records)

    def test_identical_records_do_not_diverge(self, reader):
        assert diff_record(reader.record(0), reader.record(0)) is None

    def test_health_only_divergence_is_metadata(self, reader):
        record = reader.record(0)
        other = dataclasses.replace(record, health=None)
        divergence = diff_record(record, other)
        assert divergence.stage == "health"
        assert divergence.classification == CLASS_METADATA

    def test_wrong_heading_is_silent_wrong(self, reader):
        record = reader.record(0)
        other = dataclasses.replace(record, heading_deg=record.heading_deg + 2.0)
        divergence = diff_record(record, other)
        assert divergence.stage == "heading"
        assert divergence.classification == CLASS_SILENT_WRONG

    def test_small_heading_delta_tolerated_with_tolerance(self, reader):
        record = reader.record(0)
        other = dataclasses.replace(
            record, heading_deg=record.heading_deg + 0.25
        )
        divergence = diff_record(record, other, tolerance_deg=0.5)
        assert divergence.classification == CLASS_TOLERATED
        assert diff_record(record, other).classification == CLASS_SILENT_WRONG

    def test_upstream_divergence_names_most_upstream_stage(self, reader):
        record = reader.record(0)
        counter = dict(record.counter)
        counter["x"] = dataclasses.replace(counter["x"], count=counter["x"].count + 1)
        other = dataclasses.replace(record, counter=counter)
        divergence = diff_record(record, other)
        assert divergence.stage == "counter.x.count"

    def test_length_mismatch_is_silent_wrong(self, reader):
        records = reader.records()
        result = diff_records("a", records, "b", records[:-1])
        assert not result.clean
        assert result.divergences[0].stage == "length"
        assert result.divergences[0].classification == CLASS_SILENT_WRONG

    def test_require_conformance_raises_on_silent_wrong(self, reader):
        records = reader.records()
        bad = [
            dataclasses.replace(record, heading_deg=record.heading_deg + 5.0)
            for record in records
        ]
        result = diff_records("recorded", records, "suspect", bad)
        with pytest.raises(DivergenceError, match="heading"):
            require_conformance([result])

    def test_unknown_path_rejected(self, reader):
        with pytest.raises(ReplayError, match="unknown execution paths"):
            run_conformance(reader, paths=("recorded", "quantum"))


class TestFaultLocalisation:
    @pytest.fixture(scope="class")
    def reader(self):
        compass = IntegratedCompass()
        recorder = attach_recorder(compass, LogRecorder())
        for truth in (10.0, 45.0, 123.0, 300.0):
            compass.measure_heading(truth, 50.0e-6)
        return reader_from_records(recorder.header, recorder.records)

    def test_poisoned_cordic_rom_localised_to_iteration(self, reader):
        suspect = reader.header.build_backend()
        rom = list(suspect.cordic.rom)
        rom[3] += 7
        suspect.cordic.rom = rom
        located = localize_backend_fault(reader, suspect)
        assert located is not None
        index, divergence, tick = located
        assert index == 0  # every record rotates at iteration 3
        assert divergence.stage == "cordic.iter.3.angle_fixed"
        assert divergence.replayed - divergence.recorded == 7
        assert tick is None

    def test_clean_backend_localises_to_nothing(self, reader):
        assert localize_backend_fault(reader, reader.header.build_backend()) is None

    def test_corrupted_counter_localised_to_tick(self, reader):
        import repro.digital.counter as counter_mod

        class SkewedCounter(counter_mod.UpDownCounter):
            """Mis-counts every tick after the 2000th — persistently."""

            def count_rows(self, detectors, window=None):
                results, error = super().count_rows(detectors, window)
                return [
                    dataclasses.replace(result, count=result.count + 3)
                    if result.total_ticks > 2000
                    else result
                    for result in results
                ], error

        suspect = reader.header.build_backend()
        suspect.counter = SkewedCounter(suspect.counter.config)
        located = localize_backend_fault(reader, suspect)
        assert located is not None
        index, divergence, tick = located
        assert index == 0
        assert divergence.stage == "counter.x.count"
        assert tick is not None
        assert tick.channel == "x"
        assert tick.tick == 2001
        assert tick.suspect_count - tick.reference_count == 3

    def test_bisect_counter_tick_none_when_counts_agree(self, reader):
        clean = reader.header.build_backend()
        assert (
            bisect_counter_tick(
                reader.header, clean.counter, reader.record(0), "x"
            )
            is None
        )


class TestBisectPrimitives:
    def test_onset_of_monotone_divergence(self):
        for onset in (0, 1, 5, 9):
            flags = [i >= onset for i in range(10)]
            calls = []

            def probe(i, flags=flags, calls=calls):
                calls.append(i)
                return flags[i]

            assert bisect_onset(len(flags), probe) == onset
            assert first_divergent_record(
                len(flags), lambda i: flags[i]
            ) == onset

    def test_onset_is_logarithmic_for_long_logs(self):
        calls = []

        def probe(i):
            calls.append(i)
            return i >= 700

        assert bisect_onset(1000, probe) == 700
        assert len(calls) < 40  # a linear scan would need ~700

    def test_clean_log_returns_none(self):
        assert bisect_onset(16, lambda i: False) is None
        assert first_divergent_record(16, lambda i: False) is None

    def test_non_monotone_pattern_still_returns_a_local_onset(self):
        flags = [False, True, False, False, True, True]
        found = bisect_onset(len(flags), lambda i: flags[i])
        assert flags[found]
        assert found == 0 or not flags[found - 1]

    def test_circular_delta_wraps(self):
        assert circular_delta_deg(359.5, 0.5) == 1.0
        assert circular_delta_deg(0.0, 180.0) == 180.0
        assert circular_delta_deg(90.0, 90.0) == 0.0
