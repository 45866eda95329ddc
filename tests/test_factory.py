"""Tests for the simulated production line (`repro.factory`)."""

import dataclasses
import json
import pathlib

import pytest

from repro.cli import main
from repro.errors import (
    ConfigurationError,
    DivergenceError,
    EscapeError,
)
from repro.factory import (
    DISPOSITIONS,
    DefectDistribution,
    FactoryLine,
    LotConfig,
    STAGE_NAMES,
    defect,
    golden_lot_config,
    mint_units,
    signature,
)
from repro.faults.model import REGISTRY, registered_faults
from repro.observe import M_FACTORY_STAGE, M_FACTORY_UNITS
from repro.observe.metrics import MetricsRegistry
from repro.replay import ReplayPlayer, reader_from_records
from repro.replay.format import true_heading_from_components
from repro.report import report_json

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "factory_lot.json"

#: A small defect-rich lot several suites share (one evaluation each).
SMALL = LotConfig(
    size=32, seed=7, defects=DefectDistribution(rate=0.4, multi_fault_rate=0.3)
)


class TestConfigValidation:
    def test_defect_rate_bounds(self):
        with pytest.raises(ConfigurationError):
            DefectDistribution(rate=1.5)

    def test_unknown_layer_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault layer"):
            DefectDistribution(layer_mix=(("optical", 1.0),))

    def test_zero_weight_rejected(self):
        with pytest.raises(ConfigurationError, match="weight"):
            DefectDistribution(layer_mix=(("sensor", 0.0),))

    def test_unknown_severity_law(self):
        with pytest.raises(ConfigurationError, match="severity law"):
            DefectDistribution(severity_law="gaussian")

    def test_unknown_stage_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown stage"):
            LotConfig(stages=("btest", "burn-in"))

    def test_duplicate_stage_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            LotConfig(stages=("bist", "bist"))

    def test_gate_must_guardband_product_spec(self):
        with pytest.raises(ConfigurationError, match="gate"):
            LotConfig(gate_tolerance_deg=1.2, product_tolerance_deg=1.0)

    def test_calibration_needs_six_headings(self):
        with pytest.raises(ConfigurationError, match="ellipse"):
            LotConfig(calibration_headings=4)


class TestDefectMinting:
    def test_bit_identical_from_seed(self):
        config = golden_lot_config()
        assert mint_units(config) == mint_units(config)

    def test_rate_zero_mints_clean_lot(self):
        units = mint_units(
            LotConfig(size=64, defects=DefectDistribution(rate=0.0))
        )
        assert all(u == () for u in units)

    def test_rate_one_mints_all_defective(self):
        units = mint_units(
            LotConfig(size=64, defects=DefectDistribution(rate=1.0))
        )
        assert all(len(u) >= 1 for u in units)

    def test_severity_laws(self):
        worst = mint_units(
            LotConfig(
                size=64,
                defects=DefectDistribution(rate=1.0, severity_law="worst"),
            )
        )
        mild = mint_units(
            LotConfig(
                size=64,
                defects=DefectDistribution(rate=1.0, severity_law="mild"),
            )
        )
        for units, pick in ((worst, max), (mild, min)):
            for unit in units:
                for d in unit:
                    assert d.severity == pick(REGISTRY.get(d.fault).severities)

    def test_faults_within_unit_distinct(self):
        units = mint_units(
            LotConfig(
                size=256,
                seed=11,
                defects=DefectDistribution(rate=1.0, multi_fault_rate=0.9),
            )
        )
        for unit in units:
            names = [d.fault for d in unit]
            assert len(set(names)) == len(names)

    def test_defect_helper_defaults_to_detector_severity(self):
        d = defect("sensor.shorted_pickup_coil")
        spec = REGISTRY.get("sensor.shorted_pickup_coil")
        assert d.severity == spec.detector_severity
        assert d.expected_detector == spec.expected_detector

    def test_signature_is_sorted(self):
        a = defect("sensor.open_excitation_coil")
        b = defect("analog.stuck_comparator")
        assert signature((a, b)) == signature((b, a))


def factory_faults():
    """The fault population the factory line screens: single-unit probes.

    Array-probe faults break *between* signal chains (a dead or twisted
    element of a multi-element array); they are caught in service by the
    array layer itself (``expected_detector == "array"``), not on a
    factory coupon, and ``tests/test_array.py`` enforces that contract.
    """
    return [spec for spec in registered_faults() if spec.probe != "array"]


@pytest.fixture(scope="module")
def detector_lot():
    """One lot holding one coupon per factory fault at detector severity."""
    line = FactoryLine(LotConfig())
    units = [(defect(spec.name),) for spec in factory_faults()]
    report = line.run(units=units)
    return {
        unit.defects[0].fault: unit for unit in report.units
    }


class TestExpectedDetector:
    def test_every_spec_declares_a_stage(self):
        for spec in registered_faults():
            if spec.probe == "array":
                assert spec.expected_detector == "array"
            else:
                assert spec.expected_detector in STAGE_NAMES

    def test_invalid_detector_rejected(self):
        spec = registered_faults()[0]
        with pytest.raises(ConfigurationError, match="detector"):
            dataclasses.replace(spec, expected_detector="burn-in")

    @pytest.mark.parametrize(
        "spec", factory_faults(), ids=lambda s: s.name
    )
    def test_caught_by_claimed_stage(self, detector_lot, spec):
        unit = detector_lot[spec.name]
        assert unit.disposition == "caught"
        assert unit.caught_by == spec.expected_detector


@pytest.fixture(scope="module")
def golden_report():
    return FactoryLine(golden_lot_config()).run(record_logs=True)


class TestGoldenLot:
    def test_matches_pinned_corpus_bit_identically(self, golden_report):
        # Byte-level identity: same canonical serialisation, same floats.
        assert golden_report.to_json() == GOLDEN_PATH.read_text(
            encoding="utf-8"
        )

    def test_zero_escapes_and_gate_passes(self, golden_report):
        assert golden_report.escapes == []
        golden_report.raise_for_escapes()  # must not raise

    def test_dispositions_partition_the_lot(self, golden_report):
        counts = golden_report.counts()
        assert set(counts) == set(DISPOSITIONS)
        assert sum(counts.values()) == golden_report.size

    def test_stage_accounting_consistent(self, golden_report):
        counts = golden_report.counts()
        stages = golden_report.stages
        assert stages[0].tested == golden_report.size
        for earlier, later in zip(stages, stages[1:]):
            assert later.tested == earlier.passed
        assert (
            sum(s.caught for s in stages) == counts["caught"]
        )
        assert (
            sum(s.false_fails for s in stages) == counts["false-fail"]
        )
        # The last stage's survivors are exactly the shipped units.
        assert stages[-1].passed == golden_report.shipped

    def test_memoization_actually_collapses_the_lot(self, golden_report):
        assert golden_report.distinct_signatures < golden_report.size / 4

    def test_every_stage_earns_catches_in_the_golden_mix(self, golden_report):
        for stage in golden_report.stages:
            assert stage.caught > 0, f"{stage.name} caught nothing"
            assert stage.cost_per_defect_caught_s > 0.0

    def test_clean_units_never_false_fail(self, golden_report):
        assert golden_report.counts()["false-fail"] == 0

    def test_replay_seam_audits_the_calibration_logs(self, golden_report):
        """The record/replay contract on the factory's calibration stage.

        Every recorded log re-derives its stage verdict bit-exactly from
        the records alone; logs of signatures without measurement-layer
        defects replay bit-exactly through the clean back-end; logs
        recorded under a measurement defect may legitimately diverge from
        a clean replay — that divergence *is* the defect's signature in
        the log — but must never diverge for clean signatures.
        """
        audited = exact = 0
        for sig, evaluation in golden_report.evaluations.items():
            result = evaluation.results["calibration"]
            recorder = result.recorder
            if recorder is None or not recorder.records:
                continue
            audited += 1
            reader = reader_from_records(recorder.header, recorder.records)
            records = reader.records()
            has_measurement_fault = any(
                REGISTRY.get(fault).probe == "measurement"
                for fault, _ in sig
            )
            try:
                ReplayPlayer(recorder.header).verify(reader)
                exact += 1
            except DivergenceError:
                assert has_measurement_fault, (
                    f"defect-free signature {sig} diverged on replay"
                )
            if (
                result.worst_error_deg is not None
                and len(records)
                == golden_report.config.calibration_headings
            ):
                worst = max(
                    abs(
                        (
                            r.heading_deg
                            - true_heading_from_components(r.h_x, r.h_y)
                            + 180.0
                        )
                        % 360.0
                        - 180.0
                    )
                    for r in records
                )
                assert worst == result.worst_error_deg
        assert audited > 0 and exact > 0

    @pytest.mark.slow
    def test_scalar_path_bit_identical(self, golden_report):
        scalar = FactoryLine(
            dataclasses.replace(
                golden_lot_config(), calibration_path="scalar"
            )
        ).run()
        batch_dict = golden_report.to_dict()
        scalar_dict = scalar.to_dict()
        # Only the config echo may differ (the path knob itself).
        assert batch_dict.pop("config") != scalar_dict.pop("config")
        assert batch_dict == scalar_dict


class TestStageOrderInvariance:
    def _run(self, stages):
        config = dataclasses.replace(SMALL, stages=stages)
        return FactoryLine(config).run()

    def test_reversed_program_same_escape_set(self):
        forward = self._run(("btest", "bist", "calibration"))
        reverse = self._run(("calibration", "bist", "btest"))
        for a, b in ((forward, reverse),):
            assert [u.unit for u in a.escapes] == [u.unit for u in b.escapes]
            assert {
                u.unit for u in a.units if u.disposition == "caught"
            } == {u.unit for u in b.units if u.disposition == "caught"}
            assert a.counts() == b.counts()

    @pytest.mark.slow
    def test_all_permutations_same_escape_set(self):
        import itertools

        reports = [
            self._run(order)
            for order in itertools.permutations(STAGE_NAMES)
        ]
        reference = reports[0]
        for report in reports[1:]:
            assert [u.unit for u in report.escapes] == [
                u.unit for u in reference.escapes
            ]
            assert report.counts() == reference.counts()


class TestEscapeAccounting:
    """The exit-18 path: a guardband-ablated program must fail loudly.

    ``analog.amplifier_offset`` at 20 µV sits in the documented
    undetectable window — healthy at BIST's single heading, unflagged
    ~1.7° wrong on the circle.  The full program catches it at
    calibration; a program without the calibration stage ships it, and
    the lot gate must turn that into a typed :class:`EscapeError`.
    """

    COUPON = ("analog.amplifier_offset", 2.0e-5)

    def _lot(self, stages):
        config = LotConfig(
            size=4,
            seed=1,
            defects=DefectDistribution(rate=0.0),
            stages=stages,
        )
        units = mint_units(config) + [(defect(*self.COUPON),)]
        return FactoryLine(config).run(units=units)

    def test_full_program_catches_the_window_defect(self):
        report = self._lot(("btest", "bist", "calibration"))
        report.raise_for_escapes()
        coupon = report.units[-1]
        assert coupon.disposition == "caught"
        assert coupon.caught_by == "calibration"

    def test_ict_only_program_escapes_and_raises(self):
        report = self._lot(("btest", "bist"))
        coupon = report.units[-1]
        assert coupon.disposition == "escape"
        assert coupon.oracle is not None
        assert coupon.oracle.verdict == "silent-wrong"
        assert coupon.oracle.worst_error_deg > report.config.product_tolerance_deg
        with pytest.raises(EscapeError) as excinfo:
            report.raise_for_escapes()
        assert excinfo.value.report is report

    def test_cli_exits_18_on_escape(self, capsys):
        code = main(
            [
                "factory",
                "--units", "4",
                "--seed", "1",
                "--defect-rate", "0",
                "--stages", "btest,bist",
                "--coupon", "analog.amplifier_offset:2e-5",
            ]
        )
        assert code == 18
        assert "escaped" in capsys.readouterr().err


class TestCLI:
    def test_factory_verb_passes_and_writes_artifacts(self, tmp_path, capsys):
        json_path = tmp_path / "lot.json"
        metrics_path = tmp_path / "metrics.json"
        code = main(
            [
                "factory",
                "--units", "12",
                "--seed", "3",
                "--defect-rate", "0.3",
                "--json", str(json_path),
                "--metrics", str(metrics_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "RESULT: PASS" in out
        text = json_path.read_text(encoding="utf-8")
        assert text == report_json(json.loads(text))
        record = json.loads(text)
        assert record["size"] == 12
        assert record["escape_rate"] == 0.0
        assert len(record["units"]) == 12
        snapshot = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert M_FACTORY_UNITS in snapshot
        assert M_FACTORY_STAGE in snapshot

    def test_metrics_counters_tally_the_lot(self):
        metrics = MetricsRegistry()
        config = LotConfig(
            size=12, seed=3, defects=DefectDistribution(rate=0.3)
        )
        report = FactoryLine(config, metrics=metrics).run()
        snapshot = metrics.snapshot()
        unit_counts = snapshot[M_FACTORY_UNITS]["series"]
        total = sum(s["value"] for s in unit_counts)
        assert total == report.size
