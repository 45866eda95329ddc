"""Tests for the simulated production line (`repro.factory`)."""

import collections
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
            LotConfig(gate_tolerance_deg=1.2)

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

    def test_each_stage_runs_once_per_visible_sub_signature(
        self, monkeypatch
    ):
        """The line's work on the golden lot, pinned per runner.

        Its 38 signatures have 5 distinct scan, 18 measurement and 8
        environment sub-signatures; a stage runs once for each one that
        reaches it, and the oracle once per passing defective
        (measurement, scenario) pair.
        """
        from repro.factory import line

        calls = collections.Counter()
        run_stage, run_field_oracle = line.run_stage, line.run_field_oracle

        def counted_stage(stage, *args):
            calls[stage] += 1
            return run_stage(stage, *args)

        def counted_oracle(*args):
            calls["oracle"] += 1
            return run_field_oracle(*args)

        monkeypatch.setattr(line, "run_stage", counted_stage)
        monkeypatch.setattr(line, "run_field_oracle", counted_oracle)
        report = FactoryLine(golden_lot_config()).run()
        assert report.distinct_signatures == 38
        assert calls == {
            "btest": 5,
            "bist": 18,
            "calibration": 9,
            "env": 6,
            "oracle": 8,
        }

    def test_fast_path_routes_per_channel_row(self, monkeypatch):
        """The golden lot's channel-rows by fast-path outcome.

        A call that mixes rows inside and outside the guarded ramp steps
        only the outside ones: the 20 left are the BIST's one-row
        refusals (8) and the out-of-ramp rows of the
        ``sensor.saturation_loss`` 0.2 calibration sweep (4) and oracle
        sweep (8).
        """
        from repro.analog import fastpath
        from repro.scenario import compensation

        # The env screen's thermal fit is cached per process: start
        # without it, as a fresh process does.
        monkeypatch.setattr(compensation, "_THERMAL_CACHE", {})
        rows = collections.Counter()
        record_use = fastpath.FastPathStats.record_use
        record_fallback = fastpath.FastPathStats.record_fallback

        def counted_use(stats, n=1):
            rows["used"] += n
            record_use(stats, n)

        def counted_fallback(stats, reason, n=1):
            rows[reason] += n
            record_fallback(stats, reason, n)

        monkeypatch.setattr(fastpath.FastPathStats, "record_use", counted_use)
        monkeypatch.setattr(
            fastpath.FastPathStats, "record_fallback", counted_fallback
        )
        FactoryLine(golden_lot_config()).run()
        assert rows == {"used": 928, "validity-envelope": 20}

    def test_replay_seam_audits_the_calibration_logs(self, golden_report):
        """The record/replay contract on the factory's calibration stage.

        Exactly the signatures with no earlier failing stage carry a
        calibration log, and every log is audited: it re-derives its
        stage verdict bit-exactly from the records alone; logs of
        signatures without measurement-layer defects replay bit-exactly
        through the clean back-end; logs recorded under a measurement
        defect may legitimately diverge from a clean replay — that
        divergence *is* the defect's signature in the log — but must
        never diverge for clean signatures.  A log with no records is a
        calibration sweep that raised, so it must carry a failing verdict.
        """
        program = golden_report.config.stages
        reaches_calibration = program[program.index("calibration"):]
        reached = {
            signature(unit.defects)
            for unit in golden_report.units
            if unit.caught_by is None or unit.caught_by in reaches_calibration
        }
        carrying = {
            sig
            for sig, evaluation in golden_report.evaluations.items()
            if "calibration" in evaluation.results
        }
        assert carrying == reached
        exact = 0
        for sig in carrying:
            result = golden_report.evaluations[sig].results["calibration"]
            recorder = result.recorder
            assert recorder is not None, f"{sig} reached calibration unlogged"
            if not recorder.records:
                assert not result.passed and result.worst_error_deg is None
                continue
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
        assert reached and exact > 0


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


class TestEnvStage:
    def test_env_run_builds_only_the_mission_compasses(self, monkeypatch):
        """The env stage reads its test time from one default compass per
        process; each run then builds only the mission runner's own."""
        from repro.core.compass import IntegratedCompass
        from repro.factory import stages
        from repro.scenario.dsl import ENV_SCREEN
        from repro.scenario.runner import CALIBRATION_HEADINGS, ScenarioRunner

        builds = []
        init = IntegratedCompass.__init__

        def counted(self, *args, **kwargs):
            builds.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(IntegratedCompass, "__init__", counted)
        ScenarioRunner(ENV_SCREEN).run()
        mission = len(builds)
        assert mission > 0
        stages._measurement_duration.cache_clear()
        del builds[:]
        first = stages.run_env((), golden_lot_config())
        assert len(builds) == mission + 1
        del builds[:]
        second = stages.run_env((), golden_lot_config())
        assert len(builds) == mission
        assert first == second
        duration = IntegratedCompass().back_end.controller.measurement_duration()
        steps = len(CALIBRATION_HEADINGS) + ENV_SCREEN.steps
        assert first.sim_time_s == steps * duration


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
