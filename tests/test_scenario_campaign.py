"""Per-scenario fault campaign tests: silent-wrong stays at zero.

The default tier runs one-scenario campaigns (fast, targeted); the slow
tier flies the full corpus x fault matrix — the exact sweep the CI
``scenario-campaign`` job gates at silent-wrong = 0.
"""

import pytest

from repro.errors import ConfigurationError
from repro.faults import Outcome, REGISTRY, registered_faults
from repro.report import write_report
from repro.scenario import (
    ENV_SCREEN,
    ScenarioCampaign,
    ScenarioResult,
    StepResult,
    get_scenario,
)
from repro.scenario.campaign import classify_scenario


def _step(error_deg, flags=()):
    return StepResult(
        step=0,
        commanded_heading_deg=0.0,
        raw_heading_deg=error_deg,
        served_heading_deg=error_deg,
        error_deg=error_deg,
        flags=tuple(flags),
        detail="",
        true_temperature_c=25.0,
        sensed_temperature_c=25.0,
        true_pitch_deg=0.0,
        true_roll_deg=0.0,
    )


def _result(*steps):
    return ScenarioResult(scenario=ENV_SCREEN, steps=tuple(steps))


class TestClassify:
    def test_all_clean_is_benign(self):
        outcome, error, _ = classify_scenario(_result(_step(0.3)))
        assert outcome is Outcome.BENIGN
        assert error == pytest.approx(0.3)

    def test_flagged_out_of_spec_is_degraded(self):
        outcome, _, detail = classify_scenario(
            _result(_step(0.3), _step(8.0, flags=("anomaly",)))
        )
        assert outcome is Outcome.DEGRADED
        assert "1/2" in detail

    def test_unflagged_out_of_spec_is_silent_wrong(self):
        outcome, error, detail = classify_scenario(
            _result(_step(0.3), _step(8.0))
        )
        assert outcome is Outcome.SILENT_WRONG
        assert error == pytest.approx(8.0)
        assert "UNFLAGGED" in detail

    def test_one_lie_poisons_the_run(self):
        # Flagged bad steps do not excuse one unflagged bad step.
        outcome, _, _ = classify_scenario(
            _result(_step(8.0, flags=("anomaly",)), _step(5.0))
        )
        assert outcome is Outcome.SILENT_WRONG


class TestCampaignConstruction:
    def test_defaults_cover_armed_corpus_and_env_faults(self):
        campaign = ScenarioCampaign()
        names = {s.name for s in campaign.scenarios}
        assert "bench-clean-50ut" not in names  # raw policy: no promise
        assert {"env-screen", "urban-ambush"} <= names
        assert campaign.fault_names
        assert all(
            REGISTRY.get(f).probe == "scenario"
            for f in campaign.fault_names
        )

    def test_measurement_fault_rejected(self):
        measurement_fault = next(
            s.name for s in registered_faults() if s.probe == "measurement"
        )
        with pytest.raises(ConfigurationError, match="not a scenario"):
            ScenarioCampaign(faults=[measurement_fault])

    def test_empty_scenarios_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioCampaign(scenarios=[])


class TestEnvScreenCampaign:
    """One-scenario campaign over every environment fault: the fast gate."""

    @pytest.fixture(scope="class")
    def result(self):
        return ScenarioCampaign(scenarios=[ENV_SCREEN]).run()

    def test_no_silent_wrong(self, result):
        assert result.silent_wrong() == []

    def test_all_cells_conform(self, result):
        assert result.nonconforming() == []

    def test_clean_baseline_passes(self, result):
        assert result.clean_failures == []
        clean = result.clean_runs["env-screen"]
        assert clean["clean"] is True

    def test_detector_severity_is_loud(self, result):
        """Every env fault at its detector severity degrades or detects
        on the screen — the factory `env` stage's catch contract."""
        for spec in registered_faults():
            if spec.probe != "scenario":
                continue
            cell = next(
                c for c in result.cells
                if c.fault == spec.name
                and c.severity == spec.detector_severity
            )
            assert cell.outcome in (
                Outcome.DEGRADED, Outcome.DETECTED,
            ), cell

    def test_cell_accounting(self, result):
        severities = sum(
            len(spec.severities)
            for spec in registered_faults()
            if spec.probe == "scenario"
        )
        assert len(result.cells) == severities + 1  # + the clean cell
        summary = result.summary()
        assert summary["silent_wrong"] == 0
        assert summary["scenarios"] == ["env-screen"]


class TestAmbushBaselineRule:
    def test_benign_means_indistinguishable_from_clean(self):
        """On a scenario whose *clean* run already degrades (urban-ambush
        carries a designed-in anomaly), a fault severity pinned "benign"
        conforms by matching the clean outcome, not by being unflagged."""
        result = ScenarioCampaign(
            scenarios=[get_scenario("urban-ambush")],
            faults=["environment.anomaly_ambush"],
        ).run()
        assert result.silent_wrong() == []
        assert result.nonconforming() == []
        clean_cell = next(c for c in result.cells if c.fault == "clean")
        assert clean_cell.outcome is Outcome.DEGRADED
        benign_sev = next(
            c for c in result.cells
            if c.fault == "environment.anomaly_ambush"
            and c.severity == 0.3
        )
        # The tiny ambush is invisible on top of the designed-in one:
        # same outcome as clean, so it conforms.
        assert benign_sev.outcome is Outcome.DEGRADED
        assert benign_sev.conforms


@pytest.mark.slow
class TestFullCorpusCampaign:
    """The CI gate: the full scenario x fault x severity matrix."""

    @pytest.fixture(scope="class")
    def result(self):
        return ScenarioCampaign().run()

    def test_silent_wrong_ratchet_zero(self, result):
        assert result.silent_wrong() == []

    def test_everything_conforms(self, result):
        assert result.nonconforming() == []
        assert result.clean_failures == []

    def test_matrix_shape(self, result):
        scenarios = len(result.clean_runs)
        severities = sum(
            len(spec.severities)
            for spec in registered_faults()
            if spec.probe == "scenario"
        )
        assert len(result.cells) == scenarios * (severities + 1)

    def test_json_serialises(self, result, tmp_path):
        path = tmp_path / "campaign.json"
        write_report(str(path), result.to_dict())
        import json

        record = json.loads(path.read_text())
        assert record["summary"]["silent_wrong"] == 0
