"""Fault-campaign engine: sweep mechanics, classification, reporting."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    CampaignCell,
    CampaignResult,
    FaultCampaign,
    FaultRegistry,
    FaultSpec,
    Outcome,
    REGISTRY,
)
from repro.faults.campaign import heading_error_deg


class TestHeadingError:
    @pytest.mark.parametrize(
        "measured,truth,expected",
        [(45.0, 45.0, 0.0), (359.5, 0.5, 1.0), (0.5, 359.5, 1.0), (180.0, 0.0, 180.0)],
    )
    def test_circular_error(self, measured, truth, expected):
        assert heading_error_deg(measured, truth) == pytest.approx(expected)


class TestSpecValidation:
    def test_expected_must_align_with_severities(self):
        with pytest.raises(ConfigurationError, match="align"):
            FaultSpec(
                name="x.y", layer="sensor", description="d",
                severity_meaning="s", severities=(1.0, 2.0), expected=("benign",),
            )

    def test_silent_wrong_is_not_a_valid_expectation(self):
        with pytest.raises(ConfigurationError, match="invalid expected"):
            FaultSpec(
                name="x.y", layer="sensor", description="d",
                severity_meaning="s", severities=(1.0,), expected=("silent-wrong",),
            )

    def test_duplicate_registration_rejected(self):
        registry = FaultRegistry()
        spec = FaultSpec(
            name="a.b", layer="sensor", description="d",
            severity_meaning="s", severities=(1.0,), expected=("benign",),
        )
        registry.register(spec, lambda target, severity: None)
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register(spec, lambda target, severity: None)

    def test_unknown_fault_name_rejected(self):
        with pytest.raises(ConfigurationError, match="no fault"):
            REGISTRY.get("sensor.does_not_exist")
        with pytest.raises(ConfigurationError):
            FaultCampaign(faults=["sensor.does_not_exist"])


@pytest.mark.slow
class TestSmokeCampaign:
    """The acceptance-criteria campaign: every fault, both paths."""

    @pytest.fixture(scope="class")
    def result(self):
        return FaultCampaign(headings_deg=(45.0, 222.25)).run()

    def test_zero_silent_wrong(self, result):
        assert result.silent_wrong() == []

    def test_every_cell_conforms_to_its_spec(self, result):
        assert result.nonconforming() == []

    def test_every_registered_fault_was_exercised(self, result):
        assert set(result.summary()["faults"]) == set(REGISTRY.names())

    def test_both_paths_ran(self, result):
        # Scalar and batch measurements, the boundary scan, and the
        # scenario and array probes each emit their own cells.
        paths = {cell.path for cell in result.cells}
        assert paths == {"scalar", "batch", "scan", "scenario", "array"}

    def test_detections_and_degradations_exist(self, result):
        summary = result.summary()["outcomes"]
        assert summary["detected"] > 0
        assert summary["degraded"] > 0

    def test_json_roundtrip(self, result, tmp_path):
        path = tmp_path / "campaign.json"
        result.write_json(str(path))
        record = json.loads(path.read_text())
        assert record["summary"]["silent_wrong"] == 0
        assert record["summary"]["cells"] == len(result.cells)
        assert len(record["cells"]) == len(result.cells)
        outcomes = {cell["outcome"] for cell in record["cells"]}
        assert outcomes <= {o.value for o in Outcome}


class TestResultAggregation:
    def test_by_outcome_filters(self):
        cells = [
            CampaignCell("f", 1.0, 45.0, "scalar", Outcome.BENIGN, 0.1, "", True),
            CampaignCell("f", 1.0, 45.0, "batch", Outcome.SILENT_WRONG, 5.0, "", False),
        ]
        result = CampaignResult(cells=cells)
        assert len(result.silent_wrong()) == 1
        assert len(result.nonconforming()) == 1
        assert result.summary()["outcomes"]["benign"] == 1

    def test_campaign_rejects_empty_grids(self):
        with pytest.raises(ConfigurationError):
            FaultCampaign(headings_deg=())
        with pytest.raises(ConfigurationError):
            FaultCampaign(paths=())
        with pytest.raises(ConfigurationError):
            FaultCampaign(paths=("warp",))
