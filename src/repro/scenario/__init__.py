"""repro.scenario — environment & mission scenario engine.

The paper validates its compass on a bench: a uniform horizontal field,
room temperature, a level table.  A compass is *used* on a wrist in the
rain at −10 °C on a tilted deck next to a steel winch.  This package
closes that gap: declarative :class:`Scenario` records describe the
environment and the mission (:mod:`~repro.scenario.dsl`), the
:class:`ScenarioRunner` drives the full signal chain through it
(:mod:`~repro.scenario.runner`), the
:class:`~repro.scenario.compensation.CompensationChain` layers the
repo's correction blocks behind integrity guards that degrade *loudly*
(:mod:`~repro.scenario.compensation`), and
:class:`~repro.scenario.campaign.ScenarioCampaign` re-runs the golden
corpus under every registered environment fault to prove the guards
leave no silent-wrong outcome (:mod:`~repro.scenario.campaign`).

Quickstart::

    from repro.scenario import run_scenario

    result = run_scenario("alpine-traverse")
    print(result.summary())
"""

from .campaign import ScenarioCampaign, ScenarioCampaignResult
from .compensation import (
    F_ANOMALY,
    F_CAL_CRC,
    F_CAL_FIT,
    F_CAL_STALE,
    F_FIELD_BAND,
    F_FIELD_RESIDUAL,
    F_TEMP_ENVELOPE,
    F_TEMP_IMPLAUSIBLE,
    F_TILT_ENVELOPE,
    AnomalyGate,
    CalibrationStore,
    ChainVerdict,
    CompensationChain,
    ThermalCalibration,
    aged_store,
    thermal_calibration_for,
)
from .dsl import (
    CLEAN_IRON,
    CLEAN_SPEC_SCENARIOS,
    ENV_SCREEN,
    FIT_TEMPERATURES_C,
    RAW_POLICY,
    SCENARIOS,
    AnomalySpec,
    CompensationPolicy,
    IronDistortion,
    MissionSpec,
    Scenario,
    TemperatureProfile,
    TiltProfile,
    bench_clean_scenario,
    get_scenario,
    scenario_with,
)
from .runner import (
    CALIBRATION_HEADINGS,
    ScenarioResult,
    ScenarioRunner,
    StepResult,
    TelemetrySource,
    run_scenario,
)

__all__ = [
    "AnomalyGate",
    "AnomalySpec",
    "CALIBRATION_HEADINGS",
    "CLEAN_IRON",
    "CLEAN_SPEC_SCENARIOS",
    "CalibrationStore",
    "ChainVerdict",
    "CompensationChain",
    "CompensationPolicy",
    "ENV_SCREEN",
    "FIT_TEMPERATURES_C",
    "F_ANOMALY",
    "F_CAL_CRC",
    "F_CAL_FIT",
    "F_CAL_STALE",
    "F_FIELD_BAND",
    "F_FIELD_RESIDUAL",
    "F_TEMP_ENVELOPE",
    "F_TEMP_IMPLAUSIBLE",
    "F_TILT_ENVELOPE",
    "IronDistortion",
    "MissionSpec",
    "RAW_POLICY",
    "SCENARIOS",
    "Scenario",
    "ScenarioCampaign",
    "ScenarioCampaignResult",
    "ScenarioResult",
    "ScenarioRunner",
    "StepResult",
    "TelemetrySource",
    "TemperatureProfile",
    "ThermalCalibration",
    "TiltProfile",
    "aged_store",
    "bench_clean_scenario",
    "get_scenario",
    "run_scenario",
    "scenario_with",
    "thermal_calibration_for",
]
