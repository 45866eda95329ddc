"""Per-scenario fault campaigns: every environment fault × every mission.

:class:`ScenarioCampaign` re-flies the golden scenario corpus with each
registered environment-layer fault injected at each severity, and
classifies every (scenario, fault, severity) cell with the same
four-outcome taxonomy the measurement-path campaign uses
(:mod:`repro.faults.campaign`):

``detected``
    the run raised a typed :class:`~repro.errors.ReproError`;
``degraded``
    at least one step was flagged by a compensation-integrity guard and
    *no* step served an out-of-spec heading unflagged;
``benign``
    every step unflagged and within the paper's 1° spec;
``silent-wrong``
    any step served an unflagged heading more than 1° wrong — the
    forbidden class, ratcheted at **zero** in CI by the
    ``scenario-campaign`` job.

Only scenarios whose compensation policy arms at least one correction
layer are campaigned: the raw bench scenario exists as the bit-identity
anchor of the golden-vector suite, and an instrument with every guard
disarmed makes no honesty promise to audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.compass import CompassConfig
from ..errors import ConfigurationError, ReproError
from ..faults.campaign import CampaignCell, CampaignResult
from ..faults.model import REGISTRY, FaultRegistry, FaultSpec
from ..observe import M_CAMPAIGN_CELLS, MetricsRegistry
from ..trust import Outcome
from .dsl import SCENARIOS, Scenario
from .runner import ScenarioResult, ScenarioRunner


def classify_scenario(result: ScenarioResult) -> Tuple[Outcome, Optional[float], str]:
    """Collapse a finished scenario run into one campaign outcome.

    The scenario-level verdict is pessimistic in exactly one direction:
    a single silent-wrong *step* makes the whole run silent-wrong,
    because one confident lie mid-mission bends the dead-reckoned track
    no matter how honest the surrounding steps were.
    """
    silent = [s for s in result.steps if s.silent_wrong]
    if silent:
        worst = max(abs(s.error_deg) for s in silent)
        return (
            Outcome.SILENT_WRONG,
            worst,
            f"{len(silent)} step(s) served UNFLAGGED error up to "
            f"{worst:.2f} deg",
        )
    worst = result.max_abs_error_deg
    if result.degraded_steps:
        return (
            Outcome.DEGRADED,
            worst,
            f"{result.degraded_steps}/{len(result.steps)} steps flagged "
            f"({','.join(result.flags)})",
        )
    return (
        Outcome.BENIGN,
        worst,
        f"all steps unflagged, max error {worst:.3f} deg",
    )


def fly_faulted(
    runner: ScenarioRunner,
    registry: FaultRegistry,
    fault: str,
    severity: float,
) -> Tuple[Outcome, Optional[float], str]:
    """Fly ``runner`` with ``fault`` injected and classify the run; a
    typed :class:`~repro.errors.ReproError` is a loud detection."""
    try:
        with registry.inject(fault, runner, severity):
            run = runner.run()
    except ReproError as exc:
        return Outcome.DETECTED, None, f"{type(exc).__name__}: {exc}"
    return classify_scenario(run)


@dataclass
class ScenarioCampaignResult(CampaignResult):
    """A scenario campaign's cells plus its clean-baseline verdicts."""

    #: scenario name → the no-fault run's summary dict.
    clean_runs: Dict[str, Dict] = field(default_factory=dict)

    #: Names of scenarios whose *clean* run broke its contract (a
    #: clean-spec scenario that degraded or missed spec, or any clean
    #: run that was silent-wrong).
    clean_failures: List[str] = field(default_factory=list)

    def summary(self) -> Dict:
        record = super().summary()
        record["scenarios"] = sorted(self.clean_runs)
        record["clean_failures"] = list(self.clean_failures)
        return record


class ScenarioCampaign:
    """Sweep every environment fault over the scenario corpus.

    Parameters
    ----------
    scenarios:
        The missions to campaign; defaults to every corpus scenario
        with at least one compensation layer armed.
    registry, faults:
        The fault population; defaults to the ``environment`` layer of
        the built-in registry (scenario-probe faults only — measurement
        faults are the other campaign's business).
    base_config:
        Compass design under campaign; the paper's design point by
        default.
    metrics:
        Optional shared registry; cells are counted under the same
        ``campaign_cells_total`` metric as the measurement campaign,
        with ``path="scenario:<name>"``.
    """

    def __init__(
        self,
        scenarios: Optional[Sequence[Scenario]] = None,
        registry: FaultRegistry = REGISTRY,
        faults: Optional[Sequence[str]] = None,
        base_config: Optional[CompassConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if scenarios is None:
            scenarios = [
                scenario
                for scenario in SCENARIOS.values()
                if scenario.compensation.any_armed
            ]
        if not scenarios:
            raise ConfigurationError("scenario campaign needs scenarios")
        self.scenarios = list(scenarios)
        self.registry = registry
        self.fault_names = registry.select("scenario", faults)
        self.base_config = base_config
        self.metrics = metrics

    # -- cells -----------------------------------------------------------------

    def _runner(self, scenario: Scenario) -> ScenarioRunner:
        return ScenarioRunner(scenario, base_config=self.base_config)

    def _cell(
        self,
        spec_name: str,
        severity: float,
        scenario: Scenario,
        outcome: Outcome,
        error: Optional[float],
        detail: str,
        conforms: bool,
    ) -> CampaignCell:
        path = f"scenario:{scenario.name}"
        if self.metrics is not None:
            self.metrics.counter(
                M_CAMPAIGN_CELLS,
                "classified fault-campaign cells, by path and outcome",
                ("path", "outcome"),
            ).inc(path=path, outcome=outcome.value)
        return CampaignCell(
            fault=spec_name,
            severity=severity,
            heading_deg=None,
            path=path,
            outcome=outcome,
            error_deg=error,
            detail=detail,
            conforms=conforms,
        )

    def _run_clean(
        self, scenario: Scenario, result: ScenarioCampaignResult
    ) -> Outcome:
        run = self._runner(scenario).run()
        outcome, error, detail = classify_scenario(run)
        # The clean contract: an anomaly-free scenario must be fully
        # benign; a scenario *designed* to trip its gate (an anomaly in
        # the DSL) must degrade, never lie.
        if scenario.anomaly is None:
            conforms = outcome is Outcome.BENIGN
        else:
            conforms = outcome in (Outcome.BENIGN, Outcome.DEGRADED)
        result.clean_runs[scenario.name] = run.summary()
        if not conforms:
            result.clean_failures.append(scenario.name)
        result.cells.append(
            self._cell(
                "clean", 0.0, scenario, outcome, error, detail, conforms
            )
        )
        return outcome

    def _run_fault(
        self,
        spec: FaultSpec,
        severity: float,
        scenario: Scenario,
        result: ScenarioCampaignResult,
        clean_outcome: Outcome,
    ) -> None:
        outcome, error, detail = fly_faulted(
            self._runner(scenario),
            self.registry,
            spec.name,
            severity,
        )
        allowed = spec.allowed_outcomes(severity)
        conforms = outcome.value in allowed
        # A severity pinned "benign" promises the fault is *invisible*,
        # which on a scenario whose clean baseline already degrades (a
        # designed-in anomaly) means "indistinguishable from clean", not
        # "unflagged".
        if not conforms and "benign" in allowed and outcome is clean_outcome:
            conforms = True
        result.cells.append(
            self._cell(
                spec.name,
                severity,
                scenario,
                outcome,
                error,
                detail,
                conforms,
            )
        )

    # -- the sweep -------------------------------------------------------------

    def run(self) -> ScenarioCampaignResult:
        result = ScenarioCampaignResult()
        for scenario in self.scenarios:
            clean_outcome = self._run_clean(scenario, result)
            for name in self.fault_names:
                spec = self.registry.get(name)
                for severity in spec.severities:
                    self._run_fault(
                        spec, severity, scenario, result, clean_outcome
                    )
        return result
