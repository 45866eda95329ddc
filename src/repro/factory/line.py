"""The production line: mint a lot, run the program, account every unit.

:class:`FactoryLine` is the scheduler around :mod:`repro.factory.stages`:

* **Signature memoization** — units are grouped by their defect
  signature and each distinct signature is evaluated once, then fanned
  back out to every unit carrying it.  A 10k-unit lot at a few percent
  defect rate has ~100 distinct signatures, which is why it finishes in
  seconds while still running the real signal chain for every
  physics-distinct device.
* **Sub-signature memoization** — a stage's probe sees only its own
  class of defect (:func:`~repro.factory.stages.split_defects`): boundary
  scan the scan defects, BIST and calibration the measurement defects,
  the environment screen the scenario defects.  Within one
  :meth:`FactoryLine.run`, each stage runs once per distinct visible
  sub-signature, and the field oracle once per distinct (measurement,
  scenario) pair; every signature that shares it reads the same
  verdict.  The memo lives and dies with the lot: a second lot re-runs
  everything.
* **First-fail attribution** — a signature's stages run in program
  order and stop at the first failing one: every unit carrying the
  signature leaves the line there, that stage earns the catch (or the
  false fail), and only the stages the unit reached are charged tester
  time.  Because each verdict is order-independent (fresh target per
  stage), permuting the program can only move a catch between stages,
  never change the escape set.
* **The field-audit oracle** — a defective unit that passes the whole
  program gets a dense off-grid heading sweep classified against the
  1° product spec through the same trust rule
  (:func:`~repro.trust.served_outcome`) the fault campaign uses.  Only
  an unflagged out-of-spec heading makes an ``"escape"``; in-spec,
  flagged, and fails-loud are ``"pass-latent"``.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..faults.model import REGISTRY, FaultRegistry
from ..core.heading import headings_evenly_spaced
from ..observe import M_FACTORY_STAGE, M_FACTORY_UNITS
from ..observe.metrics import MetricsRegistry
from ..trust import Outcome, served_outcome
from ..units import TARGET_ACCURACY_DEG, heading_error_deg
from .config import LotConfig
from .defects import Defect, Signature, mint_units, signature
from .report import LotReport, OracleResult, StageReport, UnitRecord
from .stages import (
    StageResult,
    _fresh_compass,
    _inject_all,
    _sweep,
    run_stage,
    split_defects,
)


@dataclass
class SignatureEvaluation:
    """The verdicts of the stages one signature reached, and its oracle.

    ``results`` holds the program's stages in order up to and including
    the first failing one (every stage when none fails); ``oracle`` is
    set for a defective signature that passed them all.
    """

    signature: Signature
    results: Dict[str, StageResult]
    oracle: Optional[OracleResult] = None

    def first_failure(self, stages: Tuple[str, ...]) -> Optional[str]:
        for stage in stages:
            if not self.results[stage].passed:
                return stage
        return None


def run_field_oracle(
    defects: Tuple[Defect, ...],
    config: LotConfig,
    registry: FaultRegistry = REGISTRY,
) -> OracleResult:
    """Audit a passing defective unit against the product spec in the field."""
    _, measurement_defects, env_defects = split_defects(defects, registry)
    compass, _ = _fresh_compass(record_logs=False)
    headings = headings_evenly_spaced(
        config.oracle_headings, config.oracle_start_deg
    )
    with contextlib.ExitStack() as stack:
        _inject_all(stack, measurement_defects, compass, registry)
        try:
            measurements = _sweep(compass, headings, config)
        except Exception as error:  # noqa: BLE001 — any raise is loud
            return OracleResult(
                verdict="fails-loud",
                worst_error_deg=None,
                detail=f"{type(error).__name__}: {error}",
            )
    worst_unflagged: Optional[float] = None
    silent = 0
    flagged = 0
    for truth, m in zip(headings, measurements):
        error = heading_error_deg(m.heading_deg, truth)
        outcome = served_outcome(error, m.authoritative)
        if outcome is Outcome.DEGRADED:
            flagged += 1
            continue
        if worst_unflagged is None or error > worst_unflagged:
            worst_unflagged = error
        if outcome is Outcome.SILENT_WRONG:
            silent += 1
    if silent:
        return OracleResult(
            verdict="silent-wrong",
            worst_error_deg=worst_unflagged,
            detail=(
                f"{silent}/{len(headings)} field headings unflagged beyond "
                f"{TARGET_ACCURACY_DEG:g} deg "
                f"(worst {worst_unflagged:.3f} deg)"
            ),
        )
    # Environment defects are invisible to the bare heading sweep (they
    # attack the compensation chain's inputs, not the signal chain), so
    # a passing unit that carries one is additionally audited in the
    # field it would actually fly: the screening mission.
    if env_defects:
        from ..scenario.campaign import classify_scenario
        from ..scenario.dsl import ENV_SCREEN
        from ..scenario.runner import ScenarioRunner

        runner = ScenarioRunner(ENV_SCREEN)
        try:
            with contextlib.ExitStack() as stack:
                _inject_all(stack, env_defects, runner, registry)
                mission = runner.run()
        except Exception as error:  # noqa: BLE001 — any raise is loud
            return OracleResult(
                verdict="fails-loud",
                worst_error_deg=worst_unflagged,
                detail=(
                    f"environment mission: {type(error).__name__}: {error}"
                ),
            )
        outcome, error, detail = classify_scenario(mission)
        if outcome is Outcome.SILENT_WRONG:
            return OracleResult(
                verdict="silent-wrong",
                worst_error_deg=error,
                detail=f"environment mission: {detail}",
            )
        if outcome is Outcome.DEGRADED:
            flagged += mission.degraded_steps
    if flagged:
        return OracleResult(
            verdict="flagged",
            worst_error_deg=worst_unflagged,
            detail=f"{flagged} field observations flagged by the "
            "supervisor or the compensation chain",
        )
    return OracleResult(
        verdict="in-spec",
        worst_error_deg=worst_unflagged,
        detail=(
            f"worst unflagged error {worst_unflagged:.3f} deg within the "
            f"{TARGET_ACCURACY_DEG:g} deg product spec"
        ),
    )


class FactoryLine:
    """Runs one :class:`LotConfig` end to end into a :class:`LotReport`."""

    def __init__(
        self,
        config: Optional[LotConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        registry: FaultRegistry = REGISTRY,
    ):
        self.config = config if config is not None else LotConfig()
        self.metrics = metrics
        self.registry = registry

    # -- evaluation --------------------------------------------------------------

    def _evaluate_signature(
        self,
        defects: Tuple[Defect, ...],
        record_logs: bool,
        memo: Dict[tuple, Any],
    ) -> SignatureEvaluation:
        """Run the program on one signature, reusing ``memo``'s verdicts.

        ``memo`` maps ``(stage, signature of the defects it sees)`` to a
        verdict; it belongs to one :meth:`run`.
        """
        scan, measurement, environment = split_defects(
            defects, self.registry
        )
        sees = {
            "btest": scan,
            "bist": measurement,
            "calibration": measurement,
            "env": environment,
        }
        results: Dict[str, StageResult] = {}
        for stage in self.config.stages:
            key = (stage, signature(sees[stage]))
            if key not in memo:
                memo[key] = run_stage(
                    stage, defects, self.config, self.registry, record_logs
                )
            results[stage] = memo[key]
            if not results[stage].passed:
                break
        evaluation = SignatureEvaluation(
            signature=signature(defects), results=results
        )
        if defects and evaluation.first_failure(self.config.stages) is None:
            key = ("oracle", (signature(measurement), signature(environment)))
            if key not in memo:
                memo[key] = run_field_oracle(
                    defects, self.config, self.registry
                )
            evaluation.oracle = memo[key]
        return evaluation

    def _count_unit(self, disposition: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                M_FACTORY_UNITS,
                "factory lot units, by final disposition",
                ("disposition",),
            ).inc(disposition=disposition)

    def _count_stage(self, stage: str, outcome: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                M_FACTORY_STAGE,
                "per-stage unit outcomes on the factory line",
                ("stage", "outcome"),
            ).inc(stage=stage, outcome=outcome)

    def run(
        self,
        units: Optional[List[Tuple[Defect, ...]]] = None,
        record_logs: bool = False,
    ) -> LotReport:
        """Test a lot; ``units`` overrides minting (seeded coupons, tests).

        ``record_logs=True`` arms an in-memory replay recorder on each
        calibration compass the lot runs; the logs ride on the report's
        ``evaluations`` (never in the serialised output), one per
        signature that reaches calibration, shared by signatures with the
        same measurement defects.
        """
        t0 = time.perf_counter()
        if units is None:
            units = mint_units(self.config, self.registry)
        evaluations: Dict[Signature, SignatureEvaluation] = {}
        memo: Dict[tuple, Any] = {}
        stage_reports = {
            stage: StageReport(name=stage) for stage in self.config.stages
        }
        records: List[UnitRecord] = []
        for index, defects in enumerate(units):
            key = signature(defects)
            if key not in evaluations:
                evaluations[key] = self._evaluate_signature(
                    defects, record_logs, memo
                )
            evaluation = evaluations[key]
            failed_stage = evaluation.first_failure(self.config.stages)
            test_time = 0.0
            for stage in self.config.stages:
                result = evaluation.results[stage]
                report = stage_reports[stage]
                report.tested += 1
                report.sim_time_s += result.sim_time_s
                test_time += result.sim_time_s
                if stage == failed_stage:
                    if defects:
                        report.caught += 1
                        self._count_stage(stage, "caught")
                    else:
                        report.false_fails += 1
                        self._count_stage(stage, "false-fail")
                    break
                report.passed += 1
                self._count_stage(stage, "pass")
            if failed_stage is not None:
                disposition = "caught" if defects else "false-fail"
                detail = evaluation.results[failed_stage].detail
                oracle = None
            elif not defects:
                disposition, detail, oracle = "pass", "clean unit passed", None
            else:
                oracle = evaluation.oracle
                disposition = "escape" if oracle.is_escape else "pass-latent"
                detail = oracle.detail
            self._count_unit(disposition)
            records.append(
                UnitRecord(
                    unit=index,
                    defects=defects,
                    disposition=disposition,
                    caught_by=failed_stage,
                    detail=detail,
                    test_time_s=test_time,
                    oracle=oracle,
                )
            )
        report = LotReport(
            config=self.config,
            units=records,
            stages=[stage_reports[stage] for stage in self.config.stages],
            distinct_signatures=len(evaluations),
            wall_s=time.perf_counter() - t0,
            evaluations=evaluations,
        )
        return report


__all__ = ["FactoryLine", "SignatureEvaluation", "run_field_oracle"]
