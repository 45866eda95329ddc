"""The four factory test stages, each on a fresh target per signature.

Every stage builds its **own** device under test (a fresh
:class:`~repro.btest.interconnect.SubstrateHarness`,
:class:`~repro.core.compass.IntegratedCompass`, or
:class:`~repro.scenario.runner.ScenarioRunner` mission) and injects only
the defects its probe can see (``probe="scan"`` faults live on the
substrate harness, ``probe="measurement"`` faults on the compass,
``probe="scenario"`` faults on the environment-screen runner).
Fresh targets are a correctness feature, not a convenience: no stage
can perturb another stage's RNG draw or leave state behind, so a
stage's verdict is a function of the defects it sees alone — independent
of the order the program runs the stages in (the invariant the property
suite's stage-permutation law asserts), and the same for every
signature that shares those defects (the memo
:class:`~repro.factory.line.FactoryLine` keeps per lot).

Stage test *times* are simulated from the machine models (scan clocks
through the TAP, controller state walks per measurement), not wall
clock, so the economics in the lot report are deterministic.

The compass stages run the paper's design point with the strict health
supervisor on the default engine: the certified closed-form fast path,
which stays exact under the registered measurement faults (they are
values it reads, :mod:`repro.faults.model`) and hands a channel to the
stepped signal chain wherever a fault takes it outside the validity
envelope, or when a replay recorder is attached.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..batch import BatchCompass, BatchScene
from ..btest.interconnect import SubstrateHarness, code_width
from ..core.calibration import fit_ellipse_calibration
from ..core.compass import IntegratedCompass
from ..core.heading import HeadingMeasurement, headings_evenly_spaced
from ..errors import ReproError
from ..faults.model import REGISTRY, FaultRegistry
from ..replay.recorder import LogRecorder, attach_recorder
from ..soc.mcm import build_compass_mcm
from .config import LotConfig
from .defects import Defect

#: TAP overhead per DR scan [TCK cycles]: state walk into/out of
#: Shift-DR plus the update/capture cycles.
_SCAN_OVERHEAD_CYCLES = 10
#: One-off TAP overhead [TCK cycles]: reset walk + EXTEST instruction load.
_TEST_SETUP_CYCLES = 32


@dataclass
class StageResult:
    """One stage's verdict on one defect signature.

    Attributes
    ----------
    stage:
        ``"btest"`` / ``"bist"`` / ``"calibration"`` / ``"env"``.
    passed:
        Whether the unit passes this stage.
    detail:
        Human-readable reason (first failure, or a pass summary).
    sim_time_s:
        Simulated tester time this stage costs per unit [s].
    worst_error_deg:
        Calibration and env only: the worst circular heading error over
        the factory grid (or served-heading error over the screening
        mission), when the sweep completed without raising.
    recorder:
        Calibration only, and only when the stage runs with
        ``record_logs=True``: the in-memory replay log of the
        calibration compass (the record/replay seam for lot audits).
        Within one lot every signature with the same measurement
        defects shares this result, and so this log.
    """

    stage: str
    passed: bool
    detail: str
    sim_time_s: float
    worst_error_deg: Optional[float] = None
    recorder: Optional[LogRecorder] = None


def split_defects(
    defects: Tuple[Defect, ...], registry: FaultRegistry = REGISTRY
) -> Tuple[Tuple[Defect, ...], Tuple[Defect, ...], Tuple[Defect, ...]]:
    """(scan-probe, measurement-probe, scenario-probe) defects."""
    scan = tuple(
        d for d in defects if registry.get(d.fault).probe == "scan"
    )
    measurement = tuple(
        d for d in defects if registry.get(d.fault).probe == "measurement"
    )
    environment = tuple(
        d for d in defects if registry.get(d.fault).probe == "scenario"
    )
    return scan, measurement, environment


def _inject_all(
    stack: contextlib.ExitStack,
    defects: Tuple[Defect, ...],
    target: object,
    registry: FaultRegistry,
) -> None:
    for d in defects:
        stack.enter_context(registry.inject(d.fault, target, d.severity))


def _fresh_compass(record_logs: bool) -> Tuple[IntegratedCompass, Optional[LogRecorder]]:
    # The default CompassConfig is the factory setting: paper design
    # point, strict supervision (degrade=False), certified fast path
    # (stepped when a recorder is attached or a fault leaves the
    # validity envelope).
    compass = IntegratedCompass()
    recorder = None
    if record_logs:
        recorder = attach_recorder(compass, LogRecorder())
    return compass, recorder


@functools.lru_cache(maxsize=1)
def _measurement_duration() -> float:
    """Simulated time of one measurement on the default compass [s].

    The environment screen's compasses live inside its mission runner,
    so this builds one default compass per process to read it.
    """
    return IntegratedCompass().back_end.controller.measurement_duration()


def btest_sim_time_s(config: LotConfig, harness: SubstrateHarness) -> float:
    """Tester time of the two-pass counting sequence at ``tck_hz``."""
    n_cells = len(harness.device.cells)
    width = code_width(len(harness.net_names))
    patterns = 2 * width  # direct + complement pass
    scans = 2 * patterns  # load + capture DR scan per pattern
    cycles = scans * (n_cells + _SCAN_OVERHEAD_CYCLES) + _TEST_SETUP_CYCLES
    return cycles / config.tck_hz


def run_btest(
    defects: Tuple[Defect, ...],
    config: LotConfig,
    registry: FaultRegistry = REGISTRY,
) -> StageResult:
    """Interconnect boundary scan: counting sequence + complement pass."""
    scan_defects, _, _ = split_defects(defects, registry)
    harness = SubstrateHarness(build_compass_mcm())
    sim_time = btest_sim_time_s(config, harness)
    with contextlib.ExitStack() as stack:
        _inject_all(stack, scan_defects, harness, registry)
        try:
            verdicts = harness.diagnose_with_complement()
        except ReproError as error:
            return StageResult(
                stage="btest",
                passed=False,
                detail=f"{type(error).__name__}: {error}",
                sim_time_s=sim_time,
            )
    bad = sorted(
        f"{net}: {verdict}"
        for net, verdict in verdicts.items()
        if verdict != "good"
    )
    if bad:
        return StageResult(
            stage="btest",
            passed=False,
            detail="; ".join(bad),
            sim_time_s=sim_time,
        )
    return StageResult(
        stage="btest",
        passed=True,
        detail=f"all {len(verdicts)} substrate nets good",
        sim_time_s=sim_time,
    )


def run_bist(
    defects: Tuple[Defect, ...],
    config: LotConfig,
    registry: FaultRegistry = REGISTRY,
) -> StageResult:
    """Power-on BIST: one supervised measurement in the factory fixture.

    The strict :class:`~repro.core.health.HealthSupervisor` is the test
    engine here — ROM signature, pulse activity, count/duty
    cross-consistency, tick window, field band — and any flag, not just
    a hard fault, fails the unit.
    """
    _, measurement_defects, _ = split_defects(defects, registry)
    compass, _ = _fresh_compass(record_logs=False)
    sim_time = compass.back_end.controller.measurement_duration()
    with contextlib.ExitStack() as stack:
        _inject_all(stack, measurement_defects, compass, registry)
        try:
            m = compass.measure_heading(
                config.bist_heading_deg, config.field_magnitude_t
            )
        except ReproError as error:
            return StageResult(
                stage="bist",
                passed=False,
                detail=f"{type(error).__name__}: {error}",
                sim_time_s=sim_time,
            )
    health = m.health
    if health is not None and (health.status != "ok" or health.flags):
        flags = ",".join(health.flags) or health.status
        return StageResult(
            stage="bist",
            passed=False,
            detail=f"supervisor flagged: {flags}",
            sim_time_s=sim_time,
        )
    return StageResult(
        stage="bist",
        passed=True,
        detail=f"healthy at {config.bist_heading_deg:g} deg",
        sim_time_s=sim_time,
    )


def _sweep(
    compass: IntegratedCompass,
    headings: Tuple[float, ...],
    config: LotConfig,
) -> List[HeadingMeasurement]:
    scene = BatchScene.from_headings(
        compass.sensors, headings, config.field_magnitude_t
    )
    return BatchCompass(compass).measure_scene(scene)


def run_calibration(
    defects: Tuple[Defect, ...],
    config: LotConfig,
    registry: FaultRegistry = REGISTRY,
    record_logs: bool = False,
) -> StageResult:
    """Field calibration: full-circle sweep, accuracy gate, ellipse fit.

    Fails on a raise anywhere in the sweep, on any supervisor-flagged
    measurement, on worst circular error beyond the guardbanded
    ``gate_tolerance_deg``, or on an ellipse fit the calibration code
    rejects.  This is the stage that catches in-spec-at-BIST defects
    that bend the heading somewhere else on the circle.
    """
    _, measurement_defects, _ = split_defects(defects, registry)
    compass, recorder = _fresh_compass(record_logs)
    duration = compass.back_end.controller.measurement_duration()
    headings = headings_evenly_spaced(
        config.calibration_headings, config.calibration_start_deg
    )
    sim_time = len(headings) * duration
    with contextlib.ExitStack() as stack:
        _inject_all(stack, measurement_defects, compass, registry)
        try:
            measurements = _sweep(compass, headings, config)
        except ReproError as error:
            return StageResult(
                stage="calibration",
                passed=False,
                detail=f"{type(error).__name__}: {error}",
                sim_time_s=sim_time,
                recorder=recorder,
            )
    flagged = [
        f"{truth:g}deg:{','.join(m.health.flags) or m.health.status}"
        for truth, m in zip(headings, measurements)
        if m.health is not None and (m.health.status != "ok" or m.health.flags)
    ]
    worst = max(
        m.error_against(truth) for truth, m in zip(headings, measurements)
    )
    if flagged:
        return StageResult(
            stage="calibration",
            passed=False,
            detail="supervisor flagged: " + "; ".join(flagged),
            sim_time_s=sim_time,
            worst_error_deg=worst,
            recorder=recorder,
        )
    if worst > config.gate_tolerance_deg:
        return StageResult(
            stage="calibration",
            passed=False,
            detail=(
                f"worst error {worst:.3f} deg beyond the "
                f"{config.gate_tolerance_deg:g} deg gate"
            ),
            sim_time_s=sim_time,
            worst_error_deg=worst,
            recorder=recorder,
        )
    try:
        fit_ellipse_calibration(
            [(float(m.x_count), float(m.y_count)) for m in measurements]
        )
    except ReproError as error:
        return StageResult(
            stage="calibration",
            passed=False,
            detail=f"ellipse fit rejected: {error}",
            sim_time_s=sim_time,
            worst_error_deg=worst,
            recorder=recorder,
        )
    return StageResult(
        stage="calibration",
        passed=True,
        detail=f"worst error {worst:.3f} deg over {len(headings)} headings",
        sim_time_s=sim_time,
        worst_error_deg=worst,
        recorder=recorder,
    )


def run_env(
    defects: Tuple[Defect, ...],
    config: LotConfig,
    registry: FaultRegistry = REGISTRY,
) -> StageResult:
    """Environment screen: the ENV_SCREEN mission on the factory simulator.

    The unit flies the screening mission (ramped temperature,
    mid-mission tilt, one full rotation of headings) with its
    environment-layer defects injected into the scenario seams —
    telemetry, the stored calibration table, the ambient field.  A typed
    raise, any compensation-integrity flag, or a worst served-heading
    error beyond the calibration gate fails the unit.  This is the only
    stage that can see defects living *outside* the signal chain: the
    signal chain of a unit with a stuck thermistor is perfectly healthy.
    """
    from ..scenario.dsl import ENV_SCREEN
    from ..scenario.runner import CALIBRATION_HEADINGS, ScenarioRunner

    _, _, env_defects = split_defects(defects, registry)
    steps = len(CALIBRATION_HEADINGS) + ENV_SCREEN.steps
    sim_time = steps * _measurement_duration()
    runner = ScenarioRunner(ENV_SCREEN)
    with contextlib.ExitStack() as stack:
        _inject_all(stack, env_defects, runner, registry)
        try:
            run = runner.run()
        except ReproError as error:
            return StageResult(
                stage="env",
                passed=False,
                detail=f"{type(error).__name__}: {error}",
                sim_time_s=sim_time,
            )
    worst = run.max_abs_error_deg
    if run.degraded_steps:
        return StageResult(
            stage="env",
            passed=False,
            detail=(
                f"compensation degraded on {run.degraded_steps}/"
                f"{len(run.steps)} mission steps "
                f"({','.join(run.flags)})"
            ),
            sim_time_s=sim_time,
            worst_error_deg=worst,
        )
    if worst > config.gate_tolerance_deg:
        return StageResult(
            stage="env",
            passed=False,
            detail=(
                f"worst served error {worst:.3f} deg beyond the "
                f"{config.gate_tolerance_deg:g} deg gate"
            ),
            sim_time_s=sim_time,
            worst_error_deg=worst,
        )
    return StageResult(
        stage="env",
        passed=True,
        detail=(
            f"mission clean, worst served error {worst:.3f} deg "
            f"over {len(run.steps)} steps"
        ),
        sim_time_s=sim_time,
        worst_error_deg=worst,
    )


_RUNNERS = {
    "btest": run_btest,
    "bist": run_bist,
    "calibration": run_calibration,
    "env": run_env,
}


def run_stage(
    stage: str,
    defects: Tuple[Defect, ...],
    config: LotConfig,
    registry: FaultRegistry = REGISTRY,
    record_logs: bool = False,
) -> StageResult:
    """Evaluate one named stage on a fresh target."""
    if stage == "calibration":
        return run_calibration(defects, config, registry, record_logs)
    return _RUNNERS[stage](defects, config, registry)


__all__ = [
    "StageResult",
    "btest_sim_time_s",
    "run_bist",
    "run_btest",
    "run_calibration",
    "run_env",
    "run_stage",
    "split_defects",
]
