"""Fault-injection campaign engine.

Sweeps the registered fault population (:mod:`repro.faults.model`) over a
(fault × severity × heading) grid, through **both** measurement paths —
the scalar :class:`~repro.core.compass.IntegratedCompass` loop and the
vectorized :class:`~repro.batch.BatchCompass` — plus the boundary-scan
probe for scan-chain faults, and classifies every cell:

``detected``
    The system raised a typed :class:`~repro.errors.ReproError` — the
    failure is loud and attributable.
``degraded``
    A heading was produced but flagged through its ``health`` record
    (stale fallback, single-axis fallback, out-of-band field): usable,
    and honest about it.
``benign``
    The heading is unflagged *and* within the paper's 1° accuracy spec
    of the truth — the fault is below the resolution floor.
``silent-wrong``
    An unflagged heading more than 1° wrong.  This is the catastrophic
    class for a compass — a confident lie — and the campaign's whole
    purpose is to drive its population count to **zero**.

Each compass is built fresh per (fault, severity, path) with graceful
degradation enabled, and takes one *clean* warm-up measurement before
injection so the last-known-good fallback path is armed — matching a
fielded instrument that fails mid-service rather than at power-on.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..batch import BatchCompass
from ..btest.interconnect import SubstrateHarness
from ..core.compass import CompassConfig, IntegratedCompass
from ..core.health import HealthConfig
from ..errors import ConfigurationError, ReproError
from ..observe import (
    ERROR_BUCKETS_DEG,
    M_CAMPAIGN_CELLS,
    M_CAMPAIGN_ERROR,
    MetricsRegistry,
)
from ..soc.mcm import build_compass_mcm
from ..trust import Outcome, served_outcome
from ..units import heading_error_deg
from .model import REGISTRY, FaultRegistry, FaultSpec

#: Default heading grid: one per quadrant plus both wrap neighbourhoods.
DEFAULT_HEADINGS = (0.5, 45.0, 123.0, 222.25, 300.0, 359.5)


def classify_heading(
    heading_deg: float,
    truth_deg: float,
    authoritative: bool,
    flags: Sequence[str] = (),
    status: str = "ok",
) -> Tuple[Outcome, Optional[float], str]:
    """Classify one served heading against its truth.

    The outcome is :func:`repro.trust.served_outcome`'s; this adds the
    cell's error and detail string.  Factored out of the sweep loop so
    a *replayed* measurement (a :mod:`repro.replay` record carries the
    served heading and health verdict) classifies through exactly the
    same code path as the live campaign cell it reproduces.
    """
    error = heading_error_deg(heading_deg, truth_deg)
    outcome = served_outcome(error, authoritative)
    if outcome is Outcome.DEGRADED:
        detail = ",".join(flags) or status
        return outcome, error, f"flagged: {detail}"
    if outcome is Outcome.BENIGN:
        return outcome, error, f"error {error:.3f} deg within spec"
    return outcome, error, f"UNFLAGGED error {error:.3f} deg"


def classify_replay_record(
    record, truth_deg: float
) -> Tuple[Outcome, Optional[float], str]:
    """Reproduce a campaign cell's classification from its replay record.

    ``record`` is a :class:`repro.replay.MeasurementRecord` (duck-typed:
    anything with ``heading_deg`` and an optional ``health`` carrying
    ``status``/``flags``).
    """
    health = record.health
    return classify_heading(
        record.heading_deg,
        truth_deg,
        health is None or health.status != "degraded",
        flags=() if health is None else tuple(health.flags),
        status="ok" if health is None else health.status,
    )


@dataclass(frozen=True)
class CampaignCell:
    """One (fault, severity, heading, path) evaluation."""

    fault: str
    severity: float
    heading_deg: Optional[float]
    path: str  # "scalar" | "batch" | "scan" | "scenario" | "array"
    outcome: Outcome
    error_deg: Optional[float]
    detail: str
    conforms: bool  # outcome is in the spec's expected set

    def to_dict(self) -> Dict:
        record = asdict(self)
        record["outcome"] = self.outcome.value
        return record


@dataclass
class CampaignResult:
    """All cells of one campaign run, with aggregation helpers."""

    cells: List[CampaignCell] = field(default_factory=list)

    def by_outcome(self, outcome: Outcome) -> List[CampaignCell]:
        return [cell for cell in self.cells if cell.outcome is outcome]

    def silent_wrong(self) -> List[CampaignCell]:
        """The cells that must not exist: confident wrong headings."""
        return self.by_outcome(Outcome.SILENT_WRONG)

    def nonconforming(self) -> List[CampaignCell]:
        """Cells whose outcome falls outside the fault spec's contract."""
        return [cell for cell in self.cells if not cell.conforms]

    def summary(self) -> Dict:
        counts = {outcome.value: 0 for outcome in Outcome}
        for cell in self.cells:
            counts[cell.outcome.value] += 1
        return {
            "cells": len(self.cells),
            "outcomes": counts,
            "silent_wrong": len(self.silent_wrong()),
            "nonconforming": len(self.nonconforming()),
            "faults": sorted({cell.fault for cell in self.cells}),
        }

    def to_dict(self) -> Dict:
        return {
            "summary": self.summary(),
            "cells": [cell.to_dict() for cell in self.cells],
        }


class FaultCampaign:
    """Sweeps registered faults through the measurement and scan paths.

    Parameters
    ----------
    headings_deg:
        True headings evaluated per (fault, severity) cell.
    field_magnitude_t:
        Horizontal field for every measurement [T].
    paths:
        Measurement paths to exercise; any subset of
        ``("scalar", "batch")``.  Scan-probe faults ignore this.
    registry:
        The fault population; defaults to the built-in registry.
    faults:
        Optional subset of fault names to run (default: all registered).
    metrics:
        Optional :class:`~repro.observe.MetricsRegistry`; when given the
        campaign counts every classified cell by (path, outcome) and
        accumulates a heading-error histogram per path.
    record_logs:
        When true, every scalar (fault, severity) run records its
        measurements into an in-memory replay log, kept in
        :attr:`scalar_logs` keyed by ``(fault, severity)`` — the raw
        material for re-deriving a cell's classification offline via
        :func:`classify_replay_record`.
    """

    def __init__(
        self,
        headings_deg: Sequence[float] = DEFAULT_HEADINGS,
        field_magnitude_t: float = 50.0e-6,
        paths: Sequence[str] = ("scalar", "batch"),
        registry: FaultRegistry = REGISTRY,
        faults: Optional[Sequence[str]] = None,
        metrics: Optional[MetricsRegistry] = None,
        record_logs: bool = False,
    ):
        if len(headings_deg) == 0:
            raise ConfigurationError("campaign needs at least one heading")
        for path in paths:
            if path not in ("scalar", "batch"):
                raise ConfigurationError(f"unknown campaign path {path!r}")
        if not paths:
            raise ConfigurationError("campaign needs at least one path")
        self.headings_deg = tuple(float(h) for h in headings_deg)
        self.field_magnitude_t = field_magnitude_t
        self.paths = tuple(paths)
        self.registry = registry
        self.fault_names = list(faults) if faults is not None else registry.names()
        self.metrics = metrics
        self.record_logs = record_logs
        #: (fault, severity) → the scalar run's in-memory LogRecorder;
        #: populated only when ``record_logs`` is set.  Record 0 is the
        #: clean warm-up measurement; detected (raising) cells emit no
        #: record, so truths must be re-derived from each record's
        #: inputs rather than assumed positional.
        self.scalar_logs: Dict[Tuple[str, float], object] = {}
        for name in self.fault_names:
            registry.get(name)  # fail fast on unknown names

    # -- per-cell machinery ----------------------------------------------------

    @staticmethod
    def _fresh_compass() -> IntegratedCompass:
        """A compass with supervision *and* graceful degradation armed."""
        return IntegratedCompass(
            CompassConfig(health=HealthConfig(degrade=True))
        )

    def _classify(
        self, measurement, truth: float
    ) -> Tuple[Outcome, Optional[float], str]:
        return classify_heading(
            measurement.heading_deg,
            truth,
            measurement.authoritative,
            flags=() if measurement.health is None else measurement.health.flags,
            status="ok" if measurement.health is None
            else measurement.health.status,
        )

    def _run_headings(
        self,
        spec: FaultSpec,
        severity: float,
        path: str,
        target,
        classify: Callable[..., Tuple[Outcome, Optional[float], str]],
    ) -> List[CampaignCell]:
        """Warm ``target`` (a compass or an array) up clean, inject the
        fault, and classify one cell per heading; a typed raise is a
        loud detection."""
        # Arm the last-known-good fallback with one clean measurement.
        target.measure_heading(self.headings_deg[0], self.field_magnitude_t)
        cells = []
        with self.registry.inject(spec.name, target, severity):
            for truth in self.headings_deg:
                try:
                    served = target.measure_heading(
                        truth, self.field_magnitude_t
                    )
                except ReproError as exc:
                    outcome = Outcome.DETECTED
                    error, detail = None, f"{type(exc).__name__}: {exc}"
                else:
                    outcome, error, detail = classify(served, truth)
                cells.append(
                    self._cell(spec, severity, truth, path, outcome, error, detail)
                )
        return cells

    def _run_scalar(self, spec: FaultSpec, severity: float) -> List[CampaignCell]:
        compass = self._fresh_compass()
        if self.record_logs:
            from ..replay import LogRecorder, attach_recorder

            self.scalar_logs[(spec.name, severity)] = attach_recorder(
                compass, LogRecorder()
            )
        return self._run_headings(
            spec, severity, "scalar", compass, self._classify
        )

    def _run_batch(self, spec: FaultSpec, severity: float) -> List[CampaignCell]:
        compass = self._fresh_compass()
        batch = BatchCompass(compass)
        batch.sweep_headings([self.headings_deg[0]], self.field_magnitude_t)
        cells = []
        with self.registry.inject(spec.name, compass, severity):
            try:
                measurements = batch.sweep_headings(
                    self.headings_deg, self.field_magnitude_t
                )
            except ReproError as exc:
                # A channel fault aborts the whole batch with the typed
                # error (documented failure parity): every heading in the
                # batch is a loud detection.
                detail = f"{type(exc).__name__}: {exc}"
                return [
                    self._cell(
                        spec, severity, truth, "batch", Outcome.DETECTED, None, detail
                    )
                    for truth in self.headings_deg
                ]
            for truth, measurement in zip(self.headings_deg, measurements):
                outcome, error, detail = self._classify(measurement, truth)
                cells.append(
                    self._cell(spec, severity, truth, "batch", outcome, error, detail)
                )
        return cells

    def _run_scenario_probe(
        self, spec: FaultSpec, severity: float
    ) -> List[CampaignCell]:
        """Environment faults: inject into a ScenarioRunner and fly the
        factory environment screen (temperature ramp + tilt table)."""
        from ..scenario.campaign import fly_faulted
        from ..scenario.dsl import ENV_SCREEN
        from ..scenario.runner import ScenarioRunner

        outcome, error, detail = fly_faulted(
            ScenarioRunner(ENV_SCREEN),
            self.registry,
            spec.name,
            severity,
        )
        return [
            self._cell(spec, severity, None, "scenario", outcome, error, detail)
        ]

    def _run_array(self, spec: FaultSpec, severity: float) -> List[CampaignCell]:
        """Array faults: inject into a four-element array and fuse the grid.

        The cell classifications read straight off the fused
        measurement: an unflagged in-spec fusion with a dead element is
        the redundancy claim (*benign*), a gradiometer or redundancy
        flag is *degraded*, an :class:`~repro.errors.ArrayFusionError`
        is *detected*.
        """
        from ..array import ArrayCompass, ArrayConfig, ArrayGeometry

        array = ArrayCompass(ArrayConfig(geometry=ArrayGeometry.square()))

        def classify(fused, truth: float):
            outcome, error, detail = classify_heading(
                fused.heading_deg,
                truth,
                fused.authoritative,
                flags=fused.flags,
            )
            detail += f" ({fused.n_used}/{array.n_elements} elements)"
            return outcome, error, detail

        return self._run_headings(spec, severity, "array", array, classify)

    def _run_scan(self, spec: FaultSpec, severity: float) -> List[CampaignCell]:
        harness = SubstrateHarness(build_compass_mcm())
        with self.registry.inject(spec.name, harness, severity):
            try:
                verdicts = harness.diagnose()
            except ReproError as exc:
                outcome = Outcome.DETECTED
                detail = f"{type(exc).__name__}: {exc}"
            else:
                bad = {net: v for net, v in verdicts.items() if v != "good"}
                if bad:
                    outcome = Outcome.DETECTED
                    detail = f"diagnosed: {bad}"
                else:
                    outcome = Outcome.SILENT_WRONG
                    detail = "scan test passed despite injected fault"
        return [self._cell(spec, severity, None, "scan", outcome, None, detail)]

    def _cell(
        self,
        spec: FaultSpec,
        severity: float,
        truth: Optional[float],
        path: str,
        outcome: Outcome,
        error: Optional[float],
        detail: str,
    ) -> CampaignCell:
        if self.metrics is not None:
            self.metrics.counter(
                M_CAMPAIGN_CELLS,
                "classified fault-campaign cells, by path and outcome",
                ("path", "outcome"),
            ).inc(path=path, outcome=outcome.value)
            if error is not None:
                self.metrics.histogram(
                    M_CAMPAIGN_ERROR,
                    "absolute circular heading error of campaign cells",
                    ("path",),
                    buckets=ERROR_BUCKETS_DEG,
                ).observe(error, path=path)
        return CampaignCell(
            fault=spec.name,
            severity=severity,
            heading_deg=truth,
            path=path,
            outcome=outcome,
            error_deg=error,
            detail=detail,
            conforms=outcome.value in spec.allowed_outcomes(severity),
        )

    # -- the sweep -------------------------------------------------------------

    def run(self) -> CampaignResult:
        """Run the full campaign and return every classified cell."""
        result = CampaignResult()
        for name in self.fault_names:
            spec = self.registry.get(name)
            for severity in spec.severities:
                if spec.probe == "scan":
                    result.cells.extend(self._run_scan(spec, severity))
                    continue
                if spec.probe == "scenario":
                    result.cells.extend(
                        self._run_scenario_probe(spec, severity)
                    )
                    continue
                if spec.probe == "array":
                    result.cells.extend(self._run_array(spec, severity))
                    continue
                if "scalar" in self.paths:
                    result.cells.extend(self._run_scalar(spec, severity))
                if "batch" in self.paths:
                    result.cells.extend(self._run_batch(spec, severity))
        return result
