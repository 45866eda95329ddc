"""Differential conformance: one log, many execution paths, zero drift.

The repo now has four ways to compute a heading — the scalar
:class:`~repro.core.compass.IntegratedCompass`, the vectorized
:class:`~repro.batch.engine.BatchCompass`, a service replica, and any of
them with observability armed.  They are all *supposed* to be
bit-identical; this module makes that claim mechanically checkable:
replay one recorded log through any pair of paths and compare every
stage boundary with ``==``.

A mismatch is reported as a :class:`Divergence` naming the **first
divergent stage in signal-chain order** (``inputs`` → ``pulse`` →
``counter`` → ``cordic.iter.N`` → ``heading`` → ``field`` →
``health``), so the most upstream defect is what you see — a wrong
CORDIC ROM entry shows up as ``cordic.iter.3.angle_fixed``, not as a
mysteriously rotated heading.

Divergences are classified:

``metadata``
    Only the health verdict differs; every numeric output matches.
``tolerated-noise``
    The served heading agrees within ``tolerance_deg`` (default 0.0 —
    with the tolerance at zero this class only covers *internally*
    divergent records whose final outputs still match exactly).
``silent-wrong``
    Anything else: the compass served a different answer with no error
    raised.  This is the class CI fails on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import DivergenceError, ReplayError
from .format import (
    KIND_MEASURED,
    MeasurementRecord,
    STAGE_CORDIC,
    STAGE_COUNTER,
    STAGE_FIELD,
    STAGE_HEADING,
    STAGE_HEALTH,
    STAGE_INPUTS,
    STAGE_PULSE,
)
from .player import ReplayLogReader, ReplayPlayer, replay_full

CLASS_METADATA = "metadata"
CLASS_TOLERATED = "tolerated-noise"
CLASS_SILENT_WRONG = "silent-wrong"

def circular_delta_deg(a: float, b: float) -> float:
    """Smallest absolute angular distance between two headings [deg]."""
    delta = abs(a - b) % 360.0
    return min(delta, 360.0 - delta)


@dataclass(frozen=True)
class Divergence:
    """One record's first point of disagreement between two paths."""

    seq: int
    stage: str
    recorded: object
    replayed: object
    classification: str

    def describe(self) -> str:
        return (
            f"record {self.seq} diverges at stage {self.stage!r} "
            f"({self.classification}): {self.recorded!r} != {self.replayed!r}"
        )

    def to_dict(self) -> Dict:
        return {
            "seq": self.seq,
            "stage": self.stage,
            "recorded": repr(self.recorded),
            "replayed": repr(self.replayed),
            "classification": self.classification,
        }


def _classify(
    stage: str,
    a: MeasurementRecord,
    b: MeasurementRecord,
    tolerance_deg: float,
) -> str:
    if stage.startswith(STAGE_HEALTH):
        return CLASS_METADATA
    if circular_delta_deg(a.heading_deg, b.heading_deg) <= tolerance_deg and (
        a.field_estimate_a_per_m == b.field_estimate_a_per_m
        or tolerance_deg > 0.0
    ):
        return CLASS_TOLERATED
    return CLASS_SILENT_WRONG


def _first_mismatch(
    a: MeasurementRecord,
    b: MeasurementRecord,
    compare_health: bool,
) -> Optional[Tuple[str, object, object]]:
    """The first divergent ``(stage, value_a, value_b)`` in chain order."""
    if a.kind != b.kind:
        return ("kind", a.kind, b.kind)
    if (a.h_x, a.h_y) != (b.h_x, b.h_y):
        return (STAGE_INPUTS, (a.h_x, a.h_y), (b.h_x, b.h_y))
    if a.window != b.window:
        return (f"{STAGE_INPUTS}.window", a.window, b.window)
    for channel in sorted(set(a.channels) | set(b.channels)):
        cap_a = a.channels.get(channel)
        cap_b = b.channels.get(channel)
        if cap_a is None or cap_b is None:
            return (f"{STAGE_PULSE}.{channel}", cap_a, cap_b)
        if cap_a.initial_value != cap_b.initial_value:
            return (
                f"{STAGE_PULSE}.{channel}.initial",
                cap_a.initial_value,
                cap_b.initial_value,
            )
        for i, (edge_a, edge_b) in enumerate(zip(cap_a.edges, cap_b.edges)):
            if edge_a != edge_b:
                return (f"{STAGE_PULSE}.{channel}.edge.{i}", edge_a, edge_b)
        if len(cap_a.edges) != len(cap_b.edges):
            return (
                f"{STAGE_PULSE}.{channel}.edge.count",
                len(cap_a.edges),
                len(cap_b.edges),
            )
    for channel in sorted(set(a.counter) | set(b.counter)):
        cnt_a = a.counter.get(channel)
        cnt_b = b.counter.get(channel)
        if cnt_a is None or cnt_b is None:
            return (f"{STAGE_COUNTER}.{channel}", cnt_a, cnt_b)
        for field_name in ("total_ticks", "high_ticks", "count", "overflowed"):
            val_a = getattr(cnt_a, field_name)
            val_b = getattr(cnt_b, field_name)
            if val_a != val_b:
                return (f"{STAGE_COUNTER}.{channel}.{field_name}", val_a, val_b)
    if (a.cordic is None) != (b.cordic is None):
        return (STAGE_CORDIC, a.cordic, b.cordic)
    if a.cordic is not None and b.cordic is not None:
        registers = ("iteration", "shift", "rotated", "x_reg", "y_reg",
                     "angle_fixed")
        for step_a, step_b in zip(a.cordic.steps, b.cordic.steps):
            if step_a != step_b:
                iteration = step_a[0]
                for reg_index, reg_name in enumerate(registers):
                    if step_a[reg_index] != step_b[reg_index]:
                        return (
                            f"{STAGE_CORDIC}.iter.{iteration}.{reg_name}",
                            step_a[reg_index],
                            step_b[reg_index],
                        )
        if len(a.cordic.steps) != len(b.cordic.steps):
            return (
                f"{STAGE_CORDIC}.iter.count",
                len(a.cordic.steps),
                len(b.cordic.steps),
            )
        if a.cordic.cycles != b.cordic.cycles:
            return (f"{STAGE_CORDIC}.cycles", a.cordic.cycles, b.cordic.cycles)
    if a.heading_deg != b.heading_deg:
        return (STAGE_HEADING, a.heading_deg, b.heading_deg)
    if a.field_estimate_a_per_m != b.field_estimate_a_per_m:
        return (STAGE_FIELD, a.field_estimate_a_per_m, b.field_estimate_a_per_m)
    if compare_health and a.health != b.health:
        return (STAGE_HEALTH, a.health, b.health)
    return None


def diff_record(
    a: MeasurementRecord,
    b: MeasurementRecord,
    tolerance_deg: float = 0.0,
    compare_health: bool = True,
) -> Optional[Divergence]:
    """Compare two records stage by stage; ``None`` means bit-identical.

    The ``path`` field is deliberately *not* compared — the whole point
    is comparing the same measurement across different paths.
    """
    mismatch = _first_mismatch(a, b, compare_health)
    if mismatch is None:
        return None
    stage, val_a, val_b = mismatch
    return Divergence(
        seq=a.seq,
        stage=stage,
        recorded=val_a,
        replayed=val_b,
        classification=_classify(stage, a, b, tolerance_deg),
    )


# -- execution paths -----------------------------------------------------------


def _run_recorded(reader: ReplayLogReader) -> List[MeasurementRecord]:
    return reader.records()


def _run_backend(reader: ReplayLogReader) -> List[MeasurementRecord]:
    return ReplayPlayer(reader.header).replay(reader)


def _run_scalar(reader: ReplayLogReader) -> List[MeasurementRecord]:
    return replay_full(reader)


def _run_instrumented(reader: ReplayLogReader) -> List[MeasurementRecord]:
    from ..core.compass import IntegratedCompass
    from ..observe import Observability

    config = dataclasses.replace(
        reader.header.rebuild_config(), observe=Observability.on()
    )
    return replay_full(reader, compass=IntegratedCompass(config))


def _run_batch(reader: ReplayLogReader) -> List[MeasurementRecord]:
    import numpy as np

    from ..batch.engine import BatchCompass
    from .recorder import LogRecorder, attach_recorder

    batch = BatchCompass(reader.header.rebuild_config())
    recorder = LogRecorder()
    attach_recorder(batch.compass, recorder)
    records = reader.records()
    missing = [r.seq for r in records if r.h_x is None or r.h_y is None]
    if missing:
        raise ReplayError(
            f"records {missing} carry no axis-field inputs; the batch "
            "path cannot replay them"
        )
    batch.measure_components_batch(
        np.array([r.h_x for r in records], dtype=float),
        np.array([r.h_y for r in records], dtype=float),
    )
    return recorder.records


def _run_service(reader: ReplayLogReader) -> List[MeasurementRecord]:
    from ..service.service import HeadingService, ServiceConfig

    service = HeadingService(
        ServiceConfig(compass=reader.header.rebuild_config())
    )
    # Drive replica 0's compass directly: voting and latency draws sit
    # *around* the measurement, not inside it, so the replica's signal
    # chain must still be bit-identical to the recorded one.  (The
    # replica re-seeds its noise stream, which under the default
    # noiseless budget never draws.)
    return replay_full(reader, compass=service.replicas[0].compass)


#: Named execution paths the conformance runner can replay a log through.
PATHS: Dict[str, Callable[[ReplayLogReader], List[MeasurementRecord]]] = {
    "recorded": _run_recorded,
    "backend": _run_backend,
    "scalar": _run_scalar,
    "instrumented": _run_instrumented,
    "batch": _run_batch,
    "service": _run_service,
}


@dataclass(frozen=True)
class DiffResult:
    """Outcome of diffing one log across one pair of paths."""

    path_a: str
    path_b: str
    n_records: int
    divergences: Tuple[Divergence, ...]

    @property
    def clean(self) -> bool:
        return not self.divergences

    @property
    def silent_wrong(self) -> Tuple[Divergence, ...]:
        return tuple(
            d for d in self.divergences
            if d.classification == CLASS_SILENT_WRONG
        )

    def to_dict(self) -> Dict:
        return {
            "path_a": self.path_a,
            "path_b": self.path_b,
            "n_records": self.n_records,
            "clean": self.clean,
            "divergences": [d.to_dict() for d in self.divergences],
        }


def diff_records(
    path_a: str,
    records_a: Sequence[MeasurementRecord],
    path_b: str,
    records_b: Sequence[MeasurementRecord],
    tolerance_deg: float = 0.0,
) -> DiffResult:
    """Diff two already-executed record streams, record by record."""
    divergences: List[Divergence] = []
    if len(records_a) != len(records_b):
        divergences.append(
            Divergence(
                seq=min(len(records_a), len(records_b)),
                stage="length",
                recorded=len(records_a),
                replayed=len(records_b),
                classification=CLASS_SILENT_WRONG,
            )
        )
    compare_health = path_a != "backend" and path_b != "backend"
    for a, b in zip(records_a, records_b):
        divergence = diff_record(
            a,
            b,
            tolerance_deg=tolerance_deg,
            compare_health=compare_health,
        )
        if divergence is not None:
            divergences.append(divergence)
    return DiffResult(
        path_a=path_a,
        path_b=path_b,
        n_records=min(len(records_a), len(records_b)),
        divergences=tuple(divergences),
    )


def run_conformance(
    reader: ReplayLogReader,
    paths: Sequence[str] = ("recorded", "scalar"),
    tolerance_deg: float = 0.0,
) -> List[DiffResult]:
    """Replay one log through several paths and diff every pair.

    Each named path executes exactly once; the first path is the
    baseline every other path is diffed against, and the remaining
    paths are additionally diffed pairwise so a report covers all
    combinations.
    """
    if len(paths) < 2:
        raise ReplayError("conformance needs at least two paths to diff")
    unknown = [p for p in paths if p not in PATHS]
    if unknown:
        raise ReplayError(
            f"unknown execution paths {unknown}; choose from "
            f"{sorted(PATHS)}"
        )
    executed = {name: PATHS[name](reader) for name in dict.fromkeys(paths)}
    names = list(executed)
    results: List[DiffResult] = []
    for i, name_a in enumerate(names):
        for name_b in names[i + 1:]:
            results.append(
                diff_records(
                    name_a, executed[name_a],
                    name_b, executed[name_b],
                    tolerance_deg=tolerance_deg,
                )
            )
    return results


def require_conformance(results: Sequence[DiffResult]) -> int:
    """Raise :class:`DivergenceError` on any silent-wrong divergence.

    Returns the total number of record comparisons performed, so
    callers can assert the check actually covered something.
    """
    for result in results:
        wrong = result.silent_wrong
        if wrong:
            raise DivergenceError(
                f"paths {result.path_a!r} and {result.path_b!r} disagree "
                f"on {len(wrong)} of {result.n_records} records; first: "
                f"{wrong[0].describe()}"
            )
    return sum(result.n_records for result in results)


__all__ = [
    "CLASS_METADATA",
    "CLASS_SILENT_WRONG",
    "CLASS_TOLERATED",
    "DiffResult",
    "Divergence",
    "PATHS",
    "circular_delta_deg",
    "diff_record",
    "diff_records",
    "require_conformance",
    "run_conformance",
]
