"""The replay engine: re-executes recorded measurements deterministically.

Two replay depths, matching the two halves of Figure 1:

* **Back-end replay** (:meth:`ReplayPlayer.replay_record`) re-runs the
  *digital* section — counter, CORDIC, quadrant folder, field-estimate
  arithmetic — from the recorded analogue pulse edges.  No analogue
  simulation happens, which is why it is an order of magnitude faster
  than live measurement (``BENCH_replay.json``), yet every count,
  register and heading must come out bit-identical.
* **Full-chain replay** (:func:`replay_full`) rebuilds the whole
  compass from the log header and re-measures the recorded axis-field
  inputs through the analogue front-end as well.  This reproduces a run
  from nothing but its log — provided the log covers the compass's
  whole life (the noise stream and health history are positional
  state), which is exactly how the recorder is attached.

Both depths verify against the log with ``==`` on every field; any
mismatch raises :class:`~repro.errors.DivergenceError` naming the first
divergent stage.
"""

from __future__ import annotations

import io
from typing import IO, Iterator, List, Optional, Union

from ..errors import DivergenceError, ReplayError, only_row
from ..units import field_from_count
from .format import (
    CordicCapture,
    CounterCapture,
    KIND_MEASURED,
    LogHeader,
    MeasurementRecord,
    decode_line,
)


class ReplayLogReader:
    """Seekable, validating reader over one ``.rplog`` document.

    The constructor indexes the lines and validates the envelope: magic,
    version, header CRC, footer presence and record count.  Records are
    parsed (and CRC-checked) lazily per access, so seeking to record
    ``i`` of a long log costs one line parse.

    Raises
    ------
    ReplayError
        On any structural defect: missing header/footer, CRC mismatch,
        version skew, out-of-order sequence numbers, or truncation.
    """

    def __init__(self, path_or_handle: Union[str, IO[str]]):
        if isinstance(path_or_handle, str):
            with open(path_or_handle, "r", encoding="utf-8") as handle:
                text = handle.read()
        else:
            text = path_or_handle.read()
        lines = text.splitlines()
        if not lines:
            raise ReplayError("replay log is empty — not even a header line")
        _, header_body = decode_line(lines[0], expect="header")
        self.header = LogHeader.from_dict(header_body)
        if len(lines) < 2:
            raise ReplayError("replay log has no footer — truncated mid-write")
        key, footer_body = decode_line(lines[-1])
        if key != "footer":
            raise ReplayError(
                "replay log has no footer — truncated, or the recorder "
                "was never closed"
            )
        self._record_lines = lines[1:-1]
        declared = footer_body.get("n_records")
        if declared != len(self._record_lines):
            raise ReplayError(
                f"replay log declares {declared} records but contains "
                f"{len(self._record_lines)} — truncated or spliced"
            )
        self._cache: dict = {}

    def __len__(self) -> int:
        return len(self._record_lines)

    def record(self, index: int) -> MeasurementRecord:
        """Record ``index``, parsed and CRC-verified on first access."""
        if not 0 <= index < len(self._record_lines):
            raise ReplayError(
                f"record index {index} out of range for a "
                f"{len(self._record_lines)}-record log"
            )
        cached = self._cache.get(index)
        if cached is not None:
            return cached
        _, body = decode_line(self._record_lines[index], expect="record")
        record = MeasurementRecord.from_dict(body)
        if record.seq != index:
            raise ReplayError(
                f"replay log is out of order: record at line {index + 2} "
                f"carries seq {record.seq}"
            )
        self._cache[index] = record
        return record

    def __iter__(self) -> Iterator[MeasurementRecord]:
        for index in range(len(self)):
            yield self.record(index)

    def records(self) -> List[MeasurementRecord]:
        """Every record, fully validated."""
        return list(self)


def read_log(path_or_handle: Union[str, IO[str]]) -> ReplayLogReader:
    """Open and envelope-validate a replay log."""
    return ReplayLogReader(path_or_handle)


def reader_from_records(
    header: LogHeader, records: List[MeasurementRecord]
) -> ReplayLogReader:
    """An in-memory reader over records captured by a memory recorder.

    Serialises through the real line format so in-memory diffing
    exercises the same CRC/envelope machinery as file logs.
    """
    from .format import encode_line

    buffer = io.StringIO()
    buffer.write(encode_line("header", header.to_dict()) + "\n")
    for record in records:
        buffer.write(encode_line("record", record.to_dict()) + "\n")
    buffer.write(encode_line("footer", {"n_records": len(records)}) + "\n")
    buffer.seek(0)
    return ReplayLogReader(buffer)


class ReplayPlayer:
    """Re-executes the digital back-end from recorded pulse edges."""

    def __init__(self, header: LogHeader, back_end=None):
        self.header = header
        #: The back-end under test.  Injectable so the conformance suite
        #: can replay a log through a *deliberately faulted* back-end
        #: and watch the diff localise the first divergent stage.
        self.back_end = back_end if back_end is not None else header.build_backend()

    def replay_record(self, record: MeasurementRecord) -> MeasurementRecord:
        """One recorded measurement → a freshly recomputed record.

        Fallback records pass through unchanged (their heading was
        served from supervisor state, not a back-end pass — there is
        nothing digital to re-execute).
        """
        if record.kind != KIND_MEASURED:
            return record
        if "x" not in record.channels or "y" not in record.channels:
            raise ReplayError(
                f"record {record.seq} is marked measured but lacks a "
                "channel capture"
            )
        import math

        detector_x = record.channels["x"].to_detector_output()
        detector_y = record.channels["y"].to_detector_output()
        result = only_row(
            self.back_end.process_measurement(
                [detector_x],
                [detector_y],
                window_x=record.window,
                window_y=record.window,
            )
        )
        x_ticks = result.x_result.total_ticks
        y_ticks = result.y_result.total_ticks
        if x_ticks == 0 or y_ticks == 0:
            raise ReplayError(
                f"record {record.seq} replays to a degenerate counting "
                "window (zero ticks)"
            )
        coil = self.header.coil_constant
        amplitude = self.header.current_amplitude
        field_estimate = math.hypot(
            field_from_count(result.x_count, x_ticks, coil, amplitude),
            field_from_count(result.y_count, y_ticks, coil, amplitude),
        )
        steps = result.cordic_steps
        if not steps:
            # The injected back-end may not have been asked to record
            # steps (no recorder/tracer attached); re-run the datapath
            # arithmetic once more purely for the capture.
            steps = self.back_end.cordic.arctan_first_quadrant(
                abs(-result.y_count), abs(result.x_count), record_steps=True
            ).steps
        return MeasurementRecord(
            seq=record.seq,
            path=record.path,
            kind=KIND_MEASURED,
            h_x=record.h_x,
            h_y=record.h_y,
            window=record.window,
            channels=record.channels,
            counter={
                "x": CounterCapture.from_result(result.x_result),
                "y": CounterCapture.from_result(result.y_result),
            },
            cordic=CordicCapture.from_steps(result.cordic_cycles, steps),
            heading_deg=result.heading_deg,
            field_estimate_a_per_m=field_estimate,
            health=record.health,
        )

    def replay(self, reader: ReplayLogReader) -> List[MeasurementRecord]:
        """Replay every record of a log through the back-end."""
        return [self.replay_record(record) for record in reader]

    def verify(self, reader: ReplayLogReader, tolerance_deg: float = 0.0) -> int:
        """Replay and assert bit-exactness against the log.

        Returns the number of records verified; raises
        :class:`~repro.errors.DivergenceError` at the first divergent
        stage.  Health verdicts are not compared — back-end replay does
        not re-run the supervisor.
        """
        from .diff import diff_record

        verified = 0
        for record in reader:
            replayed = self.replay_record(record)
            divergence = diff_record(
                record,
                replayed,
                tolerance_deg=tolerance_deg,
                compare_health=False,
            )
            if divergence is not None:
                raise DivergenceError(
                    f"replay diverged from the log: {divergence.describe()}"
                )
            verified += 1
        return verified


def replay_full(
    reader: ReplayLogReader,
    compass=None,
) -> List[MeasurementRecord]:
    """Re-execute the *whole* chain from the recorded inputs.

    Rebuilds a compass from the log header (or uses ``compass``), arms
    an in-memory recorder, and re-measures every recorded ``(h_x,
    h_y)`` input pair in order.  Because noise draws and health history
    are positional state, the log must cover the compass's whole life —
    which it does whenever the recorder was attached at construction.

    Returns the freshly captured records; raises
    :class:`~repro.errors.ReplayError` if a recorded input is missing
    or a measurement fails where the original succeeded.
    """
    from ..core.compass import IntegratedCompass
    from ..errors import ReproError
    from .recorder import LogRecorder, attach_recorder

    if compass is None:
        compass = IntegratedCompass(reader.header.rebuild_config())
    recorder = LogRecorder()
    attach_recorder(compass, recorder)
    for record in reader:
        if record.h_x is None or record.h_y is None:
            raise ReplayError(
                f"record {record.seq} carries no axis-field inputs; "
                "full-chain replay is impossible (back-end replay still works)"
            )
        try:
            compass.measure_components(record.h_x, record.h_y)
        except ReproError as exc:
            raise ReplayError(
                f"full-chain replay of record {record.seq} failed where the "
                f"original run served a heading: {type(exc).__name__}: {exc}"
            ) from exc
    return recorder.records


def verify_full(reader: ReplayLogReader, compass=None,
                tolerance_deg: float = 0.0) -> int:
    """Full-chain replay + bit-exact comparison against the log."""
    from .diff import diff_record

    replayed = replay_full(reader, compass=compass)
    originals = reader.records()
    if len(replayed) != len(originals):
        raise DivergenceError(
            f"full-chain replay produced {len(replayed)} records for a "
            f"{len(originals)}-record log"
        )
    for original, fresh in zip(originals, replayed):
        divergence = diff_record(
            original, fresh, tolerance_deg=tolerance_deg
        )
        if divergence is not None:
            raise DivergenceError(
                f"full-chain replay diverged: {divergence.describe()}"
            )
    return len(originals)


__all__ = [
    "ReplayLogReader",
    "ReplayPlayer",
    "read_log",
    "reader_from_records",
    "replay_full",
    "verify_full",
]
