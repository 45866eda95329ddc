"""The capture layer: records measurements at stage boundaries.

A :class:`LogRecorder` rides on the compass's
:class:`~repro.observe.Observer` (the same opt-in switchboard that
carries the tracer and metrics registry), so capture follows the
observability contract: **opt-in**, **transparent** (a recorded
measurement is bit-identical to an unrecorded one — pinned by the
golden-vector suite) and **zero cost when off** (one attribute check on
the hot path).

Two ways to arm it:

* declaratively, via :attr:`Observability.replay_path`::

      config = CompassConfig(observe=Observability.on(replay_path="run.rplog"))
      compass = IntegratedCompass(config)
      compass.measure_heading(45.0)
      compass.observer.close()          # flushes header + footer

* imperatively, on an existing compass (file- or memory-backed)::

      recorder = LogRecorder()          # in-memory
      attach_recorder(compass, recorder)
      compass.measure_heading(45.0)
      records = recorder.records

The instrumented call sites live in
:meth:`~repro.core.compass.IntegratedCompass.measure_components` /
``assemble_measurement`` and the batch engine's per-row loop; the
digital back-end records its per-iteration CORDIC state whenever a
recorder (or tracer) is attached.
"""

from __future__ import annotations

from typing import IO, List, Optional, Union

from ..errors import ReplayError
from .format import (
    ChannelCapture,
    CordicCapture,
    CounterCapture,
    HealthCapture,
    KIND_FALLBACK,
    KIND_MEASURED,
    LogHeader,
    MeasurementRecord,
    encode_line,
)


class LogRecorder:
    """Serialises measurements into a replay log (file or memory).

    Parameters
    ----------
    path_or_handle:
        ``None`` (default) keeps every :class:`MeasurementRecord` in
        :attr:`records`; a path or text handle streams self-checking
        JSONL lines instead (header lazily on the first record, footer
        on :meth:`close`).
    """

    def __init__(self, path_or_handle: Union[str, IO[str], None] = None):
        self._handle: Optional[IO[str]] = None
        self._owns_handle = False
        if isinstance(path_or_handle, str):
            self._handle = open(path_or_handle, "w", encoding="utf-8")
            self._owns_handle = True
        elif path_or_handle is not None:
            self._handle = path_or_handle
        self.header: Optional[LogHeader] = None
        self.records: List[MeasurementRecord] = []
        self.records_written = 0
        self._header_written = False
        self._closed = False
        self._pending_inputs: Optional[tuple] = None

    @property
    def in_memory(self) -> bool:
        return self._handle is None

    # -- header ----------------------------------------------------------------

    def bind(self, config) -> None:
        """Pin the log to one compass configuration.

        A recorder serialises *one* execution context; binding a second,
        differently-fingerprinted config would silently mix design
        points in one log, so it raises instead.
        """
        header = LogHeader.from_config(config)
        if self.header is None:
            self.header = header
            return
        if header.fingerprint != self.header.fingerprint:
            raise ReplayError(
                "recorder is already bound to a different compass "
                f"configuration ({self.header.fingerprint} != "
                f"{header.fingerprint}); use one recorder per design point"
            )

    def _require_header(self) -> LogHeader:
        if self.header is None:
            raise ReplayError(
                "recorder was never bound to a compass configuration; "
                "attach it with attach_recorder() or Observability.replay_path"
            )
        return self.header

    def _emit(self, record: MeasurementRecord) -> None:
        if self._closed:
            raise ReplayError("recorder is closed; no further records accepted")
        header = self._require_header()
        if self._handle is not None:
            if not self._header_written:
                self._handle.write(encode_line("header", header.to_dict()) + "\n")
                self._header_written = True
            self._handle.write(encode_line("record", record.to_dict()) + "\n")
        else:
            self.records.append(record)
        self.records_written += 1

    # -- capture hooks (called by the instrumented signal chain) ---------------

    def on_inputs(self, h_x: float, h_y: float) -> None:
        """Stage the axis-field inputs of the measurement being taken."""
        self._pending_inputs = (float(h_x), float(h_y))

    def _take_inputs(self) -> tuple:
        pending, self._pending_inputs = self._pending_inputs, None
        if pending is None:
            return (None, None)
        return pending

    def on_measurement(
        self, path, detector_x, detector_y, count_window, result, measurement
    ) -> None:
        """Capture one fully-measured record (the normal path)."""
        h_x, h_y = self._take_inputs()
        self._emit(
            MeasurementRecord(
                seq=self.records_written,
                path=path,
                kind=KIND_MEASURED,
                h_x=h_x,
                h_y=h_y,
                window=(count_window[0], count_window[1]),
                channels={
                    "x": ChannelCapture.from_detector_output(detector_x),
                    "y": ChannelCapture.from_detector_output(detector_y),
                },
                counter={
                    "x": CounterCapture.from_result(result.x_result),
                    "y": CounterCapture.from_result(result.y_result),
                },
                cordic=CordicCapture.from_steps(
                    result.cordic_cycles, result.cordic_steps
                ),
                heading_deg=measurement.heading_deg,
                field_estimate_a_per_m=measurement.field_estimate_a_per_m,
                health=(
                    None if measurement.health is None
                    else HealthCapture.from_report(measurement.health)
                ),
            )
        )

    def on_fallback(self, path, channels, count_window, measurement) -> None:
        """Capture a degraded serve (stale heading or single-axis).

        ``channels`` maps channel name → the detector outputs that *were*
        observed; the digital stages are absent because the served
        heading did not come from a fresh back-end pass.
        """
        h_x, h_y = self._take_inputs()
        self._emit(
            MeasurementRecord(
                seq=self.records_written,
                path=path,
                kind=KIND_FALLBACK,
                h_x=h_x,
                h_y=h_y,
                window=(count_window[0], count_window[1]),
                channels={
                    name: ChannelCapture.from_detector_output(output)
                    for name, output in channels.items()
                },
                heading_deg=measurement.heading_deg,
                field_estimate_a_per_m=measurement.field_estimate_a_per_m,
                health=(
                    None if measurement.health is None
                    else HealthCapture.from_report(measurement.health)
                ),
            )
        )

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Write the footer and release the file handle (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._handle is not None:
            if not self._header_written and self.header is not None:
                self._handle.write(
                    encode_line("header", self.header.to_dict()) + "\n"
                )
                self._header_written = True
            self._handle.write(
                encode_line("footer", {"n_records": self.records_written}) + "\n"
            )
            self._handle.flush()
            if self._owns_handle:
                self._handle.close()


def attach_recorder(compass, recorder: LogRecorder) -> LogRecorder:
    """Arm a recorder on an existing compass (any observability state).

    If the compass carries the shared do-nothing observer, a fresh
    recorder-only :class:`~repro.observe.Observer` is installed on the
    compass and its back-end; an already-enabled observer simply gains
    the recorder.  Returns the recorder.
    """
    from ..observe import DISABLED, Observer

    recorder.bind(compass.config)
    if compass.observer is DISABLED:
        observer = Observer(recorder=recorder)
        compass.observer = observer
        compass.back_end.observer = observer
    else:
        compass.observer.recorder = recorder
    return recorder


__all__ = ["LogRecorder", "attach_recorder"]
