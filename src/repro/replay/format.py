"""The replay-log format: versioned, checksummed, seekable JSONL.

The paper spends silicon on *verifiability* — boundary-scan structures
[Oli96] exist so the assembled compass can be exercised and checked.
This module is the software analogue's file format: one measurement is
one self-checking JSONL record capturing the signal chain at every
stage boundary the silicon exposes on the bench —

* the **inputs** (per-axis field components [A/m]),
* the **pulse edges** leaving the comparator/SR-latch per channel,
* the **counter** integers (count, total ticks, high ticks),
* the **CORDIC state** after every iteration (registers + angle
  accumulator),
* the final **heading**, **field estimate** and **health verdict**.

Layout of a ``.rplog`` file::

    {"crc": ..., "header": {"magic": "repro-rplog", "version": 1, ...}}
    {"crc": ..., "record": {"seq": 0, ...}}
    {"crc": ..., "record": {"seq": 1, ...}}
    ...
    {"crc": ..., "footer": {"n_records": 2}}

Design rules:

* **Self-checking** — every line carries a CRC-32 of the canonical JSON
  of its body; any corruption raises
  :class:`~repro.errors.ReplayError`, never a wrong heading.
* **Truncation-evident** — the footer pins the record count, so a log
  cut at any byte (even cleanly at a newline) fails validation.
* **Bit-exact round-trip** — floats are serialised with ``repr``
  semantics (Python's ``json``), which round-trips every IEEE-754
  double exactly; replays compare with ``==``, never ``approx``.
* **Seekable** — one record per line; readers index line offsets and
  fetch any record without parsing the rest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analog.pulse_detector import DetectorOutput, LogicEdge
from ..digital.cordic import CordicStep
from ..digital.counter import CountResult
from ..errors import ReplayError
from ..units import heading_from_components_deg

#: File-format identity; bump ``FORMAT_VERSION`` on any breaking change.
MAGIC = "repro-rplog"
FORMAT_VERSION = 1

#: Stage names in signal-chain order — the vocabulary of every
#: divergence report.  ``repro.replay.diff`` walks records in exactly
#: this order so the *first* divergent stage is the most upstream one.
STAGE_INPUTS = "inputs"
STAGE_PULSE = "pulse"          # pulse.x / pulse.y (.edge.<i> for one edge)
STAGE_COUNTER = "counter"      # counter.x / counter.y
STAGE_CORDIC = "cordic"        # cordic.iter.<i>.<register>
STAGE_HEADING = "heading"
STAGE_FIELD = "field"
STAGE_HEALTH = "health"

#: Record kinds: a fully-measured record carries every stage; a
#: fallback record (stale serve or single-axis degradation) carries only
#: the channels that were observed plus the served measurement.
KIND_MEASURED = "measured"
KIND_FALLBACK = "fallback"


def _canonical(body: Dict) -> str:
    """The canonical JSON text a line's CRC is computed over."""
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def encode_line(key: str, body: Dict) -> str:
    """One self-checking log line (no trailing newline)."""
    return _canonical({"crc": zlib.crc32(_canonical(body).encode("utf-8")),
                       key: body})


def decode_line(line: str, expect: Optional[str] = None) -> Tuple[str, Dict]:
    """Parse and CRC-verify one log line → ``(key, body)``.

    Raises
    ------
    ReplayError
        On malformed JSON, missing/unknown keys, a CRC mismatch, or a
        body key different from ``expect`` (when given).
    """
    try:
        wrapper = json.loads(line)
    except ValueError as exc:
        raise ReplayError(f"unparseable replay-log line: {exc}") from exc
    if not isinstance(wrapper, dict) or "crc" not in wrapper:
        raise ReplayError("replay-log line has no checksum envelope")
    keys = [k for k in wrapper if k != "crc"]
    if len(keys) != 1 or keys[0] not in ("header", "record", "footer"):
        raise ReplayError(f"replay-log line has unknown body keys {keys!r}")
    key = keys[0]
    body = wrapper[key]
    crc = zlib.crc32(_canonical(body).encode("utf-8"))
    if crc != wrapper["crc"]:
        raise ReplayError(
            f"replay-log {key} line failed its CRC check "
            f"(stored {wrapper['crc']}, computed {crc}) — the log is corrupted"
        )
    if expect is not None and key != expect:
        raise ReplayError(f"expected a {expect} line, found {key}")
    return key, body


def config_fingerprint(config) -> str:
    """Stable fingerprint of a :class:`~repro.core.compass.CompassConfig`.

    Excludes the ``observe`` block — attaching a recorder or tracer must
    not change a compass's replay identity (the clean path is
    bit-identical either way) — and the front end's ``fastpath`` engine
    choice: a recording is always of the stepped chain, and the
    certified fast path serves the same counts.  Both are fingerprinted
    at a fixed value (observability off, the stepped pin), so a
    fingerprint does not move with either.
    """
    from ..observe import Observability

    neutral = dataclasses.replace(
        config,
        observe=Observability(),
        front_end=dataclasses.replace(config.front_end, fastpath=False),
    )
    return hashlib.sha256(repr(neutral).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class LogHeader:
    """Everything a replayer needs to rebuild the digital back-end.

    The header pins the *digital* design point exactly (counter clock
    and width, CORDIC iterations, measurement schedule) plus the
    analogue scale factors that turn counts back into a field estimate.
    ``config_fingerprint`` additionally pins the full compass
    configuration, so full-chain replay can refuse a config it cannot
    reconstruct instead of replaying subtly wrong physics.
    """

    settle_periods: int
    count_periods: int
    samples_per_period: int
    counter_clock_hz: float
    counter_width_bits: int
    counter_strict_overflow: bool
    cordic_iterations: int
    excitation_current_pp: float
    excitation_frequency_hz: float
    coil_constant: float
    sensor_name: str
    core_model: str
    noise_seed: int
    noiseless: bool
    health_enabled: bool
    health_degrade: bool
    fingerprint: str
    version: int = FORMAT_VERSION

    @classmethod
    def from_config(cls, config) -> "LogHeader":
        """Capture the header fields from a live compass configuration."""
        excitation = config.front_end.excitation
        return cls(
            settle_periods=config.schedule.settle_periods,
            count_periods=config.schedule.count_periods,
            samples_per_period=config.samples_per_period,
            counter_clock_hz=config.counter.clock_hz,
            counter_width_bits=config.counter.width_bits,
            counter_strict_overflow=config.counter.strict_overflow,
            cordic_iterations=config.cordic_iterations,
            excitation_current_pp=excitation.current_pp,
            excitation_frequency_hz=excitation.oscillator.frequency_hz,
            coil_constant=config.sensor.excitation_coil_constant,
            sensor_name=config.sensor.name,
            core_model=config.core_model,
            noise_seed=config.front_end.noise_seed,
            noiseless=config.front_end.noise.is_noiseless,
            health_enabled=config.health.enabled,
            health_degrade=config.health.degrade,
            fingerprint=config_fingerprint(config),
        )

    def to_dict(self) -> Dict:
        body = dataclasses.asdict(self)
        body["magic"] = MAGIC
        return body

    @classmethod
    def from_dict(cls, body: Dict) -> "LogHeader":
        if body.get("magic") != MAGIC:
            raise ReplayError(
                f"not a replay log: magic {body.get('magic')!r} != {MAGIC!r}"
            )
        if body.get("version") != FORMAT_VERSION:
            raise ReplayError(
                f"replay-log version {body.get('version')!r} is not the "
                f"supported version {FORMAT_VERSION}"
            )
        fields = {f.name for f in dataclasses.fields(cls)}
        missing = fields - set(body)
        if missing:
            raise ReplayError(f"replay-log header is missing {sorted(missing)}")
        return cls(**{name: body[name] for name in fields})

    # -- reconstruction --------------------------------------------------------

    @property
    def current_amplitude(self) -> float:
        """Peak excitation current [A] (half the recorded peak-to-peak)."""
        return self.excitation_current_pp / 2.0

    @property
    def h_amplitude(self) -> float:
        """Peak excitation field [A/m] — the count-to-field scale factor."""
        return self.coil_constant * self.current_amplitude

    def rebuild_config(self):
        """Reconstruct the :class:`CompassConfig` this log was captured on.

        Starts from the default configuration and applies every recorded
        knob, then verifies the fingerprint.  A mismatch means the
        original run used settings the header does not carry (custom
        sensor, detector thresholds, imperfections…); full-chain replay
        then needs the caller to supply the config explicitly.
        """
        from ..analog.mux import MeasurementSchedule
        from ..core.compass import CompassConfig
        from ..digital.counter import CounterConfig
        from ..sensors.parameters import PRESETS

        sensor = PRESETS.get(self.sensor_name)
        if sensor is None:
            # Presets are keyed by short alias; the header records the
            # device's own name, so match on that too.
            matches = [p for p in PRESETS.values() if p.name == self.sensor_name]
            if len(matches) != 1:
                raise ReplayError(
                    f"recorded sensor {self.sensor_name!r} is not a known "
                    "preset; pass the original CompassConfig to the "
                    "replayer explicitly"
                )
            sensor = matches[0]
        base = CompassConfig()
        config = dataclasses.replace(
            base,
            sensor=sensor,
            core_model=self.core_model,
            schedule=MeasurementSchedule(
                count_periods=self.count_periods,
                settle_periods=self.settle_periods,
            ),
            samples_per_period=self.samples_per_period,
            counter=CounterConfig(
                clock_hz=self.counter_clock_hz,
                width_bits=self.counter_width_bits,
                strict_overflow=self.counter_strict_overflow,
            ),
            cordic_iterations=self.cordic_iterations,
            front_end=dataclasses.replace(
                base.front_end,
                excitation=dataclasses.replace(
                    base.front_end.excitation,
                    current_pp=self.excitation_current_pp,
                ),
                noise_seed=self.noise_seed,
            ),
            health=dataclasses.replace(
                base.health,
                enabled=self.health_enabled,
                degrade=self.health_degrade,
            ),
        )
        actual = config_fingerprint(config)
        if actual != self.fingerprint:
            raise ReplayError(
                "the recorded compass configuration cannot be rebuilt from "
                f"the header (fingerprint {self.fingerprint} != {actual}); "
                "pass the original CompassConfig to the replayer explicitly"
            )
        return config

    def build_backend(self):
        """A fresh :class:`DigitalBackEnd` at the recorded design point."""
        from ..analog.mux import MeasurementSchedule
        from ..digital.backend import DigitalBackEnd
        from ..digital.counter import CounterConfig

        return DigitalBackEnd(
            counter_config=CounterConfig(
                clock_hz=self.counter_clock_hz,
                width_bits=self.counter_width_bits,
                strict_overflow=self.counter_strict_overflow,
            ),
            cordic_iterations=self.cordic_iterations,
            schedule=MeasurementSchedule(
                count_periods=self.count_periods,
                settle_periods=self.settle_periods,
            ),
        )


@dataclass(frozen=True)
class ChannelCapture:
    """One channel's pulse-position latch signal, edge-exact."""

    edges: Tuple[Tuple[float, int], ...]
    initial_value: int
    window: Tuple[float, float]

    @classmethod
    def from_detector_output(cls, output: DetectorOutput) -> "ChannelCapture":
        return cls(
            edges=tuple((edge.time, edge.value) for edge in output.edges),
            initial_value=output.initial_value,
            window=(output.window[0], output.window[1]),
        )

    def to_detector_output(self) -> DetectorOutput:
        """Rebuild the latch signal the digital back-end consumes."""
        return DetectorOutput(
            edges=tuple(LogicEdge(time, int(value)) for time, value in self.edges),
            initial_value=self.initial_value,
            window=(self.window[0], self.window[1]),
        )

    def to_dict(self) -> Dict:
        return {
            "edges": [[time, value] for time, value in self.edges],
            "initial": self.initial_value,
            "window": list(self.window),
        }

    @classmethod
    def from_dict(cls, body: Dict) -> "ChannelCapture":
        return cls(
            edges=tuple((float(t), int(v)) for t, v in body["edges"]),
            initial_value=int(body["initial"]),
            window=(float(body["window"][0]), float(body["window"][1])),
        )


@dataclass(frozen=True)
class CounterCapture:
    """One channel's up-down counter outcome."""

    count: int
    total_ticks: int
    high_ticks: int
    overflowed: bool

    @classmethod
    def from_result(cls, result: CountResult) -> "CounterCapture":
        return cls(
            count=result.count,
            total_ticks=result.total_ticks,
            high_ticks=result.high_ticks,
            overflowed=result.overflowed,
        )

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, body: Dict) -> "CounterCapture":
        return cls(
            count=int(body["count"]),
            total_ticks=int(body["total_ticks"]),
            high_ticks=int(body["high_ticks"]),
            overflowed=bool(body["overflowed"]),
        )


@dataclass(frozen=True)
class CordicCapture:
    """The arctangent datapath, iteration by iteration."""

    cycles: int
    steps: Tuple[Tuple[int, int, int, int, int, int], ...]
    #: step layout: (iteration, shift, rotated, x_reg, y_reg, angle_fixed)

    @classmethod
    def from_steps(cls, cycles: int, steps: Tuple[CordicStep, ...]) -> "CordicCapture":
        return cls(
            cycles=cycles,
            steps=tuple(
                (s.iteration, s.shift, int(s.rotated), s.x_reg, s.y_reg,
                 s.angle_fixed)
                for s in steps
            ),
        )

    def to_dict(self) -> Dict:
        return {"cycles": self.cycles, "steps": [list(s) for s in self.steps]}

    @classmethod
    def from_dict(cls, body: Dict) -> "CordicCapture":
        return cls(
            cycles=int(body["cycles"]),
            steps=tuple(tuple(int(x) for x in s) for s in body["steps"]),
        )


@dataclass(frozen=True)
class HealthCapture:
    """The supervisor's verdict, as served with the measurement."""

    status: str
    flags: Tuple[str, ...]
    fallback: Optional[str]
    quadrant_ambiguity: bool
    stale_measurements: int
    staleness_s: float

    @classmethod
    def from_report(cls, report) -> "HealthCapture":
        return cls(
            status=report.status,
            flags=tuple(report.flags),
            fallback=report.fallback,
            quadrant_ambiguity=report.quadrant_ambiguity,
            stale_measurements=report.stale_measurements,
            staleness_s=report.staleness_s,
        )

    def to_dict(self) -> Dict:
        body = dataclasses.asdict(self)
        body["flags"] = list(self.flags)
        return body

    @classmethod
    def from_dict(cls, body: Dict) -> "HealthCapture":
        return cls(
            status=str(body["status"]),
            flags=tuple(body["flags"]),
            fallback=body["fallback"],
            quadrant_ambiguity=bool(body["quadrant_ambiguity"]),
            stale_measurements=int(body["stale_measurements"]),
            staleness_s=float(body["staleness_s"]),
        )


@dataclass(frozen=True)
class MeasurementRecord:
    """One measurement, captured at every stage boundary.

    ``kind == "measured"`` records carry the full chain and can be
    replayed through the digital back-end; ``kind == "fallback"``
    records (stale serve, single-axis degradation) carry whatever
    channels were observed plus the *served* measurement, and are
    compared on their final fields only.
    """

    seq: int
    path: str
    kind: str
    h_x: Optional[float]
    h_y: Optional[float]
    window: Tuple[float, float]
    channels: Dict[str, ChannelCapture]
    counter: Dict[str, CounterCapture] = field(default_factory=dict)
    cordic: Optional[CordicCapture] = None
    heading_deg: float = 0.0
    field_estimate_a_per_m: float = 0.0
    health: Optional[HealthCapture] = None

    def to_dict(self) -> Dict:
        return {
            "seq": self.seq,
            "path": self.path,
            "kind": self.kind,
            "h_x": self.h_x,
            "h_y": self.h_y,
            "window": list(self.window),
            "channels": {
                name: capture.to_dict()
                for name, capture in sorted(self.channels.items())
            },
            "counter": {
                name: capture.to_dict()
                for name, capture in sorted(self.counter.items())
            },
            "cordic": None if self.cordic is None else self.cordic.to_dict(),
            "heading_deg": self.heading_deg,
            "field_estimate_a_per_m": self.field_estimate_a_per_m,
            "health": None if self.health is None else self.health.to_dict(),
        }

    @classmethod
    def from_dict(cls, body: Dict) -> "MeasurementRecord":
        try:
            return cls(
                seq=int(body["seq"]),
                path=str(body["path"]),
                kind=str(body["kind"]),
                h_x=body["h_x"],
                h_y=body["h_y"],
                window=(float(body["window"][0]), float(body["window"][1])),
                channels={
                    name: ChannelCapture.from_dict(capture)
                    for name, capture in body["channels"].items()
                },
                counter={
                    name: CounterCapture.from_dict(capture)
                    for name, capture in body["counter"].items()
                },
                cordic=(
                    None if body["cordic"] is None
                    else CordicCapture.from_dict(body["cordic"])
                ),
                heading_deg=float(body["heading_deg"]),
                field_estimate_a_per_m=float(body["field_estimate_a_per_m"]),
                health=(
                    None if body["health"] is None
                    else HealthCapture.from_dict(body["health"])
                ),
            )
        except (KeyError, TypeError, IndexError) as exc:
            raise ReplayError(
                f"replay-log record is structurally invalid: {exc!r}"
            ) from exc


def true_heading_from_components(h_x: float, h_y: float) -> float:
    """Invert the sensor-pair geometry: axis fields → true heading [deg].

    With the conventions of :mod:`repro.sensors.pair` (``h_x ∝
    cos(heading)``, ``h_y ∝ −sin(heading)``) the truth behind a recorded
    input pair is ``atan2(−h_y, h_x)`` — lets the conformance runner
    re-derive sweep truths from a log without a side channel.
    """
    if h_x == 0.0 and h_y == 0.0:
        raise ReplayError("cannot derive a heading from a zero field record")
    return heading_from_components_deg(h_x, h_y)


__all__ = [
    "FORMAT_VERSION",
    "KIND_FALLBACK",
    "KIND_MEASURED",
    "MAGIC",
    "ChannelCapture",
    "CordicCapture",
    "CounterCapture",
    "HealthCapture",
    "LogHeader",
    "MeasurementRecord",
    "STAGE_CORDIC",
    "STAGE_COUNTER",
    "STAGE_FIELD",
    "STAGE_HEADING",
    "STAGE_HEALTH",
    "STAGE_INPUTS",
    "STAGE_PULSE",
    "config_fingerprint",
    "decode_line",
    "encode_line",
    "true_heading_from_components",
]
