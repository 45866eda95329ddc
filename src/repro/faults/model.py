"""The fault model: a registry of parameterized, injectable faults.

Every fault is a *reversible patch* of live component instances of an
:class:`~repro.core.compass.IntegratedCompass` (or a
:class:`~repro.btest.interconnect.SubstrateHarness` for scan-chain
faults): injection sets instance attributes inside a context manager
and restores them on exit, so a campaign can never leak a fault into
the next cell.

A measurement fault patches a *value* wherever the signal chain reads
one: a sensor's frozen ``params``, the CORDIC ``rom``, and the three
values the analog kernels keep for faults —
``FluxgateSensor.pickup_scales`` (shorted pickup turns, axis gain loss),
``PickupAmplifier.output_offset`` (amplifier offset) and
``Comparator.stuck`` (stuck comparator).  The stepped kernels apply them
where the physical fault acts, and the certified fast path reads the
same values, so a faulted channel stays on the closed form unless the
fault leaves its validity envelope (``docs/fastpath.md`` §3).  Only the
counter stuck bit (past the edge stream) and the scan faults wrap a
method.

Each :class:`FaultSpec` declares:

* the **layer** it lives in (sensor / analog / digital / scan /
  environment),
* the **severities** the campaign sweeps (semantics documented per
  fault — a fraction of signal lost, an input-referred offset in volts,
  a bit index),
* the **expected outcome class** per severity (``"detected"``,
  ``"degraded"``, ``"benign"``, or alternatives joined with ``"|"``)
  — the contract ``tests/test_failure_injection.py`` enforces for every
  registered fault, so a new fault cannot ship without a
  detection/degradation test.

Physical honesty note: some faults have a genuinely undetectable window
from a single two-axis measurement (a per-axis gain drift between a few
percent and the pulse-loss threshold mimics a slightly rotated field).
The registry pins severities on the *documented* sides of such windows;
``docs/fault_model.md`` tabulates the windows themselves.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
from dataclasses import dataclass
from typing import (
    Callable,
    ContextManager,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..analog.frontend import ArmedFaults
from ..core.compass import IntegratedCompass
from ..digital.fixed_point import wrap_signed
from ..errors import ConfigurationError

#: Outcome-class tokens a spec may expect (``"|"``-joined alternatives).
OUTCOME_TOKENS = ("detected", "degraded", "benign")

#: Factory-stage tokens a spec may claim as its expected detector
#: (see :mod:`repro.factory`): interconnect boundary scan, power-on
#: BIST, the field calibration sweep, the environment screen (a short
#: :mod:`repro.scenario` run over temperature/tilt points), or the
#: array layer's own screening/vote/gradiometer machinery
#: (:mod:`repro.array` — array faults are caught in service, not on a
#: factory stage).
DETECTOR_STAGES = ("btest", "bist", "calibration", "env", "array")

#: An injector: (target, severity) -> context manager applying the fault.
Injector = Callable[[object, float], ContextManager[None]]


@dataclass(frozen=True)
class FaultSpec:
    """One registered fault.

    Attributes
    ----------
    name:
        Registry key, ``<layer>.<fault>``.
    layer:
        ``"sensor"``, ``"analog"``, ``"digital"``, ``"scan"``,
        ``"environment"`` or ``"array"``.
    description:
        What physically broke.
    severity_meaning:
        Units/semantics of the severity parameter.
    severities:
        The severity grid the campaign sweeps.
    expected:
        Expected outcome class per severity (aligned with
        ``severities``); each entry is an outcome token or several
        joined with ``"|"``.  ``"silent-wrong"`` is deliberately not a
        valid token: no registered fault may expect to go unnoticed.
    probe:
        ``"measurement"`` — inject into a compass and measure;
        ``"scan"`` — inject into a boundary-scan harness and diagnose;
        ``"scenario"`` — inject into a
        :class:`~repro.scenario.ScenarioRunner` and run a mission;
        ``"array"`` — inject into an
        :class:`~repro.array.ArrayCompass` and measure the fused
        heading over the heading grid.
    expected_detector:
        The factory test stage (``"btest"``, ``"bist"``,
        ``"calibration"`` or ``"env"``) that must catch this fault at
        :attr:`detector_severity` — the machine-readable stage hint the
        production line's accounting and the registry-parametrized
        detection test key on.  Scan faults are interconnect-test
        business; most measurement faults trip the strict supervisor at
        power-on BIST; faults whose BIST-heading response is masked
        (e.g. a mid-bit counter stuck-at that needs a positive count to
        sensitise) are calibration catches.
    """

    name: str
    layer: str
    description: str
    severity_meaning: str
    severities: Tuple[float, ...]
    expected: Tuple[str, ...]
    probe: str = "measurement"
    expected_detector: str = "bist"

    def __post_init__(self) -> None:
        if self.layer not in (
            "sensor", "analog", "digital", "scan", "environment", "array"
        ):
            raise ConfigurationError(f"unknown fault layer {self.layer!r}")
        if self.probe not in ("measurement", "scan", "scenario", "array"):
            raise ConfigurationError(f"unknown probe kind {self.probe!r}")
        if len(self.severities) == 0:
            raise ConfigurationError(f"{self.name}: need at least one severity")
        if len(self.expected) != len(self.severities):
            raise ConfigurationError(
                f"{self.name}: expected outcomes must align with severities"
            )
        for entry in self.expected:
            for token in entry.split("|"):
                if token not in OUTCOME_TOKENS:
                    raise ConfigurationError(
                        f"{self.name}: invalid expected outcome {token!r}"
                    )
        if self.expected_detector not in DETECTOR_STAGES:
            raise ConfigurationError(
                f"{self.name}: invalid expected detector "
                f"{self.expected_detector!r}; use one of {DETECTOR_STAGES}"
            )

    def allowed_outcomes(self, severity: float) -> Tuple[str, ...]:
        """The outcome classes this spec accepts at a severity."""
        index = self.severities.index(severity)
        return tuple(self.expected[index].split("|"))

    @property
    def detector_severity(self) -> float:
        """The severity the :attr:`expected_detector` contract holds at.

        The highest registered severity: the grid is pinned with the
        hard end of each fault last, and that is the end a factory
        stage is required to catch.
        """
        return max(self.severities)


class FaultRegistry:
    """Name → (spec, injector) registry with context-managed injection."""

    def __init__(self) -> None:
        self._specs: Dict[str, FaultSpec] = {}
        self._injectors: Dict[str, Injector] = {}

    def register(self, spec: FaultSpec, injector: Injector) -> None:
        if spec.name in self._specs:
            raise ConfigurationError(f"fault {spec.name!r} already registered")
        self._specs[spec.name] = spec
        self._injectors[spec.name] = injector

    def names(self) -> List[str]:
        return sorted(self._specs)

    def get(self, name: str) -> FaultSpec:
        if name not in self._specs:
            known = ", ".join(self.names()) or "<none>"
            raise ConfigurationError(f"no fault {name!r}; registered: {known}")
        return self._specs[name]

    def specs(self) -> List[FaultSpec]:
        return [self._specs[name] for name in self.names()]

    def select(
        self, probe: str, names: Optional[Sequence[str]] = None
    ) -> List[str]:
        """Fault names of one probe kind: every registered one by
        default, else ``names`` once each is checked to be of that kind."""
        if names is None:
            return [spec.name for spec in self.specs() if spec.probe == probe]
        for name in names:
            if self.get(name).probe != probe:
                raise ConfigurationError(
                    f"fault {name!r} is not a {probe}-probe fault"
                )
        return list(names)

    def inject(
        self, name: str, target: object, severity: float
    ) -> ContextManager[None]:
        """Context manager applying fault ``name`` to a live target.

        The fault is armed through :func:`arming`, so while it is live
        every attribute it patches is counted on the target's armed
        record (a compass's :attr:`~IntegratedCompass.armed_faults`).
        """
        self.get(name)  # raise on unknown names
        return arming(target, self._injectors[name](target, severity))

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs


#: The process-wide registry all built-in faults land in.
REGISTRY = FaultRegistry()


def registered_faults() -> List[FaultSpec]:
    """All registered fault specs, name-sorted (test parametrization hook)."""
    return REGISTRY.specs()


# -- injection helpers ---------------------------------------------------------


#: The armed record the fault being armed reports into, if any.
_ARMING: contextvars.ContextVar[Optional[ArmedFaults]] = contextvars.ContextVar(
    "arming", default=None
)


@contextlib.contextmanager
def arming(target: object, fault: ContextManager[None]) -> Iterator[None]:
    """Enter ``fault`` as a fault armed on ``target``.

    Every :func:`_patched` the fault enters while it arms is counted on
    ``target``'s armed record (its ``armed_faults``, when it has one)
    until that patch exits, by exception too.  This is how a fault says
    that it is armed: the fast path and the excitation-trace cache read
    the record instead of inspecting the target.  A test double arms
    itself the same way: ``arming(compass, _patched(obj, name, value))``.
    """
    with contextlib.ExitStack() as stack:
        token = _ARMING.set(getattr(target, "armed_faults", None))
        try:
            stack.enter_context(fault)
        finally:
            _ARMING.reset(token)
        yield


@contextlib.contextmanager
def _patched(obj: object, attribute: str, value: object) -> Iterator[None]:
    """Set an instance attribute, restoring the previous state on exit.

    Entered while a fault arms (:func:`arming`), the patch is counted on
    the armed record for as long as it is in place.
    """
    record = _ARMING.get()
    sentinel = object()
    previous = obj.__dict__.get(attribute, sentinel)
    setattr(obj, attribute, value)
    if record is not None:
        record.arm(obj, attribute, value)
    try:
        yield
    finally:
        if previous is sentinel:
            try:
                delattr(obj, attribute)
            except AttributeError:
                pass
        else:
            setattr(obj, attribute, previous)
        if record is not None:
            record.disarm(obj, attribute, value)


def _scale_sensor_pickup(sensor: object, scale: float) -> ContextManager[None]:
    """Scale one sensor's pickup voltage on the measurement path.

    The factor joins the sensor's ``pickup_scales``, which
    ``simulate_batch`` multiplies in after the factors armed before it
    (every measurement, hysteretic cores included, takes its pickup
    there); ``simulate`` stays the unfaulted waveform probe.
    """
    return _patched(sensor, "pickup_scales", sensor.pickup_scales + (scale,))


# -- sensor-layer faults -------------------------------------------------------


@contextlib.contextmanager
def _inject_open_excitation_coil(
    compass: IntegratedCompass, severity: float
) -> Iterator[None]:
    """Open excitation coil on the x sensor: near-infinite DC resistance."""
    sensor = compass.sensors.sensor_x
    resistance = 800.0 + severity * 1.0e6  # far beyond the §3.1 compliance limit
    broken = dataclasses.replace(sensor.params, series_resistance=resistance)
    with _patched(sensor, "params", broken):
        yield


@contextlib.contextmanager
def _inject_shorted_pickup(
    compass: IntegratedCompass, severity: float
) -> Iterator[None]:
    """Shorted pickup turns on the x sensor: signal scaled by 1 − severity."""
    with _scale_sensor_pickup(compass.sensors.sensor_x, 1.0 - severity):
        yield


@contextlib.contextmanager
def _inject_saturation_loss(
    compass: IntegratedCompass, severity: float
) -> Iterator[None]:
    """Excitation drive sag on both sensors (shared oscillator weakens).

    Severity is the fraction of excitation coil turns lost; past the
    point where the peak field drops below HK the cores stop saturating
    and the pulse pair disappears (§2.1.1's failure mode).
    """
    stack = contextlib.ExitStack()
    with stack:
        for sensor in (compass.sensors.sensor_x, compass.sensors.sensor_y):
            turns = max(1, int(round(sensor.params.excitation_turns * (1.0 - severity))))
            weakened = dataclasses.replace(sensor.params, excitation_turns=turns)
            stack.enter_context(_patched(sensor, "params", weakened))
        yield


@contextlib.contextmanager
def _inject_common_gain_drift(
    compass: IntegratedCompass, severity: float
) -> Iterator[None]:
    """Common-mode excitation-coil-constant drift on both sensors.

    Severity is the relative drift of ``N_exc/l`` (modelled via the path
    length so the turn count stays integral).  The heading is immune —
    only the count *ratio* enters the arctangent (§4) — but the field
    estimate drifts as 1/(1 + severity), which is what the supervisor's
    band check watches.
    """
    stack = contextlib.ExitStack()
    with stack:
        for sensor in (compass.sensors.sensor_x, compass.sensors.sensor_y):
            drifted = dataclasses.replace(
                sensor.params,
                path_length=sensor.params.path_length / (1.0 + severity),
            )
            stack.enter_context(_patched(sensor, "params", drifted))
        yield


@contextlib.contextmanager
def _inject_axis_gain_mismatch(
    compass: IntegratedCompass, severity: float
) -> Iterator[None]:
    """Pickup gain loss on the x axis only (severity = fraction lost)."""
    with _scale_sensor_pickup(compass.sensors.sensor_x, 1.0 - severity):
        yield


# -- analog-layer faults -------------------------------------------------------


@contextlib.contextmanager
def _inject_amplifier_offset(
    compass: IntegratedCompass, severity: float
) -> Iterator[None]:
    """Static input-referred offset [V] at the pickup amplifier."""
    amplifier = compass.front_end.amplifier
    offset_out = amplifier.output_offset + severity * amplifier.gain
    with _patched(amplifier, "output_offset", offset_out):
        yield


@contextlib.contextmanager
def _inject_stuck_comparator(
    compass: IntegratedCompass, severity: float
) -> Iterator[None]:
    """The positive comparator never releases: its edge stream is empty."""
    comparator = compass.front_end.detector.comparator_positive
    with _patched(comparator, "stuck", True):
        yield


# -- digital-layer faults ------------------------------------------------------


@contextlib.contextmanager
def _inject_counter_stuck_bit(
    compass: IntegratedCompass, severity: float
) -> Iterator[None]:
    """Stuck-at-1 bit in the up-down counter register (severity = bit index)."""
    bit = int(severity)
    counter = compass.back_end.counter
    width = counter.config.width_bits
    if not 0 <= bit < width:
        raise ConfigurationError(
            f"counter stuck-bit index {bit} outside the {width}-bit register"
        )
    original = counter.count_rows

    def stuck(result):
        raw = result.count & ((1 << width) - 1)  # two's complement view
        raw |= 1 << bit
        return dataclasses.replace(result, count=wrap_signed(raw, width))

    def count_rows(detectors, window=None):
        results, error = original(detectors, window)
        return [stuck(result) for result in results], error

    with _patched(counter, "count_rows", count_rows):
        yield


@contextlib.contextmanager
def _inject_cordic_rom_bitflip(
    compass: IntegratedCompass, severity: float
) -> Iterator[None]:
    """Single-event upset in the arctangent ROM (severity = bit index)."""
    bit = int(severity)
    cordic = compass.back_end.cordic
    rom = list(cordic.rom)
    rom[0] ^= 1 << bit
    with _patched(cordic, "rom", tuple(rom)):
        yield


# -- scan-chain faults ---------------------------------------------------------


@contextlib.contextmanager
def _inject_tap_tms_stuck(harness: object, severity: float) -> Iterator[None]:
    """The TAP's TMS pad is stuck (severity 0.0 → stuck-0, else stuck-1)."""
    level = 1 if severity >= 0.5 else 0
    port = harness.port
    original = port.clock

    def clock(tms: int, tdi: int = 0) -> int:
        return original(level, tdi)

    with _patched(port, "clock", clock):
        yield


@contextlib.contextmanager
def _inject_interconnect_stuck(harness: object, severity: float) -> Iterator[None]:
    """A substrate net stuck at 0/1 (severity 0.0 → stuck-0, else stuck-1)."""
    from ..btest.interconnect import FaultKind, InterconnectFault

    kind = FaultKind.STUCK_1 if severity >= 0.5 else FaultKind.STUCK_0
    harness.inject(InterconnectFault(kind, harness.net_names[0]))
    try:
        yield
    finally:
        harness.clear_faults()


# -- registration --------------------------------------------------------------

REGISTRY.register(
    FaultSpec(
        name="sensor.open_excitation_coil",
        layer="sensor",
        description="x-sensor excitation coil open (bond failure): DC "
        "resistance far above the 800 Ω compliance limit of §3.1",
        severity_meaning="added series resistance [MΩ]",
        severities=(1.0,),
        expected=("detected|degraded",),
    ),
    _inject_open_excitation_coil,
)

REGISTRY.register(
    FaultSpec(
        name="sensor.shorted_pickup_coil",
        layer="sensor",
        description="x-sensor pickup turns shorted: pulse amplitude scaled "
        "by 1 − severity",
        severity_meaning="fraction of pickup signal lost",
        severities=(0.3, 0.9, 1.0),
        expected=("benign", "detected|degraded", "detected|degraded"),
    ),
    _inject_shorted_pickup,
)

REGISTRY.register(
    FaultSpec(
        name="sensor.saturation_loss",
        layer="sensor",
        description="excitation drive sag on both sensors; past "
        "drive_ratio < 1 the cores stop saturating and produce no pulses "
        "(the §2.1.1 Kaw95 failure mode)",
        severity_meaning="fraction of excitation coil turns lost",
        severities=(0.2, 0.8),
        expected=("benign", "detected|degraded"),
    ),
    _inject_saturation_loss,
)

REGISTRY.register(
    FaultSpec(
        name="sensor.common_gain_drift",
        layer="sensor",
        description="common-mode excitation-coil-constant drift (ageing, "
        "temperature): heading immune (§4 ratio insensitivity), field "
        "estimate drifts out of the §1 band",
        severity_meaning="relative drift of the excitation coil constant",
        severities=(0.05, 4.0),
        expected=("benign", "degraded"),
    ),
    _inject_common_gain_drift,
)

REGISTRY.register(
    FaultSpec(
        name="sensor.axis_gain_mismatch",
        layer="sensor",
        description="pickup gain loss on the x axis only; small losses "
        "bend the heading within spec, large losses kill the channel "
        "(see docs/fault_model.md for the undetectable window in between)",
        severity_meaning="fraction of x-axis pickup signal lost",
        severities=(0.02, 0.9),
        expected=("benign", "detected|degraded"),
    ),
    _inject_axis_gain_mismatch,
)

REGISTRY.register(
    FaultSpec(
        name="analog.amplifier_offset",
        layer="analog",
        description="static input-referred offset at the pickup amplifier; "
        "an offset skews both comparator trip points the same way, which "
        "is indistinguishable from a shifted field (~0.07 deg/µV) until "
        "it pins a comparator — the classic reason fluxgate front-ends "
        "chop (see docs/fault_model.md)",
        severity_meaning="input-referred offset [V]",
        severities=(5e-6, 2e-3),
        expected=("benign", "detected|degraded"),
    ),
    _inject_amplifier_offset,
)

REGISTRY.register(
    FaultSpec(
        name="analog.stuck_comparator",
        layer="analog",
        description="positive-pulse comparator stuck: SR latch never sets, "
        "counts rail toward −full-scale on both channels",
        severity_meaning="unused (stuck is stuck)",
        severities=(1.0,),
        expected=("detected|degraded",),
    ),
    _inject_stuck_comparator,
)

REGISTRY.register(
    FaultSpec(
        name="digital.counter_stuck_bit",
        layer="digital",
        description="stuck-at-1 bit in the up-down counter register; high "
        "bits break the count/duty cross-consistency identity whenever the "
        "data sensitises them (a negative count already has its high bits "
        "set in two's complement — classic stuck-at sensitisation), the "
        "LSBs sit below clock quantisation",
        severity_meaning="stuck bit index",
        severities=(1.0, 12.0),
        expected=("benign", "detected|degraded|benign"),
        # A stuck bit 12 is masked at BIST's single fixture heading when
        # both counts are negative (the high bits are already 1 in two's
        # complement); the full-circle calibration sweep sensitises it.
        expected_detector="calibration",
    ),
    _inject_counter_stuck_bit,
)

REGISTRY.register(
    FaultSpec(
        name="digital.cordic_rom_bitflip",
        layer="digital",
        description="single-event upset in ROM word 0 of the arctangent "
        "table; caught by the supervisor's golden-signature comparison "
        "regardless of magnitude",
        severity_meaning="flipped bit index in ROM word 0",
        severities=(0.0, 9.0),
        expected=("detected|degraded", "detected|degraded"),
    ),
    _inject_cordic_rom_bitflip,
)

REGISTRY.register(
    FaultSpec(
        name="scan.tap_tms_stuck",
        layer="scan",
        description="TMS pad of the boundary-scan TAP stuck: the state "
        "machine cannot execute scans ([Oli96] pad fault)",
        severity_meaning="stuck level (0.0 → stuck-0, 1.0 → stuck-1)",
        severities=(0.0, 1.0),
        expected=("detected", "detected"),
        probe="scan",
        expected_detector="btest",
    ),
    _inject_tap_tms_stuck,
)

REGISTRY.register(
    FaultSpec(
        name="scan.interconnect_stuck_net",
        layer="scan",
        description="first substrate net stuck at a logic level; the "
        "modified counting sequence diagnoses it",
        severity_meaning="stuck level (0.0 → stuck-0, 1.0 → stuck-1)",
        severities=(0.0, 1.0),
        expected=("detected", "detected"),
        probe="scan",
        expected_detector="btest",
    ),
    _inject_interconnect_stuck,
)
