"""Runtime health supervision — the compass watches its own vital signs.

The paper ships boundary-scan structures [Oli96] precisely because a
single stuck pad or dead coil must be *detectable*, not silently wrong.
That philosophy is extended here from production test into runtime: a
:class:`HealthSupervisor` sits inside :class:`~repro.core.compass.
IntegratedCompass` and vets every measurement with plausibility checks
that only use information the silicon already has:

* **tick-count window** — the counter must report the number of clock
  ticks the schedule promised (§4's synchronous window release);
* **count/duty cross-consistency** — the up-down count must agree with
  the analogue duty cycle seen at the detector (``count ≈ n·(2·D − 1)``,
  the §5 identity) up to clock quantisation; a stuck counter bit breaks
  this identity while leaving both halves individually plausible;
* **pulse activity** — one set and one reset event per excitation period
  inside the counting window (§3.2); a stuck comparator or a collapsing
  pulse pair starves one stream;
* **CORDIC ROM integrity** — the arctangent ROM is compared against the
  golden ``atan(2^-i)`` table captured at build time, the classic ROM
  signature BIST;
* **field plausibility** — |B| must fall inside the worldwide 25…65 µT
  band of §1 (with margin for latitude); far outside means a magnet, a
  shield, or a broken channel.  Just above the band the heading is
  already past its 1° rating, so that is flagged too.

On a hard violation the supervisor raises
:class:`~repro.errors.FaultError` (strict mode) or falls back to the
last-known-good heading with staleness metadata (degrade mode).  When a
single channel dies the compass can degrade to a one-axis heading with
an explicit quadrant-ambiguity flag.  The clean path is untouched: with
all checks passing the measurement is bit-identical to an unsupervised
one, carrying only an ``ok`` health report.
"""

from __future__ import annotations

import dataclasses
import math
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from ..analog.pulse_detector import DetectorOutput, read_rows
from ..digital.atan_rom import build_rom
from ..errors import DegradedOperationError, FaultError, ProtocolError
from ..observe import M_HEALTH_CHECKS, M_HEALTH_FALLBACKS
from ..units import (
    EARTH_FIELD_MAX_T,
    EARTH_FIELD_MIN_T,
    MU_0,
    angular_difference_deg,
    field_from_count,
    wrap_degrees,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..digital.backend import BackEndResult
    from .compass import IntegratedCompass
    from .heading import HeadingMeasurement

#: Relative headroom above ``max_field_t`` before a field estimate leaves
#: the range the 1° rating covers.  Above it the pulse pair runs short of
#: excitation headroom: a 20 % excitation-turn loss reads a 60 µT field
#: as ≥70 µT with the heading >1° off.  The clean estimate at 65 µT
#: spreads by ~0.4 % rms under the 1997 CMOS noise budget, so 5 % never
#: flags an in-band reading.
RATED_FIELD_MARGIN = 0.05


@dataclass(frozen=True)
class HealthConfig:
    """Supervisor configuration knobs.

    Only ``enabled``, ``degrade`` and ``watchdog_periods`` are settable;
    the rest is the paper's fixed design point (``init=False``).

    Attributes
    ----------
    enabled:
        Master switch.  Disabled, the compass behaves exactly as before
        this subsystem existed (no checks, ``measurement.health is
        None``).
    degrade:
        ``False`` (strict): any hard check failure raises
        :class:`~repro.errors.FaultError`.  ``True``: the supervisor
        degrades gracefully — last-known-good fallback on check
        failures, single-axis fallback when one channel dies — and only
        raises :class:`~repro.errors.DegradedOperationError` when no
        fallback exists.
    min_field_t, max_field_t:
        The §1 worldwide horizontal-field band [T].
    band_margin:
        Relative margin on the band before a measurement is *flagged*
        (soft limits 12.5 µT and 97.5 µT; the lower one is also
        :mod:`repro.core.anomaly`'s floor, whose ceiling is 84.5 µT).
    hard_band_factor:
        Factor beyond the soft *upper* limit at which the field estimate
        stops being a flag and becomes a hard fault (a broken channel,
        not an odd location).  There is no hard lower limit: horizontal
        fields legitimately collapse near the geomagnetic poles, and the
        unusable end of that regime is policed by the back-end's
        minimum-count threshold instead.
    tick_window_tolerance:
        Allowed deviation [ticks] between the counter's reported window
        length and the scheduled one.
    duty_margin_ticks:
        Extra allowance in the count/duty cross-check on top of the
        per-edge quantisation bound.
    edge_tolerance:
        Allowed deviation of set/reset events per counting window from
        the one-per-period expectation.
    watchdog_periods:
        Maximum excitation periods a single channel measurement may
        span before the watchdog aborts with
        :class:`~repro.errors.ProtocolError` (§4: the silicon's control
        logic bounds every measurement).
    """

    enabled: bool = True
    degrade: bool = False
    min_field_t: float = field(default=EARTH_FIELD_MIN_T, init=False)
    max_field_t: float = field(default=EARTH_FIELD_MAX_T, init=False)
    band_margin: float = field(default=0.5, init=False)
    hard_band_factor: float = field(default=2.0, init=False)
    tick_window_tolerance: int = field(default=2, init=False)
    duty_margin_ticks: int = field(default=4, init=False)
    edge_tolerance: int = field(default=2, init=False)
    watchdog_periods: int = 64

    @property
    def soft_min_t(self) -> float:
        return self.min_field_t * (1.0 - self.band_margin)

    @property
    def soft_max_t(self) -> float:
        return self.max_field_t * (1.0 + self.band_margin)

    @property
    def rated_max_t(self) -> float:
        """Top of the field range the 1° rating covers [T]."""
        return self.max_field_t * (1.0 + RATED_FIELD_MARGIN)


@dataclass(frozen=True)
class HealthReport:
    """Health verdict attached to one :class:`HeadingMeasurement`.

    Attributes
    ----------
    status:
        ``"ok"`` — every check passed; the heading is fully trusted.
        ``"degraded"`` — the heading is usable but flagged: produced by
        a fallback path or carrying a plausibility warning.
    flags:
        Human-readable reasons, empty when ok.
    fallback:
        ``None`` for a normally-computed heading, else the degradation
        path used: ``"last-known-good"``, ``"single-axis-x"`` or
        ``"single-axis-y"``.
    quadrant_ambiguity:
        True when the heading came from one axis only and the sign of
        the missing axis could not be observed — the reported heading
        and its mirror are equally consistent with the data.
    stale_measurements:
        Measurements elapsed since the last fully-good heading.
    staleness_s:
        The same staleness in seconds of measurement time.
    """

    status: str
    flags: Tuple[str, ...] = ()
    fallback: Optional[str] = None
    quadrant_ambiguity: bool = False
    stale_measurements: int = 0
    staleness_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def degraded(self) -> bool:
        return self.status == "degraded"


#: The report attached to every measurement that passes all checks.  A
#: shared constant so clean-path measurements from any code path compare
#: equal.
HEALTHY = HealthReport(status="ok")

#: One row's review outcome: its health report, or the message of the
#: :class:`~repro.errors.FaultError` a hard violation raises.  The fault
#: is built when the row is served, so no frame that stored it is on
#: its traceback.
Verdict = Union[HealthReport, str]

#: The checks of one review, in the order they run (tick window, count
#: against duty cycle and pulse activity once per channel).
CHECKS = (
    "tick-window",
    "tick-window",
    "count-duty",
    "count-duty",
    "pulse-activity",
    "pulse-activity",
    "rom-bist",
    "field-band",
)


def _edges_in_window(
    detector: DetectorOutput, window: Tuple[float, float]
) -> Tuple[int, int]:
    """(set events, reset events) strictly inside ``window``: one row of
    the tally :meth:`HealthSupervisor.review` reads for every row."""
    sets, resets = detector.block.tally((window[0], window[1]))
    return int(sets[detector.row]), int(resets[detector.row])


class HealthSupervisor:
    """Per-measurement plausibility checks, watchdog and degradation.

    One supervisor belongs to one :class:`IntegratedCompass` and is
    shared by the scalar and batch measurement paths (both assemble
    results through ``IntegratedCompass.assemble_measurement``), so a
    fault is caught identically whichever engine drove the front-end.
    """

    def __init__(self, compass: "IntegratedCompass", config: HealthConfig):
        self.config = config
        # A weak reference: a strong one would make every compass a
        # reference cycle, so a dropped compass and all it holds (front
        # end, back end, observer) would wait for the cyclic garbage
        # collector instead of being freed with its last reference.
        self._compass = weakref.proxy(compass)
        # Golden ROM signature, captured at build time like a BIST
        # reference: a later bit-flip in the live ROM cannot also flip
        # the reference.
        cordic = compass.back_end.cordic
        self._rom_golden = build_rom(cordic.iterations, cordic.angle_frac_bits)
        self._last_good: Optional["HeadingMeasurement"] = None
        self._stale_measurements = 0

    # -- bookkeeping -----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    def reset(self) -> None:
        """Forget the last-known-good history (e.g. after relocation)."""
        self._last_good = None
        self._stale_measurements = 0

    def _count_fallback(self, kind: str) -> None:
        metrics = self._compass.observer.metrics
        if metrics is not None:
            metrics.counter(
                M_HEALTH_FALLBACKS,
                "degraded headings served, by fallback path",
                ("kind",),
            ).inc(kind=kind)

    def observe(self, measurement: "HeadingMeasurement") -> None:
        """Update the last-known-good record after a measurement.

        Only clean measurements refresh the record; the stale-serve
        counter is advanced by :meth:`stale_fallback` itself (counting
        here too would double-book every served fallback).

        Any *freshly computed* measurement — fallback ``None``, even if
        flagged — ends the stale-serve streak: the instrument is
        measuring again, so a later fallback must not resume the old
        count as if the recovery never happened.  Flagged readings still
        do not become the last-known-good reference.
        """
        health = measurement.health
        if health is None or health.ok:
            self._last_good = measurement
            self._stale_measurements = 0
        elif health.fallback is None:
            self._stale_measurements = 0

    # -- watchdog --------------------------------------------------------------

    def watchdog_guard(self, n_periods: int) -> None:
        """Abort measurements whose schedule exceeds the watchdog budget.

        The silicon's control logic (§4) bounds every measurement to a
        fixed number of excitation periods; a runaway schedule would
        stall the display and drain the battery, so it is refused
        up-front with :class:`ProtocolError`.
        """
        if not self.enabled:
            return
        if n_periods > self.config.watchdog_periods:
            raise ProtocolError(
                f"measurement watchdog: channel slot spans {n_periods} "
                f"excitation periods, above the "
                f"{self.config.watchdog_periods}-period budget"
            )

    # -- per-measurement review ------------------------------------------------

    def review(
        self,
        results: Sequence["BackEndResult"],
        detectors_x: Sequence[DetectorOutput],
        detectors_y: Sequence[DetectorOutput],
        count_window: Tuple[float, float],
        field_estimates: Sequence[float],
    ) -> List[Verdict]:
        """Run every plausibility check against each row of one call.

        Returns one verdict per row, in row order: :data:`HEALTHY` when
        all checks pass, a degraded report carrying flags for soft
        violations, or, on a hard violation, the message of the
        :class:`FaultError` it raises (the caller hands it to
        :meth:`stale_fallback`).  The review stops after a fault that
        ends the call: any fault in strict mode, or in degrade mode one
        with no good heading before it to fall back on.

        The window, the ROM signature and the thresholds are the same
        for every row, so they are evaluated once; each row's duty
        cycle and set/reset tally come from its detector's block.
        """
        cfg = self.config
        compass = self._compass
        rows = len(results)
        t0, t1 = count_window
        window = (t0, t1)
        # 1. tick-count window: the counter's reported window length must
        #    match the schedule.
        expected_ticks = (t1 - t0) * compass.back_end.counter.config.clock_hz
        tick_slack = cfg.tick_window_tolerance + 1.0
        # 2.-3. each row's (duty cycle, set events, reset events).
        def counting_window(block):
            return list(zip(block.duty(window), *block.tally(window)))

        channels = (
            ("x", read_rows(detectors_x[:rows], counting_window)),
            ("y", read_rows(detectors_y[:rows], counting_window)),
        )
        expected_events = compass.config.schedule.count_periods
        # 4. CORDIC ROM integrity (ROM signature BIST).
        rom_intact = tuple(compass.back_end.cordic.rom) == self._rom_golden
        # 5. field plausibility: |B| inside the worldwide band (§1).
        soft_min, soft_max, rated_max = cfg.soft_min_t, cfg.soft_max_t, cfg.rated_max_t
        hard_max = soft_max * cfg.hard_band_factor

        def hard_checks(row: int, result: "BackEndResult", field_t: float):
            """(checks passed, fault message or None) of one row."""
            passed = 0
            for channel, count_result in (
                ("x", result.x_result),
                ("y", result.y_result),
            ):
                if abs(count_result.total_ticks - expected_ticks) > tick_slack:
                    return passed, (
                        f"health check: channel {channel} counted "
                        f"{count_result.total_ticks} ticks where the schedule "
                        f"promised {expected_ticks:.0f} ± "
                        f"{cfg.tick_window_tolerance}"
                    )
                passed += 1
            # 2. count/duty cross-consistency: the digital count must
            #    agree with the analogue duty cycle up to clock
            #    quantisation.
            for (channel, values), count_result in zip(
                channels, (result.x_result, result.y_result)
            ):
                duty, sets, resets = values[row]
                expected_count = count_result.total_ticks * (2.0 * duty - 1.0)
                tolerance = (sets + resets + 2) + cfg.duty_margin_ticks
                if abs(count_result.count - expected_count) > tolerance:
                    return passed, (
                        f"health check: channel {channel} count "
                        f"{count_result.count} disagrees with the detector duty "
                        f"cycle (expected {expected_count:.0f} ± {tolerance}); "
                        "counter datapath fault suspected"
                    )
                passed += 1
            # 3. pulse activity: one set and one reset per excitation period.
            for channel, values in channels:
                _, sets, resets = values[row]
                if (
                    abs(sets - expected_events) > cfg.edge_tolerance
                    or abs(resets - expected_events) > cfg.edge_tolerance
                ):
                    return passed, (
                        f"health check: channel {channel} pulse activity "
                        f"({sets} set / {resets} reset events) deviates "
                        f"from the {expected_events}-per-window expectation; "
                        "stuck comparator or collapsing pulse pair suspected"
                    )
                passed += 1
            if not rom_intact:
                return passed, (
                    "health check: CORDIC arctangent ROM differs from the "
                    "golden atan(2^-i) table; ROM corruption detected"
                )
            passed += 1
            # Only an impossibly *large* estimate is a hard fault: nothing
            # but a gain/datapath fault can make the instrument read far
            # above the strongest horizontal field on Earth.  A *weak*
            # estimate is merely flagged — near the geomagnetic poles the
            # horizontal component legitimately collapses, and the
            # unusable end of that regime is already policed by the
            # back-end's minimum-count trust threshold.
            if field_t > hard_max:
                return passed, (
                    f"health check: field estimate {field_t * 1e6:.1f} µT is "
                    f"far above the plausible {hard_max * 1e6:.1f} µT ceiling; "
                    "channel gain fault suspected"
                )
            return passed, None

        metrics = compass.observer.metrics
        verdicts: List[Verdict] = []
        good = self._last_good is not None
        for row, (result, field_estimate) in enumerate(zip(results, field_estimates)):
            field_t = field_estimate * MU_0
            passed, verdict = hard_checks(row, result, field_t)
            outcome = "fault"
            if verdict is None:
                flag = None
                if field_t < soft_min:
                    flag = (
                        f"field-out-of-band: {field_t * 1e6:.1f} µT below "
                        f"{soft_min * 1e6:.1f} µT (shielding or gain drift)"
                    )
                elif field_t > soft_max:
                    flag = (
                        f"field-out-of-band: {field_t * 1e6:.1f} µT above "
                        f"{soft_max * 1e6:.1f} µT (magnetised object or "
                        "gain drift)"
                    )
                elif field_t > rated_max:
                    flag = (
                        f"field-above-rating: {field_t * 1e6:.1f} µT above the "
                        f"{rated_max * 1e6:.1f} µT the 1° rating covers "
                        "(magnetised object or excitation drive loss)"
                    )
                if flag is None:
                    verdict, outcome, good = HEALTHY, "ok", True
                else:
                    verdict = HealthReport(status="degraded", flags=(flag,))
                    outcome = "flag"
            verdicts.append(verdict)
            if metrics is not None:
                # Every check up to the last one evaluated passed.
                checks = metrics.counter(
                    M_HEALTH_CHECKS,
                    "health-check evaluations, by check and outcome",
                    ("check", "outcome"),
                )
                for check in CHECKS[:passed]:
                    checks.inc(check=check, outcome="ok")
                checks.inc(check=CHECKS[passed], outcome=outcome)
            if outcome == "fault" and (not cfg.degrade or not good):
                break
        return verdicts

    # -- degradation paths -----------------------------------------------------

    def stale_fallback(self, fault: str) -> "HeadingMeasurement":
        """Last-known-good fallback after a hard check failure.

        ``fault`` is the failed check's message.  Strict mode (or no
        history) raises the :class:`FaultError`; degrade mode returns
        the last good measurement re-flagged with staleness metadata.
        """
        if not self.config.degrade:
            raise FaultError(fault)
        if self._last_good is None:
            raise DegradedOperationError(
                "health check failed and no last-known-good heading exists "
                f"to fall back on: {fault}"
            ) from FaultError(fault)
        self._stale_measurements += 1
        self._count_fallback("last-known-good")
        stale = self._stale_measurements
        report = HealthReport(
            status="degraded",
            flags=(f"health-check-failed: {fault}", "last-known-good"),
            fallback="last-known-good",
            stale_measurements=stale,
            staleness_s=stale * self._last_good.measurement_time_s,
        )
        return dataclasses.replace(self._last_good, health=report)

    def single_axis_fallback(
        self,
        channel: str,
        detector: DetectorOutput,
        count_window: Tuple[float, float],
        cause: Exception,
    ) -> "HeadingMeasurement":
        """One-axis heading after the other channel failed.

        A single fluxgate measures one field projection; assuming the
        horizontal magnitude (last-known-good estimate, else the §1 band
        midpoint) the heading is recovered up to a mirror ambiguity,
        which is surfaced via ``quadrant_ambiguity`` — exactly what a
        redundant-sensor tracker does when an element drops out.
        """
        from .heading import HeadingMeasurement

        if not self.config.degrade:
            # Strict mode: the channel failure propagates.  The
            # traceback holds this frame, so drop its reference to the
            # exception, or the pair waits for the cyclic collector.
            try:
                raise cause
            finally:
                del cause
        compass = self._compass
        counter = compass.back_end.counter
        counter.enable()
        try:
            count_result = counter.count_window(detector, count_window)
        finally:
            counter.disable()

        if count_result.total_ticks == 0:
            raise DegradedOperationError(
                f"single-axis fallback on channel {channel} impossible: "
                "zero counter ticks"
            ) from cause
        h_axis = field_from_count(
            count_result.count,
            count_result.total_ticks,
            compass.config.sensor.excitation_coil_constant,
            compass.config.front_end.excitation.current_amplitude,
        )
        if self._last_good is not None:
            h_ref = self._last_good.field_estimate_a_per_m
        else:
            h_ref = (
                0.5 * (self.config.min_field_t + self.config.max_field_t) / MU_0
            )
        if h_ref <= 0.0:
            raise DegradedOperationError(
                "single-axis fallback impossible: no usable field magnitude "
                "reference"
            ) from cause
        ratio = max(-1.0, min(1.0, h_axis / h_ref))
        if channel == "x":
            # h_x = H·cos ψ  →  ψ = ±acos(h_x / H)
            base = math.degrees(math.acos(ratio))
            candidates = (base, -base)
        else:
            # h_y = −H·sin ψ  →  ψ = asin(−h_y / H) or its supplement
            base = math.degrees(math.asin(-ratio))
            candidates = (base, 180.0 - base)
        if self._last_good is not None:
            heading = min(
                candidates,
                key=lambda c: abs(
                    angular_difference_deg(c, self._last_good.heading_deg)
                ),
            )
        else:
            heading = candidates[0]

        dead = "y" if channel == "x" else "x"
        self._count_fallback(f"single-axis-{channel}")
        self._stale_measurements += 1
        stale = self._stale_measurements
        report = HealthReport(
            status="degraded",
            flags=(
                f"channel-{dead}-failed: {type(cause).__name__}: {cause}",
                f"single-axis-fallback-{channel}",
            ),
            fallback=f"single-axis-{channel}",
            quadrant_ambiguity=True,
            stale_measurements=stale,
            staleness_s=stale
            * compass.back_end.controller.measurement_duration(),
        )
        duty = detector.duty_cycle()
        return HeadingMeasurement(
            heading_deg=wrap_degrees(heading),
            x_count=count_result.count if channel == "x" else 0,
            y_count=count_result.count if channel == "y" else 0,
            duty_x=duty if channel == "x" else 0.0,
            duty_y=duty if channel == "y" else 0.0,
            measurement_time_s=compass.back_end.controller.measurement_duration(),
            cordic_cycles=0,
            field_estimate_a_per_m=abs(h_axis),
            health=report,
        )
