"""The integrated compass system — the paper's headline artefact (Figure 1).

:class:`IntegratedCompass` wires together every subsystem exactly as the
block diagram shows: the orthogonal fluxgate pair, the multiplexed
analogue front-end, and the digital back-end (counter → CORDIC → display,
plus the watch).  One call to :meth:`measure_heading` performs the full
closed loop the silicon performs: excite x, count, excite y, count,
compute the arctangent, update the display.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analog import fastpath
from ..analog.excitation import DEFAULT_TRACE_CACHE, ExcitationTraceCache
from ..analog.frontend import AnalogFrontEnd, ArmedFaults, FrontEndConfig
from ..analog.mux import MeasurementSchedule
from ..analog.pulse_detector import DetectorOutput, read_rows
from ..digital.backend import DigitalBackEnd
from ..digital.counter import CounterConfig
from ..digital.display import DisplayFrame, DisplayMode
from ..errors import ConfigurationError, DegradedOperationError, FaultError, ReproError
from ..observe import (
    FIELD_BUCKETS_UT,
    HEADING_BUCKETS,
    M_BATCH_CHUNKS,
    M_COUNTER_TICKS,
    M_FIELD,
    M_HEADING,
    M_MEASUREMENTS,
    MetricsRegistry,
    Observability,
    Observer,
    build_observer,
)
from ..observe.trace import (
    NULL_SPAN,
    STAGE_BATCH,
    STAGE_CHANNEL,
    STAGE_COMPARATOR,
    STAGE_EXCITATION,
    STAGE_FASTPATH,
    STAGE_MEASURE,
    STAGE_PICKUP,
)
from ..physics.earth_field import FieldVector
from ..sensors.fluxgate import FluxgateSensor
from ..sensors.pair import IDEAL_PAIR, OrthogonalSensorPair, PairImperfections
from ..sensors.parameters import FluxgateParameters, IDEAL_TARGET
from ..simulation.engine import TimeGrid
from ..units import CORDIC_ITERATIONS, field_from_count
from .heading import HeadingMeasurement
from .health import HealthConfig, HealthSupervisor

#: A shared solve memo (:meth:`IntegratedCompass.share_solves`): channel
#: → (the rows' field bytes, the certified detector outputs with ``None``
#: for each row the solve refused, the edges the certificate resolved).
SolveMemo = Dict[str, Tuple[bytes, Tuple[Optional[DetectorOutput], ...], int]]

#: Rows per numpy pass of the stepped chain.  Small chunks keep every
#: intermediate ``(chunk, n_samples)`` matrix inside the CPU caches (a
#: full 72 × 36864 float64 matrix is ~21 MB per temporary); 12 rows
#: (~3.5 MB at the default grid) is the measured sweet spot — both much
#: larger chunks and chunks of one are slower.
CHUNK_ROWS = 12


def _record_measurement(
    metrics: MetricsRegistry, measurement: HeadingMeasurement, path: str
) -> None:
    """Account one served measurement in the shared metrics registry."""
    health = measurement.health
    status = "degraded" if (health is not None and health.degraded) else "ok"
    metrics.counter(
        M_MEASUREMENTS,
        "heading measurements served, by path and health status",
        ("path", "status"),
    ).inc(path=path, status=status)
    metrics.histogram(
        M_HEADING,
        "measured headings [deg]",
        ("path",),
        buckets=HEADING_BUCKETS,
    ).observe(measurement.heading_deg, path=path)
    metrics.histogram(
        M_FIELD,
        "field-magnitude estimates [uT]",
        ("path",),
        buckets=FIELD_BUCKETS_UT,
    ).observe(measurement.field_estimate_tesla * 1e6, path=path)


@dataclass(frozen=True)
class CompassConfig:
    """Everything configurable about the compass in one record.

    The defaults reproduce the paper's design point: ideal-target sensors,
    tanh (ELDO-style) cores, 12 mA pp / 8 kHz excitation, an 8-period
    counting window per channel, a 16-bit counter at 4.194304 MHz and an
    8-iteration CORDIC.
    """

    sensor: FluxgateParameters = IDEAL_TARGET
    core_model: str = "tanh"
    imperfections: PairImperfections = IDEAL_PAIR
    front_end: FrontEndConfig = field(default_factory=FrontEndConfig)
    schedule: MeasurementSchedule = field(default_factory=MeasurementSchedule)
    counter: CounterConfig = field(default_factory=CounterConfig)
    cordic_iterations: int = CORDIC_ITERATIONS
    samples_per_period: int = TimeGrid.DEFAULT_SAMPLES_PER_PERIOD
    health: HealthConfig = field(default_factory=HealthConfig)
    observe: Observability = field(default_factory=Observability)


class IntegratedCompass:
    """The complete electronic compass of the paper.

    Parameters
    ----------
    config:
        See :class:`CompassConfig`; the default is the paper's design
        point.

    Examples
    --------
    >>> compass = IntegratedCompass()
    >>> m = compass.measure_heading(true_heading_deg=45.0)
    >>> round(m.heading_deg) in (44, 45, 46)
    True
    """

    def __init__(self, config: Optional[CompassConfig] = None):
        config = CompassConfig() if config is None else config
        self.config = config
        self.sensors = OrthogonalSensorPair(
            config.sensor,
            core_model=config.core_model,
            imperfections=config.imperfections,
        )
        self.front_end = AnalogFrontEnd(config.front_end)
        self.back_end = DigitalBackEnd(
            counter_config=config.counter,
            cordic_iterations=config.cordic_iterations,
            schedule=config.schedule,
            excitation_frequency_hz=(
                self.front_end.excitation.oscillator.params.frequency_hz
            ),
        )
        #: See :meth:`share_solves`; ``None`` solves alone.
        self._shared_solves: Optional[SolveMemo] = None
        # Observability resolves once here.
        self.attach_observer(build_observer(config.observe))
        if self.observer.recorder is not None:
            self.observer.recorder.bind(config)
        # The supervisor snapshots its golden references (CORDIC ROM) at
        # build time, so it must be created after the back-end and before
        # any fault can be injected.
        self.supervisor = HealthSupervisor(self, config.health)
        # Fail fast on a sensor the excitation cannot saturate (§2.1.1's
        # measured Kaw95 device) instead of erroring mid-measurement.
        amplitude = config.front_end.excitation.current_amplitude
        if not config.sensor.saturates_with(amplitude):
            raise ConfigurationError(
                f"sensor {config.sensor.name!r} (HK = "
                f"{config.sensor.core.anisotropy_field:.0f} A/m) is not "
                f"saturated by ±{amplitude * 1e3:.1f} mA excitation; "
                "the compass cannot operate (cf. §2.1.1 of the paper)"
            )

    def attach_observer(self, observer: Observer) -> None:
        """Report this compass's spans and metrics into ``observer``.

        The back end shares the compass's observer, so one measurement
        is one span tree; a service, array, scenario or recorder merges
        the compass into its own trace through this one seam.
        """
        self.observer = observer
        self.back_end.observer = observer
        self.front_end.fastpath_stats.metrics = observer.metrics

    def share_solves(self, memo: Optional[SolveMemo]) -> None:
        """Share the fast path's certified solves through ``memo``.

        The owner of a set of compasses that are equal by construction
        (a :class:`~repro.service.HeadingService`'s replicas, built by
        ``replica_config`` and differing only in the noise seed, which
        the noiseless fast path never reads) hands every one of them
        the same memo, so a request solves each channel once.  Only an
        eligible, unarmed compass reads or writes it
        (:meth:`_closed_form_rows`); everything after the solve — the
        assembly, health, spans and metrics — stays its own.  ``None``
        (the default) solves alone.
        """
        self._shared_solves = memo

    @property
    def armed_faults(self) -> ArmedFaults:
        """The faults armed on this compass (kept on its front end, where
        the fast path and the excitation-trace cache read it)."""
        return self.front_end.armed_faults

    # -- measurement ----------------------------------------------------------

    def _channel_grid(self) -> TimeGrid:
        """Measurement grid, synchronised to the *actual* oscillator rate.

        The control logic derives the counting window from the excitation
        itself (a comparator on the triangle), so a tolerance-shifted
        oscillator still gets an integer number of its own periods — the
        duty-cycle arithmetic stays exact.  Only the counter's crystal
        clock is asynchronous, as in the silicon.
        """
        schedule = self.config.schedule
        return TimeGrid(
            n_periods=schedule.settle_periods + schedule.count_periods,
            samples_per_period=self.config.samples_per_period,
            frequency_hz=self.front_end.excitation.oscillator.params.frequency_hz,
        )

    def _count_window(self, grid: TimeGrid) -> Tuple[float, float]:
        """The counter's gate on ``grid``: every period after the settle."""
        t0, t1 = grid.window()
        return t0 + self.config.schedule.settle_periods * grid.period, t1

    def measure_components(
        self, h_x: float, h_y: float
    ) -> HeadingMeasurement:
        """Measure from explicit axis field components [A/m].

        The lowest-level entry point: a one-row run of the measurement
        engine.  Unlike a batch, a scalar measurement degrades to a
        single axis when one channel fails (with health degradation on).
        """
        (measurement,) = self._measure_rows(
            np.array([h_x], dtype=float), np.array([h_y], dtype=float), "scalar"
        )
        return measurement

    def _measure_rows(
        self,
        h_x: np.ndarray,
        h_y: np.ndarray,
        path: str,
        cache: ExcitationTraceCache = DEFAULT_TRACE_CACHE,
    ) -> List[HeadingMeasurement]:
        """The measurement engine: ``N`` axis-field rows → ``N`` records.

        A scalar measurement is a one-row batch, so the grid, watchdog,
        noise-draw block, power gating, spans and assembly (one
        back-end pass and one health review for all rows, then the rows'
        records, recorder callbacks and metrics in order; see
        :meth:`assemble_measurement`) happen here once for both paths.
        ``path="scalar"`` roots the spans at ``measure``, draws noise as
        each amplifier runs (a channel that fails first draws nothing)
        and keeps the single-axis degrade.  ``path="batch"``
        (:class:`repro.batch.BatchCompass`) roots them at ``batch.sweep``
        with a ``measure`` child per row and reserves the scalar loop's
        ``x0, y0, x1, y1, …`` noise draws up front; it never degrades to
        one axis, because its failing channel is shared by every row.
        Both paths take their excitation traces from ``cache`` (the
        process-wide default unless a caller hands in its own).
        """
        scalar = path == "scalar"
        grid = self._channel_grid()
        count_window = self._count_window(grid)
        self.supervisor.watchdog_guard(grid.n_periods)

        rows = int(h_x.size)
        amplifier = self.front_end.amplifier
        draw_base = None
        if not scalar and not amplifier.budget.is_noiseless:
            draw_base = amplifier.consume_noise_draws(2 * rows)
        degrade = scalar and self.config.health.enabled and self.config.health.degrade
        observer = self.observer
        recorder = observer.recorder
        if scalar:
            root_span = observer.span(STAGE_MEASURE, path=path)
        else:
            root_span = observer.span(STAGE_BATCH, rows=rows, chunk_size=CHUNK_ROWS)
        with root_span as root:
            failures = {}
            outputs = {}
            self.front_end.enable()
            try:
                for offset, channel, sensor, h in (
                    (0, "x", self.sensors.sensor_x, h_x),
                    (1, "y", self.sensors.sensor_y, h_y),
                ):
                    draws = None if draw_base is None else draw_base + offset
                    try:
                        outputs[channel] = self._channel_rows(
                            sensor, channel, h, grid, draws, cache, path
                        )
                    except ReproError as exc:
                        if not degrade or isinstance(exc, FaultError):
                            raise
                        failures[channel] = exc
            finally:
                self.front_end.disable()

            if failures:
                # Only a one-row scalar call degrades to one axis.
                if recorder is not None:
                    recorder.on_inputs(float(h_x[0]), float(h_y[0]))
                measurement = self._single_axis_fallback(
                    failures, outputs, count_window
                )
                root.set(heading_deg=measurement.heading_deg, fallback=True)
                return [measurement]
            measurements = self.assemble_measurement(
                h_x, h_y, outputs["x"], outputs["y"], count_window, path
            )
            if scalar:
                root.set(heading_deg=measurements[0].heading_deg)
        return measurements

    def _channel_rows(
        self,
        sensor: FluxgateSensor,
        channel: str,
        h: np.ndarray,
        grid: TimeGrid,
        draws: Optional[int],
        cache: ExcitationTraceCache,
        path: str,
    ) -> List[DetectorOutput]:
        """One channel's detector outputs for every row.

        The one routing point: the certified closed-form fast path when
        it is enabled and no recorder is attached (a recording is always
        of the stepped chain), else the sampled excitation → pickup →
        comparator chain, :data:`CHUNK_ROWS` rows per numpy pass and
        bit-identical to :meth:`AnalogFrontEnd.measure_channel` row by
        row.  The rows the solve refuses one by one (their crossings
        leave the guarded ramp) are stepped together and merged back in
        order; a solve refused whole steps every row.  ``draws`` is a
        batch's reserved noise-block base plus the channel offset (row
        ``i`` draws ``draws + 2·i``), or ``None`` to draw as the
        amplifier runs.
        """
        front_end = self.front_end
        observer = self.observer
        rows = int(h.size)
        front_end.excitation.select_channel(channel)
        front_end.multiplexer.select(channel)
        with observer.span(
            f"{STAGE_CHANNEL}.{channel}", channel=channel, rows=rows
        ) as channel_span:
            solved = None
            if front_end.config.fastpath and observer.recorder is None:
                solved = self._closed_form_rows(sensor, channel, h, grid)
            if solved is None:
                return self._stepped_rows(sensor, channel, h, grid, draws, cache, path)
            channel_span.set(fastpath=True)
            refused = [row for row, output in enumerate(solved) if output is None]
            if refused:
                # A noisy budget never reaches the solver, so the refused
                # rows draw no noise and ``draws`` is never read.
                stepped = self._stepped_rows(
                    sensor, channel, h[refused], grid, draws, cache, path
                )
                for row, output in zip(refused, stepped):
                    solved[row] = output
            return solved

    def _stepped_rows(
        self,
        sensor: FluxgateSensor,
        channel: str,
        h: np.ndarray,
        grid: TimeGrid,
        draws: Optional[int],
        cache: ExcitationTraceCache,
        path: str,
    ) -> List[DetectorOutput]:
        """The stepped chain's detector outputs for the fields ``h``,
        :data:`CHUNK_ROWS` rows per numpy pass (``draws`` as for
        :meth:`_channel_rows`)."""
        front_end = self.front_end
        amplifier = front_end.amplifier
        observer = self.observer
        load = sensor.params.series_resistance
        with observer.span(STAGE_EXCITATION, channel=channel) as span:
            trace = cache.entry(
                front_end.excitation,
                grid,
                channel,
                load,
                observer.metrics,
                front_end.armed_faults,
            )
            current = trace.current
            span.set(
                samples=len(current),
                frequency_hz=front_end.excitation.oscillator.params.frequency_hz,
            )
        noisy = not amplifier.budget.is_noiseless
        outputs: List[DetectorOutput] = []
        for start in range(0, int(h.size), CHUNK_ROWS):
            chunk = h[start : start + CHUNK_ROWS]
            with observer.span(STAGE_PICKUP, channel=channel, rows=int(chunk.size)):
                pickup = sensor.simulate_batch(current, chunk, trace.gradient)
                indices = None
                if noisy:
                    indices = (
                        [amplifier.consume_noise_draws(1)]
                        if draws is None
                        else [draws + 2 * (start + i) for i in range(chunk.size)]
                    )
                amplified = amplifier.amplify_batch(
                    pickup, current.sample_rate, indices
                )
            with observer.span(STAGE_COMPARATOR, channel=channel) as span:
                detected = front_end.detector.detect_batch(amplified, current.t)
                span.set(edges=sum(d.edge_count for d in detected))
            outputs.extend(detected)
            if observer.metrics is not None and path != "scalar":
                observer.metrics.counter(
                    M_BATCH_CHUNKS,
                    "vectorized chunks processed, by channel",
                    ("channel",),
                ).inc(channel=channel)
        return outputs

    def _closed_form_rows(
        self, sensor: FluxgateSensor, channel: str, h: np.ndarray, grid: TimeGrid
    ) -> Optional[List[Optional[DetectorOutput]]]:
        """The fast path's certified outputs for one channel, or ``None``.

        A ``None`` entry is a row the solve refused alone
        (``validity-envelope``) for the caller to step.  Every row is
        accounted in ``front_end.fastpath_stats``: used, or fallen back
        under its reason.  The certificate's lattice is the counter's:
        ticks from the count-window start, to its end.

        With a shared memo (:meth:`share_solves`) and no fault armed, a
        solve of the same channel and the same field rows is reused —
        the same read-only block, refused rows and resolved-edge count,
        accounted as if solved here — and a fresh solve is stored.  The
        ``fastpath`` span says which (``shared``) and how many rows were
        refused (``refused``).
        """
        front_end = self.front_end
        stats = front_end.fastpath_stats
        rows = int(h.size)
        stats.attempted += rows
        reason = fastpath.ineligibility_reason(front_end, sensor)
        if reason is not None:
            stats.record_fallback(reason, rows)
            return None
        memo = None if front_end.armed_faults else self._shared_solves
        key = None if memo is None else h.tobytes()
        entry = None if memo is None else memo.get(channel)
        shared = entry is not None and entry[0] == key
        solved: Optional[List[Optional[DetectorOutput]]]
        with self.observer.span(STAGE_FASTPATH, channel=channel) as span:
            if shared:
                _, outputs, resolved = entry
                stats.resolved += resolved
                solved = list(outputs)
            else:
                lattice = fastpath.CountLattice(
                    *self._count_window(grid), self.back_end.counter.config.tick
                )
                resolved = stats.resolved
                solved = fastpath.solve_channel_batch(
                    front_end, sensor, channel, h, grid, lattice, stats
                )
                resolved = stats.resolved - resolved
                if solved is not None and memo is not None:
                    memo[channel] = (key, tuple(solved), resolved)
            refused = rows if solved is None else solved.count(None)
            if shared and refused:
                # A solve recorded these in solve_channel_batch.
                stats.record_fallback(fastpath.VALIDITY_ENVELOPE, refused)
            span.set(
                solved=solved is not None,
                resolved=resolved,
                shared=shared,
                refused=refused,
            )
        if solved is not None:
            stats.record_use(rows - refused)
        return solved

    def _single_axis_fallback(
        self, failures: dict, outputs: dict, count_window: Tuple[float, float]
    ) -> HeadingMeasurement:
        """The scalar-only degrade: serve the surviving channel's heading."""
        if len(failures) == 2:
            raise DegradedOperationError(
                "both sensor channels failed — no heading can be "
                f"produced (x: {failures['x']}; y: {failures['y']})"
            ) from failures["x"]
        (dead,) = failures
        alive = "y" if dead == "x" else "x"
        (detected,) = outputs[alive]
        fallback = self.supervisor.single_axis_fallback(
            alive, detected, count_window, failures[dead]
        )
        self.supervisor.observe(fallback)
        if self.observer.recorder is not None:
            self.observer.recorder.on_fallback(
                "scalar", {alive: detected}, count_window, fallback
            )
        if self.observer.metrics is not None:
            _record_measurement(self.observer.metrics, fallback, "scalar")
        return fallback

    def assemble_measurement(
        self,
        h_x: np.ndarray,
        h_y: np.ndarray,
        detectors_x: Sequence[DetectorOutput],
        detectors_y: Sequence[DetectorOutput],
        count_window: Tuple[float, float],
        path: str = "scalar",
    ) -> List[HeadingMeasurement]:
        """Digital back-end pass: every row's detector outputs → heading records.

        Shared by the scalar path and :class:`repro.batch.BatchCompass`,
        so both assemble measurements through identical arithmetic;
        ``path`` only labels the spans/metrics this call emits, and
        ``h_x``/``h_y`` (the rows' axis fields) are only staged for a
        replay recorder.  One back-end pass and one health review cover
        every row; then the rows are served in order.  Each gets its
        ``measure`` span (a scalar call's root span), the back end's
        per-row accounting, its record, the supervisor's update, the
        recorder callback and its metrics.  A row that fails raises
        after every row before it was served; in degrade mode a row
        that fails a health check serves the stale fallback instead and
        the call goes on.
        """
        back_end = self.back_end
        supervisor = self.supervisor
        observer = self.observer
        recorder = observer.recorder
        metrics = observer.metrics
        results, error = back_end.process_measurement(
            detectors_x, detectors_y, window_x=count_window, window_y=count_window
        )
        # The counter pair also encodes the field *magnitude*
        # (field_from_count).  The arctangent discards it, but it is free
        # diagnostic information (see repro.core.anomaly).  Each count is
        # normalised by its *own* channel's tick total — the windows may
        # legitimately differ.
        coil = self.config.sensor.excitation_coil_constant
        amplitude = self.config.front_end.excitation.current_amplitude
        field_estimates = []
        for result in results:
            x_ticks = result.x_result.total_ticks
            y_ticks = result.y_result.total_ticks
            if x_ticks == 0 or y_ticks == 0:
                break
            field_estimates.append(
                math.hypot(
                    field_from_count(result.x_count, x_ticks, coil, amplitude),
                    field_from_count(result.y_count, y_ticks, coil, amplitude),
                )
            )
        served = len(field_estimates)
        # The row that ends the call, if any: one the back end computed
        # but no field estimate exists for, or one the back end failed on.
        ending = None
        if served < len(results):
            ending = results[served]
            error = ConfigurationError(
                "degenerate counting window: zero counter ticks on channel "
                f"{'x' if ending.x_result.total_ticks == 0 else 'y'}; widen "
                "the window or slow the measurement schedule"
            )
        verdicts = None
        if supervisor.enabled:
            verdicts = supervisor.review(
                results[:served],
                detectors_x,
                detectors_y,
                count_window,
                field_estimates,
            )
        duration = back_end.controller.measurement_duration()
        duty_x = read_rows(detectors_x[:served], lambda block: block.duty(block.window))
        duty_y = read_rows(detectors_y[:served], lambda block: block.duty(block.window))

        measurements = []
        for row in range(served + (error is not None)):
            if recorder is not None:
                recorder.on_inputs(float(h_x[row]), float(h_y[row]))
            with (
                NULL_SPAN
                if path == "scalar"
                else observer.span(STAGE_MEASURE, path=path, row=row)
            ) as span:
                if row == served:
                    back_end.serve(ending)
                    try:
                        raise error
                    finally:
                        # The traceback holds this frame: drop its
                        # reference to the exception (no cycle).
                        del error
                result = results[row]
                back_end.serve(result)
                health = None if verdicts is None else verdicts[row]
                if isinstance(health, str):
                    # strict mode raises the fault; degrade mode
                    # substitutes the last-known-good heading with
                    # staleness metadata.
                    measurement = supervisor.stale_fallback(health)
                    supervisor.observe(measurement)
                    if recorder is not None:
                        recorder.on_fallback(
                            path,
                            {"x": detectors_x[row], "y": detectors_y[row]},
                            count_window,
                            measurement,
                        )
                    if metrics is not None:
                        _record_measurement(metrics, measurement, path)
                else:
                    measurement = HeadingMeasurement(
                        heading_deg=result.heading_deg,
                        x_count=result.x_count,
                        y_count=result.y_count,
                        duty_x=duty_x[row],
                        duty_y=duty_y[row],
                        measurement_time_s=duration,
                        cordic_cycles=result.cordic_cycles,
                        field_estimate_a_per_m=field_estimates[row],
                        health=health,
                    )
                    if verdicts is not None:
                        supervisor.observe(measurement)
                    if recorder is not None:
                        recorder.on_measurement(
                            path,
                            detectors_x[row],
                            detectors_y[row],
                            count_window,
                            result,
                            measurement,
                        )
                    if metrics is not None:
                        _record_measurement(metrics, measurement, path)
                        ticks = metrics.counter(
                            M_COUNTER_TICKS,
                            "clock ticks integrated by the up-down counter",
                            ("path", "channel"),
                        )
                        ticks.inc(result.x_result.total_ticks, path=path, channel="x")
                        ticks.inc(result.y_result.total_ticks, path=path, channel="y")
                span.set(heading_deg=measurement.heading_deg)
            measurements.append(measurement)
        return measurements

    def measure_heading(
        self,
        true_heading_deg: float,
        field_magnitude_t: float = 50.0e-6,
    ) -> HeadingMeasurement:
        """Closed-loop measurement at a known true heading.

        Parameters
        ----------
        true_heading_deg:
            Actual orientation of the compass body, degrees clockwise from
            magnetic north.
        field_magnitude_t:
            Horizontal geomagnetic flux density [T]; the paper's worldwide
            range is 25…65 µT.
        """
        h_x, h_y = self.sensors.axis_fields_from_tesla(
            field_magnitude_t, true_heading_deg
        )
        return self.measure_components(h_x, h_y)

    def measure_in_field(
        self, field: FieldVector, true_heading_deg: float
    ) -> HeadingMeasurement:
        """Measure in a geomagnetic field vector (uses its horizontal part).

        The returned heading is relative to *magnetic* north; add the
        field's declination for geographic north.
        """
        return self.measure_heading(true_heading_deg, field.horizontal)

    # -- watch / display passthroughs ---------------------------------------------

    def set_time(self, hours: int, minutes: int, seconds: int = 0) -> None:
        self.back_end.watch.set_time(hours, minutes, seconds)

    def select_display(self, mode: DisplayMode) -> None:
        self.back_end.display.select_mode(mode)

    def read_display(self) -> DisplayFrame:
        return self.back_end.render_display()

    # -- design introspection -------------------------------------------------------

    def update_rate_hz(self) -> float:
        """Maximum heading update rate [Hz]."""
        return 1.0 / self.back_end.controller.measurement_duration()

    def count_full_scale(self) -> int:
        """Counter value corresponding to the full measurable field."""
        schedule = self.config.schedule
        window = schedule.count_periods / self.front_end.excitation.oscillator.params.frequency_hz
        return self.back_end.counter.count_resolution_ticks(window)
