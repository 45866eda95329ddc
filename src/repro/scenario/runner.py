"""The scenario engine: drive a compass through a declared environment.

:class:`ScenarioRunner` is the field-trial bench.  For every mission
step it

1. evaluates the scenario's environment (the tilted-dipole field at the
   scenario's location, the temperature profile, the platform tilt, the
   iron distortion, any active anomaly),
2. builds the *plant* — an :class:`~repro.core.compass.IntegratedCompass`
   whose device parameters are shifted to the step's true temperature via
   :func:`repro.physics.thermal.compass_config_at_temperature`,
3. measures through the full signal chain (no shortcuts: the fluxgates
   see the exact body-frame field the geometry produces),
4. runs the raw measurement through the
   :class:`~repro.scenario.compensation.CompensationChain` the scenario's
   policy arms, and
5. integrates the served heading into a dead-reckoned track when the
   scenario declares a mission.

Two seams make the runner a fault-injection target (see
:mod:`repro.faults.environment`): the :class:`TelemetrySource` (what the
temperature and tilt sensors *report*, as opposed to what is true) and
the calibration tamper hook (what the stored calibration table contains,
as opposed to what was fitted).

Bit-identity contract
---------------------
A scenario with ``field_override_ut`` set, no tilt, no iron, no anomaly
and a constant 25 °C profile drives the exact
``axis_fields_from_tesla`` → ``measure_components`` arithmetic of
:meth:`~repro.core.compass.IntegratedCompass.measure_heading` on the
*unmodified* base configuration — the code path the golden-vector
suite pins — so :func:`~repro.scenario.dsl.bench_clean_scenario` is
bit-identical to ``tests/golden/compass_vectors.json`` by construction,
recorded or not.  Raw mission measurements are grouped per rounded-°C
plant, and the 13 turn-table measurements form one group; each group is
batched through :meth:`~repro.batch.BatchCompass.measure_scene` (itself
bit-identical per row to the scalar loop).  Recording runs stay scalar
so the ``.rplog`` byte stream is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from .. import trust
from ..batch import BatchCompass, BatchScene
from ..core.calibration import align_to_reference, fit_ellipse_calibration
from ..core.compass import CompassConfig, IntegratedCompass
from ..core.heading import HeadingMeasurement
from ..core.tilt import Attitude, body_field_components
from ..errors import CalibrationError, ReproError, ScenarioError
from ..nav.dead_reckoning import DeadReckoner, Position
from ..observe import (
    DISABLED,
    M_SCENARIO_GUARDS,
    M_SCENARIO_STEPS,
    MetricsRegistry,
    Observer,
)
from ..physics.earth_field import FieldVector, field_at_location
from ..physics.thermal import T_REFERENCE_C, compass_config_at_temperature
from ..replay.recorder import LogRecorder
from ..units import angular_difference_deg, tesla_to_a_per_m, wrap_degrees
from .compensation import (
    CalibrationStore,
    CompensationChain,
    thermal_calibration_for,
)
from .dsl import FIT_TEMPERATURES_C, AnomalySpec, Scenario

#: Headings of the pre-mission calibration rotation (the turn table).
CALIBRATION_HEADINGS = tuple(30.0 * i for i in range(12))


class TelemetrySource:
    """What the auxiliary sensors *report* — the environment fault seam.

    The default implementation is an honest sensor suite: it reports the
    true values the scenario produces.  Environment faults replace these
    methods (a stuck thermistor, a drifting ADC reference, a tilt sensor
    frozen at level) without the runner knowing — exactly how a fielded
    instrument experiences them.
    """

    def temperature_c(self, step: int, true_c: float) -> float:
        return true_c

    def tilt_deg(
        self, step: int, true_pitch_deg: float, true_roll_deg: float
    ) -> Tuple[float, float]:
        return true_pitch_deg, true_roll_deg


@dataclass(frozen=True)
class StepResult:
    """One mission step: truth, raw reading, served heading, honesty."""

    step: int
    commanded_heading_deg: float
    raw_heading_deg: float
    served_heading_deg: float
    error_deg: float
    flags: Tuple[str, ...]
    detail: str
    true_temperature_c: float
    sensed_temperature_c: float
    true_pitch_deg: float
    true_roll_deg: float
    position: Optional[Position] = None

    @property
    def degraded(self) -> bool:
        return bool(self.flags)

    @property
    def authoritative(self) -> bool:
        return not self.degraded

    @property
    def in_spec(self) -> bool:
        return trust.in_spec(abs(self.error_deg))

    @property
    def silent_wrong(self) -> bool:
        """The one forbidden outcome: out of spec *and* unflagged."""
        return trust.served_outcome(
            abs(self.error_deg), self.authoritative
        ) is trust.Outcome.SILENT_WRONG

    def to_dict(self) -> Dict:
        record = {
            "step": self.step,
            "commanded_heading_deg": self.commanded_heading_deg,
            "raw_heading_deg": self.raw_heading_deg,
            "served_heading_deg": self.served_heading_deg,
            "error_deg": self.error_deg,
            "flags": list(self.flags),
            "detail": self.detail,
            "true_temperature_c": self.true_temperature_c,
            "sensed_temperature_c": self.sensed_temperature_c,
            "true_pitch_deg": self.true_pitch_deg,
            "true_roll_deg": self.true_roll_deg,
        }
        if self.position is not None:
            record["position_north_m"] = self.position.north
            record["position_east_m"] = self.position.east
        return record


@dataclass(frozen=True)
class ScenarioResult:
    """A finished scenario run, with its honesty accounting."""

    scenario: Scenario
    steps: Tuple[StepResult, ...]
    drift_m: Optional[float] = None
    distance_m: Optional[float] = None

    @property
    def max_abs_error_deg(self) -> float:
        return max(abs(s.error_deg) for s in self.steps)

    @property
    def max_clean_error_deg(self) -> float:
        """Worst error over the *unflagged* steps (0 if none are clean)."""
        clean = [abs(s.error_deg) for s in self.steps if not s.degraded]
        return max(clean) if clean else 0.0

    @property
    def degraded_steps(self) -> int:
        return sum(1 for s in self.steps if s.degraded)

    @property
    def silent_wrong_steps(self) -> int:
        return sum(1 for s in self.steps if s.silent_wrong)

    @property
    def flags(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for s in self.steps:
            for flag in s.flags:
                seen.setdefault(flag)
        return tuple(seen)

    @property
    def honest(self) -> bool:
        """No step served an out-of-spec heading without a flag."""
        return self.silent_wrong_steps == 0

    @property
    def clean(self) -> bool:
        """Every step in spec and unflagged — the clean-mission verdict."""
        return self.degraded_steps == 0 and all(s.in_spec for s in self.steps)

    def summary(self) -> Dict:
        record = {
            "scenario": self.scenario.name,
            "steps": len(self.steps),
            "max_abs_error_deg": self.max_abs_error_deg,
            "max_clean_error_deg": self.max_clean_error_deg,
            "degraded_steps": self.degraded_steps,
            "silent_wrong_steps": self.silent_wrong_steps,
            "flags": list(self.flags),
            "honest": self.honest,
            "clean": self.clean,
        }
        if self.drift_m is not None:
            record["drift_m"] = self.drift_m
            record["distance_m"] = self.distance_m
        return record

    def to_dict(self) -> Dict:
        record = self.summary()
        record["step_results"] = [s.to_dict() for s in self.steps]
        return record


class ScenarioRunner:
    """Drive one compass design through one declared scenario.

    Parameters
    ----------
    scenario:
        The declarative environment + mission to run.
    base_config:
        The compass design at the reference temperature; defaults to the
        paper's design point (the golden-vector configuration).
    strict:
        ``True`` makes every tripped guard raise
        (:class:`~repro.errors.ScenarioError` /
        :class:`~repro.errors.EnvelopeError`); ``False`` (default)
        degrades loudly instead — flags on the step result.
    record_path:
        When set, every raw measurement of the run is captured into a
        self-checking ``.rplog`` at this path (:mod:`repro.replay`); the
        log replays bit-exactly regardless of scenario temperature
        because the digital back-end is replayed from captured detector
        waveforms.
    metrics:
        Optional shared :class:`~repro.observe.MetricsRegistry`;
        the runner accounts steps and guard flags into it.
    """

    def __init__(
        self,
        scenario: Scenario,
        base_config: Optional[CompassConfig] = None,
        strict: bool = False,
        record_path: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.scenario = scenario
        self.base_config = (
            CompassConfig() if base_config is None else base_config
        )
        self.strict = strict
        self.metrics = metrics
        # Environment fault seams (replaced by repro.faults.environment).
        self.telemetry = TelemetrySource()
        self.tamper_calibration: Optional[
            Callable[[CalibrationStore], CalibrationStore]
        ] = None
        self.extra_anomaly: Optional[AnomalySpec] = None

        if scenario.field_override_ut is not None:
            self.field = FieldVector(
                north=scenario.field_override_ut * 1e-6, east=0.0, down=0.0
            )
        else:
            self.field = field_at_location(scenario.location)
        self.declination_deg = self.field.declination_deg

        self._recorder: Optional[LogRecorder] = None
        if record_path is not None:
            self._recorder = LogRecorder(record_path)
            # One scenario = one design point: the log is pinned to the
            # reference configuration; per-temperature plants share the
            # recorder through a fresh Observer (never the DISABLED
            # singleton), so the capture rides every measurement without
            # re-binding a different fingerprint.
            self._recorder.bind(self.base_config)
        self._compasses: Dict[float, IntegratedCompass] = {}

    # -- plant construction ----------------------------------------------------

    def _compass_at(self, true_temperature_c: float) -> IntegratedCompass:
        """The plant at a mission temperature (cached per 1 °C)."""
        quantised = round(true_temperature_c)
        if quantised not in self._compasses:
            if quantised == T_REFERENCE_C:
                config = self.base_config
            else:
                config = compass_config_at_temperature(
                    self.base_config, quantised
                )
            compass = IntegratedCompass(config)
            self._attach_recorder(compass)
            self._compasses[quantised] = compass
        return self._compasses[quantised]

    def _attach_recorder(self, compass: IntegratedCompass) -> None:
        if self._recorder is None:
            return
        observer = compass.observer
        if observer is DISABLED:
            observer = Observer()
            compass.attach_observer(observer)
        observer.recorder = self._recorder

    # -- environment geometry --------------------------------------------------

    def _field_at_step(self, step: int) -> FieldVector:
        active = [
            anomaly
            for anomaly in (self.scenario.anomaly, self.extra_anomaly)
            if anomaly is not None
            and anomaly.active(step, self.scenario.steps)
        ]
        if not active:
            # Identity (`is`) lets _measure recognise the undisturbed
            # environment and keep the golden-vector code path.
            return self.field
        north, east, down = (
            self.field.north, self.field.east, self.field.down,
        )
        for anomaly in active:
            north += anomaly.delta_north_ut * 1e-6
            east += anomaly.delta_east_ut * 1e-6
            down += anomaly.delta_down_ut * 1e-6
        return FieldVector(north=north, east=east, down=down)

    def _components_for(
        self,
        compass: IntegratedCompass,
        magnetic_heading_deg: float,
        field: FieldVector,
        pitch_deg: float,
        roll_deg: float,
    ) -> Tuple[float, float]:
        """The axis-field components [A/m] one step drives into the plant.

        The single source of the environment float arithmetic: the
        scalar path feeds these components to ``measure_components`` and
        the batched path stacks them into a
        :class:`~repro.batch.BatchScene`, so both paths are bit-identical
        by construction.  The clean-override geometry (level, iron-free,
        pure horizontal field) reproduces ``measure_heading``'s own
        ``axis_fields_from_tesla`` call — the golden-vector code path.
        """
        iron = self.scenario.iron
        if (
            self.scenario.field_override_ut is not None
            and field is self.field
            and pitch_deg == 0.0
            and roll_deg == 0.0
            and iron.is_identity
        ):
            return compass.sensors.axis_fields_from_tesla(
                self.scenario.field_override_ut * 1e-6, magnetic_heading_deg
            )
        yaw = wrap_degrees(magnetic_heading_deg + self.declination_deg)
        bx, by, _ = body_field_components(
            field, Attitude(yaw, pitch_deg, roll_deg)
        )
        # Platform iron, applied in the body frame: h' = S·h + o.
        dx = iron.cross_coupling * by + iron.hard_x_ut * 1e-6
        dy = (
            iron.cross_coupling * bx
            + (iron.y_gain - 1.0) * by
            + iron.hard_y_ut * 1e-6
        )
        return tesla_to_a_per_m(bx + dx), tesla_to_a_per_m(by + dy)

    def _measure(
        self,
        compass: IntegratedCompass,
        magnetic_heading_deg: float,
        field: FieldVector,
        pitch_deg: float,
        roll_deg: float,
    ) -> HeadingMeasurement:
        """One raw measurement through the declared environment (scalar)."""
        h_x, h_y = self._components_for(
            compass, magnetic_heading_deg, field, pitch_deg, roll_deg
        )
        return compass.measure_components(h_x, h_y)

    def _measure_batched(
        self, compass: IntegratedCompass, rows: List[Tuple[float, float]]
    ) -> Optional[List[HeadingMeasurement]]:
        """``(h_x, h_y)`` rows measured on ``compass`` as one scene.

        :meth:`~repro.batch.BatchCompass.measure_scene` is bit-identical
        per row to the scalar ``measure_components`` loop, noise draws
        included.  A batch pass that raises a
        :class:`~repro.errors.ReproError` returns ``None``: the caller
        then measures the rows scalar, so typed errors surface on the
        exact offending row.  Any other exception is a bug and
        propagates.  Recording runs never call this: ``.rplog`` capture
        is pinned to the scalar measurement sequence.
        """
        scene = BatchScene.from_components(
            [h_x for h_x, _ in rows], [h_y for _, h_y in rows]
        )
        try:
            return BatchCompass(compass).measure_scene(scene)
        except ReproError:
            return None

    def _measure_steps_batched(
        self,
    ) -> List[Optional[HeadingMeasurement]]:
        """All raw mission measurements, grouped per plant and batched.

        Steps are grouped on the same rounded-°C key the plant cache
        uses — one scene × one plant per temperature — and measured by
        :meth:`_measure_batched`.  Grouping is order-preserving within
        each plant, so a noisy front-end draws its stream in the same
        per-compass order the scalar run would.  A group whose batch
        pass fails leaves its rows ``None``: the caller measures those
        steps scalar.
        """
        scenario = self.scenario
        grouped: Dict[int, List[Tuple[int, float, float]]] = {}
        for step in range(scenario.steps):
            truth = scenario.heading_at(step)
            true_c = scenario.temperature.at(step)
            pitch, roll = scenario.tilt.at(step, scenario.steps)
            field = self._field_at_step(step)
            compass = self._compass_at(true_c)
            h_x, h_y = self._components_for(
                compass, truth, field, pitch, roll
            )
            grouped.setdefault(round(true_c), []).append((step, h_x, h_y))
        measurements: List[Optional[HeadingMeasurement]] = (
            [None] * scenario.steps
        )
        for quantised, items in grouped.items():
            rows = self._measure_batched(
                self._compasses[quantised],
                [(h_x, h_y) for _, h_x, h_y in items],
            )
            if rows is None:
                continue
            for (step, _, _), measurement in zip(items, rows):
                measurements[step] = measurement
        return measurements

    # -- chain construction ----------------------------------------------------

    def _build_store(self) -> CalibrationStore:
        """The pre-mission turn-table calibration, fitted and sealed.

        The rotation happens in the step-0 environment — level, at the
        start temperature, before any anomaly window opens — exactly the
        controlled condition a crew calibrates in.
        """
        compass = self._compass_at(self.scenario.temperature.at(0))
        # The rotation, then one more look at the first heading as the
        # alignment reference: 13 measurements, batched unless recording.
        rows = [
            self._components_for(compass, heading, self.field, 0.0, 0.0)
            for heading in CALIBRATION_HEADINGS + CALIBRATION_HEADINGS[:1]
        ]
        measured = (
            None
            if self._recorder is not None
            else self._measure_batched(compass, rows)
        )
        if measured is None:
            measured = [compass.measure_components(h_x, h_y) for h_x, h_y in rows]
        *rotation, reference = measured
        samples = [
            (float(measurement.x_count), float(measurement.y_count))
            for measurement in rotation
        ]
        try:
            model = fit_ellipse_calibration(samples)
        except CalibrationError as exc:
            raise ScenarioError(
                f"scenario {self.scenario.name!r}: pre-mission calibration "
                f"rotation failed ({exc})"
            ) from exc
        model = align_to_reference(
            model,
            float(reference.x_count),
            float(reference.y_count),
            CALIBRATION_HEADINGS[0],
        )
        # The rotation is its own report card: the commanded headings
        # are known, so the worst reconstruction error over the fit's
        # own samples measures how far the affine model is from the
        # true count-vs-field map — the chain's fit-quality guard
        # flags any mission served through a table over budget.
        fit_residual = 0.0
        for heading, (x_count, y_count) in zip(
            CALIBRATION_HEADINGS, samples
        ):
            corrected = model.corrected_heading_deg(x_count, y_count)
            delta = abs(angular_difference_deg(corrected, heading))
            fit_residual = max(fit_residual, delta)
        store = CalibrationStore.sealed(
            model, fit_residual_deg=fit_residual
        )
        if self.tamper_calibration is not None:
            store = self.tamper_calibration(store)
        return store

    def _build_chain(self) -> Optional[CompensationChain]:
        policy = self.scenario.compensation
        if not policy.any_armed:
            return None
        thermal = (
            thermal_calibration_for(self.base_config, FIT_TEMPERATURES_C)
            if policy.temperature
            else None
        )
        store = self._build_store() if policy.calibration else None
        return CompensationChain(
            field_model=self.field,
            declination_deg=self.declination_deg,
            thermal=thermal,
            store=store,
            tilt_enabled=policy.tilt,
            anomaly_enabled=policy.anomaly_gate,
            strict=self.strict,
        )

    # -- the run ---------------------------------------------------------------

    def run(self) -> ScenarioResult:
        scenario = self.scenario
        chain = self._build_chain()
        reckoner = None
        truth_reckoner = None
        if scenario.mission is not None:
            reckoner = DeadReckoner(self.declination_deg)
            truth_reckoner = DeadReckoner(self.declination_deg)
        # Raw measurements batch per plant unless this run records: the
        # .rplog byte stream is pinned to the scalar per-step sequence.
        raw: List[Optional[HeadingMeasurement]] = (
            [None] * scenario.steps
            if self._recorder is not None
            else self._measure_steps_batched()
        )
        results: List[StepResult] = []
        try:
            for step in range(scenario.steps):
                results.append(
                    self._run_step(
                        step, chain, reckoner, truth_reckoner, raw[step]
                    )
                )
        finally:
            if self._recorder is not None:
                self._recorder.close()
        drift_m = distance_m = None
        if reckoner is not None:
            drift_m = reckoner.closure_error(truth_reckoner.position)
            distance_m = reckoner.total_distance()
        return ScenarioResult(
            scenario=scenario,
            steps=tuple(results),
            drift_m=drift_m,
            distance_m=distance_m,
        )

    def _run_step(
        self,
        step: int,
        chain: Optional[CompensationChain],
        reckoner: Optional[DeadReckoner],
        truth_reckoner: Optional[DeadReckoner],
        measurement: Optional[HeadingMeasurement] = None,
    ) -> StepResult:
        scenario = self.scenario
        truth = scenario.heading_at(step)
        true_c = scenario.temperature.at(step)
        pitch, roll = scenario.tilt.at(step, scenario.steps)
        field = self._field_at_step(step)

        if measurement is None:
            compass = self._compass_at(true_c)
            measurement = self._measure(compass, truth, field, pitch, roll)

        sensed_c = self.telemetry.temperature_c(step, true_c)
        sensed_pitch, sensed_roll = self.telemetry.tilt_deg(
            step, pitch, roll
        )
        if chain is not None:
            verdict = chain.process(
                measurement, sensed_c, sensed_pitch, sensed_roll
            )
            served, flags, detail = (
                verdict.heading_deg, verdict.flags, verdict.detail,
            )
        else:
            served = measurement.heading_deg
            flags = (
                tuple(measurement.health.flags or ("health",))
                if measurement.degraded
                else ()
            )
            detail = ""
        error = angular_difference_deg(served, truth)

        position = None
        if reckoner is not None:
            position = reckoner.advance(
                served, scenario.mission.step_distance_m
            )
            truth_reckoner.advance(truth, scenario.mission.step_distance_m)

        if self.metrics is not None:
            status = "degraded" if flags else "ok"
            self.metrics.counter(
                M_SCENARIO_STEPS,
                "scenario mission steps served, by honesty status",
                ("scenario", "status"),
            ).inc(scenario=scenario.name, status=status)
            guards = self.metrics.counter(
                M_SCENARIO_GUARDS,
                "compensation-integrity guard flags raised",
                ("scenario", "flag"),
            )
            for flag in flags:
                guards.inc(scenario=scenario.name, flag=flag)

        return StepResult(
            step=step,
            commanded_heading_deg=truth,
            raw_heading_deg=measurement.heading_deg,
            served_heading_deg=served,
            error_deg=error,
            flags=flags,
            detail=detail,
            true_temperature_c=true_c,
            sensed_temperature_c=sensed_c,
            true_pitch_deg=pitch,
            true_roll_deg=roll,
            position=position,
        )


def run_scenario(
    scenario: Union[Scenario, str],
    base_config: Optional[CompassConfig] = None,
    strict: bool = False,
    record_path: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> ScenarioResult:
    """Convenience wrapper: build a runner and run one scenario."""
    from .dsl import get_scenario

    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    return ScenarioRunner(
        scenario,
        base_config=base_config,
        strict=strict,
        record_path=record_path,
        metrics=metrics,
    ).run()
