"""Scenario engine tests: DSL validation, compensation guards, runner.

Three layers under test:

* the declarative DSL (frozen dataclasses, JSON round trip, validation),
* the :class:`~repro.scenario.compensation.CompensationChain` guards —
  each one is driven to its trip point directly and checked in both
  degrade mode (flag) and strict mode (typed raise),
* the :class:`~repro.scenario.ScenarioRunner` over the golden corpus:
  every anomaly-free scenario flies clean, the ambush scenario degrades
  loudly, and the raw bench scenario is **bit-identical** to all 48
  golden vectors (the acceptance anchor: the scenario engine may not
  move a single output bit of the clean fixed-temperature path).
"""

import math

import pytest

from repro.batch import BatchCompass
from repro.core.compass import CompassConfig, IntegratedCompass
from repro.core.heading import HeadingMeasurement
from repro.errors import (
    ConfigurationError,
    EnvelopeError,
    FaultError,
    ScenarioError,
)
from repro.physics.earth_field import FieldVector, field_at_location
from repro.scenario import (
    CLEAN_SPEC_SCENARIOS,
    ENV_SCREEN,
    F_ANOMALY,
    F_CAL_CRC,
    F_CAL_FIT,
    F_CAL_STALE,
    F_FIELD_BAND,
    F_FIELD_RESIDUAL,
    F_TEMP_ENVELOPE,
    F_TEMP_IMPLAUSIBLE,
    F_TILT_ENVELOPE,
    FIT_TEMPERATURES_C,
    SCENARIOS,
    AnomalySpec,
    CalibrationStore,
    CompensationChain,
    IronDistortion,
    Scenario,
    ScenarioRunner,
    TemperatureProfile,
    TiltProfile,
    aged_store,
    bench_clean_scenario,
    get_scenario,
    run_scenario,
    scenario_with,
    thermal_calibration_for,
)
from repro.units import TARGET_ACCURACY_DEG, tesla_to_a_per_m


# -- DSL -----------------------------------------------------------------------


class TestDSL:
    def test_corpus_members(self):
        assert set(SCENARIOS) == {
            "bench-clean-50ut", "tropic-crossing", "steel-hull",
            "alpine-traverse", "urban-ambush", "env-screen",
        }

    def test_clean_spec_excludes_designed_ambush(self):
        assert "urban-ambush" not in CLEAN_SPEC_SCENARIOS
        assert "env-screen" in CLEAN_SPEC_SCENARIOS

    def test_unknown_scenario(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            get_scenario("does-not-exist")

    def test_unknown_location(self):
        with pytest.raises(ConfigurationError, match="unknown location"):
            Scenario(name="x", location="atlantis")

    def test_zero_steps_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(name="x", steps=0)

    def test_temperature_envelope_validated(self):
        with pytest.raises(ConfigurationError, match="envelope"):
            Scenario(
                name="x",
                steps=4,
                temperature=TemperatureProfile(
                    base_c=100.0, ramp_c_per_step=20.0
                ),
            )

    def test_swing_needs_period(self):
        with pytest.raises(ConfigurationError):
            TemperatureProfile(amplitude_c=10.0, period_steps=0)

    def test_tilt_cone_validated(self):
        with pytest.raises(ConfigurationError):
            TiltProfile(pitch_deg=45.0)

    def test_tilt_onset(self):
        tilt = TiltProfile(pitch_deg=6.0, roll_deg=-4.0, onset_fraction=0.5)
        assert tilt.at(0, 10) == (0.0, 0.0)
        assert tilt.at(5, 10) == (6.0, -4.0)

    def test_iron_validation(self):
        with pytest.raises(ConfigurationError):
            IronDistortion(y_gain=0.0)
        with pytest.raises(ConfigurationError):
            IronDistortion(cross_coupling=0.6)

    def test_anomaly_window(self):
        anomaly = AnomalySpec(
            delta_north_ut=10.0, start_fraction=0.5, stop_fraction=1.0
        )
        assert not anomaly.active(5, 12)
        assert anomaly.active(6, 12)
        assert anomaly.active(11, 12)
        with pytest.raises(ConfigurationError):
            AnomalySpec(start_fraction=0.8, stop_fraction=0.2)

    def test_heading_schedule_wraps(self):
        scenario = get_scenario("urban-ambush")
        assert scenario.heading_at(0) == 45.0
        assert 0.0 <= scenario.heading_at(100) < 360.0

    def test_json_round_trip(self):
        for scenario in SCENARIOS.values():
            assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_scenario_with_revalidates(self):
        with pytest.raises(ConfigurationError):
            scenario_with(get_scenario("steel-hull"), steps=0)

    def test_bench_clean_matches_golden_grid(self):
        bench = bench_clean_scenario(50.0)
        assert bench.steps == 16
        assert [bench.heading_at(k) for k in range(3)] == [
            11.25, 33.75, 56.25,
        ]
        assert not bench.compensation.any_armed


# -- compensation guards -------------------------------------------------------


BENCH_FIELD = FieldVector(north=50e-6, east=0.0, down=0.0)


def fake_measurement(
    heading=45.0, field_t=50e-6, duration_s=2.2519073486328128e-3
):
    return HeadingMeasurement(
        heading_deg=heading,
        x_count=100,
        y_count=-100,
        duty_x=0.6,
        duty_y=0.4,
        measurement_time_s=duration_s,
        cordic_cycles=8,
        field_estimate_a_per_m=tesla_to_a_per_m(field_t),
    )


@pytest.fixture(scope="module")
def thermal():
    return thermal_calibration_for(CompassConfig(), FIT_TEMPERATURES_C)


def chain(strict=False, **kwargs):
    defaults = dict(
        field_model=BENCH_FIELD,
        declination_deg=0.0,
        strict=strict,
    )
    defaults.update(kwargs)
    return CompensationChain(**defaults)


class TestThermometerCrossCheck:
    """The oscillator-period thermometer vs the temperature telemetry."""

    def test_duration_tracks_temperature(self, thermal):
        """The fit inverts: the implied temperature matches the truth
        the plant was actually built at, across the whole envelope."""
        from repro.physics.thermal import compass_config_at_temperature

        for true_c in (-20.0, 25.0, 70.0):
            compass = IntegratedCompass(
                compass_config_at_temperature(CompassConfig(), true_c)
            )
            m = compass.measure_heading(45.0, 50e-6)
            implied = thermal.implied_temperature_c(m.measurement_time_s)
            assert implied == pytest.approx(true_c, abs=1.0)

    def test_honest_telemetry_passes(self, thermal):
        verdict = chain(thermal=thermal).process(
            fake_measurement(duration_s=thermal.predicted_duration_s(25.0)),
            25.0, 0.0, 0.0,
        )
        assert verdict.flags == ()

    def test_contradicted_telemetry_flagged(self, thermal):
        # The plant runs at 25 °C (its excitation period says so) but the
        # sensor claims 60 °C: >15 K disagreement must flag.
        verdict = chain(thermal=thermal).process(
            fake_measurement(duration_s=thermal.predicted_duration_s(25.0)),
            60.0, 0.0, 0.0,
        )
        assert F_TEMP_IMPLAUSIBLE in verdict.flags
        # Graceful degradation: the chain compensates with the
        # instrument's own thermometer, not the contradicted telemetry.
        assert verdict.temperature_used_c == pytest.approx(25.0, abs=1.0)

    def test_contradicted_telemetry_strict_raises(self, thermal):
        with pytest.raises(ScenarioError, match="implausible"):
            chain(strict=True, thermal=thermal).process(
                fake_measurement(
                    duration_s=thermal.predicted_duration_s(25.0)
                ),
                60.0, 0.0, 0.0,
            )

    def test_envelope_excursion_flagged(self, thermal):
        verdict = chain(thermal=thermal).process(
            fake_measurement(duration_s=thermal.predicted_duration_s(25.0)),
            95.0, 0.0, 0.0,
        )
        assert F_TEMP_ENVELOPE in verdict.flags

    def test_envelope_excursion_strict_raises(self, thermal):
        with pytest.raises(EnvelopeError, match="envelope"):
            chain(strict=True, thermal=thermal).process(
                fake_measurement(
                    duration_s=thermal.predicted_duration_s(25.0)
                ),
                95.0, 0.0, 0.0,
            )


@pytest.fixture(scope="module")
def store():
    """A genuinely fitted, sealed calibration table (steel-hull's)."""
    return ScenarioRunner(get_scenario("steel-hull"))._build_store()


class TestCalibrationStore:
    def test_sealed_store_verifies(self, store):
        assert store.verify()
        assert store.age_missions == 0

    def test_corruption_breaks_seal(self, store):
        import dataclasses

        broken_model = dataclasses.replace(
            store.model, offset_x=store.model.offset_x + 5.0
        )
        corrupted = dataclasses.replace(store, model=broken_model)
        assert not corrupted.verify()

    def test_corrupt_table_bypassed_and_flagged(self, store):
        import dataclasses

        broken_model = dataclasses.replace(
            store.model, offset_x=store.model.offset_x + 5.0
        )
        corrupted = dataclasses.replace(store, model=broken_model)
        m = fake_measurement()
        verdict = chain(store=corrupted).process(m, 25.0, 0.0, 0.0)
        assert F_CAL_CRC in verdict.flags
        # Bypassed: the heading is served raw, not through the broken table.
        assert verdict.heading_deg == m.heading_deg

    def test_corrupt_table_strict_raises(self, store):
        import dataclasses

        corrupted = dataclasses.replace(
            store,
            model=dataclasses.replace(
                store.model, offset_x=store.model.offset_x + 5.0
            ),
        )
        with pytest.raises(ScenarioError, match="CRC"):
            chain(strict=True, store=corrupted).process(
                fake_measurement(), 25.0, 0.0, 0.0
            )

    def test_reseal_after_edit_is_clean(self, store):
        import dataclasses

        refitted = CalibrationStore.sealed(
            dataclasses.replace(
                store.model, offset_x=store.model.offset_x + 5.0
            )
        )
        assert refitted.verify()

    def test_stale_table_flagged_not_bypassed(self, store):
        old = aged_store(store, 12)
        assert old.verify()  # staleness is age, not corruption
        m = fake_measurement()
        verdict = chain(store=old).process(m, 25.0, 0.0, 0.0)
        assert F_CAL_STALE in verdict.flags
        # Still the best correction available: the table is applied.
        assert verdict.heading_deg == store.model.corrected_heading_deg(
            m.x_count, m.y_count
        )

    def test_stale_table_strict_raises(self, store):
        with pytest.raises(EnvelopeError, match="missions old"):
            chain(strict=True, store=aged_store(store, 12)).process(
                fake_measurement(), 25.0, 0.0, 0.0
            )

    def test_healthy_fit_records_small_residual(self, store):
        # steel-hull's table fits its own rotation well inside budget —
        # and the residual is a real measured number, not a placeholder.
        assert 0.0 < store.fit_residual_deg <= 0.5

    def test_fit_residual_is_sealed(self, store):
        import dataclasses

        # The self-assessment is part of the CRC payload: a table whose
        # report card was edited without resealing is corrupt.
        edited = dataclasses.replace(
            store, fit_residual_deg=store.fit_residual_deg + 1.0
        )
        assert not edited.verify()

    def test_over_budget_fit_flagged_not_bypassed(self, store):
        shaky = CalibrationStore.sealed(store.model, fit_residual_deg=1.3)
        assert shaky.verify()
        m = fake_measurement()
        verdict = chain(store=shaky).process(m, 25.0, 0.0, 0.0)
        assert F_CAL_FIT in verdict.flags
        # Like staleness: still the best correction available, applied.
        assert verdict.heading_deg == store.model.corrected_heading_deg(
            m.x_count, m.y_count
        )

    def test_over_budget_fit_strict_raises(self, store):
        shaky = CalibrationStore.sealed(store.model, fit_residual_deg=1.3)
        with pytest.raises(EnvelopeError, match="fit residual"):
            chain(strict=True, store=shaky).process(
                fake_measurement(), 25.0, 0.0, 0.0
            )


class TestFieldBandGuard:
    """The qualified-envelope guard on the iron-calibrated path."""

    def test_rated_band_no_flag(self, store):
        # The 50 µT bench is comfortably inside the rated band: even
        # steel-hull's heavy iron table (24 % of São Paulo's field)
        # serves unflagged.
        verdict = chain(store=store).process(
            fake_measurement(), 25.0, 0.0, 0.0
        )
        assert F_FIELD_BAND not in verdict.flags

    def test_below_floor_flagged(self, store):
        weak = FieldVector(north=18e-6, east=0.0, down=40e-6)
        verdict = chain(field_model=weak, store=store).process(
            fake_measurement(), 25.0, 0.0, 0.0
        )
        assert F_FIELD_BAND in verdict.flags

    def test_below_floor_strict_raises(self, store):
        weak = FieldVector(north=18e-6, east=0.0, down=40e-6)
        with pytest.raises(EnvelopeError, match="floor"):
            chain(strict=True, field_model=weak, store=store).process(
                fake_measurement(), 25.0, 0.0, 0.0
            )

    def test_derated_band_over_budget_iron_flagged(self, store):
        # 22 µT horizontal: between the floor and the rated 25 µT band
        # the iron budget derates to 7.5 % — steel-hull's 24 % table
        # must flag.
        derated = FieldVector(north=22e-6, east=0.0, down=40e-6)
        verdict = chain(field_model=derated, store=store).process(
            fake_measurement(), 25.0, 0.0, 0.0
        )
        assert F_FIELD_BAND in verdict.flags

    def test_derated_band_clean_table_no_flag(self):
        # Same derated band, but an (ideal) iron-free table: inside
        # the derated budget, so no flag — the env-screen's own
        # geometry (San Francisco, no platform iron).
        from repro.core.calibration import CalibrationModel

        derated = FieldVector(north=22e-6, east=0.0, down=40e-6)
        clean = CalibrationStore.sealed(
            CalibrationModel(
                offset_x=0.0, offset_y=0.0,
                matrix=((1.0, 0.0), (0.0, 1.0)), radius=500.0,
            )
        )
        verdict = chain(field_model=derated, store=clean).process(
            fake_measurement(), 25.0, 0.0, 0.0
        )
        assert F_FIELD_BAND not in verdict.flags

    def test_derated_band_strict_raises(self, store):
        derated = FieldVector(north=22e-6, east=0.0, down=40e-6)
        with pytest.raises(EnvelopeError, match="derated"):
            chain(strict=True, field_model=derated, store=store).process(
                fake_measurement(), 25.0, 0.0, 0.0
            )


class TestTiltGuard:
    def test_inside_cone_no_flag(self):
        field = field_at_location("san_francisco")
        c = chain(field_model=field, tilt_enabled=True)
        verdict = c.process(fake_measurement(), 25.0, 6.0, -4.0)
        assert F_TILT_ENVELOPE not in verdict.flags

    def test_beyond_cone_flagged_uncompensated(self):
        field = field_at_location("san_francisco")
        c = chain(field_model=field, tilt_enabled=True)
        m = fake_measurement()
        verdict = c.process(m, 25.0, 25.0, 0.0)
        assert F_TILT_ENVELOPE in verdict.flags
        assert verdict.heading_deg == m.heading_deg  # no extrapolation

    def test_beyond_cone_strict_raises(self):
        field = field_at_location("san_francisco")
        c = chain(field_model=field, tilt_enabled=True, strict=True)
        with pytest.raises(EnvelopeError, match="cone"):
            c.process(fake_measurement(), 25.0, 25.0, 0.0)


class TestResidualMonitor:
    def test_plausible_magnitude_unflagged(self):
        verdict = chain().process(
            fake_measurement(field_t=50e-6), 25.0, 0.0, 0.0
        )
        assert verdict.flags == ()

    def test_implausible_magnitude_latches(self):
        c = chain()
        verdict = c.process(
            fake_measurement(field_t=60e-6), 25.0, 0.0, 0.0
        )
        assert F_FIELD_RESIDUAL in verdict.flags
        assert c.residual_latched

    def test_latch_is_sticky(self):
        # Once integrity is lost it stays lost: a later plausible step
        # does not quietly clear the verdict.
        c = chain()
        c.process(fake_measurement(field_t=60e-6), 25.0, 0.0, 0.0)
        verdict = c.process(
            fake_measurement(field_t=50e-6), 25.0, 0.0, 0.0
        )
        assert F_FIELD_RESIDUAL in verdict.flags

    def test_strict_raises(self):
        with pytest.raises(ScenarioError, match="integrity"):
            chain(strict=True).process(
                fake_measurement(field_t=60e-6), 25.0, 0.0, 0.0
            )


class TestAnomalyGate:
    def test_steady_field_trusted(self):
        c = chain(anomaly_enabled=True)
        for heading in (10.0, 100.0, 190.0):
            verdict = c.process(
                fake_measurement(heading=heading), 25.0, 0.0, 0.0
            )
            assert F_ANOMALY not in verdict.flags

    def test_disturbance_refused_and_stays_refused(self):
        # A field that jumps +60 % and then *holds* must not regain
        # trust: the pre-disturbance baseline is sticky.
        c = chain(anomaly_enabled=True)
        c.process(fake_measurement(heading=10.0), 25.0, 0.0, 0.0)
        for heading in (100.0, 190.0, 280.0):
            verdict = c.process(
                fake_measurement(heading=heading, field_t=80e-6),
                25.0, 0.0, 0.0,
            )
            assert F_ANOMALY in verdict.flags


# -- the runner over the corpus ------------------------------------------------


class TestRunnerCorpus:
    @pytest.mark.parametrize("name", sorted(CLEAN_SPEC_SCENARIOS))
    def test_clean_scenarios_fly_clean(self, name):
        result = run_scenario(name)
        assert result.clean, result.summary()
        assert result.max_abs_error_deg <= TARGET_ACCURACY_DEG

    def test_ambush_degrades_loudly(self):
        result = run_scenario("urban-ambush")
        assert result.honest
        assert not result.clean
        assert result.degraded_steps == 6  # the anomaly window
        assert F_ANOMALY in result.flags
        assert F_FIELD_RESIDUAL in result.flags
        # The unflagged half of the mission stays in spec.
        assert result.max_clean_error_deg <= TARGET_ACCURACY_DEG

    def test_mission_tracks_dead_reckoning(self):
        result = run_scenario("tropic-crossing")
        assert result.drift_m is not None
        assert result.distance_m == pytest.approx(12 * 400.0)
        # Sub-degree headings close the loop to within ~1 % of distance.
        assert result.drift_m < 0.02 * result.distance_m
        assert result.steps[-1].position is not None

    def test_strict_ambush_raises_scenario_error(self):
        runner = ScenarioRunner(get_scenario("urban-ambush"), strict=True)
        with pytest.raises(ScenarioError):
            runner.run()

    def test_strict_cold_soak_raises_envelope_error(self):
        frozen = scenario_with(
            get_scenario("alpine-traverse"),
            name="deep-freeze",
            temperature=TemperatureProfile(base_c=-40.0),
        )
        with pytest.raises(EnvelopeError):
            ScenarioRunner(frozen, strict=True).run()

    def test_telemetry_seam_degrades_not_lies(self):
        """A runaway temperature sensor through the seam: loud, honest."""
        runner = ScenarioRunner(ENV_SCREEN)

        class RunawaySensor:
            def temperature_c(self, step, true_c):
                return true_c + 8.0 * step

            def tilt_deg(self, step, pitch, roll):
                return pitch, roll

        runner.telemetry = RunawaySensor()
        result = runner.run()
        assert result.honest
        assert F_TEMP_IMPLAUSIBLE in result.flags

    def test_env_screen_exercises_temperature_and_tilt(self):
        result = run_scenario("env-screen")
        temps = [s.true_temperature_c for s in result.steps]
        assert temps[0] == 25.0 and temps[-1] == 55.0
        assert result.steps[-1].true_pitch_deg == 6.0
        assert result.steps[0].true_pitch_deg == 0.0


class TestBatchFallback:
    """The batched step pass falls back to scalar only on a typed error."""

    @staticmethod
    def _raising(monkeypatch, error):
        calls = []

        def measure_scene(self, scene):
            calls.append(len(scene))
            raise error

        monkeypatch.setattr(BatchCompass, "measure_scene", measure_scene)
        return calls

    def test_untyped_error_propagates(self, monkeypatch):
        self._raising(monkeypatch, RuntimeError("batch engine bug"))
        with pytest.raises(RuntimeError, match="batch engine bug"):
            ScenarioRunner(ENV_SCREEN).run()

    def test_typed_error_falls_back_to_identical_scalar_steps(
        self, monkeypatch
    ):
        expected = ScenarioRunner(ENV_SCREEN).run().to_dict()
        calls = self._raising(monkeypatch, FaultError("injected batch fault"))
        assert ScenarioRunner(ENV_SCREEN).run().to_dict() == expected
        assert calls


class TestTurnTableBatch:
    """The 13 turn-table measurements run as one batch unless recording;
    the sealed store is the scalar rotation's, bit for bit."""

    CALIBRATED = sorted(
        name for name, s in SCENARIOS.items() if s.compensation.calibration
    )

    @staticmethod
    def _scalar_store(monkeypatch, name):
        with monkeypatch.context() as patch:
            patch.setattr(
                ScenarioRunner, "_measure_batched", lambda self, compass, rows: None
            )
            return ScenarioRunner(SCENARIOS[name])._build_store()

    @pytest.mark.parametrize("name", CALIBRATED)
    def test_batched_store_equals_scalar(self, monkeypatch, name):
        scene_rows = []
        measure_scene = BatchCompass.measure_scene

        def counting(self, scene):
            scene_rows.append(len(scene))
            return measure_scene(self, scene)

        expected = self._scalar_store(monkeypatch, name)
        monkeypatch.setattr(BatchCompass, "measure_scene", counting)
        store = ScenarioRunner(SCENARIOS[name])._build_store()
        assert scene_rows == [13]
        assert store.model == expected.model
        assert store.fit_residual_deg == expected.fit_residual_deg
        assert store.crc == expected.crc
        assert store == expected

    @staticmethod
    def _raising(monkeypatch, error):
        def measure_scene(self, scene):
            raise error

        monkeypatch.setattr(BatchCompass, "measure_scene", measure_scene)

    def test_typed_error_falls_back_to_scalar_store(self, monkeypatch):
        expected = self._scalar_store(monkeypatch, "steel-hull")
        self._raising(monkeypatch, FaultError("injected batch fault"))
        assert ScenarioRunner(SCENARIOS["steel-hull"])._build_store() == expected

    def test_untyped_error_propagates(self, monkeypatch):
        self._raising(monkeypatch, RuntimeError("batch engine bug"))
        with pytest.raises(RuntimeError, match="batch engine bug"):
            ScenarioRunner(SCENARIOS["steel-hull"])._build_store()


class TestBenchBitIdentity:
    """The acceptance anchor: scenarios may not move a clean-path bit."""

    @pytest.fixture(scope="class")
    def golden(self):
        import json
        import pathlib

        path = (
            pathlib.Path(__file__).parent
            / "golden" / "compass_vectors.json"
        )
        return json.loads(path.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("field_ut", [25.0, 50.0, 65.0])
    def test_bench_scenario_bit_identical_to_golden_vectors(
        self, golden, field_ut
    ):
        result = run_scenario(bench_clean_scenario(field_ut))
        vectors = [
            v for v in golden["vectors"] if v["field_ut"] == field_ut
        ]
        assert len(result.steps) == len(vectors) == 16
        for step, vector in zip(result.steps, vectors):
            assert step.commanded_heading_deg == vector["true_heading_deg"]
            # `==` on floats, never approx: the raw and the served
            # heading both reproduce the pinned vector bit-for-bit.
            assert step.raw_heading_deg == vector["heading_deg"]
            assert step.served_heading_deg == vector["heading_deg"]
            assert step.flags == ()

    def test_recording_does_not_move_bits(self, golden, tmp_path):
        recorded = run_scenario(
            bench_clean_scenario(50.0),
            record_path=str(tmp_path / "bench.rplog"),
        )
        vectors = [
            v for v in golden["vectors"] if v["field_ut"] == 50.0
        ]
        for step, vector in zip(recorded.steps, vectors):
            assert step.raw_heading_deg == vector["heading_deg"]


# -- observability -------------------------------------------------------------


class TestScenarioMetrics:
    def test_steps_and_guards_counted(self):
        from repro.observe import MetricsRegistry

        metrics = MetricsRegistry()
        ScenarioRunner(get_scenario("urban-ambush"), metrics=metrics).run()
        snapshot = metrics.snapshot()
        steps = snapshot["scenario_steps_total"]["series"]
        by_status = {s["labels"]["status"]: s["value"] for s in steps}
        assert by_status["ok"] == 6
        assert by_status["degraded"] == 6
        guards = snapshot["scenario_guard_flags_total"]["series"]
        flagged = {s["labels"]["flag"] for s in guards}
        assert F_ANOMALY in flagged


def test_result_serialisation_round_trips():
    result = run_scenario("env-screen")
    record = result.to_dict()
    assert record["scenario"] == "env-screen"
    assert len(record["step_results"]) == 6
    assert record["honest"] is True
    import json

    json.dumps(record)  # JSON-serialisable end to end


def test_chain_math_sanity():
    # The expected-plane-field helper reduces to |H_horizontal| level.
    field = field_at_location("san_francisco")
    c = chain(field_model=field, declination_deg=field.declination_deg)
    level = c._expected_plane_field(123.0, 0.0, 0.0)
    assert level == pytest.approx(
        tesla_to_a_per_m(math.hypot(field.north, field.east)), rel=1e-9
    )
