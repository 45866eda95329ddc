"""Record/replay round-trips: every path, bit-exact, self-checking.

The contract under test (docs/replay.md):

* recording is **transparent** — a recorded measurement is bit-identical
  to an unrecorded one;
* a log **round-trips** — back-end replay from recorded pulses and
  full-chain replay from recorded inputs both reproduce every count,
  register, heading and field estimate with ``==``;
* this holds for the scalar, batch, instrumented and service-replica
  execution paths;
* a replayed fault-campaign measurement re-derives the same
  classification the live campaign assigned.
"""

import dataclasses
import math

import pytest

from repro.analog.frontend import FrontEndConfig
from repro.batch import BatchCompass
from repro.core.anomaly import DetectorSettings
from repro.core.compass import CompassConfig, IntegratedCompass
from repro.core.health import HealthConfig
from repro.errors import DivergenceError, ReplayError
from repro.factory.config import DefectDistribution, LotConfig
from repro.faults import FaultCampaign, Outcome, classify_replay_record
from repro.fleet.config import FleetConfig, FleetSLO
from repro.fleet.soak import FleetSoakConfig
from repro.observe import DISABLED, Observability
from repro.physics.noise import TYPICAL_1997_CMOS
from repro.sensors.parameters import PRESETS
from repro.service import ServiceConfig
from repro.replay import (
    KIND_FALLBACK,
    KIND_MEASURED,
    LogHeader,
    LogRecorder,
    ReplayPlayer,
    attach_recorder,
    config_fingerprint,
    read_log,
    reader_from_records,
    replay_full,
    true_heading_from_components,
    verify_full,
)

HEADINGS = (10.0, 45.0, 123.0, 222.25, 300.0, 359.5)
FIELD_T = 50.0e-6

#: Fingerprints of a golden-log header and its neighbours.  Fixed
#: (``init=False``) config values still render in the hashed ``repr``,
#: so fixing a setting must leave every one of these where it is.
PINNED_FINGERPRINTS = [
    pytest.param(CompassConfig(), "62376a0cec30ce1e", id="default"),
    pytest.param(
        CompassConfig(sensor=PRESETS["ideal"]), "62376a0cec30ce1e", id="ideal"
    ),
    pytest.param(
        CompassConfig(sensor=PRESETS["kaw95"]), "9b0406789b3da2e5", id="kaw95"
    ),
    pytest.param(
        CompassConfig(sensor=PRESETS["discrete"]),
        "374e35171ecd98fb",
        id="discrete",
    ),
    pytest.param(
        CompassConfig(core_model="piecewise"), "7d76c4a39519ab65", id="piecewise"
    ),
    pytest.param(
        CompassConfig(core_model="jiles-atherton"),
        "fccf3ee565b50bc6",
        id="jiles-atherton",
    ),
    pytest.param(
        CompassConfig(health=HealthConfig(degrade=True)),
        "397a821eadcb49bf",
        id="health-degrade",
    ),
    pytest.param(
        CompassConfig(health=HealthConfig(enabled=False)),
        "172111fafcf014df",
        id="health-disabled",
    ),
    pytest.param(
        CompassConfig(
            front_end=FrontEndConfig(noise=TYPICAL_1997_CMOS, noise_seed=3)
        ),
        "f502a82bc5f84a31",
        id="noisy-seed-3",
    ),
    pytest.param(
        CompassConfig(cordic_iterations=12), "e919499d097a3c7f", id="cordic-12"
    ),
]

#: Every fixed config value, ``(class, field, value)``: the design point
#: no caller sets.
FIXED_VALUES = [
    (HealthConfig, "min_field_t", 25.0e-6),
    (HealthConfig, "max_field_t", 65.0e-6),
    (HealthConfig, "band_margin", 0.5),
    (HealthConfig, "hard_band_factor", 2.0),
    (HealthConfig, "tick_window_tolerance", 2),
    (HealthConfig, "duty_margin_ticks", 4),
    (HealthConfig, "edge_tolerance", 2),
    (FrontEndConfig, "amplifier_gain", 100.0),
    (Observability, "ring_capacity", 256),
    (Observability, "vcd_timescale_ns", 1000.0),
    (LotConfig, "bist_heading_deg", 123.0),
    (LotConfig, "calibration_start_deg", 0.5),
    (LotConfig, "oracle_headings", 24),
    (LotConfig, "oracle_start_deg", 8.0),
    (LotConfig, "tck_hz", 1.0e6),
    (LotConfig, "product_tolerance_deg", 1.0),
    (LotConfig, "calibration_path", "batch"),
    (DefectDistribution, "max_faults_per_unit", 2),
    (DetectorSettings, "max_heading_jump_deg", 30.0),
    (ServiceConfig, "max_attempts_per_replica", 3),
    (FleetConfig, "vnodes", 64),
    (FleetConfig, "slo", FleetSLO()),
    (FleetSLO, "p99_latency_s", 0.30),
    (FleetSLO, "availability_floor", 0.99),
    (FleetSoakConfig, "chaos_interval_s", 0.05),
]


def record_scalar(headings=HEADINGS, config=None):
    compass = IntegratedCompass(config if config is not None else CompassConfig())
    recorder = attach_recorder(compass, LogRecorder())
    for truth in headings:
        compass.measure_heading(truth, FIELD_T)
    return reader_from_records(recorder.header, recorder.records)


@pytest.fixture(scope="module")
def scalar_reader():
    return record_scalar()


class TestRecorder:
    def test_recording_is_transparent(self):
        """A recorded measurement is bit-identical to an unrecorded one."""
        plain = IntegratedCompass().measure_heading(123.0, FIELD_T)
        compass = IntegratedCompass()
        attach_recorder(compass, LogRecorder())
        recorded = compass.measure_heading(123.0, FIELD_T)
        assert recorded.heading_deg == plain.heading_deg
        assert recorded.x_count == plain.x_count
        assert recorded.y_count == plain.y_count
        assert (
            recorded.field_estimate_a_per_m == plain.field_estimate_a_per_m
        )

    def test_attach_does_not_mutate_shared_disabled_observer(self):
        compass = IntegratedCompass()
        assert compass.observer is DISABLED
        attach_recorder(compass, LogRecorder())
        assert compass.observer is not DISABLED
        assert DISABLED.recorder is None
        assert DISABLED.tracer is None

    def test_attach_to_enabled_observer_keeps_tracer(self):
        compass = IntegratedCompass(CompassConfig(observe=Observability.on()))
        tracer = compass.observer.tracer
        recorder = attach_recorder(compass, LogRecorder())
        assert compass.observer.tracer is tracer
        assert compass.observer.recorder is recorder

    def test_records_capture_every_stage(self, scalar_reader):
        record = scalar_reader.record(0)
        assert record.kind == KIND_MEASURED
        assert record.h_x is not None and record.h_y is not None
        assert set(record.channels) == {"x", "y"}
        assert set(record.counter) == {"x", "y"}
        assert record.channels["x"].edges  # comparator fired
        assert record.cordic is not None
        assert len(record.cordic.steps) == record.cordic.cycles == 8
        assert record.health is not None

    def test_recorded_inputs_invert_to_true_heading(self, scalar_reader):
        for truth, record in zip(HEADINGS, scalar_reader):
            derived = true_heading_from_components(record.h_x, record.h_y)
            assert math.isclose(derived, truth, abs_tol=1e-9)

    def test_bind_rejects_a_second_design_point(self):
        recorder = LogRecorder()
        recorder.bind(CompassConfig())
        with pytest.raises(ReplayError, match="different compass"):
            recorder.bind(CompassConfig(cordic_iterations=12))

    def test_bind_is_idempotent_for_the_same_config(self):
        recorder = LogRecorder()
        recorder.bind(CompassConfig())
        recorder.bind(CompassConfig())
        assert recorder.header is not None

    def test_closed_recorder_rejects_records(self):
        compass = IntegratedCompass()
        recorder = attach_recorder(compass, LogRecorder())
        recorder.close()
        with pytest.raises(ReplayError, match="closed"):
            compass.measure_heading(45.0, FIELD_T)

    def test_fingerprint_ignores_observability(self):
        base = CompassConfig()
        instrumented = dataclasses.replace(base, observe=Observability.on())
        assert config_fingerprint(base) == config_fingerprint(instrumented)
        assert config_fingerprint(base) != config_fingerprint(
            dataclasses.replace(base, cordic_iterations=12)
        )


class TestFixedConfig:
    @pytest.mark.parametrize("config, fingerprint", PINNED_FINGERPRINTS)
    def test_fingerprint_is_pinned(self, config, fingerprint):
        assert config_fingerprint(config) == fingerprint

    @pytest.mark.parametrize(
        "cls, name, value",
        FIXED_VALUES,
        ids=[f"{cls.__name__}.{name}" for cls, name, _ in FIXED_VALUES],
    )
    def test_fixed_value_is_not_settable(self, cls, name, value):
        with pytest.raises(TypeError):
            cls(**{name: value})
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(cls(), **{name: value})
        assert getattr(cls(), name) == value


class TestFileLogs:
    def test_declarative_recording_via_observability(self, tmp_path):
        path = str(tmp_path / "run.rplog")
        config = CompassConfig(
            observe=Observability.on(replay_path=path)
        )
        compass = IntegratedCompass(config)
        for truth in HEADINGS[:3]:
            compass.measure_heading(truth, FIELD_T)
        compass.observer.close()
        reader = read_log(path)
        assert len(reader) == 3
        assert reader.header.fingerprint == config_fingerprint(config)
        assert ReplayPlayer(reader.header).verify(reader) == 3

    def test_file_and_memory_logs_are_identical(self, tmp_path, scalar_reader):
        path = str(tmp_path / "file.rplog")
        compass = IntegratedCompass()
        attach_recorder(compass, LogRecorder(path))
        for truth in HEADINGS:
            compass.measure_heading(truth, FIELD_T)
        compass.observer.close()
        reader = read_log(path)
        assert len(reader) == len(scalar_reader)
        for a, b in zip(reader, scalar_reader):
            assert a == b

    def test_header_round_trips_and_rebuilds_config(self, scalar_reader):
        header = scalar_reader.header
        assert LogHeader.from_dict(header.to_dict()) == header
        config = header.rebuild_config()
        assert config_fingerprint(config) == header.fingerprint


class TestBackendReplay:
    def test_backend_replay_is_bit_exact(self, scalar_reader):
        player = ReplayPlayer(scalar_reader.header)
        for record, replayed in zip(
            scalar_reader, player.replay(scalar_reader)
        ):
            assert replayed.counter == record.counter
            assert replayed.cordic == record.cordic
            assert replayed.heading_deg == record.heading_deg
            assert (
                replayed.field_estimate_a_per_m
                == record.field_estimate_a_per_m
            )

    def test_verify_counts_records(self, scalar_reader):
        assert ReplayPlayer(scalar_reader.header).verify(scalar_reader) == len(
            HEADINGS
        )

    def test_faulted_backend_raises_divergence(self, scalar_reader):
        suspect = scalar_reader.header.build_backend()
        rom = list(suspect.cordic.rom)
        rom[3] += 7
        suspect.cordic.rom = rom
        player = ReplayPlayer(scalar_reader.header, back_end=suspect)
        with pytest.raises(DivergenceError, match="cordic.iter"):
            player.verify(scalar_reader)


class TestFullChainReplay:
    def test_scalar_full_chain_round_trip(self, scalar_reader):
        assert verify_full(scalar_reader) == len(HEADINGS)

    def test_batch_path_round_trip(self):
        compass = IntegratedCompass()
        batch = BatchCompass(compass)
        recorder = attach_recorder(compass, LogRecorder())
        batch.sweep_headings(HEADINGS, FIELD_T)
        reader = reader_from_records(recorder.header, recorder.records)
        assert len(reader) == len(HEADINGS)
        assert reader.record(0).path == "batch"
        # Recorded on the batch path, replayed through the scalar chain.
        assert verify_full(reader) == len(HEADINGS)
        assert ReplayPlayer(reader.header).verify(reader) == len(HEADINGS)

    def test_service_replica_path_round_trip(self, scalar_reader):
        from repro.service import HeadingService, ServiceConfig

        service = HeadingService(
            ServiceConfig(compass=scalar_reader.header.rebuild_config())
        )
        replica_compass = service.replicas[0].compass
        replayed = replay_full(scalar_reader, compass=replica_compass)
        for record, fresh in zip(scalar_reader, replayed):
            assert fresh.heading_deg == record.heading_deg
            assert fresh.counter == record.counter

    def test_replay_full_rejects_inputless_records(self, scalar_reader):
        stripped = [
            dataclasses.replace(record, h_x=None, h_y=None)
            for record in scalar_reader.records()
        ]
        reader = reader_from_records(scalar_reader.header, stripped)
        with pytest.raises(ReplayError, match="no axis-field inputs"):
            replay_full(reader)


class TestFallbackRecords:
    @pytest.fixture(scope="class")
    def degraded_reader(self):
        """A log whose tail was served from the stale-heading fallback."""
        from repro.faults import REGISTRY

        config = CompassConfig(
            health=dataclasses.replace(CompassConfig().health, degrade=True)
        )
        compass = IntegratedCompass(config)
        recorder = attach_recorder(compass, LogRecorder())
        compass.measure_heading(45.0, FIELD_T)
        with REGISTRY.inject("digital.cordic_rom_bitflip", compass, 9.0):
            compass.measure_heading(123.0, FIELD_T)
        return reader_from_records(recorder.header, recorder.records)

    def test_fallback_records_are_captured(self, degraded_reader):
        kinds = [record.kind for record in degraded_reader]
        assert kinds[0] == KIND_MEASURED
        assert KIND_FALLBACK in kinds

    def test_fallback_passes_through_backend_replay(self, degraded_reader):
        player = ReplayPlayer(degraded_reader.header)
        replayed = player.replay(degraded_reader)
        for record, fresh in zip(degraded_reader, replayed):
            if record.kind == KIND_FALLBACK:
                assert fresh is record


class TestCampaignReplay:
    """Replaying a fault-campaign cell reproduces its classification."""

    @pytest.fixture(scope="class")
    def campaign_run(self):
        campaign = FaultCampaign(
            faults=["analog.amplifier_offset", "digital.cordic_rom_bitflip"],
            headings_deg=(45.0, 123.0),
            paths=("scalar",),
            record_logs=True,
        )
        return campaign, campaign.run()

    def test_logs_recorded_per_fault_and_severity(self, campaign_run):
        campaign, result = campaign_run
        expected_keys = {
            (cell.fault, cell.severity)
            for cell in result.cells
            if cell.path == "scalar"
        }
        assert set(campaign.scalar_logs) == expected_keys

    def test_replayed_classification_matches_live_cells(self, campaign_run):
        campaign, result = campaign_run
        for (fault, severity), recorder in campaign.scalar_logs.items():
            cells = [
                cell for cell in result.cells
                if cell.fault == fault and cell.severity == severity
                and cell.path == "scalar"
                and cell.outcome is not Outcome.DETECTED
            ]
            records = recorder.records[1:]  # record 0 is the clean warm-up
            assert len(records) == len(cells)
            for cell, record in zip(cells, records):
                truth = true_heading_from_components(record.h_x, record.h_y)
                assert math.isclose(truth, cell.heading_deg, abs_tol=1e-9)
                outcome, error, _ = classify_replay_record(record, truth)
                assert outcome is cell.outcome
                assert error == pytest.approx(cell.error_deg)

    def test_campaign_logs_contain_the_fault_signature(self, campaign_run):
        """The recorded log itself replays bit-exactly — fault included."""
        campaign, _ = campaign_run
        recorder = campaign.scalar_logs[("analog.amplifier_offset", 5e-06)]
        reader = reader_from_records(recorder.header, recorder.records)
        assert ReplayPlayer(reader.header).verify(reader) == len(reader)
