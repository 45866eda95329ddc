"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro.analog.frontend import FrontEndConfig
from repro.cli import EXIT_CODES, build_parser, exit_code_for, main
from repro.errors import (
    CircuitOpenError,
    ComplianceError,
    ConfigurationError,
    DegradedOperationError,
    DivergenceError,
    FaultError,
    OverloadError,
    ProtocolError,
    QuorumError,
    ReplayError,
    ReproError,
    ServiceError,
    SLOViolationError,
)
from repro.report import report_json

ALL_COMMANDS = {
    "measure", "sweep", "power", "area", "scan", "faults", "trace",
    "metrics", "serve-sim", "soak", "fleet-sim", "fleet-soak", "factory",
    "scenario", "array", "record", "replay", "diff", "datasheet",
    "floorplan", "watch",
}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        [verbs] = [
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert set(verbs.choices) == ALL_COMMANDS
        # Commands with required arguments.
        required = {
            "record": ["--out", "x.rplog"],
            "replay": ["x.rplog"],
            "diff": ["x.rplog"],
        }
        for command in sorted(ALL_COMMANDS):
            args = parser.parse_args([command] + required.get(command, []))
            assert args.command == command


class TestMeasure:
    def test_default_measurement(self, capsys):
        assert main(["measure"]) == 0
        out = capsys.readouterr().out
        assert "measured" in out
        assert "LCD" in out

    def test_custom_heading_and_field(self, capsys):
        assert main(["measure", "--heading", "270", "--field", "35"]) == 0
        out = capsys.readouterr().out
        assert "true heading : 270.00 deg" in out
        assert "W" in out


class TestSweep:
    def test_sweep_passes_budget(self, capsys):
        assert main(["sweep", "--points", "8"]) == 0
        out = capsys.readouterr().out
        assert "max |error|" in out
        assert out.count("->") == 8
        assert "fastpath: used 16/16" in out


class TestPower:
    def test_power_report(self, capsys):
        assert main(["power", "--rate", "2"]) == 0
        out = capsys.readouterr().out
        assert "gated (paper design)" in out
        assert "always-on" in out


class TestArea:
    def test_area_report(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "quarter 0: digital" in out
        assert "cordic" in out


class TestScan:
    def test_good_board_passes(self, capsys):
        assert main(["scan"]) == 0
        assert "RESULT: PASS" in capsys.readouterr().out

    def test_fault_injection_fails(self, capsys):
        assert main(["scan", "--fault", "open:x_pick_p"]) == 1
        out = capsys.readouterr().out
        assert "RESULT: FAIL" in out
        assert "open/stuck-1" in out

    def test_complement_mode(self, capsys):
        assert main(["scan", "--complement", "--fault", "stuck0:osc_timing"]) == 1
        assert "stuck-0" in capsys.readouterr().out

    def test_unknown_fault_kind(self, capsys):
        assert main(["scan", "--fault", "melted:x_pick_p"]) == 2
        assert "unknown fault kind" in capsys.readouterr().err


@pytest.fixture
def stepped_default(monkeypatch):
    """Pin the stepped engine in the compasses a verb builds by default."""
    import repro.core.compass as compass_module

    default = compass_module.CompassConfig

    def stepped(**fields):
        return default(front_end=FrontEndConfig(fastpath=False), **fields)

    monkeypatch.setattr(compass_module, "CompassConfig", stepped)


class TestTraceCommand:
    def test_trace_prints_full_span_tree(self, capsys, stepped_default):
        assert main(["trace", "--heading", "45"]) == 0
        out = capsys.readouterr().out
        for stage in (
            "measure", "channel.x", "channel.y", "excitation", "pickup",
            "comparator", "backend", "counter.x", "counter.y", "cordic",
            "cordic.iter.7",
        ):
            assert stage in out
        assert "heading_deg=45" in out

    def test_default_trace_shows_the_certified_fastpath(self, capsys):
        assert main(["trace", "--heading", "45"]) == 0
        out = capsys.readouterr().out
        assert "fastpath" in out and "resolved=0" in out
        assert "pickup" not in out

    def test_trace_batch_writes_sinks(self, capsys, tmp_path):
        vcd = tmp_path / "trace.vcd"
        jsonl = tmp_path / "trace.jsonl"
        assert main([
            "trace", "--batch", "--vcd", str(vcd), "--jsonl", str(jsonl),
        ]) == 0
        out = capsys.readouterr().out
        assert "batch.sweep" in out
        assert "$timescale" in vcd.read_text()
        records = [
            json.loads(line)
            for line in jsonl.read_text().splitlines()
        ]
        assert any(r["name"] == "batch.sweep" for r in records)


class TestMetricsCommand:
    def test_metrics_counts_both_paths(self, capsys, stepped_default):
        assert main(["metrics", "--points", "1"]) == 0
        out = capsys.readouterr().out
        assert "compass_measurements_total{path=batch,status=ok} 1" in out
        assert "compass_measurements_total{path=scalar,status=ok} 1" in out
        assert "health_checks_total" in out
        assert "excitation_cache_total" in out

    def test_metrics_export_fastpath_outcomes(self, capsys):
        assert main(["metrics", "--points", "1"]) == 0
        out = capsys.readouterr().out
        assert "fastpath_total{outcome=used,reason=none} 4" in out


class TestDatasheet:
    def test_datasheet_renders(self, capsys):
        assert main(["datasheet", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "MEASURED DATASHEET" in out
        assert "heading accuracy (max)" in out


class TestFloorplan:
    def test_floorplan_renders(self, capsys):
        assert main(["floorplan"]) == 0
        out = capsys.readouterr().out
        assert "legend:" in out
        assert "analog_front_end" in out


class TestWatch:
    def test_watch_advances(self, capsys):
        assert main(["watch", "--set", "08:30", "--advance", "90"]) == 0
        out = capsys.readouterr().out
        assert "08:31:30" in out


class TestTypedExitCodes:
    def test_every_error_class_has_a_distinct_code(self):
        codes = list(EXIT_CODES.values())
        assert len(codes) == len(set(codes))
        assert all(code != 0 for code in codes)

    def test_most_derived_class_wins(self):
        assert exit_code_for(DegradedOperationError("x")) == 9
        assert exit_code_for(FaultError("x")) == 8
        assert exit_code_for(ProtocolError("x")) == 5
        assert exit_code_for(ComplianceError("x")) == 4
        assert exit_code_for(ConfigurationError("x")) == 3
        assert exit_code_for(ReproError("x")) == 10

    def test_service_error_codes(self):
        assert exit_code_for(ServiceError("x")) == 11
        assert exit_code_for(CircuitOpenError("x")) == 12
        assert exit_code_for(QuorumError("x")) == 13

    def test_replay_error_codes(self):
        assert exit_code_for(ReplayError("x")) == 14
        assert exit_code_for(DivergenceError("x")) == 15

    def test_fleet_error_codes(self):
        assert exit_code_for(OverloadError("x")) == 16
        assert exit_code_for(SLOViolationError("x")) == 17

    def test_scenario_error_codes(self):
        from repro.errors import EnvelopeError, ScenarioError

        assert exit_code_for(ScenarioError("x")) == 19
        # EnvelopeError subclasses ScenarioError: same typed exit.
        assert exit_code_for(EnvelopeError("x")) == 19

    def test_weak_field_exits_with_protocol_code(self, capsys):
        # 0.001 µT is below the counter trust threshold → ProtocolError.
        assert main(["measure", "--field", "0.001"]) == 5
        captured = capsys.readouterr()
        assert "ProtocolError" in captured.err
        assert "Traceback" not in captured.err
        assert captured.err.count("\n") == 1  # one-line message

    def test_clean_measure_still_exits_zero(self, capsys):
        assert main(["measure"]) == 0


class TestFaultsCommand:
    def test_smoke_campaign_passes_and_writes_json(self, capsys, tmp_path):
        path = tmp_path / "campaign.json"
        code = main([
            "faults", "--headings", "45", "--paths", "scalar",
            "--json", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "silent-wrong=0" in out
        assert "RESULT: PASS" in out
        text = path.read_text()
        assert text == report_json(json.loads(text))
        record = json.loads(text)
        assert record["summary"]["silent_wrong"] == 0

    def test_single_fault_selection(self, capsys):
        code = main([
            "faults", "--headings", "45", "--paths", "scalar",
            "--fault", "digital.cordic_rom_bitflip",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "digital.cordic_rom_bitflip" in out
        assert "sensor." not in out

    def test_unknown_fault_exits_with_configuration_code(self, capsys):
        assert main(["faults", "--fault", "bogus.fault"]) == 3
        assert "ConfigurationError" in capsys.readouterr().err

    def test_nonconforming_cell_is_named_and_fails(self, capsys, monkeypatch):
        from repro.faults import (
            CampaignCell,
            CampaignResult,
            FaultCampaign,
            Outcome,
        )

        cell = CampaignCell(
            fault="digital.cordic_rom_bitflip", severity=1.0,
            heading_deg=45.0, path="scalar", outcome=Outcome.BENIGN,
            error_deg=0.01, detail="expected detected", conforms=False,
        )
        monkeypatch.setattr(
            FaultCampaign, "run", lambda self: CampaignResult(cells=[cell])
        )
        assert main(["faults", "--headings", "45"]) == 1
        captured = capsys.readouterr()
        [line] = [
            line for line in captured.err.splitlines()
            if line.startswith("NONCONFORMING:")
        ]
        assert "digital.cordic_rom_bitflip" in line
        assert "heading=45.0" in line
        assert "RESULT: FAIL" in captured.out


class TestScenarioCommand:
    def test_registered_in_parser(self):
        args = build_parser().parse_args(["scenario"])
        assert args.command == "scenario"
        assert args.scenario is None
        assert not args.campaign

    def test_list_corpus(self, capsys):
        assert main(["scenario", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("bench-clean-50ut", "urban-ambush", "env-screen"):
            assert name in out

    def test_clean_mission_passes_and_writes_json(self, capsys, tmp_path):
        path = tmp_path / "mission.json"
        code = main([
            "scenario", "--scenario", "env-screen", "--json", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "RESULT: PASS" in out
        assert "0 silent-wrong" in out
        text = path.read_text()
        assert text == report_json(json.loads(text))
        record = json.loads(text)
        assert record["scenario"] == "env-screen"
        assert record["honest"] is True

    def test_record_writes_a_valid_rplog(self, capsys, tmp_path):
        path = tmp_path / "mission.rplog"
        code = main([
            "scenario", "--scenario", "env-screen",
            "--record", str(path),
        ])
        assert code == 0
        from repro.replay import read_log

        assert len(read_log(str(path))) > 0

    def test_file_scenario_round_trip(self, capsys, tmp_path):
        from repro.scenario import get_scenario

        path = tmp_path / "scenario.json"
        path.write_text(
            json.dumps(get_scenario("env-screen").to_dict())
        )
        assert main(["scenario", "--file", str(path)]) == 0
        assert "env-screen" in capsys.readouterr().out

    def test_strict_guard_trip_exits_19(self, capsys):
        code = main([
            "scenario", "--scenario", "urban-ambush", "--strict",
        ])
        assert code == 19
        err = capsys.readouterr().err
        assert "ScenarioError" in err
        assert "Traceback" not in err

    def test_unknown_scenario_exits_with_configuration_code(self, capsys):
        assert main(["scenario", "--scenario", "bogus"]) == 3
        assert "ConfigurationError" in capsys.readouterr().err

    def test_degraded_mission_still_passes_when_honest(self, capsys):
        # urban-ambush degrades loudly — honest, so exit 0.
        assert main(["scenario", "--scenario", "urban-ambush"]) == 0
        out = capsys.readouterr().out
        assert "6 degraded" in out
        assert "RESULT: PASS" in out


class TestArrayCommand:
    def test_json_to_stdout_is_json_only(self, capsys):
        assert main(["array", "--elements", "1", "--json", "-"]) == 0
        captured = capsys.readouterr()
        record = json.loads(captured.out)
        assert record["fused"]["n_used"] == 1
        assert "fused        :" in captured.err

    def test_strict_ambush_exits_20(self, capsys):
        assert main(["array", "--ambush", "5", "--strict"]) == 20
        assert "ArrayFusionError" in capsys.readouterr().err


class TestServeSimCommand:
    def test_clean_pool_serves_authoritative(self, capsys):
        assert main(["serve-sim", "--requests", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("authoritative") == 3
        assert "replica-0=closed" in out

    def test_armed_fault_degrades_and_opens_the_breaker(self, capsys):
        code = main([
            "serve-sim", "--requests", "4",
            "--fault", "digital.cordic_rom_bitflip",
            "--on-replica", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "armed digital.cordic_rom_bitflip" in out
        assert "quorum-degraded" in out
        assert "replica-1=open" in out

    def test_replica_index_validated(self, capsys):
        assert main([
            "serve-sim", "--fault", "digital.cordic_rom_bitflip",
            "--on-replica", "7",
        ]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_unknown_fault_exits_with_configuration_code(self, capsys):
        assert main(["serve-sim", "--fault", "bogus.fault"]) == 3
        assert "ConfigurationError" in capsys.readouterr().err


class TestSoakCommand:
    def test_short_soak_passes_and_writes_json(self, capsys, tmp_path):
        path = tmp_path / "soak.json"
        code = main([
            "soak", "--requests", "20", "--seed", "0", "--json", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "RESULT: PASS" in out
        text = path.read_text()
        assert text == report_json(json.loads(text))
        record = json.loads(text)
        assert record["silent_wrong"] == 0
        assert record["requests"] == 20

    def test_broken_invariant_fails_loudly(self, capsys):
        # quorum == N leaves no redundancy margin: any hard fault drops
        # the request, availability misses the floor, and the soak must
        # exit nonzero — it is a gate, not a report.
        code = main([
            "soak", "--requests", "20", "--seed", "0",
            "--replicas", "3", "--quorum", "3",
        ])
        assert code == 1
        assert "RESULT: FAIL" in capsys.readouterr().out


class TestFleetCommands:
    def test_fleet_sim_drives_and_reports(self, capsys):
        code = main([
            "fleet-sim", "--rps", "50", "--duration", "0.5",
            "--shards", "1", "--seed", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "offered" in out
        assert "availability" in out
        assert "cache:" in out
        assert "shard-0" in out

    def test_fleet_soak_passes_and_writes_artifacts(self, capsys, tmp_path):
        report_path = tmp_path / "storm.json"
        metrics_path = tmp_path / "metrics.json"
        code = main([
            "fleet-soak", "--rated", "100", "--shards", "1", "--seed", "0",
            "--phase", "1:1", "--phase", "4:1", "--no-chaos",
            "--json", str(report_path), "--metrics", str(metrics_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "RESULT: PASS" in out
        text = report_path.read_text()
        assert text == report_json(json.loads(text))
        record = json.loads(text)
        assert record["invariants_ok"] is True
        assert [p["label"] for p in record["phases"]] == ["x1", "x4"]
        assert all(p["silent_wrong"] == 0 for p in record["phases"])
        metrics = json.loads(metrics_path.read_text())
        assert "fleet_requests_total" in json.dumps(metrics)

    def test_fleet_soak_slo_violation_exits_17(self, capsys):
        # 2x of a 5 rps rating is far below one shard's capacity: nothing
        # sheds, so the "typed shedding past saturation" gate must trip.
        code = main([
            "fleet-soak", "--rated", "5", "--shards", "1", "--seed", "0",
            "--phase", "2:1", "--no-chaos",
        ])
        assert code == 17
        captured = capsys.readouterr()
        assert "SLOViolationError" in captured.err
        assert "typed shedding" in captured.err


class TestReplayCommands:
    def test_record_replay_diff_smoke(self, capsys, tmp_path):
        log = str(tmp_path / "sweep.rplog")
        report = tmp_path / "divergences.json"
        assert main(["record", "--out", log, "--points", "4"]) == 0
        assert "4 measurements" in capsys.readouterr().out
        assert main(["replay", log]) == 0
        assert "RESULT: PASS" in capsys.readouterr().out
        assert main(["replay", log, "--full"]) == 0
        assert main([
            "diff", log, "--paths", "recorded", "scalar", "batch",
            "--json", str(report),
        ]) == 0
        assert "RESULT: PASS" in capsys.readouterr().out
        text = report.read_text()
        assert text == report_json(json.loads(text))
        record = json.loads(text)
        assert record["n_records"] == 4
        assert all(not r["divergences"] for r in record["results"])

    def test_batch_recording_replays_through_scalar_chain(self, capsys, tmp_path):
        log = str(tmp_path / "batch.rplog")
        assert main(["record", "--out", log, "--points", "3", "--batch"]) == 0
        assert main(["replay", log, "--full"]) == 0
        assert "RESULT: PASS" in capsys.readouterr().out

    def test_truncated_log_exits_with_replay_code(self, capsys, tmp_path):
        log = tmp_path / "cut.rplog"
        assert main(["record", "--out", str(log), "--points", "3"]) == 0
        lines = log.read_text().splitlines()
        log.write_text("\n".join(lines[:-1]) + "\n")  # drop the footer
        capsys.readouterr()
        assert main(["replay", str(log)]) == 14
        assert "no footer" in capsys.readouterr().err

    def test_corrupted_record_exits_with_replay_code(self, capsys, tmp_path):
        log = tmp_path / "bad.rplog"
        assert main(["record", "--out", str(log), "--points", "3"]) == 0
        lines = log.read_text().splitlines()
        lines[2] = lines[2].replace('"heading_deg"', '"heading_DEG"', 1)
        log.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["replay", str(log)]) == 14

    def test_silent_wrong_divergence_exits_15(self, capsys, tmp_path):
        log = tmp_path / "wrong.rplog"
        assert main(["record", "--out", str(log), "--points", "3"]) == 0
        # Rewrite one recorded heading: the log now disagrees with what
        # its own pulses replay to — a silent-wrong divergence.
        lines = log.read_text().splitlines()
        mutated = []
        for line in lines:
            record = json.loads(line)
            body = record.get("record")
            if body is not None and body["seq"] == 1:
                from repro.replay import MeasurementRecord
                from repro.replay.format import encode_line
                import dataclasses
                parsed = MeasurementRecord.from_dict(body)
                parsed = dataclasses.replace(
                    parsed, heading_deg=parsed.heading_deg + 45.0
                )
                line = encode_line("record", parsed.to_dict())
            mutated.append(line)
        log.write_text("\n".join(mutated) + "\n")
        capsys.readouterr()
        assert main(["diff", str(log), "--paths", "recorded", "backend"]) == 15
        err = capsys.readouterr().err
        assert "silent-wrong" in err
