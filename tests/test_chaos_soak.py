"""Chaos soak: the service-level robustness invariants under a fault storm.

A short soak runs in the default tier as a smoke check; the
acceptance-grade soak (more requests, more chaos) is marked ``slow`` and
runs in the dedicated CI job alongside ``benchmarks/bench_service_soak.py``.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.faults import REGISTRY, ChaosSoak, SoakConfig
from repro.report import write_report
from repro.service import ServiceConfig
from repro.units import TARGET_ACCURACY_DEG


class TestSoakConfig:
    def test_request_floor(self):
        with pytest.raises(ConfigurationError):
            SoakConfig(requests=0)

    def test_availability_floor_range(self):
        with pytest.raises(ConfigurationError):
            SoakConfig(availability_floor=1.5)

    def test_chaos_budget_is_a_strict_minority(self):
        assert SoakConfig().chaos_budget == 1
        assert SoakConfig(
            service=ServiceConfig(replicas=5, quorum=3)
        ).chaos_budget == 2

    def test_scan_faults_refused(self):
        scan_faults = [
            s.name for s in REGISTRY.specs() if s.probe != "measurement"
        ]
        assert scan_faults  # the registry does carry scan-probe faults
        with pytest.raises(ConfigurationError, match="measurement"):
            ChaosSoak(SoakConfig(faults=scan_faults[:1]))

    def test_default_fault_set_is_measurement_probe_only(self):
        soak = ChaosSoak(SoakConfig())
        assert soak.fault_names
        for name in soak.fault_names:
            assert REGISTRY.get(name).probe == "measurement"


class TestSmokeSoak:
    def test_invariants_hold_on_a_short_storm(self):
        config = SoakConfig(requests=25, seed=0)
        report = ChaosSoak(config).run()
        assert report.requests == 25
        assert report.silent_wrong == 0
        assert report.worst_error_deg <= TARGET_ACCURACY_DEG
        assert report.availability >= config.availability_floor
        assert report.invariants_ok(config.availability_floor)

    def test_chaos_actually_happened(self):
        report = ChaosSoak(SoakConfig(requests=25, seed=0)).run()
        assert report.events  # the storm armed at least one fault
        assert report.faults_armed

    def test_deterministic_for_a_seed(self):
        a = ChaosSoak(SoakConfig(requests=20, seed=5)).run()
        b = ChaosSoak(SoakConfig(requests=20, seed=5)).run()
        da, db = a.to_dict(), b.to_dict()
        da.pop("elapsed_s")
        db.pop("elapsed_s")
        assert da == db
        assert a.events == b.events

    def test_report_json_round_trips(self, tmp_path):
        report = ChaosSoak(SoakConfig(requests=10, seed=2)).run()
        path = tmp_path / "soak.json"
        write_report(str(path), report.to_dict())
        record = json.loads(path.read_text())
        assert record["requests"] == 10
        assert record["silent_wrong"] == 0
        assert 0.0 <= record["availability"] <= 1.0
        assert "attempts_p50" in record and "attempts_p99" in record

    def test_no_fault_leaks_after_the_soak(self):
        # Injections are reversible monkey-hooks; the soak must unwind
        # every one of them, so a fresh service right after is clean.
        from repro.service import HeadingService, ServiceVerdict

        ChaosSoak(SoakConfig(requests=15, seed=9)).run()
        response = HeadingService().measure_heading(123.0)
        assert response.verdict is ServiceVerdict.AUTHORITATIVE
        assert response.heading_deg == 123.40234375


@pytest.mark.slow
class TestAcceptanceSoak:
    def test_acceptance_invariants_at_scale(self):
        config = SoakConfig(requests=200, seed=0)
        report = ChaosSoak(config).run()
        assert report.silent_wrong == 0
        assert report.availability >= 0.99
        assert report.worst_error_deg <= 1.0
        # The storm exercised the retry/breaker machinery for real.
        assert report.breaker_transitions > 0
        assert report.attempts_percentile(99.0) > 3.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_invariants_are_seed_independent(self, seed):
        config = SoakConfig(requests=120, seed=seed)
        report = ChaosSoak(config).run()
        assert report.invariants_ok(config.availability_floor)
