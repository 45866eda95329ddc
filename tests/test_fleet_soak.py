"""Tests for the fleet soak: determinism, gates, and the full storm.

The fast tier drives a short storm (small fleet, ~2 simulated seconds)
and asserts bit-identical replays plus the report's gate logic against
hand-built reports.  The ``slow``-marked acceptance storm runs the
default schedule — warm-up, rated, 4x overload, recovery — under chaos
and asserts the PR's headline promises: availability at rated load,
silent-wrong = 0 everywhere, typed shedding past saturation, p99
within SLO.
"""

import json

import pytest

from repro.errors import ConfigurationError, SLOViolationError
from repro.fleet import (
    FleetConfig,
    FleetSoak,
    FleetSoakConfig,
    FleetSoakReport,
    OVERLOAD_MULTIPLIER,
)

SMALL = FleetSoakConfig(
    fleet=FleetConfig(shards=1, seed=0),
    rated_rps=100.0,
    phases=((1.0, 1.0), (4.0, 1.0)),
    seed=7,
)


@pytest.fixture(scope="module")
def small_report():
    return FleetSoak(SMALL).run()


def _phase(report, label):
    return next(p for p in report.phases if p["label"] == label)


class TestSmallStorm:
    def test_replays_bit_identically(self, small_report):
        first = small_report.to_dict()
        second = FleetSoak(SMALL).run().to_dict()
        # Wall time is the one legitimately nondeterministic field.
        first.pop("elapsed_wall_s")
        second.pop("elapsed_wall_s")
        assert first == second

    def test_report_shape(self, small_report):
        assert [p["label"] for p in small_report.phases] == ["x1", "x4"]
        assert small_report.elapsed_sim_s == pytest.approx(2.0, abs=0.2)
        for phase in small_report.phases:
            assert phase["offered"] > 0
            assert phase["silent_wrong"] == 0
        json.dumps(small_report.to_dict())  # JSON-serializable throughout

    def test_overload_phase_sheds_loudly(self, small_report):
        overload = _phase(small_report, "x4")
        assert overload["multiplier"] >= OVERLOAD_MULTIPLIER
        assert overload["shed_total"] > 0
        # Every shed is typed: the reasons are the ladder's rungs.
        assert set(overload["shed"]) <= {"rate-limit", "queue-full", "deadline"}

    def test_chaos_schedule_is_logged(self, small_report):
        assert small_report.events
        actions = {event.action for event in small_report.events}
        assert "arm" in actions
        assert sum(small_report.faults_armed.values()) >= 1

    def test_fleet_stats_snapshot_attached(self, small_report):
        stats = small_report.fleet_stats
        assert stats["served"] > 0
        assert stats["shards"][0]["served"] > 0

    def test_no_fault_leaks_after_the_storm(self, small_report):
        # Every storm action is a reversible monkey-hook on one shard
        # replica; the storm must unwind all of them, so a fresh service
        # right after measures clean.
        from repro.service import HeadingService, ServiceVerdict

        assert small_report.faults_armed  # the storm did arm something
        response = HeadingService().measure_heading(123.0)
        assert response.verdict is ServiceVerdict.AUTHORITATIVE
        assert response.heading_deg == 123.40234375

    def test_no_chaos_storm_stays_clean(self):
        config = FleetSoakConfig(
            fleet=FleetConfig(shards=1, seed=0),
            rated_rps=60.0,
            phases=((1.0, 1.0),),
            seed=3,
            chaos=False,
        )
        report = FleetSoak(config).run()
        assert report.events == []
        assert report.faults_armed == {}
        assert report.invariants_ok(), report.violations()


class TestGates:
    def _report(self, **phase_overrides):
        phase = {
            "label": "x1",
            "multiplier": 1.0,
            "offered": 100,
            "served": 100,
            "availability": 1.0,
            "shed_total": 0,
            "latency_p99_ms": 10.0,
            "silent_wrong": 0,
        }
        phase.update(phase_overrides)
        return FleetSoakReport(
            seed=0,
            rated_rps=300.0,
            slo_p99_s=0.30,
            availability_floor=0.99,
            phases=[phase],
        )

    def test_clean_report_passes(self):
        report = self._report()
        assert report.invariants_ok()
        report.raise_for_slo()  # does not raise

    def test_silent_wrong_is_fatal_at_any_load(self):
        report = self._report(multiplier=4.0, silent_wrong=1)
        assert any("silent-wrong" in v for v in report.violations())

    def test_availability_floor_applies_at_or_below_rated(self):
        report = self._report(availability=0.90)
        assert any("availability" in v for v in report.violations())
        # Past saturation the fleet sheds by design: no availability gate.
        overloaded = self._report(
            multiplier=4.0, availability=0.50, shed_total=50
        )
        assert overloaded.invariants_ok()

    def test_p99_slo_applies_to_admitted_requests(self):
        report = self._report(latency_p99_ms=400.0)
        assert any("p99" in v for v in report.violations())

    def test_overload_without_shedding_is_a_violation(self):
        report = self._report(
            multiplier=OVERLOAD_MULTIPLIER, availability=1.0, shed_total=0
        )
        assert any("typed shedding" in v for v in report.violations())

    def test_raise_for_slo_carries_the_report(self):
        report = self._report(silent_wrong=2)
        with pytest.raises(SLOViolationError) as caught:
            report.raise_for_slo()
        assert caught.value.report is report


class TestConfigValidation:
    def test_bad_schedules_rejected(self):
        with pytest.raises(ConfigurationError):
            FleetSoakConfig(rated_rps=0.0)
        with pytest.raises(ConfigurationError):
            FleetSoakConfig(phases=())
        with pytest.raises(ConfigurationError):
            FleetSoakConfig(phases=((1.0, -1.0),))

    def test_only_measurement_faults_can_be_armed(self):
        config = FleetSoakConfig(faults=["scan.tap_tms_stuck"])
        with pytest.raises(ConfigurationError, match="measurement"):
            FleetSoak(config)


@pytest.mark.slow
class TestAcceptanceStorm:
    """The full default storm: the PR's headline overload-survival gate."""

    def test_default_storm_survives_with_all_gates_green(self):
        report = FleetSoak(FleetSoakConfig()).run()
        assert report.invariants_ok(), report.violations()

        rated = [p for p in report.phases if p["multiplier"] == 1.0]
        assert rated and all(
            p["availability"] >= 0.99 for p in rated
        )
        overload = _phase(report, "x4")
        # Past saturation the deeper rungs engage, not just the bucket.
        assert overload["shed_total"] > 0
        assert (
            overload["shed"].get("queue-full", 0)
            + overload["shed"].get("deadline", 0)
            > 0
        )
        # The brownout ladder both engaged and recovered.
        transitions = report.fleet_stats["brownout_transitions"]
        assert transitions
        assert max(level for _, level in transitions) >= 1
        assert report.fleet_stats["brownout_level"] == 0
        # Chaos actually stormed the fleet while all of this held.
        assert sum(report.faults_armed.values()) >= 1
        # Everywhere: shed or degrade loudly, never lie.
        for phase in report.phases:
            assert phase["silent_wrong"] == 0
