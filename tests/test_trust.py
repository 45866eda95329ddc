"""Tests for repro.trust: the one silent-wrong rule and its inputs."""

import math
import random
from types import SimpleNamespace

import pytest

from repro.array.device import ArrayMeasurement
from repro.core.accuracy import ErrorStats
from repro.core.heading import HeadingMeasurement
from repro.core.health import HEALTHY, HealthReport
from repro.faults.campaign import classify_heading, classify_replay_record
from repro.faults.chaos import SoakReport
from repro.fleet.fleet import FleetResponse
from repro.scenario.campaign import classify_scenario
from repro.scenario.dsl import ENV_SCREEN
from repro.scenario.runner import ScenarioResult, StepResult
from repro.service import ServiceResponse, ServiceVerdict
from repro.trust import Outcome, in_spec, served_outcome
from repro.units import (
    TARGET_ACCURACY_DEG,
    angular_difference_deg,
    heading_error_deg,
)

TOL = TARGET_ACCURACY_DEG
JUST_OVER = math.nextafter(TOL, math.inf)


class TestBoundary:
    def test_error_exactly_at_tolerance_is_in_spec(self):
        assert in_spec(TOL)
        assert served_outcome(TOL, True) is Outcome.BENIGN

    def test_next_float_above_tolerance_is_out_of_spec(self):
        assert not in_spec(JUST_OVER)
        assert served_outcome(JUST_OVER, True) is Outcome.SILENT_WRONG
        assert served_outcome(JUST_OVER, False) is Outcome.DEGRADED

    @pytest.mark.parametrize("error", [0.0, TOL, JUST_OVER, 180.0])
    def test_not_authoritative_is_degraded_at_any_error(self, error):
        assert served_outcome(error, False) is Outcome.DEGRADED

    def test_outcome_is_re_exported_by_faults(self):
        from repro.faults import Outcome as FaultsOutcome
        from repro.faults.campaign import Outcome as CampaignOutcome

        assert FaultsOutcome is Outcome is CampaignOutcome


def _headings_astride(truth):
    """``(at, over)``: served headings whose error from ``truth`` is the
    spec exactly, and the first float above ``at`` whose error exceeds
    it (the wrap arithmetic quantises the error near 180, so ``over``'s
    error may sit several ulps above the spec)."""
    at = truth + TOL
    assert heading_error_deg(at, truth) == TOL
    over = at
    while heading_error_deg(over, truth) <= TOL:
        over = math.nextafter(over, math.inf)
    return at, over


def _scenario_step(error_deg):
    return StepResult(
        step=0, commanded_heading_deg=0.0, raw_heading_deg=error_deg,
        served_heading_deg=error_deg, error_deg=error_deg, flags=(),
        detail="", true_temperature_c=25.0, sensed_temperature_c=25.0,
        true_pitch_deg=0.0, true_roll_deg=0.0,
    )


class TestClassifiersAgreeAtTheSpec:
    """Every classifier draws the spec line where :mod:`repro.trust` does:
    an error of exactly 1° is in spec (benign), the next error above it
    is out of spec (silent-wrong when served as trusted)."""

    @pytest.mark.parametrize("truth", [0.5, 45.0, 222.25, 359.5])
    def test_classify_heading(self, truth):
        at, over = _headings_astride(truth)
        outcome, error, _ = classify_heading(at, truth, True)
        assert (outcome, error) == (Outcome.BENIGN, TOL)
        outcome, error, _ = classify_heading(over, truth, True)
        assert outcome is Outcome.SILENT_WRONG and error > TOL
        assert not in_spec(error)

    @pytest.mark.parametrize("truth", [0.5, 45.0, 222.25, 359.5])
    def test_classify_replay_record(self, truth):
        at, over = _headings_astride(truth)
        record = SimpleNamespace(heading_deg=at, health=None)
        assert classify_replay_record(record, truth)[0] is Outcome.BENIGN
        record = SimpleNamespace(heading_deg=over, health=None)
        assert classify_replay_record(record, truth)[0] is Outcome.SILENT_WRONG

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_scenario_step_and_run(self, sign):
        at = _scenario_step(sign * TOL)
        over = _scenario_step(sign * JUST_OVER)
        assert at.in_spec and not at.silent_wrong
        assert not over.in_spec and over.silent_wrong
        run = ScenarioResult(scenario=ENV_SCREEN, steps=(at,))
        assert classify_scenario(run)[0] is Outcome.BENIGN
        run = ScenarioResult(scenario=ENV_SCREEN, steps=(at, over))
        assert classify_scenario(run)[0] is Outcome.SILENT_WRONG

    def test_soak_report_invariants(self):
        def report(worst):
            return SoakReport(requests=1, served=1, worst_error_deg=worst)

        assert report(TOL).invariants_ok(availability_floor=1.0)
        assert not report(JUST_OVER).invariants_ok(availability_floor=1.0)

    def test_error_stats(self):
        assert ErrorStats.from_errors([0.2, -TOL]).in_spec
        assert not ErrorStats.from_errors([0.2, -JUST_OVER]).in_spec


def _measurement(health):
    return HeadingMeasurement(
        heading_deg=10.0, x_count=1, y_count=0, duty_x=0.5, duty_y=0.5,
        measurement_time_s=0.0, cordic_cycles=8, health=health,
    )


def _step(flags):
    return StepResult(
        step=0, commanded_heading_deg=0.0, raw_heading_deg=0.0,
        served_heading_deg=0.0, error_deg=0.0, flags=flags, detail="",
        true_temperature_c=25.0, sensed_temperature_c=25.0,
        true_pitch_deg=0.0, true_roll_deg=0.0,
    )


def _fused(flags):
    return ArrayMeasurement(
        heading_deg=0.0, field_a_per_m=40.0, flags=flags, elements=(),
        vote=None, residual_max_fraction=0.0, n_used=4,
    )


def _response(verdict):
    return ServiceResponse(
        heading_deg=0.0, verdict=verdict, field_estimate_a_per_m=40.0,
        votes=(), vote=None, attempts=(), elapsed_s=0.0,
    )


def _fleet_response(verdict):
    return FleetResponse(
        key="k", scene="s", heading_deg=0.0, field_estimate_a_per_m=40.0,
        verdict=verdict, source="measured", shard=0, latency_s=0.0,
        brownout_level=0,
    )


DEGRADED_REPORT = HealthReport(status="degraded", flags=("stale",))


class TestAuthoritativeMatchesOldPredicates:
    @pytest.mark.parametrize("health", [None, HEALTHY, DEGRADED_REPORT])
    def test_heading_measurement(self, health):
        m = _measurement(health)
        assert m.authoritative is (not m.degraded)
        # The factory oracle's former spelling of "flagged".
        flagged = health is not None and (
            health.status != "ok" or bool(health.flags)
        )
        assert m.authoritative is (not flagged)

    @pytest.mark.parametrize("flags", [(), ("gradient",)])
    def test_array_measurement(self, flags):
        assert _fused(flags).authoritative is (not bool(flags))

    @pytest.mark.parametrize("flags", [(), ("anomaly",)])
    def test_scenario_step(self, flags):
        assert _step(flags).authoritative is (not bool(flags))

    @pytest.mark.parametrize("verdict", list(ServiceVerdict))
    def test_service_response(self, verdict):
        assert _response(verdict).authoritative is (
            verdict is ServiceVerdict.AUTHORITATIVE
        )

    @pytest.mark.parametrize("verdict", [v.value for v in ServiceVerdict])
    def test_fleet_response(self, verdict):
        assert _fleet_response(verdict).authoritative is (
            verdict == ServiceVerdict.AUTHORITATIVE.value
        )


def _old_heading_error_deg(measured, truth):
    return abs((measured - truth + 180.0) % 360.0 - 180.0)


class TestHeadingErrorBitIdentity:
    SPECIAL = (
        0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e-17, -1e-17, 180.0, -180.0,
        360.0, -360.0, 359.99999999999994, 540.0, 720.0, 1e300,
    )

    def test_special_values(self):
        for a in self.SPECIAL:
            for b in self.SPECIAL:
                assert heading_error_deg(a, b) == _old_heading_error_deg(a, b)

    def test_random_pairs(self):
        rng = random.Random(1997)
        for _ in range(20_000):
            a = rng.uniform(-720.0, 720.0)
            b = a + rng.choice((rng.uniform(-1e-12, 1e-12), rng.uniform(-400, 400)))
            assert heading_error_deg(a, b) == _old_heading_error_deg(a, b)
            # The signed form tilt_error_deg used inline.
            signed = (a - b + 180.0) % 360.0 - 180.0
            assert angular_difference_deg(a, b) == signed
