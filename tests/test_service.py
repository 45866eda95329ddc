"""The resilient heading service: breakers, backoff, voting, verdicts.

Unit tests for each resilience primitive (clock, backoff schedule,
circuit breaker, circular voting) plus end-to-end service behaviour:
the clean path stays bit-identical to the golden vectors, any single
fault on a minority of replicas degrades the verdict without bending
the heading, and exhausted pools fail loudly with typed errors.
"""

import dataclasses

import numpy as np
import pytest

from repro.batch import BatchScene
from repro.core.health import HealthConfig
from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    QuorumError,
    ServiceError,
)
from repro.faults import REGISTRY
from repro.observe import (
    M_BREAKER_TRANSITIONS,
    M_SERVICE_REQUESTS,
    Observability,
)
from repro.service import (
    BackoffSchedule,
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    HeadingService,
    ServiceConfig,
    ServiceVerdict,
    SimulatedClock,
    circular_mad_deg,
    circular_mean_deg,
    circular_median_deg,
    vote_headings,
)
from repro.service.backoff import (
    BACKOFF_BASE_S,
    BACKOFF_CAP_S,
    BACKOFF_MULTIPLIER,
)
from repro.service.voting import VOTE_OUTLIER_DEG

# The golden scalar measurement at the design point (see test_health).
GOLDEN_HEADING = (123.0, 123.40234375)


def _service(**overrides) -> HeadingService:
    return HeadingService(ServiceConfig(**overrides))


class TestSimulatedClock:
    def test_sleep_advances(self):
        clock = SimulatedClock()
        t0 = clock.now()
        clock.sleep(0.25)
        assert clock.now() == t0 + 0.25

    def test_negative_advance_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulatedClock().advance(-1.0)


class TestBackoff:
    def test_delays_stay_within_bounds(self):
        schedule = BackoffSchedule(np.random.default_rng(0))
        delays = [schedule.next_delay() for _ in range(200)]
        assert all(BACKOFF_BASE_S <= d <= BACKOFF_CAP_S for d in delays)

    def test_deterministic_for_a_seed(self):
        a = BackoffSchedule(np.random.default_rng(7))
        b = BackoffSchedule(np.random.default_rng(7))
        assert [a.next_delay() for _ in range(20)] == [
            b.next_delay() for _ in range(20)
        ]

    def test_decorrelated_growth_is_capped(self):
        schedule = BackoffSchedule(np.random.default_rng(1))
        delays = [schedule.next_delay() for _ in range(50)]
        # Each draw lies in [base, previous x multiplier], then capped.
        windows = [BACKOFF_BASE_S] + delays[:-1]
        for previous, delay in zip(windows, delays):
            assert delay <= min(BACKOFF_CAP_S, previous * BACKOFF_MULTIPLIER)
        assert BACKOFF_CAP_S in delays


class TestCircuitBreaker:
    def _breaker(self, clock, **overrides):
        return CircuitBreaker(BreakerConfig(**overrides), clock)

    def test_trips_after_threshold(self):
        clock = SimulatedClock()
        breaker = self._breaker(clock, failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()

    def test_success_resets_the_streak(self):
        clock = SimulatedClock()
        breaker = self._breaker(clock, failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_after_cool_down(self):
        clock = SimulatedClock()
        breaker = self._breaker(
            clock, failure_threshold=1, open_duration_s=0.1
        )
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        clock.advance(0.099)
        assert breaker.state is BreakerState.OPEN
        clock.advance(0.001)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()

    def test_probe_success_closes(self):
        clock = SimulatedClock()
        breaker = self._breaker(
            clock, failure_threshold=1, open_duration_s=0.1,
            half_open_successes=2,
        )
        breaker.record_failure()
        clock.advance(0.2)
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_probe_failure_reopens_with_fresh_cool_down(self):
        clock = SimulatedClock()
        breaker = self._breaker(
            clock, failure_threshold=1, open_duration_s=0.1
        )
        breaker.record_failure()
        clock.advance(0.2)
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.open_until == pytest.approx(clock.now() + 0.1)

    def test_transition_hook_sees_every_edge(self):
        clock = SimulatedClock()
        seen = []
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=1, open_duration_s=0.1),
            clock,
            on_transition=lambda a, b: seen.append((a.value, b.value)),
        )
        breaker.record_failure()
        clock.advance(0.2)
        breaker.state  # resolve the cool-down
        breaker.record_success()
        assert seen == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]
        assert breaker.transitions == 3


class TestCircularVoting:
    def test_mean_handles_the_wrap(self):
        assert circular_mean_deg([359.0, 1.0]) == pytest.approx(0.0, abs=1e-9)

    def test_median_is_a_sample_point(self):
        headings = [10.0, 12.0, 300.0]
        assert circular_median_deg(headings) in headings

    def test_median_across_the_wrap(self):
        assert circular_median_deg([358.0, 0.0, 2.0]) == pytest.approx(0.0)

    def test_mad_zero_for_identical_headings(self):
        assert circular_mad_deg([45.0, 45.0, 45.0], 45.0) == 0.0

    def test_unanimous_vote(self):
        vote = vote_headings([100.0, 100.1, 99.9])
        assert vote.unanimous
        assert vote.outliers == ()
        assert vote.heading_deg == pytest.approx(100.0, abs=0.01)

    def test_outlier_rejected_across_wrap(self):
        vote = vote_headings([359.5, 0.5, 180.0])
        assert len(vote.inliers) == 2
        assert len(vote.outliers) == 1
        assert vote.heading_deg == pytest.approx(0.0, abs=0.01)

    def test_breakdown_point_minority_cannot_steal_the_vote(self):
        # 2 liars against 3 honest replicas: the vote must stay honest.
        vote = vote_headings([90.0, 90.2, 89.8, 270.0, 271.0])
        assert vote.heading_deg == pytest.approx(90.0, abs=0.2)
        assert len(vote.outliers) == 2

    def test_empty_vote_rejected(self):
        with pytest.raises(ConfigurationError):
            vote_headings([])


class TestServiceConfig:
    def test_quorum_bounds(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(replicas=3, quorum=4)
        with pytest.raises(ConfigurationError):
            ServiceConfig(replicas=3, quorum=0)

    def test_positive_budgets(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(deadline_s=0.0)


class TestCleanPath:
    def test_authoritative_and_bit_identical_to_golden(self):
        truth, golden = GOLDEN_HEADING
        response = _service().measure_heading(truth)
        assert response.verdict is ServiceVerdict.AUTHORITATIVE
        assert response.authoritative
        assert response.heading_deg == golden
        assert response.votes == (golden,) * 3
        assert response.vote.unanimous
        assert [a.outcome for a in response.attempts] == ["ok"] * 3
        assert response.flags == ()

    def test_elapsed_accounts_replica_latency(self):
        response = _service().measure_heading(45.0)
        assert response.elapsed_s > 0.0
        assert response.elapsed_s == pytest.approx(
            sum(a.latency_s for a in response.attempts)
        )

    def test_all_breakers_stay_closed(self):
        service = _service()
        service.measure_heading(45.0)
        assert set(service.breaker_states().values()) == {"closed"}


class TestMinorityFault:
    def test_single_fault_degrades_but_stays_within_spec(self):
        service = _service()
        truth = 222.25
        with REGISTRY.inject(
            "digital.cordic_rom_bitflip", service.replicas[0].compass, 3.0
        ):
            response = service.measure_heading(truth)
        assert response.verdict is ServiceVerdict.QUORUM_DEGRADED
        error = abs((response.heading_deg - truth + 180.0) % 360.0 - 180.0)
        assert error <= 1.0
        assert len(response.votes) == 2
        assert any(a.outcome == "fault" for a in response.attempts)

    def test_faulted_replica_exhausts_its_attempt_budget(self):
        service = _service()
        with REGISTRY.inject(
            "digital.cordic_rom_bitflip", service.replicas[1].compass, 3.0
        ):
            response = service.measure_heading(45.0)
        faulted = [
            a for a in response.attempts if a.replica == "replica-1"
        ]
        assert [a.outcome for a in faulted] == ["fault"] * 3

    def test_breaker_opens_and_ejects_the_replica(self):
        service = _service()
        with REGISTRY.inject(
            "digital.cordic_rom_bitflip", service.replicas[0].compass, 3.0
        ):
            service.measure_heading(45.0)
            assert service.breaker_states()["replica-0"] == "open"
            response = service.measure_heading(46.0)
        # The ejected replica is refused without burning attempts.
        refused = [
            a
            for a in response.attempts
            if a.replica == "replica-0"
        ]
        assert [a.outcome for a in refused] == ["breaker-open"]
        assert response.verdict is ServiceVerdict.QUORUM_DEGRADED

    def test_recovery_closes_the_breaker_and_restores_authority(self):
        service = _service()
        with REGISTRY.inject(
            "digital.cordic_rom_bitflip", service.replicas[0].compass, 3.0
        ):
            service.measure_heading(45.0)
        # Fault gone: drive requests until the cool-down expires and the
        # half-open probe re-closes the breaker.
        for _ in range(30):
            response = service.measure_heading(123.0)
            if response.verdict is ServiceVerdict.AUTHORITATIVE:
                break
        assert response.verdict is ServiceVerdict.AUTHORITATIVE
        assert service.breaker_states()["replica-0"] == "closed"
        assert response.heading_deg == GOLDEN_HEADING[1]


class TestDegradedVotes:
    def test_second_class_votes_fill_a_short_pool(self):
        # Soft-degrade two replicas (field out of band, heading intact):
        # healthy alone misses quorum, degraded votes top it up, and the
        # verdict says so.
        service = _service()
        with REGISTRY.inject(
            "sensor.common_gain_drift", service.replicas[0].compass, 4.0
        ), REGISTRY.inject(
            "sensor.common_gain_drift", service.replicas[1].compass, 4.0
        ):
            response = service.measure_heading(45.0)
        assert response.verdict is ServiceVerdict.QUORUM_DEGRADED
        assert len(response.votes) >= 2
        error = abs((response.heading_deg - 45.0 + 180.0) % 360.0 - 180.0)
        assert error <= 1.0
        assert any("degraded" in flag for flag in response.flags)


class TestQuorumStepdown:
    def test_stepped_down_pool_is_never_authoritative(self):
        # A perfectly clean pool, consulted at quorum strength: the
        # heading is in spec, but dropping the confirmation replica must
        # show in the verdict — brownout is never silent.
        service = _service()
        response = service.measure_heading(
            45.0, max_replicas=service.config.quorum
        )
        assert response.verdict is ServiceVerdict.QUORUM_DEGRADED
        assert any("quorum-stepdown" in flag for flag in response.flags)
        error = abs((response.heading_deg - 45.0 + 180.0) % 360.0 - 180.0)
        assert error <= 1.0

    def test_max_replicas_is_clamped_to_quorum_and_pool_size(self):
        service = _service()
        floored = service.measure_heading(45.0, max_replicas=1)
        assert any(
            f"consulted {service.config.quorum} of" in flag
            for flag in floored.flags
        )
        full = service.measure_heading(45.0, max_replicas=99)
        assert full.verdict is ServiceVerdict.AUTHORITATIVE
        assert not any("quorum-stepdown" in flag for flag in full.flags)

    def test_per_request_deadline_override(self):
        service = _service()
        # The configured deadline is generous; an override below one
        # reply latency must still time the request out.
        with pytest.raises(QuorumError):
            service.measure_heading(45.0, deadline_s=0.001)
        # And the service stays healthy for a normally-budgeted request.
        assert service.measure_heading(45.0).authoritative

    def test_non_positive_deadline_rejected(self):
        with pytest.raises(ConfigurationError):
            _service().measure_heading(45.0, deadline_s=0.0)


class TestLoudFailures:
    def test_majority_hard_fault_raises_quorum_error(self):
        service = _service()
        with REGISTRY.inject(
            "digital.cordic_rom_bitflip", service.replicas[0].compass, 3.0
        ), REGISTRY.inject(
            "digital.cordic_rom_bitflip", service.replicas[1].compass, 3.0
        ):
            with pytest.raises(QuorumError, match="quorum"):
                service.measure_heading(45.0)

    def test_quorum_error_is_a_service_error(self):
        assert issubclass(QuorumError, ServiceError)
        assert issubclass(CircuitOpenError, ServiceError)

    def test_all_breakers_open_fast_fails_with_circuit_open(self):
        # Deadline shorter than the breaker cool-down: once every
        # breaker is open a request cannot even probe, so it must
        # fast-fail with the dedicated error.
        service = _service(
            deadline_s=0.01,
            breaker=BreakerConfig(failure_threshold=1, open_duration_s=1.0),
        )
        for replica in service.replicas:
            replica.breaker.record_failure()
        assert set(service.breaker_states().values()) == {"open"}
        with pytest.raises(CircuitOpenError):
            service.measure_heading(45.0)

    def test_impossible_deadline_times_every_reply_out(self):
        # A deadline below one reply latency: every attempt is charged
        # and discarded, leaving no votes at all.
        service = _service(deadline_s=0.001)
        with pytest.raises(QuorumError):
            service.measure_heading(45.0)

    def test_slow_replicas_time_out_per_attempt(self):
        service = _service()
        service.replicas[2].latency_scale = 50.0
        response = service.measure_heading(45.0)
        slow = [a for a in response.attempts if a.replica == "replica-2"]
        assert slow and all(a.outcome == "timeout" for a in slow)
        assert response.verdict is ServiceVerdict.QUORUM_DEGRADED


class TestScenePath:
    """``measure_scene``: the bulk path votes each row by the scalar rule."""

    HEADINGS = (0.0, 45.0, 123.0, 271.5)

    def _scene(self, service):
        return BatchScene.from_headings(
            service.replicas[0].compass.sensors, self.HEADINGS
        )

    def test_clean_rows_equal_fresh_scalar_requests(self):
        service = _service()
        rows = service.measure_scene(self._scene(service))
        assert len(rows) == len(self.HEADINGS)
        for heading, row in zip(self.HEADINGS, rows):
            scalar = _service().measure_heading(heading)
            assert row.heading_deg == scalar.heading_deg
            assert row.field_estimate_a_per_m == scalar.field_estimate_a_per_m
            assert row.votes == scalar.votes
            assert row.flags == scalar.flags
            assert row.authoritative and scalar.authoritative

    def test_batch_faulted_replica_degrades_every_row(self):
        service = _service()
        scene = self._scene(service)
        with REGISTRY.inject(
            "sensor.open_excitation_coil", service.replicas[1].compass, 1.0
        ):
            rows = service.measure_scene(scene)
        for row in rows:
            assert row.verdict is ServiceVerdict.QUORUM_DEGRADED
            assert row.flags == ("replica-1: batch-fault",)
            assert [a.outcome for a in row.attempts] == ["ok", "fault", "ok"]

    def test_majority_batch_fault_raises_quorum_error(self):
        service = _service()
        scene = self._scene(service)
        with REGISTRY.inject(
            "sensor.open_excitation_coil", service.replicas[0].compass, 1.0
        ), REGISTRY.inject(
            "sensor.open_excitation_coil", service.replicas[1].compass, 1.0
        ):
            with pytest.raises(QuorumError) as caught:
                service.measure_scene(scene)
        assert str(caught.value) == (
            "scene row 0: collected 1 vote-eligible headings, quorum needs 2 "
            "(healthy 1, degraded 0)"
        )


class TestVoteSpread:
    """Two wrong replicas widen the MAD threshold past the floor: the
    vote then rejects nothing, so the verdict must say so itself."""

    SHIFTS = {0: 20.0, 1: -40.0}
    FLAG = "vote-spread: threshold widened to 60.00 deg (MAD 20.00 deg)"

    @staticmethod
    def _shifted(measurement, shift):
        return dataclasses.replace(
            measurement, heading_deg=(measurement.heading_deg + shift) % 360.0
        )

    def _check(self, response):
        assert response.vote.outliers == ()
        assert response.vote.threshold_deg == 60.0
        assert response.verdict is ServiceVerdict.QUORUM_DEGRADED
        assert not response.authoritative
        assert response.flags == (self.FLAG,)

    def test_scalar_split_pool_is_not_authoritative(self):
        service = _service()
        for index, shift in self.SHIFTS.items():
            replica = service.replicas[index]
            measure = replica.measure
            replica.measure = lambda *args, measure=measure, shift=shift: (
                self._shifted(measure(*args), shift)
            )
        self._check(service.measure_heading(GOLDEN_HEADING[0]))

    def test_scene_split_pool_is_not_authoritative(self):
        service = _service()
        scene = BatchScene.from_headings(
            service.replicas[0].compass.sensors, [GOLDEN_HEADING[0]]
        )
        for index, shift in self.SHIFTS.items():
            engine = service.replicas[index].batch()
            measure = engine.measure_scene
            engine.measure_scene = lambda scene, measure=measure, shift=shift: [
                self._shifted(m, shift) for m in measure(scene)
            ]
        (row,) = service.measure_scene(scene)
        self._check(row)

    def test_quantisation_disagreement_does_not_widen(self):
        response = _service().measure_heading(GOLDEN_HEADING[0])
        assert response.vote.threshold_deg == VOTE_OUTLIER_DEG
        assert response.authoritative and response.flags == ()


class TestDeterminism:
    def test_identical_seeds_identical_responses(self):
        def run():
            service = _service(seed=42)
            with REGISTRY.inject(
                "digital.cordic_rom_bitflip", service.replicas[0].compass, 3.0
            ):
                r = service.measure_heading(200.0)
            return (
                r.heading_deg,
                r.verdict,
                tuple((a.replica, a.outcome, a.latency_s) for a in r.attempts),
                r.elapsed_s,
            )

        assert run() == run()

    def test_different_seeds_change_the_latency_schedule(self):
        a = _service(seed=0).measure_heading(45.0)
        b = _service(seed=1).measure_heading(45.0)
        assert [x.latency_s for x in a.attempts] != [
            x.latency_s for x in b.attempts
        ]


class TestServiceObservability:
    def test_verdict_and_breaker_metrics_flow(self):
        service = _service(observe=Observability.on(tracing=False))
        service.measure_heading(45.0)
        with REGISTRY.inject(
            "digital.cordic_rom_bitflip", service.replicas[0].compass, 3.0
        ):
            service.measure_heading(45.0)
        metrics = service.observer.metrics
        requests = metrics.get(M_SERVICE_REQUESTS)
        assert requests.value(verdict="authoritative") == 1
        assert requests.value(verdict="quorum-degraded") == 1
        transitions = metrics.get(M_BREAKER_TRANSITIONS)
        assert transitions.value(replica="replica-0", to="open") == 1

    def test_nested_compass_observe_is_refused(self, tmp_path):
        # Replicas report through the service's observer, so an observe
        # nested in the compass configuration would be dropped unseen.
        path = tmp_path / "svc.rplog"
        compass = dataclasses.replace(
            ServiceConfig().compass,
            observe=Observability.on(replay_path=str(path)),
        )
        with pytest.raises(ConfigurationError, match="ServiceConfig"):
            _service(compass=compass)
        assert not path.exists()

    def test_strict_replicas_under_the_service(self):
        # The service's default compass config keeps health supervision
        # strict: resilience lives in the pool, not inside the replica.
        config = ServiceConfig()
        assert config.compass.health.enabled
        assert not config.compass.health.degrade

    def test_degrade_mode_replicas_also_compose(self):
        # A degrade-mode pool still works; stale fallbacks come back as
        # health-degraded measurements and demote the verdict instead of
        # raising.
        compass = dataclasses.replace(
            ServiceConfig().compass,
            health=HealthConfig(enabled=True, degrade=True),
        )
        service = _service(compass=compass)
        service.measure_heading(45.0)
        with REGISTRY.inject(
            "digital.cordic_rom_bitflip", service.replicas[0].compass, 3.0
        ):
            response = service.measure_heading(46.0)
        assert response.verdict is ServiceVerdict.QUORUM_DEGRADED

    def test_dropped_service_freed_by_reference_counting(self):
        # Each replica's breaker holds the transition hook; a hook that
        # referenced the service would form a cycle that only the
        # cyclic collector frees.  Gc stays off here, so the service and
        # its replica compasses must go the moment the last name does.
        import gc
        import weakref

        service = _service(observe=Observability.on(tracing=False))
        service.measure_heading(45.0)
        with REGISTRY.inject(
            "digital.cordic_rom_bitflip", service.replicas[0].compass, 3.0
        ):
            service.measure_heading(45.0)
        assert service.observer.metrics.get(M_BREAKER_TRANSITIONS).value(
            replica="replica-0", to="open"
        ) == 1
        refs = [weakref.ref(service)] + [
            weakref.ref(replica.compass) for replica in service.replicas
        ]
        enabled = gc.isenabled()
        gc.disable()
        try:
            del service
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            if enabled:
                gc.enable()
