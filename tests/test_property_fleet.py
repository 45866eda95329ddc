"""Property tests: admission purity + golden-vector cache conformance.

Two claims carry the fleet's determinism story:

1. **Admission is pure.**  Token-bucket and queue-eviction decisions
   are functions of (simulated-clock time, arrival sequence) alone —
   replaying the same arrival trace through fresh state reproduces the
   decision trace bit-identically, and the bucket's decisions match an
   independently-written reference model.  Hypothesis drives arbitrary
   arrival traces at both.

2. **The cache never changes an answer.**  For every one of the 48
   golden conformance vectors, a response served from the scene cache
   and a response coalesced onto an in-flight leader are bit-identical
   (``==`` on the raw floats) to a freshly measured response — and to a
   direct :class:`~repro.service.HeadingService` measurement at the
   same grid point.  The golden grid is exact: quantization must snap
   each golden input onto itself.
"""

import json
import pathlib

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.fleet import (
    DEFAULT_FIELD_QUANTUM_UT,
    DEFAULT_HEADING_QUANTUM_DEG,
    BoundedShardQueue,
    FleetConfig,
    HeadingFleet,
    Kernel,
    TokenBucket,
    TokenBucketConfig,
    quantize_field,
    quantize_heading,
)
from repro.fleet.admission import QueueItem
from repro.fleet.config import FLEET_COMPASS
from repro.service import HeadingService, ServiceConfig
from repro.service.clock import SimulatedClock

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "compass_vectors.json"
RECORD = json.loads(GOLDEN_PATH.read_text())
VECTORS = RECORD["vectors"]

GAPS = st.lists(
    st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    min_size=1,
    max_size=40,
)


# -- admission purity ----------------------------------------------------------


class TestTokenBucketPurity:
    @given(
        gaps=GAPS,
        rate=st.floats(min_value=0.5, max_value=500.0, allow_nan=False),
        burst=st.floats(min_value=1.0, max_value=20.0, allow_nan=False),
    )
    @settings(deadline=None)
    def test_decisions_replay_bit_identically(self, gaps, rate, burst):
        config = TokenBucketConfig(rate_rps=rate, burst=burst)

        def drive():
            clock = SimulatedClock()
            bucket = TokenBucket(config, clock)
            decisions = []
            for gap in gaps:
                clock.advance(gap)
                decisions.append(bucket.try_admit())
            return decisions, bucket.admitted, bucket.refused

        assert drive() == drive()

    @given(
        gaps=GAPS,
        rate=st.floats(min_value=0.5, max_value=500.0, allow_nan=False),
        burst=st.floats(min_value=1.0, max_value=20.0, allow_nan=False),
    )
    @settings(deadline=None)
    def test_decisions_match_the_reference_model(self, gaps, rate, burst):
        clock = SimulatedClock()
        bucket = TokenBucket(TokenBucketConfig(rate_rps=rate, burst=burst), clock)

        # Independent reference: lazy refill, clamp at burst, one token
        # per admission.  Same arithmetic order as the implementation so
        # the comparison is exact, not approximate.
        tokens = float(burst)
        refilled_at = 0.0
        now = 0.0
        for gap in gaps:
            clock.advance(gap)
            now += gap
            elapsed = now - refilled_at
            if elapsed > 0.0:
                tokens = min(float(burst), tokens + elapsed * rate)
                refilled_at = now
            expected = tokens >= 1.0
            if expected:
                tokens -= 1.0
            assert bucket.try_admit() == expected


OFFERS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.1, allow_nan=False),
        st.floats(min_value=0.001, max_value=0.5, allow_nan=False),
    ),
    min_size=1,
    max_size=30,
)


def _drive_queue(offers, capacity, est):
    kernel = Kernel()
    queue = BoundedShardQueue(kernel, capacity=capacity)
    now = 0.0
    trace = []
    for index, (gap, deadline_delta) in enumerate(offers):
        now += gap
        item = QueueItem(
            key=f"req-{index}",
            heading_deg=0.0,
            field_magnitude_t=50.0e-6,
            deadline=now + deadline_delta,
            enqueued_at=now,
            future=None,
        )
        admitted, evicted = queue.offer(item, now, est)
        assert queue.depth <= capacity
        for victim in evicted:
            # Evicted means its positional finish estimate overran its
            # deadline; position < capacity bounds the finish estimate.
            assert victim.deadline < now + capacity * est
        trace.append((admitted, tuple(victim.key for victim in evicted)))
    return trace, queue.evicted, queue.rejected, queue.peak_depth


class TestQueueEvictionPurity:
    @given(
        offers=OFFERS,
        capacity=st.integers(min_value=1, max_value=4),
        est=st.floats(min_value=0.001, max_value=0.2, allow_nan=False),
    )
    @settings(deadline=None)
    def test_eviction_trace_replays_bit_identically(
        self, offers, capacity, est
    ):
        assert _drive_queue(offers, capacity, est) == _drive_queue(
            offers, capacity, est
        )


class TestKernelOrderPurity:
    @given(
        durations=st.lists(
            st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
            min_size=1,
            max_size=20,
        )
    )
    @settings(deadline=None)
    def test_completion_order_is_time_then_spawn_order(self, durations):
        kernel = Kernel()
        completed = []

        async def napper(index, duration):
            await kernel.sleep(duration)
            completed.append(index)

        async def main():
            tasks = [
                kernel.spawn(napper(i, d)) for i, d in enumerate(durations)
            ]
            for task in tasks:
                await task.future

        kernel.run(main())
        expected = [
            i for i, _ in sorted(enumerate(durations), key=lambda p: (p[1], p[0]))
        ]
        assert completed == expected


# -- golden-vector cache/coalesce conformance ----------------------------------


def _collect_golden_runs():
    """Serve every golden vector fresh, cached, coalesced + reference."""
    reference = HeadingService(ServiceConfig(compass=FLEET_COMPASS))
    cached_fleet_kernel = Kernel()
    cached_fleet = HeadingFleet(
        FleetConfig(shards=1, seed=0), scheduler=cached_fleet_kernel
    )
    coalesce_kernel = Kernel()
    coalesce_fleet = HeadingFleet(
        FleetConfig(shards=1, seed=0, cache_enabled=False),
        scheduler=coalesce_kernel,
    )

    async def cached_main():
        cached_fleet.start()
        out = []
        try:
            for vector in VECTORS:
                heading = vector["true_heading_deg"]
                field_t = vector["field_ut"] * 1e-6
                fresh = await cached_fleet.submit("dev-a", heading, field_t)
                hit = await cached_fleet.submit("dev-b", heading, field_t)
                out.append((fresh, hit))
        finally:
            await cached_fleet.stop()
        return out

    async def coalesce_main():
        coalesce_fleet.start()
        out = []
        try:
            for vector in VECTORS:
                heading = vector["true_heading_deg"]
                field_t = vector["field_ut"] * 1e-6
                pair = [
                    coalesce_kernel.spawn(
                        coalesce_fleet.submit(f"dev-{side}", heading, field_t)
                    )
                    for side in ("a", "b")
                ]
                out.append(tuple([await task.future for task in pair]))
        finally:
            await coalesce_fleet.stop()
        return out

    cached_pairs = cached_fleet_kernel.run(cached_main())
    coalesced_pairs = coalesce_kernel.run(coalesce_main())
    runs = []
    for vector, (fresh, hit), pair in zip(
        VECTORS, cached_pairs, coalesced_pairs
    ):
        direct = reference.measure_heading(
            vector["true_heading_deg"], vector["field_ut"] * 1e-6
        )
        leader = next(r for r in pair if r.source == "measured")
        follower = next(r for r in pair if r.source == "coalesced")
        runs.append(
            {
                "vector": vector,
                "direct": direct,
                "fresh": fresh,
                "hit": hit,
                "leader": leader,
                "follower": follower,
            }
        )
    return runs


@pytest.fixture(scope="module")
def golden_runs():
    return _collect_golden_runs()


class TestGoldenVectorConformance:
    def test_the_golden_grid_is_exact(self):
        # Every golden input must lie *on* the fleet's measurement grid,
        # or cached responses would answer a different question.
        for vector in VECTORS:
            _, snapped_heading = quantize_heading(
                vector["true_heading_deg"], DEFAULT_HEADING_QUANTUM_DEG
            )
            _, snapped_field = quantize_field(
                vector["field_ut"] * 1e-6, DEFAULT_FIELD_QUANTUM_UT
            )
            assert snapped_heading == vector["true_heading_deg"]
            assert snapped_field == vector["field_ut"] * 1e-6

    def test_cached_responses_are_bit_identical(self, golden_runs):
        for run in golden_runs:
            assert run["hit"].source == "cache"
            assert run["hit"].heading_deg == run["fresh"].heading_deg
            assert (
                run["hit"].field_estimate_a_per_m
                == run["fresh"].field_estimate_a_per_m
            )

    def test_coalesced_responses_are_bit_identical(self, golden_runs):
        for run in golden_runs:
            assert run["follower"].heading_deg == run["leader"].heading_deg
            assert (
                run["follower"].field_estimate_a_per_m
                == run["leader"].field_estimate_a_per_m
            )

    def test_every_path_matches_a_direct_service_measurement(
        self, golden_runs
    ):
        for run in golden_runs:
            direct = run["direct"]
            for path in ("fresh", "hit", "leader", "follower"):
                assert run[path].heading_deg == direct.heading_deg
                assert (
                    run[path].field_estimate_a_per_m
                    == direct.field_estimate_a_per_m
                )

    def test_all_golden_responses_are_authoritative_and_in_spec(
        self, golden_runs
    ):
        for run in golden_runs:
            truth = run["vector"]["true_heading_deg"]
            for path in ("fresh", "hit", "leader", "follower"):
                response = run[path]
                assert response.verdict == "authoritative"
                error = abs(
                    (response.heading_deg - truth + 180.0) % 360.0 - 180.0
                )
                assert error <= 1.0
