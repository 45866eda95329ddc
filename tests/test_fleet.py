"""Tests for ``repro.fleet``: kernel, admission, cache, fleet facade.

The deterministic virtual-time kernel is what makes these tests exact:
every scenario below runs on a :class:`~repro.fleet.Kernel` and asserts
bit-level outcomes (``==`` on floats, exact shed reasons, exact queue
decisions), never tolerances on timing.
"""

import dataclasses

import pytest

from repro.errors import (
    ConfigurationError,
    DivergenceError,
    OverloadError,
)
from repro.faults import REGISTRY
from repro.fleet import (
    AsyncQueue,
    BoundedShardQueue,
    BrownoutController,
    CacheEntry,
    FleetConfig,
    HashRing,
    HeadingCache,
    HeadingFleet,
    Kernel,
    TokenBucket,
    TokenBucketConfig,
    quantize_field,
    quantize_heading,
    scene_key,
    stable_hash,
)
from repro.fleet.config import (
    BROWNOUT_ALPHA,
    BROWNOUT_ENTER_L1,
    BROWNOUT_ENTER_L2,
    BROWNOUT_EXIT_L1,
    BROWNOUT_EXIT_L2,
    BROWNOUT_MIN_DWELL_S,
)
from repro.fleet.admission import QueueItem
from repro.observe import Observability
from repro.service.clock import SimulatedClock


# -- the kernel ----------------------------------------------------------------


class TestKernel:
    def test_virtual_time_sleep_jumps_the_clock(self):
        kernel = Kernel()

        async def napper():
            await kernel.sleep(5.0)
            return kernel.now()

        assert kernel.run(napper()) == 5.0

    def test_sleeps_interleave_in_time_order(self):
        kernel = Kernel()
        order = []

        async def napper(name, duration):
            await kernel.sleep(duration)
            order.append(name)

        async def main():
            tasks = [
                kernel.spawn(napper("c", 0.3)),
                kernel.spawn(napper("a", 0.1)),
                kernel.spawn(napper("b", 0.2)),
            ]
            for task in tasks:
                await task.future

        kernel.run(main())
        assert order == ["a", "b", "c"]

    def test_future_wakes_all_waiters(self):
        kernel = Kernel()
        woken = []

        async def main():
            future = kernel.create_future()

            async def waiter(name):
                woken.append((name, await future))

            tasks = [kernel.spawn(waiter(i)) for i in range(3)]
            await kernel.sleep(1.0)
            future.set_result("x")
            for task in tasks:
                await task.future

        kernel.run(main())
        assert woken == [(0, "x"), (1, "x"), (2, "x")]

    def test_deadlock_raises_instead_of_hanging(self):
        kernel = Kernel()

        async def stuck():
            await kernel.create_future()

        with pytest.raises(RuntimeError, match="deadlock"):
            kernel.run(stuck())

    def test_foreign_awaitable_is_rejected(self):
        import asyncio

        kernel = Kernel()

        async def alien():
            await asyncio.sleep(0)

        with pytest.raises(ConfigurationError, match="foreign awaitable"):
            kernel.run(alien())

    def test_unawaited_background_failure_is_reraised(self):
        kernel = Kernel()

        async def bomb():
            raise ValueError("boom")

        async def main():
            kernel.spawn(bomb())
            await kernel.sleep(1.0)

        with pytest.raises(ValueError, match="boom"):
            kernel.run(main())

    def test_awaited_background_failure_is_delivered_once(self):
        kernel = Kernel()

        async def bomb():
            raise ValueError("boom")

        async def main():
            task = kernel.spawn(bomb())
            try:
                await task.future
            except ValueError:
                return "caught"

        assert kernel.run(main()) == "caught"

    def test_negative_sleep_rejected(self):
        with pytest.raises(ConfigurationError):
            Kernel().sleep(-1.0)

    def test_async_queue_fifo_and_handoff(self):
        kernel = Kernel()
        queue = AsyncQueue(kernel)
        got = []

        async def getter():
            got.append(await queue.get())
            got.append(await queue.get())

        async def main():
            task = kernel.spawn(getter())
            queue.put_nowait(1)  # backlogged: the getter has not run yet
            await kernel.sleep(0.1)
            queue.put_nowait(2)
            await task.future

        kernel.run(main())
        assert got == [1, 2]


# -- consistent hashing --------------------------------------------------------


class TestHashRing:
    def test_stable_hash_is_process_independent(self):
        # blake2b, not the salted builtin hash(): pinned value.
        assert stable_hash("device-0") == stable_hash("device-0")
        assert stable_hash("device-0") != stable_hash("device-1")

    def test_lookup_is_deterministic_and_in_range(self):
        ring = HashRing(shards=4, vnodes=32)
        again = HashRing(shards=4, vnodes=32)
        for index in range(64):
            key = f"device-{index}"
            shard = ring.lookup(key)
            assert 0 <= shard < 4
            assert again.lookup(key) == shard

    def test_vnodes_spread_keys_over_all_shards(self):
        ring = HashRing(shards=4, vnodes=64)
        counts = ring.spread([f"device-{i}" for i in range(400)])
        assert sum(counts) == 400
        assert all(count > 0 for count in counts)

    def test_single_shard_owns_everything(self):
        ring = HashRing(shards=1)
        assert ring.lookup("anything") == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HashRing(shards=0)
        with pytest.raises(ConfigurationError):
            HashRing(shards=2, vnodes=0)


# -- admission control ---------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refusal(self):
        clock = SimulatedClock()
        bucket = TokenBucket(TokenBucketConfig(rate_rps=10.0, burst=3.0), clock)
        assert [bucket.try_admit() for _ in range(4)] == [
            True, True, True, False,
        ]
        assert bucket.admitted == 3
        assert bucket.refused == 1

    def test_refills_at_the_configured_rate(self):
        clock = SimulatedClock()
        bucket = TokenBucket(TokenBucketConfig(rate_rps=10.0, burst=1.0), clock)
        assert bucket.try_admit()
        assert not bucket.try_admit()
        clock.advance(0.1)  # exactly one token at 10 rps
        assert bucket.try_admit()
        assert not bucket.try_admit()

    def test_level_never_exceeds_burst(self):
        clock = SimulatedClock()
        bucket = TokenBucket(TokenBucketConfig(rate_rps=100.0, burst=5.0), clock)
        clock.advance(60.0)
        assert bucket.level == 5.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TokenBucketConfig(rate_rps=0.0)
        with pytest.raises(ConfigurationError):
            TokenBucketConfig(burst=0.5)


def _item(key, deadline, future=None):
    return QueueItem(
        key=key,
        heading_deg=0.0,
        field_magnitude_t=50.0e-6,
        deadline=deadline,
        enqueued_at=0.0,
        future=future,
    )


class TestBoundedShardQueue:
    def test_admits_until_full_then_rejects(self):
        kernel = Kernel()
        queue = BoundedShardQueue(kernel, capacity=2)
        admitted, evicted = queue.offer(_item("a", 10.0), 0.0, 0.01)
        assert admitted and not evicted
        admitted, evicted = queue.offer(_item("b", 10.0), 0.0, 0.01)
        assert admitted
        # Full, and nothing is evictable: both can still meet 10 s.
        admitted, evicted = queue.offer(_item("c", 10.0), 0.0, 0.01)
        assert not admitted and not evicted
        assert queue.rejected == 1
        assert queue.peak_depth == 2

    def test_eviction_drops_only_dead_work_in_order(self):
        kernel = Kernel()
        queue = BoundedShardQueue(kernel, capacity=2)
        # Head can meet its deadline (finish at 1.0 <= 5.0); the second,
        # waiting one service time longer, cannot (finish 2.0 > 1.5).
        queue.offer(_item("live", 5.0), 0.0, 1.0)
        queue.offer(_item("dead", 1.5), 0.0, 1.0)
        admitted, evicted = queue.offer(_item("new", 5.0), 0.0, 1.0)
        assert admitted
        assert [victim.key for victim in evicted] == ["dead"]
        assert queue.evicted == 1
        assert queue.depth == 2

    def test_eviction_only_runs_when_full(self):
        kernel = Kernel()
        queue = BoundedShardQueue(kernel, capacity=4)
        queue.offer(_item("stale", 0.5), 0.0, 1.0)  # already unmeetable
        admitted, evicted = queue.offer(_item("new", 9.0), 0.0, 1.0)
        assert admitted and not evicted  # room left: no eviction pass

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BoundedShardQueue(Kernel(), capacity=0)


# -- quantization + cache ------------------------------------------------------


class TestQuantization:
    def test_golden_grid_points_snap_to_themselves(self):
        quantum = 360.0 / 4096.0
        for heading in (0.0, 11.25, 45.0, 123.75, 348.75):
            bin_index, snapped = quantize_heading(heading, quantum)
            assert snapped == heading  # exact binary fraction, bit-equal
            assert bin_index == round(heading / quantum)

    def test_heading_bins_wrap_the_circle(self):
        quantum = 360.0 / 4096.0
        bin_a, snapped_a = quantize_heading(359.999, quantum)
        assert bin_a == 0 and snapped_a == 0.0
        assert quantize_heading(-0.001, quantum)[0] == 0
        assert quantize_heading(360.0, quantum)[0] == 0

    def test_field_quantum_snaps_golden_magnitudes(self):
        for ut in (25.0, 50.0, 65.0):
            bin_index, snapped_t = quantize_field(ut * 1e-6, 0.25)
            assert snapped_t == ut * 1e-6
            assert bin_index == round(ut / 0.25)

    def test_nearby_scenes_share_one_key(self):
        quantum = 360.0 / 4096.0
        bin_a, _ = quantize_heading(45.0, quantum)
        bin_b, _ = quantize_heading(45.0 + quantum / 4, quantum)
        assert bin_a == bin_b
        assert scene_key("fp", bin_a, 200) == scene_key("fp", bin_b, 200)

    def test_distinct_configs_cannot_share_entries(self):
        assert scene_key("fp-a", 1, 2) != scene_key("fp-b", 1, 2)


class TestHeadingCache:
    def test_lru_evicts_the_coldest_entry(self):
        cache = HeadingCache(capacity=2)
        entry = CacheEntry(1.0, 2.0, "authoritative")
        cache.put("a", entry)
        cache.put("b", entry)
        assert cache.get("a") is entry  # refresh a; b is now coldest
        cache.put("c", entry)
        assert cache.get("b") is None
        assert cache.get("a") is entry
        assert cache.evictions == 1

    def test_hit_rate(self):
        cache = HeadingCache(capacity=4)
        cache.put("a", CacheEntry(1.0, 2.0, "authoritative"))
        cache.get("a")
        cache.get("missing")
        assert cache.hit_rate == 0.5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HeadingCache(capacity=0)


# -- brownout ladder -----------------------------------------------------------


class TestBrownoutController:
    """The ladder at its fixed thresholds (EWMA α 0.08, 0.25 s dwell)."""

    def test_thresholds(self):
        assert (BROWNOUT_ALPHA, BROWNOUT_MIN_DWELL_S) == (0.08, 0.25)
        assert 0.0 < BROWNOUT_EXIT_L1 < BROWNOUT_ENTER_L1 <= BROWNOUT_ENTER_L2
        assert BROWNOUT_EXIT_L2 < BROWNOUT_ENTER_L2 <= 1.0

    def test_climbs_one_level_at_a_time(self):
        controller = BrownoutController()
        # Saturate the EWMA past enter_l2 while the start dwell holds L0.
        for _ in range(40):
            assert controller.observe(1.0, 0.0) == 0
        assert controller.ewma >= BROWNOUT_ENTER_L2
        assert controller.observe(1.0, 1.0) == 1  # L0 can only reach L1
        assert controller.observe(1.0, 2.0) == 2
        assert controller.transitions == [(1.0, 1), (2.0, 2)]

    def test_hysteresis_holds_between_exit_and_enter(self):
        controller = BrownoutController()
        step = 2 * BROWNOUT_MIN_DWELL_S
        now = 0.0
        while controller.level == 0:
            now += step
            controller.observe(1.0, now)
        assert controller.level == 1
        held = 0
        while True:
            now += step
            level = controller.observe(0.0, now)
            if controller.ewma <= BROWNOUT_EXIT_L1:
                assert level == 0
                break
            # Below enter_l1 but above exit_l1: holds at L1.
            assert controller.ewma < BROWNOUT_ENTER_L1
            assert level == 1
            held += 1
        assert held > 0
        assert [level for _, level in controller.transitions] == [1, 0]

    def test_min_dwell_blocks_flapping(self):
        controller = BrownoutController(start_s=0.0)
        for i in range(40):
            now = i * BROWNOUT_MIN_DWELL_S / 40
            assert controller.observe(1.0, now) == 0  # still dwelling at L0
        assert controller.ewma >= BROWNOUT_ENTER_L2
        assert controller.observe(1.0, BROWNOUT_MIN_DWELL_S) == 1
        # The next change waits a full dwell after the last one.
        assert controller.observe(1.0, 1.5 * BROWNOUT_MIN_DWELL_S) == 1
        assert controller.observe(1.0, 2.0 * BROWNOUT_MIN_DWELL_S) == 2


# -- the fleet facade ----------------------------------------------------------


def _small_config(**overrides):
    defaults = dict(shards=1, seed=0)
    defaults.update(overrides)
    return FleetConfig(**defaults)


def _run_fleet(config, scenario):
    """Build a fleet on a fresh kernel and drive ``scenario(fleet)``."""
    kernel = Kernel()
    fleet = HeadingFleet(config, scheduler=kernel)

    async def main():
        fleet.start()
        try:
            return await scenario(fleet)
        finally:
            await fleet.stop()

    return fleet, kernel.run(main())


class TestHeadingFleet:
    def test_nested_compass_observe_is_refused(self, tmp_path):
        # Shard replicas report through the fleet's observer, so an
        # observe nested in the compass configuration would be dropped.
        path = tmp_path / "fleet.rplog"
        service = FleetConfig().service
        compass = dataclasses.replace(
            service.compass, observe=Observability.on(replay_path=str(path))
        )
        config = _small_config(
            service=dataclasses.replace(service, compass=compass)
        )
        with pytest.raises(ConfigurationError, match="FleetConfig"):
            HeadingFleet(config, scheduler=Kernel())
        assert not path.exists()

    def test_measured_then_cached_bit_identical(self):
        async def scenario(fleet):
            first = await fleet.submit("device-1", 45.0)
            second = await fleet.submit("device-1", 45.0)
            return first, second

        fleet, (first, second) = _run_fleet(_small_config(), scenario)
        assert first.source == "measured"
        assert second.source == "cache"
        assert second.heading_deg == first.heading_deg
        assert second.field_estimate_a_per_m == first.field_estimate_a_per_m
        assert second.latency_s == 0.0
        assert fleet.cache.hits == 1

    def test_sub_quantum_inputs_share_the_cache_entry(self):
        quantum = 360.0 / 4096.0

        async def scenario(fleet):
            first = await fleet.submit("device-1", 45.0)
            second = await fleet.submit("device-2", 45.0 + quantum / 3)
            return first, second

        _, (first, second) = _run_fleet(_small_config(), scenario)
        assert second.source == "cache"
        assert second.heading_deg == first.heading_deg

    def test_concurrent_duplicates_coalesce_bit_identical(self):
        async def scenario(fleet):
            tasks = [
                fleet.scheduler.spawn(fleet.submit(f"device-{i}", 100.0))
                for i in range(3)
            ]
            return [await task.future for task in tasks]

        config = _small_config(cache_enabled=False)
        fleet, responses = _run_fleet(config, scenario)
        sources = sorted(r.source for r in responses)
        assert sources == ["coalesced", "coalesced", "measured"]
        assert len({r.heading_deg for r in responses}) == 1
        assert len({r.field_estimate_a_per_m for r in responses}) == 1
        # One backend measurement for three requests.
        assert sum(shard.served for shard in fleet.shards) == 1

    def test_rate_limit_shed_is_typed(self):
        config = _small_config(
            admission=TokenBucketConfig(rate_rps=1.0, burst=1.0)
        )

        async def scenario(fleet):
            await fleet.submit("device-1", 10.0)
            with pytest.raises(OverloadError) as caught:
                await fleet.submit("device-2", 20.0)
            return caught.value

        fleet, error = _run_fleet(config, scenario)
        assert error.reason == "rate-limit"
        assert fleet.shed["rate-limit"] == 1
        assert fleet.bucket.refused == 1

    def test_queue_full_shed_is_typed(self):
        config = _small_config(queue_depth=2)
        kernel = Kernel()
        fleet = HeadingFleet(config, scheduler=kernel)

        async def main():
            # Workers not started yet: the queue can only fill.
            tasks = [
                kernel.spawn(fleet.submit(f"device-{i}", 10.0 * (i + 1)))
                for i in range(3)
            ]
            await kernel.sleep(0.001)
            fleet.start()  # drain the two admitted requests
            results = []
            for task in tasks:
                try:
                    results.append((await task.future).source)
                except OverloadError as error:
                    results.append(error.reason)
            await fleet.stop()
            return results

        results = kernel.run(main())
        assert results == ["measured", "measured", "queue-full"]
        assert fleet.shed["queue-full"] == 1

    def test_dead_queued_work_is_evicted_with_deadline_reason(self):
        config = _small_config(queue_depth=2)
        kernel = Kernel()
        fleet = HeadingFleet(config, scheduler=kernel)

        async def main():
            # Two queued requests whose deadlines cannot survive even one
            # estimated service time, then a healthy one that needs the
            # slot: the dead pair is evicted, loudly.
            doomed = [
                kernel.spawn(
                    fleet.submit(f"device-{i}", 10.0 * (i + 1),
                                 deadline_s=0.001)
                )
                for i in range(2)
            ]
            healthy = kernel.spawn(fleet.submit("device-9", 77.0))
            await kernel.sleep(0.0)
            fleet.start()
            outcomes = []
            for task in doomed:
                try:
                    await task.future
                    outcomes.append("served")
                except OverloadError as error:
                    outcomes.append(error.reason)
            response = await healthy.future
            await fleet.stop()
            return outcomes, response

        outcomes, response = kernel.run(main())
        assert outcomes == ["deadline", "deadline"]
        assert response.source == "measured"
        assert fleet.shed["deadline"] == 2
        assert fleet.shards[0].queue.evicted == 2

    def test_brownout_l2_steps_quorum_down_and_degrades_verdict(self):
        config = _small_config(cache_enabled=False, coalesce_enabled=False)

        async def scenario(fleet):
            fleet.brownout.level = 2
            return await fleet.submit("device-1", 45.0)

        _, response = _run_fleet(config, scenario)
        assert response.verdict == "quorum-degraded"
        assert response.brownout_level == 2

    def test_degraded_responses_are_never_cached(self):
        config = _small_config()

        async def scenario(fleet):
            target = fleet.shards[0].service.replicas[0].compass
            with REGISTRY.inject("sensor.open_excitation_coil", target, 1.0):
                first = await fleet.submit("device-1", 45.0)
                second = await fleet.submit("device-1", 45.0)
            return first, second

        fleet, (first, second) = _run_fleet(config, scenario)
        assert first.verdict == "quorum-degraded"
        assert second.source == "measured"  # no cache entry was written
        assert len(fleet.cache) == 0

    def test_conformance_guard_passes_on_honest_entries(self):
        config = _small_config(guard_every=1)

        async def scenario(fleet):
            await fleet.submit("device-1", 45.0)
            return await fleet.submit("device-1", 45.0)

        fleet, response = _run_fleet(config, scenario)
        assert response.source == "cache"
        assert fleet.guard_checks == 1

    def test_conformance_guard_catches_a_tampered_entry(self):
        config = _small_config(guard_every=1)
        kernel = Kernel()
        fleet = HeadingFleet(config, scheduler=kernel)

        async def main():
            fleet.start()
            first = await fleet.submit("device-1", 45.0)
            poisoned = dataclasses.replace(
                fleet.cache.get(first.scene),
                heading_deg=first.heading_deg + 0.5,
            )
            fleet.cache.put(first.scene, poisoned)
            try:
                with pytest.raises(DivergenceError, match="conformance"):
                    await fleet.submit("device-2", 45.0)
            finally:
                await fleet.stop()

        kernel.run(main())

    def test_identical_seeds_identical_outcomes(self):
        async def scenario(fleet):
            out = []
            for index in range(6):
                response = await fleet.submit(
                    f"device-{index % 2}", 60.0 * index
                )
                out.append(
                    (response.source, response.shard, response.heading_deg,
                     response.latency_s)
                )
            return out

        config = FleetConfig(shards=2, seed=42)
        _, first = _run_fleet(config, scenario)
        _, second = _run_fleet(config, scenario)
        assert first == second

    def test_stats_snapshot_shape(self):
        async def scenario(fleet):
            await fleet.submit("device-1", 45.0)
            return fleet.stats()

        _, stats = _run_fleet(_small_config(), scenario)
        assert stats["served"] == 1
        assert stats["shed"] == {
            "rate-limit": 0, "queue-full": 0, "deadline": 0,
        }
        assert stats["cache"]["misses"] == 1
        assert stats["shards"][0]["served"] == 1
        assert stats["shards"][0]["est_service_ms"] > 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(shards=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(deadline_s=0.0)
        with pytest.raises(ConfigurationError):
            FleetConfig(guard_every=-1)
