"""The replica storm both soaks drive: its revert and its two caps.

The caps are replayed from the soaks' event logs.  Each soak logs every
arm, disarm, spike and unspike, so a replay gives, at every instant,
the replicas each storm holds armed or spiked and the shards holding
any.  Breaker recovery is not in the log, so these counts are a lower
bound on what a storm counts as compromised: the caps below are
necessary for the real ones to hold, not sufficient.
"""

from collections import defaultdict

import numpy as np

from repro.faults import REGISTRY, ChaosSoak, SoakConfig
from repro.faults.chaos import ReplicaStorm
from repro.fleet import FleetConfig, FleetSoak, FleetSoakConfig
from repro.service import HeadingService, ServiceConfig


def test_revert_leaves_every_replica_as_built():
    config = ServiceConfig(replicas=5, quorum=3)
    service = HeadingService(config)
    storm = ReplicaStorm(service, REGISTRY.select("measurement"))
    # Seed 0 arms an amplifier offset that changes replica 0's reading at
    # 123 deg, and spikes replica 4.
    rng = np.random.default_rng(0)
    actions = []
    while len(storm.compromised()) < storm.budget:
        actions += [a for a in (storm.arm(rng), storm.spike(rng)) if a]
    assert {a.action for a in actions} == {"arm", "spike"}
    storm.revert()
    assert not storm.compromised()
    fresh = HeadingService(config)
    for replica, clean in zip(service.replicas, fresh.replicas):
        assert replica.latency_scale == 1.0
        assert replica.compass.measure_heading(
            123.0
        ) == clean.compass.measure_heading(123.0)


def _peak_chaos(events):
    """(most replicas on one shard, most shards) held at once, replayed
    from ``(shard, action, replica)`` triples."""
    held = defaultdict(set)
    peak_replicas = peak_shards = 0
    for shard, action, replica in events:
        if action in ("arm", "spike"):
            assert replica not in held[shard], "replica stormed twice"
            held[shard].add(replica)
        else:
            held[shard].remove(replica)
        peak_replicas = max(peak_replicas, len(held[shard]))
        peak_shards = max(peak_shards, sum(1 for s in held.values() if s))
    return peak_replicas, peak_shards


def test_chaos_soak_storms_at_most_a_strict_minority():
    config = SoakConfig(
        requests=40, seed=0, service=ServiceConfig(replicas=5, quorum=3)
    )
    report = ChaosSoak(config).run()
    peak, _ = _peak_chaos((0, e.action, e.replica) for e in report.events)
    # The storm presses against its cap, and never past it.
    assert peak == config.chaos_budget == 2


def test_fleet_soak_caps_replicas_per_shard_and_stormy_shards():
    config = FleetSoakConfig(
        fleet=FleetConfig(shards=4, seed=0),
        rated_rps=100.0,
        phases=((1.0, 1.0),),
        seed=7,
    )
    report = FleetSoak(config).run()
    peak_replicas, peak_shards = _peak_chaos(
        (e.shard, e.action, e.replica) for e in report.events
    )
    assert peak_replicas <= (config.fleet.service.replicas - 1) // 2
    # Four shards, but the storm holds at most two at once.
    assert peak_shards == config.max_chaotic_shards == 2
