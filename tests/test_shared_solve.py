"""One certified solve per request for a service's replica set.

A :class:`~repro.service.HeadingService` hands its replicas one solve
memo (:meth:`~repro.core.compass.IntegratedCompass.share_solves`): an
unarmed, eligible replica reuses the channel solve another replica made
for the same field rows.  Sharing may only change how often the solver
runs.  So a service with the memo must answer exactly like the same
seeds with every replica solving alone — responses, each replica's
``fastpath_stats``, the metrics snapshot and the span trees (but for
the ``fastpath`` span's ``shared`` attribute) — whatever fault is armed
on whichever replica, for refused fields and for scenes.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analog import fastpath
from repro.batch import BatchScene
from repro.errors import ReproError
from repro.faults import REGISTRY
from repro.observe import M_CACHE_EVENTS, Observability
from repro.observe.trace import STAGE_FASTPATH
from repro.service import HeadingService, ServiceConfig

CONFIG = ServiceConfig(observe=Observability.on())

measurement_faults = st.sampled_from([
    (name, severity)
    for name in REGISTRY.names()
    if REGISTRY.get(name).probe == "measurement"
    for severity in REGISTRY.get(name).severities
])
headings = st.floats(
    min_value=0.0, max_value=360.0, exclude_max=True, allow_nan=False
)
#: The rated band, weak fields the health review refuses, and strong
#: ones past the fast path's validity envelope (stepped fallback).
fields_ut = st.one_of(
    st.floats(min_value=25.0, max_value=65.0),
    st.floats(min_value=1.0, max_value=12.0),
    st.floats(min_value=90.0, max_value=300.0),
)


def services():
    """(shared, alone): the same seeds, with and without the memo."""
    shared, alone = HeadingService(CONFIG), HeadingService(CONFIG)
    for replica in alone.replicas:
        replica.compass.share_solves(None)
    return shared, alone


def _outcome(call):
    try:
        return call()
    except ReproError as error:
        return type(error).__name__, str(error)


def _tree(span):
    attributes = {k: v for k, v in span.attributes.items() if k != "shared"}
    return (
        span.name,
        span.status,
        attributes,
        [_tree(child) for child in span.children],
    )


def _state(service):
    """Everything a caller or an operator can see of the service."""
    metrics = service.observer.metrics.snapshot()
    # The process-wide trace cache splits its lookups into hits and
    # misses by what ran before; only their number is the service's.
    cache = metrics.pop(M_CACHE_EVENTS, {"series": []})
    return (
        [replica.compass.front_end.fastpath_stats for replica in service.replicas],
        metrics,
        sum(series["value"] for series in cache["series"]),
        [_tree(root) for root in service.observer.ring().roots],
    )


def _fastpath_spans(service):
    return [
        span
        for root in service.observer.ring().roots
        for span in root.walk()
        if span.name == STAGE_FASTPATH
    ]


def _serve(service, scene, heading, field_t):
    if scene:
        rows = BatchScene.from_headings(
            service.replicas[0].compass.sensors,
            [heading, heading + 90.0, heading + 200.0],
            field_t,
        )
        return _outcome(lambda: service.measure_scene(rows))
    return _outcome(lambda: service.measure_heading(heading, field_t))


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    fault=st.one_of(st.none(), measurement_faults),
    replica=st.integers(min_value=0, max_value=2),
    heading=headings,
    field_ut=fields_ut,
    scene=st.booleans(),
)
def test_shared_solve_serves_what_solving_alone_serves(
    fault, replica, heading, field_ut, scene
):
    field_t = field_ut * 1e-6
    results = []
    for service in services():
        # Clean, then armed on one replica, then clean again: the memo
        # outlives the fault and must not have learnt from it.
        served = [_serve(service, scene, heading, 50.0e-6)]
        if fault is None:
            served.append(_serve(service, scene, heading, field_t))
        else:
            with REGISTRY.inject(
                fault[0], service.replicas[replica].compass, fault[1]
            ):
                served.append(_serve(service, scene, heading, field_t))
        served.append(_serve(service, scene, heading + 1.0, field_t))
        results.append((served, _state(service)))
    assert results[0] == results[1]


class TestSharing:
    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = fastpath.solve_channel_batch

        def counted(*args, **kwargs):
            calls.append(args[2])
            return solve(*args, **kwargs)

        monkeypatch.setattr(fastpath, "solve_channel_batch", counted)
        return calls

    def test_clean_request_solves_each_channel_once(self, solves):
        shared, alone = services()
        shared.measure_heading(123.4)
        assert solves == ["x", "y"]
        del solves[:]
        alone.measure_heading(123.4)
        assert len(solves) == 6
        assert [s.attributes["shared"] for s in _fastpath_spans(shared)] == [
            False, False, True, True, True, True,
        ]
        assert not any(s.attributes["shared"] for s in _fastpath_spans(alone))

    def test_an_armed_replica_solves_alone(self, solves):
        service, _ = services()
        with REGISTRY.inject(
            "digital.counter_stuck_bit", service.replicas[0].compass, 1.0
        ):
            response = service.measure_heading(123.4)
        assert len(response.attempts) == 3
        assert len(solves) == 4
        assert [s.attributes["shared"] for s in _fastpath_spans(service)] == [
            False, False, False, False, True, True,
        ]

    def test_a_refused_solve_is_not_stored(self, solves):
        service, _ = services()
        service.measure_heading(37.0, 150e-6)
        stats = [r.compass.front_end.fastpath_stats for r in service.replicas]
        assert all(s.used == 0 and s.fallback_total == s.attempted for s in stats)
        assert len(solves) == sum(s.attempted for s in stats) > 6
        assert not any(s.attributes["shared"] for s in _fastpath_spans(service))

    def test_a_mixed_scene_solves_each_channel_once(self, solves):
        # At 70 µT heading 0 puts x, and heading 90 puts y, past the
        # guarded ramp: each channel's call refuses one of its three rows.
        service, _ = services()
        scene = BatchScene.from_headings(
            service.replicas[0].compass.sensors, [0.0, 45.0, 90.0], 70e-6
        )
        service.measure_scene(scene)
        assert solves == ["x", "y"]
        for replica in service.replicas:
            stats = replica.compass.front_end.fastpath_stats
            assert stats.used == 4
            assert stats.fallbacks == {"validity-envelope": 2}
        spans = _fastpath_spans(service)
        assert [s.attributes["shared"] for s in spans] == [
            False, False, True, True, True, True,
        ]
        assert [s.attributes["refused"] for s in spans] == [1] * 6
        memo = service.replicas[0].compass._shared_solves
        assert [outputs.count(None) for _, outputs, _ in memo.values()] == [1, 1]

    def test_shared_blocks_are_read_only(self):
        service, _ = services()
        service.measure_heading(123.4)
        memo = service.replicas[0].compass._shared_solves
        for _, outputs, _ in memo.values():
            block = outputs[0].block
            for array in (block.times, block.values, block.initial, block.high):
                with pytest.raises(ValueError):
                    array[0] = 0
