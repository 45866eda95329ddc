"""Tests of the benchmark's own code (run: python3 -m pytest perfbench/tests)."""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import spans
from harness import Ledger, Phase, RoundResult, digest, run_phase
from metrics import END_TO_END, PER_LAYER, error_stats, percentile, quartile_spread
from spans import (
    ENTRY_POINTS,
    EntryPoint,
    Tracer,
    installed,
    root_time,
    self_time_by_layer,
    self_times,
)

ROOT = Path(spans.__file__).resolve().parent.parent


def span(span_id, parent, start, end, layer="x", name="n", request=0):
    return [span_id, parent, request, name, layer, start, end]


class FakeClock:
    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


# -- self-time arithmetic -------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    tree = [
        span(0, None, 0.0, 10.0, layer="fleet"),
        span(1, 0, 1.0, 4.0, layer="service"),
        span(2, 0, 3.0, 6.0, layer="service"),  # overlaps span 1
        span(3, 1, 2.0, 3.0, layer="core"),
        span(4, 0, 9.0, 12.0, layer="digital"),  # overhangs its parent
    ]
    # Root: 10 minus the union [1, 6] + [9, 10] = 4.
    assert self_times(tree) == [4.0, 2.0, 3.0, 1.0, 3.0]
    assert self_time_by_layer(tree) == {
        "fleet": 4.0, "service": 5.0, "core": 1.0, "digital": 3.0
    }
    assert root_time(tree) == 10.0


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([span(0, None, 2.5, 4.0)]) == [1.5]


def test_tracer_nests_spans_and_shares_request_ids():
    tracer = Tracer(clock=FakeClock())
    outer = tracer.open("outer", "a")
    inner = tracer.open("inner", "b")
    tracer.close(inner)
    tracer.close(outer)
    second = tracer.open("second", "a")
    tracer.close(second)
    assert inner[spans.PARENT] == outer[spans.SPAN_ID]
    assert inner[spans.REQUEST] == outer[spans.REQUEST]
    assert second[spans.REQUEST] != outer[spans.REQUEST]
    assert self_times(tracer.spans) == [2.0, 1.0, 1.0]


def test_tracer_rejects_out_of_order_close():
    tracer = Tracer(clock=FakeClock())
    outer = tracer.open("outer", "a")
    tracer.open("inner", "a")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


# -- wrapping entry points ----------------------------------------------------------


class _Plant:
    def measure(self, x):
        return 2 * x

    async def serve(self, x):
        await _Yield()
        return self.measure(x) + 1


class _Yield:
    def __await__(self):
        yield "tick"


@pytest.fixture
def plant_module(monkeypatch):
    module = types.ModuleType("fake_plant")
    module.Plant = _Plant
    monkeypatch.setitem(sys.modules, "fake_plant", module)
    return module


def _count(tracer, args, kwargs, result, before):
    tracer.counters["measured"] += 1


def test_installed_wraps_on_the_class_and_restores(plant_module):
    original = _Plant.__dict__["measure"]
    tracer = Tracer(clock=FakeClock())
    plant = _Plant()
    with installed(tracer, [EntryPoint("core", "fake_plant:Plant.measure", _count)]):
        assert plant.measure(3) == 6
        assert "measure" not in vars(plant)  # never an instance override
    assert _Plant.__dict__["measure"] is original
    assert [s[spans.NAME] for s in tracer.spans] == ["Plant.measure"]
    assert tracer.counters["measured"] == 1


def test_coroutine_entry_point_records_one_span_per_segment(plant_module):
    tracer = Tracer(clock=FakeClock())
    entries = [
        EntryPoint("fleet", "fake_plant:Plant.serve"),
        EntryPoint("core", "fake_plant:Plant.measure"),
    ]
    with installed(tracer, entries):

        async def client():
            return await _Plant().serve(4)

        coro = client()
        assert coro.send(None) == "tick"
        with pytest.raises(StopIteration) as done:
            coro.send(None)
    assert done.value.value == 9
    names = [(s[spans.NAME], s[spans.PARENT], s[spans.REQUEST]) for s in tracer.spans]
    assert names == [
        ("Plant.serve", None, 0),
        ("Plant.serve", None, 0),
        ("Plant.measure", 1, 0),
    ]


def test_every_entry_point_resolves_to_a_plain_function():
    for entry in ENTRY_POINTS:
        owner, attr, original = spans._resolve(entry.target)
        assert callable(original), entry.target


# -- op accounting and digests -----------------------------------------------------


class FakeWorkload:
    """Two round inputs; ``drift`` changes the outputs, as a broken tracer would."""

    def __init__(self, failed=0):
        self.inputs = ["a", "b"]
        self.failed = failed
        self.drift = False

    def run_round(self, index):
        outputs = (self.inputs[index], self.drift)
        return RoundResult(ops=10, failed=self.failed, digest=digest(outputs),
                           errors=[0.5 * (index + 1)])


def test_phase_accounts_attempted_and_failed_ops():
    ledger = Ledger()
    workload = FakeWorkload(failed=2)
    phase = run_phase(workload, seconds=0.0, min_rounds=3, ledger=ledger,
                      first_seen={}, clock=FakeClock())
    assert [index for index, _, _ in phase.rounds] == [0, 1, 0]
    assert ledger.attempted == phase.ops == 30
    assert ledger.failed == 6
    assert ledger.correct


def test_phase_runs_until_its_time_is_up():
    phase = run_phase(FakeWorkload(), seconds=5.0, min_rounds=1, ledger=Ledger(),
                      first_seen={}, clock=FakeClock(step=1.0))
    # Each round reads the clock twice (start, end) plus once per loop test.
    assert len(phase.rounds) == 2
    assert phase.ops_per_s == 10.0


def test_ops_per_s_is_the_upper_quartile_round_rate():
    seconds = (10.0, 5.0, 2.0, 1.0, 1.0)  # rates 1, 2, 5, 10, 10
    rounds = [(0, s, RoundResult(ops=10, failed=0, digest="")) for s in seconds]
    assert Phase(rounds=rounds, wall_s=19.0).ops_per_s == 10.0
    assert Phase(rounds=rounds[:1], wall_s=10.0).ops_per_s == 1.0


def test_traced_round_matching_its_untraced_twin_passes():
    ledger, first_seen = Ledger(), {}
    workload = FakeWorkload()
    run_phase(workload, 0.0, 2, ledger, first_seen, clock=FakeClock())
    run_phase(workload, 0.0, 2, ledger, first_seen, clock=FakeClock())
    assert ledger.correct


def test_traced_round_that_drifts_fails_the_run():
    ledger, first_seen = Ledger(), {}
    workload = FakeWorkload()
    run_phase(workload, 0.0, 1, ledger, first_seen, clock=FakeClock())
    workload.drift = True
    run_phase(workload, 0.0, 1, ledger, first_seen, clock=FakeClock())
    assert not ledger.correct
    assert "input 0" in ledger.problems[0]


# -- metric arithmetic and the declared tables ---------------------------------------


def test_error_stats_and_percentile():
    assert error_stats([3.0, 4.0]) == {"rms_error_deg": pytest.approx(12.5 ** 0.5),
                                       "max_error_deg": 4.0}
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile([], 99) == 0.0
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)


def test_benchmark_json_declares_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


# -- end to end ---------------------------------------------------------------------


def test_traced_fleet_run_reports_every_layer_metric():
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "fleet-rated", "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(PER_LAYER)
    assert result["metrics"]["analog.fastpath_used"]["value"] > 0
    assert result["metrics"]["physics.noise_samples"]["value"] == 0
