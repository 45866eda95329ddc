"""Golden-vector conformance suite.

``tests/golden/compass_vectors.json`` pins the exact counter pair,
heading, field estimate and health verdict for a 16-heading x
3-magnitude grid of clean measurements.  Every path through the system —
the scalar loop, the vectorized batch engine, and both again with the
observability layer enabled — must reproduce the pinned vectors
**bit-for-bit**: ``==`` on floats, never ``approx``.

This is the repo's conformance contract: instrumentation, caching and
refactors may reorganise *how* a measurement happens, but may not move a
single output bit.  Regenerate (only after an intentional numerics
change) with ``scripts/regen_golden_vectors.py``.
"""

import json
import pathlib

import pytest

from repro.analog.frontend import FrontEndConfig
from repro.batch import BatchCompass
from repro.core.compass import CompassConfig, IntegratedCompass
from repro.observe import Observability
from repro.observe.trace import (
    STAGE_BACKEND,
    STAGE_BATCH,
    STAGE_CHANNEL,
    STAGE_COMPARATOR,
    STAGE_CORDIC,
    STAGE_CORDIC_ITER,
    STAGE_COUNTER,
    STAGE_EXCITATION,
    STAGE_MEASURE,
    STAGE_PICKUP,
    validate_tree,
)

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "compass_vectors.json"
RECORD = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
VECTORS = RECORD["vectors"]
HEADINGS = RECORD["meta"]["headings_deg"]
MAGNITUDES = RECORD["meta"]["field_magnitudes_ut"]

VECTOR_IDS = [
    f"{v['true_heading_deg']}deg@{v['field_ut']}uT" for v in VECTORS
]

#: Instrumented re-measurement doubles the per-cell cost, so the default
#: tier re-checks the nominal 50 uT column and the slow tier the rest —
#: the *disabled*-path tests above always cover the full grid.
INSTRUMENTED_PARAMS = [
    pytest.param(
        vector,
        id=vector_id,
        marks=() if vector["field_ut"] == 50.0 else pytest.mark.slow,
    )
    for vector, vector_id in zip(VECTORS, VECTOR_IDS)
]


def _vectors_for(field_ut):
    return [v for v in VECTORS if v["field_ut"] == field_ut]


def assert_matches(measurement, vector):
    """Bit-exact equality of one measurement against its pinned vector."""
    assert measurement.x_count == vector["x_count"]
    assert measurement.y_count == vector["y_count"]
    assert measurement.heading_deg == vector["heading_deg"]
    assert (
        measurement.field_estimate_a_per_m
        == vector["field_estimate_a_per_m"]
    )
    assert measurement.cordic_cycles == vector["cordic_cycles"]
    health = measurement.health
    if vector["health_status"] is None:
        assert health is None
    else:
        assert health is not None
        assert health.status == vector["health_status"]
        assert list(health.flags) == vector["health_flags"]
    assert measurement.degraded == vector["degraded"]


class TestGoldenGrid:
    def test_grid_shape(self):
        assert len(HEADINGS) == 16
        assert len(MAGNITUDES) == 3
        assert len(VECTORS) == 48
        assert MAGNITUDES == [25.0, 50.0, 65.0]

    def test_all_vectors_clean(self):
        """The golden grid is fault-free: every cell fully trusted."""
        assert all(v["health_status"] == "ok" for v in VECTORS)
        assert not any(v["degraded"] for v in VECTORS)


class TestScalarPath:
    @pytest.fixture(scope="class")
    def compass(self):
        return IntegratedCompass()

    @pytest.mark.parametrize("vector", VECTORS, ids=VECTOR_IDS)
    def test_scalar_bit_exact(self, compass, vector):
        m = compass.measure_heading(
            vector["true_heading_deg"], vector["field_ut"] * 1e-6
        )
        assert_matches(m, vector)


class TestBatchPath:
    @pytest.fixture(scope="class")
    def batch(self):
        # Shared so the excitation cache (keyed on grid/channel, not
        # magnitude) warms once for all three magnitudes.
        return BatchCompass(IntegratedCompass())

    @pytest.mark.parametrize("field_ut", MAGNITUDES)
    def test_batch_bit_exact(self, batch, field_ut):
        measurements = batch.sweep_headings(HEADINGS, field_ut * 1e-6)
        expected = _vectors_for(field_ut)
        assert len(measurements) == len(expected)
        for m, vector in zip(measurements, expected):
            assert_matches(m, vector)


class TestInstrumentedPaths:
    """Observability on: still bit-exact, and the span tree is complete."""

    @pytest.fixture(scope="class")
    def compass(self):
        return IntegratedCompass(
            CompassConfig(observe=Observability.on())
        )

    @pytest.mark.parametrize("vector", INSTRUMENTED_PARAMS)
    def test_instrumented_scalar_bit_exact(self, compass, vector):
        m = compass.measure_heading(
            vector["true_heading_deg"], vector["field_ut"] * 1e-6
        )
        assert_matches(m, vector)

    @pytest.fixture(scope="class")
    def batch(self, compass):
        return BatchCompass(compass)

    @pytest.mark.parametrize("field_ut", MAGNITUDES)
    def test_instrumented_batch_bit_exact(self, batch, field_ut):
        measurements = batch.sweep_headings(HEADINGS, field_ut * 1e-6)
        for m, vector in zip(measurements, _vectors_for(field_ut)):
            assert_matches(m, vector)

    @pytest.fixture(scope="class")
    def stepped(self):
        return IntegratedCompass(CompassConfig(
            front_end=FrontEndConfig(fastpath=False), observe=Observability.on()
        ))

    @pytest.mark.parametrize("path", ["scalar", "batch"])
    def test_span_tree_covers_every_stage(self, stepped, path):
        if path == "scalar":
            stepped.measure_heading(45.0, 50.0e-6)
        else:
            BatchCompass(stepped).sweep_headings([45.0, 90.0], 50.0e-6)
        root = stepped.observer.ring().roots[-1]
        validate_tree(root)
        names = {span.name for span in root.walk()}
        assert root.name == (STAGE_MEASURE if path == "scalar" else STAGE_BATCH)
        for stage in (
            STAGE_MEASURE,
            f"{STAGE_CHANNEL}.x",
            f"{STAGE_CHANNEL}.y",
            STAGE_EXCITATION,
            STAGE_PICKUP,
            STAGE_COMPARATOR,
            STAGE_BACKEND,
            f"{STAGE_COUNTER}.x",
            f"{STAGE_COUNTER}.y",
            STAGE_CORDIC,
        ):
            assert stage in names, f"missing span: {stage}"
        iters = {n for n in names if n.startswith(STAGE_CORDIC_ITER)}
        assert iters == {f"{STAGE_CORDIC_ITER}.{i}" for i in range(8)}
        # One vocabulary for both paths: no batch-only channel spans.
        assert {n for n in names if n.startswith("batch.")} <= {STAGE_BATCH}

    def test_metrics_counters_nonzero_for_both_paths(self, compass):
        compass.measure_heading(200.0, 50.0e-6)
        BatchCompass(compass).sweep_headings([10.0], 50.0e-6)
        snapshot = compass.observer.metrics.snapshot()
        series = snapshot["compass_measurements_total"]["series"]
        by_path = {s["labels"]["path"]: s["value"] for s in series}
        assert by_path.get("scalar", 0) > 0
        assert by_path.get("batch", 0) > 0


@pytest.mark.slow
class TestRegenerationScript:
    def test_script_reproduces_current_vectors(self):
        """The checked-in JSON is exactly what the generator emits."""
        import importlib.util

        script = (
            pathlib.Path(__file__).parent.parent
            / "scripts" / "regen_golden_vectors.py"
        )
        spec = importlib.util.spec_from_file_location("regen_golden", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.generate() == RECORD
