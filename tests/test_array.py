"""The gradiometer array compass: degeneracy, fusion, and honesty.

Four claims carry the array's story:

1. **The N=1 array IS the compass.**  With the degenerate
   single-element geometry, every fused measurement is bit-identical to
   the bare :class:`~repro.core.compass.IntegratedCompass` — across all
   48 golden conformance vectors, on both the scalar and the batched
   sweep path.  The array adds redundancy, never a new answer.
2. **One dead element is benign.**  A four-element array with a
   hard-faulted element serves an unflagged fused heading inside the
   paper's 1° spec — the redundancy claim the ``array.element_dead``
   campaign cell ratchets.
3. **A twisted element never averages in silently.**  Small mounting
   errors trip the gradiometer (degraded), large ones are voted out
   (benign) — the two ends of ``array.element_rotated``.
4. **The gradiometer sees what one sensor cannot.**  A near-field
   source leaves a spatial gradient across the aperture; the fused
   measurement flags it even when every element's own magnitude stays
   inside the worldwide band the single-sensor health screen checks.
"""

import json
import math
from pathlib import Path

import pytest

from repro.array import (
    ArrayCompass,
    ArrayConfig,
    ArrayGeometry,
    ArrayMeasurement,
    F_ARRAY_GRADIENT,
    F_ARRAY_REDUNDANCY,
    NearFieldSource,
)
from repro.core.compass import CompassConfig, IntegratedCompass
from repro.core.health import HealthConfig
from repro.errors import ArrayFusionError, ConfigurationError, FaultError
from repro.faults import FaultCampaign, REGISTRY
from repro.observe import (
    M_ARRAY_ELEMENTS,
    M_ARRAY_FUSIONS,
    M_ARRAY_RESIDUAL,
    Observability,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "compass_vectors.json"


def golden_vectors():
    return json.loads(GOLDEN_PATH.read_text())["vectors"]


def kill_element(array: ArrayCompass, index: int) -> None:
    """Make one element raise on every measurement (hard fault)."""

    def dead(*args, **kwargs):
        raise FaultError("element killed for test")

    array.elements[index].measure_components = dead
    array.elements[index].measure_heading = dead


# -- claim 1: the degenerate array ---------------------------------------------


class TestDegenerateArray:
    def test_single_element_matches_golden_vectors_scalar(self):
        array = ArrayCompass(ArrayConfig(geometry=ArrayGeometry.single()))
        for vector in golden_vectors():
            fused = array.measure_heading(
                vector["true_heading_deg"], vector["field_ut"] * 1e-6
            )
            assert fused.heading_deg == vector["heading_deg"]
            assert (
                fused.field_a_per_m == vector["field_estimate_a_per_m"]
            )
            assert fused.flags == ()
            assert fused.n_used == 1
            element = fused.elements[0]
            assert element.status == "ok"
            assert element.weight == 1.0

    def test_single_element_matches_golden_vectors_batch(self):
        vectors = golden_vectors()
        by_field = {}
        for vector in vectors:
            by_field.setdefault(vector["field_ut"], []).append(vector)
        array = ArrayCompass(ArrayConfig(geometry=ArrayGeometry.single()))
        for field_ut, group in by_field.items():
            fused_rows = array.sweep_headings(
                [v["true_heading_deg"] for v in group], field_ut * 1e-6
            )
            for vector, fused in zip(group, fused_rows):
                assert fused.heading_deg == vector["heading_deg"]
                assert (
                    fused.field_a_per_m
                    == vector["field_estimate_a_per_m"]
                )

    def test_single_element_matches_live_compass_bitwise(self):
        array = ArrayCompass(ArrayConfig(geometry=ArrayGeometry.single()))
        compass = IntegratedCompass(
            CompassConfig(health=HealthConfig(enabled=True))
        )
        for heading in (0.0, 0.5, 45.0, 123.0, 222.25, 300.0, 359.5):
            fused = array.measure_heading(heading)
            reference = compass.measure_heading(heading)
            assert fused.heading_deg == reference.heading_deg
            assert (
                fused.field_a_per_m == reference.field_estimate_a_per_m
            )


# -- claim 2: one dead element is benign ---------------------------------------


class TestDeadElement:
    def test_fused_heading_unflagged_and_in_spec(self):
        array = ArrayCompass(ArrayConfig(geometry=ArrayGeometry.square()))
        kill_element(array, 2)
        for heading in (0.5, 45.0, 123.0, 222.25, 300.0, 359.5):
            fused = array.measure_world(heading, field_ut=50.0)
            assert fused.flags == ()
            assert not fused.degraded
            assert fused.error_against(heading) <= 1.0
            assert fused.n_used == 3
            assert fused.elements[2].status == "fault"
            assert "FaultError" in fused.elements[2].detail

    def test_two_dead_elements_flag_redundancy(self):
        array = ArrayCompass(ArrayConfig(geometry=ArrayGeometry.square()))
        kill_element(array, 1)
        kill_element(array, 2)
        fused = array.measure_world(123.0, field_ut=50.0)
        assert F_ARRAY_REDUNDANCY in fused.flags
        assert fused.degraded
        assert fused.n_used == 2

    def test_below_min_elements_refuses(self):
        array = ArrayCompass(
            ArrayConfig(geometry=ArrayGeometry.square(), min_elements=4)
        )
        kill_element(array, 0)
        with pytest.raises(ArrayFusionError, match="3 of 4"):
            array.measure_world(123.0, field_ut=50.0)

    def test_campaign_cell_is_benign_with_zero_silent_wrong(self):
        result = FaultCampaign(faults=["array.element_dead"]).run()
        assert len(result.cells) == 6
        assert all(cell.outcome.value == "benign" for cell in result.cells)
        assert all(cell.conforms for cell in result.cells)
        assert result.summary()["silent_wrong"] == 0


# -- claim 3: a twisted element never averages in silently ---------------------


class TestRotatedElement:
    def test_small_twist_trips_gradiometer(self):
        array = ArrayCompass(ArrayConfig(geometry=ArrayGeometry.square()))
        with REGISTRY.inject("array.element_rotated", array, 2.0):
            fused = array.measure_world(123.0, field_ut=50.0)
        assert F_ARRAY_GRADIENT in fused.flags
        assert fused.degraded

    def test_large_twist_is_voted_out(self):
        array = ArrayCompass(ArrayConfig(geometry=ArrayGeometry.square()))
        with REGISTRY.inject("array.element_rotated", array, 8.0):
            fused = array.measure_world(123.0, field_ut=50.0)
        assert fused.flags == ()
        assert fused.n_used == 3
        assert fused.elements[2].status == "outlier"
        assert fused.error_against(123.0) <= 1.0

    def test_injection_is_reversible(self):
        array = ArrayCompass(ArrayConfig(geometry=ArrayGeometry.square()))
        before = array.measure_heading(45.0)
        with REGISTRY.inject("array.element_rotated", array, 8.0):
            pass
        after = array.measure_heading(45.0)
        assert after.heading_deg == before.heading_deg
        assert array.mount_error_deg == (0.0, 0.0, 0.0, 0.0)

    def test_campaign_conforms_with_zero_silent_wrong(self):
        result = FaultCampaign(faults=["array.element_rotated"]).run()
        assert result.summary()["silent_wrong"] == 0
        assert result.summary()["nonconforming"] == 0


# -- claim 4: the gradiometer sees what one sensor cannot ----------------------


class TestGradiometer:
    def test_uniform_field_has_zero_residual(self):
        array = ArrayCompass(ArrayConfig(geometry=ArrayGeometry.square()))
        fused = array.measure_world(123.0, field_ut=50.0)
        assert fused.residual_max_fraction == 0.0
        assert fused.flags == ()

    def test_blind_window_ambush_is_flagged(self):
        """A 1 µT source at 1 m sits inside the single-sensor magnitude
        window (|ΔB| too small to leave the worldwide band) yet leaves a
        gradient across the 0.3 m aperture the fusion must flag."""
        array = ArrayCompass(ArrayConfig(geometry=ArrayGeometry.square()))
        source = NearFieldSource(
            delta_north_ut=0.857, delta_east_ut=-0.514,
            distance_m=1.0, bearing_deg=30.0,
        )
        fused = array.measure_world(123.0, field_ut=50.0, source=source)
        assert F_ARRAY_GRADIENT in fused.flags
        assert (
            fused.residual_max_fraction
            > ArrayConfig().gradient_threshold
        )

    def test_same_ambush_is_invisible_to_a_single_sensor(self):
        """The control arm: the identical uniform-equivalent disturbance
        leaves a lone compass unflagged (its magnitude stays in band) —
        the spatial gradient is the only tell, and only the array has
        an aperture to see it with."""
        compass = IntegratedCompass(
            CompassConfig(health=HealthConfig(enabled=True))
        )
        north = 50.0 + 0.857
        east = -0.514
        magnitude_ut = math.hypot(north, east)
        bearing = math.degrees(math.atan2(east, north))
        h_x, h_y = compass.sensors.axis_fields_from_tesla(
            magnitude_ut * 1e-6, 123.0 - bearing
        )
        measurement = compass.measure_components(h_x, h_y)
        assert not measurement.degraded  # in-band: no flag to raise
        error = abs(((measurement.heading_deg - 123.0) + 180.0) % 360.0 - 180.0)
        assert error > 0.25  # and the served heading is pulled off truth

    def test_strict_mode_refuses_instead_of_flagging(self):
        array = ArrayCompass(
            ArrayConfig(geometry=ArrayGeometry.square(), strict=True)
        )
        source = NearFieldSource(delta_north_ut=2.0, delta_east_ut=-1.2)
        with pytest.raises(ArrayFusionError, match="gradiometer"):
            array.measure_world(123.0, field_ut=50.0, source=source)


# -- configuration and geometry ------------------------------------------------


class TestConfiguration:
    def test_min_elements_must_fit_geometry(self):
        with pytest.raises(ConfigurationError, match="min_elements"):
            ArrayConfig(geometry=ArrayGeometry.single(), min_elements=2)

    def test_gradient_threshold_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="gradient_threshold"):
            ArrayConfig(gradient_threshold=0.0)

    def test_geometry_validates_lengths(self):
        with pytest.raises(ConfigurationError):
            ArrayGeometry(
                positions_m=((0.0, 0.0), (1.0, 0.0)), mounting_deg=(0.0,)
            )

    def test_geometry_needs_an_element(self):
        with pytest.raises(ConfigurationError):
            ArrayGeometry(positions_m=(), mounting_deg=())

    def test_square_aperture(self):
        geometry = ArrayGeometry.square(side_m=0.3)
        assert geometry.aperture_m == pytest.approx(0.3 * math.sqrt(2.0))

    def test_source_deltas_fall_off_with_distance(self):
        source = NearFieldSource(delta_north_ut=1.0, delta_east_ut=0.0)
        near, far = source.deltas_at([(0.5, 0.0), (-0.5, 0.0)])
        assert near[0] > 1.0 > far[0] > 0.0

    def test_mounting_rotation_is_removed_in_fusion(self):
        geometry = ArrayGeometry(
            positions_m=((0.15, 0.0), (-0.15, 0.0)),
            mounting_deg=(90.0, -90.0),
        )
        array = ArrayCompass(
            ArrayConfig(geometry=geometry, gradient_threshold=0.05)
        )
        fused = array.measure_world(123.0, field_ut=50.0)
        assert fused.error_against(123.0) <= 1.0


# -- observability -------------------------------------------------------------


class TestObservability:
    def test_fusion_metrics_are_emitted(self):
        array = ArrayCompass(
            ArrayConfig(
                geometry=ArrayGeometry.square(),
                observe=Observability.on(),
            )
        )
        array.measure_world(123.0, field_ut=50.0)
        kill_element(array, 0)
        array.measure_world(45.0, field_ut=50.0)
        registry = array.observer.metrics
        fusions = registry.get(M_ARRAY_FUSIONS)
        assert fusions is not None
        assert fusions.value(status="ok") == 2
        elements = registry.get(M_ARRAY_ELEMENTS)
        assert elements.value(element="0", outcome="ok") == 1
        assert elements.value(element="0", outcome="fault") == 1
        assert elements.value(element="1", outcome="ok") == 2
        residual = registry.get(M_ARRAY_RESIDUAL)
        assert residual.state().n == 2

    def test_refusals_are_counted(self):
        array = ArrayCompass(
            ArrayConfig(
                geometry=ArrayGeometry.square(),
                min_elements=4,
                observe=Observability.on(),
            )
        )
        kill_element(array, 0)
        with pytest.raises(ArrayFusionError):
            array.measure_world(123.0, field_ut=50.0)
        fusions = array.observer.metrics.get(M_ARRAY_FUSIONS)
        assert fusions.value(status="refused") == 1

    def test_nested_element_observe_is_refused(self, tmp_path):
        # Elements report through the array's observer, so an observe
        # nested in the element configuration would be dropped unseen.
        path = tmp_path / "array.rplog"
        element = CompassConfig(
            health=HealthConfig(enabled=True),
            observe=Observability.on(replay_path=str(path)),
        )
        with pytest.raises(ConfigurationError, match="ArrayConfig"):
            ArrayCompass(
                ArrayConfig(geometry=ArrayGeometry.square(), element=element)
            )
        assert not path.exists()

    def test_shared_excitation_cache_is_hit_across_elements(self):
        array = ArrayCompass(
            ArrayConfig(
                geometry=ArrayGeometry.square(),
                observe=Observability.on(),
            )
        )
        array.sweep_headings([10.0, 20.0, 30.0])
        assert array.cache.hits > 0


# -- the fused result record ---------------------------------------------------


class TestArrayMeasurement:
    def test_weights_sum_to_one(self):
        array = ArrayCompass(ArrayConfig(geometry=ArrayGeometry.square()))
        fused = array.measure_world(222.25, field_ut=50.0)
        assert sum(e.weight for e in fused.elements) == pytest.approx(1.0)

    def test_identical_elements_weigh_identically(self):
        array = ArrayCompass(ArrayConfig(geometry=ArrayGeometry.square()))
        fused = array.measure_world(222.25, field_ut=50.0)
        weights = {e.weight for e in fused.elements}
        assert len(weights) == 1

    def test_measurement_is_frozen(self):
        array = ArrayCompass(ArrayConfig(geometry=ArrayGeometry.single()))
        fused = array.measure_heading(45.0)
        assert isinstance(fused, ArrayMeasurement)
        with pytest.raises(Exception):
            fused.heading_deg = 0.0
