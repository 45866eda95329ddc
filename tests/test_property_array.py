"""Property tests: array geometry and fusion hold under any parameters.

Two invariant families:

1. **Geometry is a value.**  Any valid :class:`ArrayGeometry` survives
   the JSON round trip bit-exactly, its aperture is symmetric,
   translation-invariant in spirit (the maximum pairwise distance), and
   the built-in constructors produce self-consistent shapes.
2. **Fusion weights are a probability vector over the used elements.**
   For any fused measurement the per-element weights are non-negative,
   sum to one over the inliers, and are zero exactly on the excluded
   elements; the fused heading of identical healthy elements equals
   each element's own heading (weighted mean of equal vectors).
"""

import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from repro.array import ArrayCompass, ArrayConfig, ArrayGeometry, NearFieldSource
from repro.errors import ConfigurationError

finite_coord = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)
finite_angle = st.floats(
    min_value=-360.0, max_value=720.0, allow_nan=False, allow_infinity=False
)


@st.composite
def geometries(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    positions = tuple(
        (draw(finite_coord), draw(finite_coord)) for _ in range(n)
    )
    mounting = tuple(draw(finite_angle) for _ in range(n))
    return ArrayGeometry(positions_m=positions, mounting_deg=mounting)


class TestGeometryRoundTrip:
    @given(geometries())
    @settings(max_examples=100, deadline=None)
    def test_dict_round_trip_is_exact(self, geometry):
        restored = ArrayGeometry.from_dict(geometry.to_dict())
        assert restored == geometry

    @given(geometries())
    @settings(max_examples=100, deadline=None)
    def test_json_round_trip_is_exact(self, geometry):
        payload = json.dumps(geometry.to_dict())
        restored = ArrayGeometry.from_dict(json.loads(payload))
        assert restored == geometry
        assert restored.aperture_m == geometry.aperture_m

    @given(geometries())
    @settings(max_examples=50, deadline=None)
    def test_aperture_bounds(self, geometry):
        aperture = geometry.aperture_m
        assert aperture >= 0.0
        if geometry.n_elements == 1:
            assert aperture == 0.0
        for xi, yi in geometry.positions_m:
            for xj, yj in geometry.positions_m:
                assert math.hypot(xi - xj, yi - yj) <= aperture + 1e-12

    @given(st.integers(min_value=1, max_value=12),
           st.floats(min_value=0.01, max_value=2.0))
    @settings(max_examples=30, deadline=None)
    def test_linear_constructor_shape(self, n, spacing):
        geometry = ArrayGeometry.linear(n, spacing_m=spacing)
        assert geometry.n_elements == n
        assert geometry.mounting_deg == (0.0,) * n
        if n > 1:
            assert geometry.aperture_m == pytest.approx((n - 1) * spacing)

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            ArrayGeometry.from_dict({"positions_m": [[0.0, 0.0]]})

    @given(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    @settings(max_examples=10, deadline=None)
    def test_non_finite_positions_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            ArrayGeometry(positions_m=((bad, 0.0),), mounting_deg=(0.0,))


#: One shared array per geometry shape — real measurements are ~2 ms per
#: element, so the fusion properties sweep headings, not constructions.
_SQUARE = ArrayCompass(ArrayConfig(geometry=ArrayGeometry.square()))
_LINEAR3 = ArrayCompass(
    ArrayConfig(geometry=ArrayGeometry.linear(3), gradient_threshold=0.05)
)

heading_values = st.floats(
    min_value=0.0, max_value=359.99, allow_nan=False, allow_infinity=False
)


class TestFusionWeightInvariants:
    @given(heading_values)
    @settings(max_examples=25, deadline=None)
    def test_weights_are_a_probability_vector(self, heading):
        fused = _SQUARE.measure_world(heading, field_ut=50.0)
        weights = [e.weight for e in fused.elements]
        assert all(w >= 0.0 for w in weights)
        assert sum(weights) == pytest.approx(1.0)
        for report in fused.elements:
            if report.status != "ok":
                assert report.weight == 0.0

    @given(heading_values)
    @settings(max_examples=25, deadline=None)
    def test_identical_elements_fuse_to_their_own_heading(self, heading):
        """Uniform field + identical elements: every element reports the
        same body heading, so the weighted mean must return it exactly
        and the residual must vanish."""
        fused = _SQUARE.measure_world(heading, field_ut=50.0)
        element_headings = {e.heading_deg for e in fused.elements}
        assert len(element_headings) == 1
        assert fused.residual_max_fraction == 0.0
        assert fused.flags == ()

    @given(heading_values, st.floats(min_value=0.2, max_value=3.0))
    @example(heading=201.6953125, scale=0.201171875)
    @settings(max_examples=15, deadline=None)
    def test_near_field_residual_grows_with_source(self, heading, scale):
        clean = _LINEAR3.measure_world(heading, field_ut=50.0)
        source = NearFieldSource(
            delta_north_ut=scale, delta_east_ut=-0.5 * scale,
            distance_m=1.0, bearing_deg=60.0,
        )
        disturbed = _LINEAR3.measure_world(
            heading, field_ut=50.0, source=source
        )
        # A source too weak to move any element's heading leaves the
        # element vectors parallel; both residuals are then hypot
        # rounding noise (~4.5e-17) and their order means nothing.  The
        # pinned example is such a draw.
        assume(len({e.heading_deg for e in disturbed.elements}) > 1)
        assert (
            disturbed.residual_max_fraction
            >= clean.residual_max_fraction
        )

    @given(heading_values)
    @settings(max_examples=15, deadline=None)
    def test_fused_field_is_positive_and_in_band(self, heading):
        fused = _SQUARE.measure_world(heading, field_ut=50.0)
        assert fused.field_a_per_m > 0.0
        # 50 µT ≈ 39.8 A/m; the estimate must land near it.
        assert 30.0 < fused.field_a_per_m < 50.0
