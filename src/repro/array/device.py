"""The N-element gradiometer array compass with least-squares fusion.

:class:`ArrayCompass` wraps N complete
:class:`~repro.core.compass.IntegratedCompass` elements (each its own
sensor pair, front-end, back-end and health supervisor — bulkhead
isolation, exactly like the service's replicas) at an
:class:`~repro.array.geometry.ArrayGeometry`, and serves one fused
heading per scene:

1. **measure** — every element measures its own axis fields.  All
   elements share one excitation schedule and one
   :class:`~repro.batch.ExcitationTraceCache` (identical front-end
   configuration ⇒ identical traces, paid for once).
2. **screen** — elements that raise or come back health-degraded are
   excluded (reported, never silently dropped).
3. **vote** — the surviving *body-frame* headings go through the same
   K-of-N circular median/MAD vote the
   :class:`~repro.service.HeadingService` uses
   (:func:`~repro.service.voting.vote_headings`); outliers — e.g. an
   element twisted in its mount — are rejected.
4. **fuse** — the inlier elements' field *vectors* are combined by
   weighted least squares.  With the common-field design matrix
   ``[I; I; …; I]`` and per-element confidence weights the WLS normal
   equations collapse to the weighted vector mean — that closed form
   is what :meth:`ArrayCompass._fuse` computes.
5. **gradiometer** — per-element deviations from the fused common-mode
   vector are the first-order gradiometer residuals.  The Earth field
   is common-mode across any realistic aperture; a near-field source
   (1/r³) is not.  A residual above ``gradient_threshold`` flags the
   fusion (strict mode refuses with
   :class:`~repro.errors.ArrayFusionError`) — closing part of the
   magnitude-blind ambush window the single-sensor chain documents in
   ``tests/test_property_scenario.py``.

The N=1 array with :meth:`ArrayGeometry.single` degenerates to the
bare compass bit-for-bit: fusion and voting are bypassed and the
element's own measurement is served unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..batch import BatchCompass, BatchScene, ExcitationTraceCache
from ..core.compass import CompassConfig, IntegratedCompass
from ..core.health import HealthConfig
from ..core.heading import HeadingMeasurement
from ..errors import ArrayFusionError, ConfigurationError, ReproError
from ..observe import (
    M_ARRAY_ELEMENTS,
    M_ARRAY_FUSIONS,
    M_ARRAY_RESIDUAL,
    Observability,
    RESIDUAL_BUCKETS_FRACTION,
    build_observer,
)
from ..sensors.pair import OrthogonalSensorPair
from ..service.replica import replica_config
from ..service.voting import VoteResult, vote_headings
from ..units import microtesla_to_a_per_m, wrap_degrees
from .geometry import ArrayGeometry, NearFieldSource

#: Fused-measurement flag: gradiometer residual above the near-field
#: threshold — the elements disagree in a way a uniform field cannot.
F_ARRAY_GRADIENT = "F_ARRAY_GRADIENT"
#: Fused-measurement flag: too few elements survived screening/voting
#: for the redundancy claim to hold (the vote has no breakdown margin).
F_ARRAY_REDUNDANCY = "F_ARRAY_REDUNDANCY"


@dataclass(frozen=True)
class ArrayConfig:
    """Everything configurable about the array in one record.

    Attributes
    ----------
    geometry:
        Element placement; see :class:`~repro.array.ArrayGeometry`.
    element:
        Base configuration every element compass is built from; the
        default enables strict health supervision — an element fails
        loudly and *resilience lives at the array layer*, mirroring
        the service's replica policy.
    seed:
        Root seed; element noise seeds are spawned from it, so a noisy
        array is reproducible and elements never share a noise stream.
    min_elements:
        Fusion refuses (:class:`~repro.errors.ArrayFusionError`) with
        fewer surviving elements than this.
    vote_outlier_deg, vote_mad_scale:
        K-of-N vote parameters (same semantics as the heading
        service's).
    gradient_threshold:
        Near-field detection threshold: maximum per-element residual
        against the fused field, as a fraction of the fused magnitude.
        The default sits above counter-quantisation scatter (~1e-3)
        and below the differential signature a blind-window ambush
        (≥0.4 µT at ~1 m) leaves across a 0.3 m aperture.
    strict:
        When True a gradiometer trip raises instead of flagging.
    observe:
        Array-level observability; every element reports into the same
        registry, labelled per element.
    """

    geometry: ArrayGeometry = field(default_factory=ArrayGeometry.single)
    element: CompassConfig = CompassConfig(health=HealthConfig(enabled=True))
    seed: int = 0
    min_elements: int = 1
    vote_outlier_deg: float = 5.0
    vote_mad_scale: float = 3.0
    gradient_threshold: float = 0.005
    strict: bool = False
    observe: Observability = Observability()

    def __post_init__(self) -> None:
        if self.min_elements < 1:
            raise ConfigurationError("min_elements must be >= 1")
        if self.min_elements > self.geometry.n_elements:
            raise ConfigurationError(
                f"min_elements {self.min_elements} exceeds the "
                f"{self.geometry.n_elements}-element geometry"
            )
        if self.gradient_threshold <= 0.0:
            raise ConfigurationError("gradient_threshold must be positive")


@dataclass(frozen=True)
class ElementReport:
    """One element's contribution to (or exclusion from) a fusion."""

    index: int
    status: str  # "ok" | "fault" | "degraded" | "outlier"
    heading_deg: Optional[float] = None  # body frame (mounting removed)
    field_a_per_m: Optional[float] = None
    residual_fraction: Optional[float] = None
    weight: float = 0.0
    detail: str = ""


@dataclass(frozen=True)
class ArrayMeasurement:
    """One fused array measurement with full per-element provenance."""

    heading_deg: float
    field_a_per_m: float
    flags: Tuple[str, ...]
    elements: Tuple[ElementReport, ...]
    vote: Optional[VoteResult]
    residual_max_fraction: float
    n_used: int

    @property
    def degraded(self) -> bool:
        """True when the fused heading carries any trust-reducing flag."""
        return bool(self.flags)

    def error_against(self, true_heading_deg: float) -> float:
        from ..units import angular_difference_deg

        return abs(
            angular_difference_deg(self.heading_deg, true_heading_deg)
        )


class ArrayCompass:
    """N integrated compasses, one trustworthy fused heading."""

    def __init__(self, config: Optional[ArrayConfig] = None):
        self.config = ArrayConfig() if config is None else config
        geometry = self.config.geometry
        self.observer = build_observer(self.config.observe)
        #: One excitation-trace cache shared by every element's batch
        #: engine — the shared excitation scheduling in code: identical
        #: front-ends key identically, so element 0 pays for each trace
        #: and elements 1..N-1 reuse it.
        self.cache = ExcitationTraceCache()
        self.cache.metrics = self.observer.metrics
        root = np.random.SeedSequence(self.config.seed)
        noise_seeds = root.spawn(geometry.n_elements)
        self.elements: List[IntegratedCompass] = []
        self._batches: List[BatchCompass] = []
        for index in range(geometry.n_elements):
            element = IntegratedCompass(
                replica_config(
                    self.config.element,
                    int(noise_seeds[index].generate_state(1)[0]),
                )
            )
            element.observer = self.observer
            element.back_end.observer = self.observer
            self.elements.append(element)
            self._batches.append(BatchCompass(element, cache=self.cache))
        #: Injection seam for ``array.element_rotated``: *actual* extra
        #: rotation of each element against its nominal mounting [deg].
        #: Fusion keeps assuming the nominal geometry — that mismatch is
        #: the fault.
        self.mount_error_deg: Tuple[float, ...] = (0.0,) * geometry.n_elements

    # -- geometry helpers ------------------------------------------------------

    @property
    def n_elements(self) -> int:
        return self.config.geometry.n_elements

    def _element_sensors(self, index: int) -> OrthogonalSensorPair:
        return self.elements[index].sensors

    def element_headings(self, true_heading_deg: float) -> List[float]:
        """Per-element true headings for a body at ``true_heading_deg``.

        Identity mountings pass the body heading through bit-exactly
        (``x + 0.0 == x``), which is what makes the N=1 degenerate
        array bit-identical to the bare compass.
        """
        mounting = self.config.geometry.mounting_deg
        return [
            true_heading_deg + mounting[i] + self.mount_error_deg[i]
            for i in range(self.n_elements)
        ]

    # -- measurement paths -----------------------------------------------------

    def measure_heading(
        self,
        true_heading_deg: float,
        field_magnitude_t: float = 50.0e-6,
    ) -> ArrayMeasurement:
        """Fused measurement in a uniform field (the clean-bench case).

        The exact per-element arithmetic of
        :meth:`IntegratedCompass.measure_heading` at each element's
        mounted heading, then screen → vote → fuse.
        """
        raw: List[Optional[HeadingMeasurement]] = []
        details: List[str] = []
        with self.observer.span(
            "array.measure", true_heading_deg=true_heading_deg
        ):
            for index, heading in enumerate(
                self.element_headings(true_heading_deg)
            ):
                try:
                    measurement = self.elements[index].measure_heading(
                        heading, field_magnitude_t
                    )
                except ReproError as error:
                    raw.append(None)
                    details.append(f"{type(error).__name__}: {error}")
                else:
                    raw.append(measurement)
                    details.append("")
        return self._fuse(raw, details)

    def measure_world(
        self,
        true_heading_deg: float,
        field_ut: float = 50.0,
        source: Optional[NearFieldSource] = None,
    ) -> ArrayMeasurement:
        """Fused measurement in a world field with an optional disturbance.

        The Earth field points to magnetic north with magnitude
        ``field_ut``; ``source`` adds its per-element 1/r³ deltas.  Each
        element sees its own local magnitude *and* direction — the
        differential part of that disagreement is exactly what the
        gradiometer stage detects.
        """
        if field_ut <= 0.0:
            raise ConfigurationError("field magnitude must be positive")
        deltas = (
            source.deltas_at(self.config.geometry.positions_m)
            if source is not None
            else [(0.0, 0.0)] * self.n_elements
        )
        raw: List[Optional[HeadingMeasurement]] = []
        details: List[str] = []
        element_headings = self.element_headings(true_heading_deg)
        with self.observer.span(
            "array.measure_world",
            true_heading_deg=true_heading_deg,
            anomaly_ut=(source.magnitude_ut if source is not None else 0.0),
        ):
            for index, (d_north, d_east) in enumerate(deltas):
                north = field_ut + d_north
                east = d_east
                magnitude_ut = math.hypot(north, east)
                field_bearing = math.degrees(math.atan2(east, north))
                h_x, h_y = self._element_sensors(index).axis_fields(
                    microtesla_to_a_per_m(magnitude_ut),
                    element_headings[index] - field_bearing,
                )
                try:
                    measurement = self.elements[index].measure_components(
                        h_x, h_y
                    )
                except ReproError as error:
                    raw.append(None)
                    details.append(f"{type(error).__name__}: {error}")
                else:
                    raw.append(measurement)
                    details.append("")
        return self._fuse(raw, details)

    def sweep_headings(
        self,
        headings_deg: Sequence[float],
        field_magnitude_t: float = 50.0e-6,
    ) -> List[ArrayMeasurement]:
        """Fused measurements over many headings, batched per element.

        Each element runs *all* headings in one
        :class:`~repro.batch.BatchScene` pass through its batch engine
        (bit-identical per row to the scalar path); the shared
        excitation cache means the trace cost is paid once for the
        whole array.  Results are fused row by row.
        """
        per_element: List[Optional[List[HeadingMeasurement]]] = []
        element_details: List[str] = []
        n_rows = len(headings_deg)
        with self.observer.span(
            "array.sweep", rows=n_rows, elements=self.n_elements
        ):
            for index in range(self.n_elements):
                mounted = [
                    h + self.config.geometry.mounting_deg[index]
                    + self.mount_error_deg[index]
                    for h in headings_deg
                ]
                scene = BatchScene.from_headings(
                    self._element_sensors(index), mounted, field_magnitude_t
                )
                try:
                    rows = self._batches[index].measure_scene(scene)
                except ReproError as error:
                    per_element.append(None)
                    element_details.append(
                        f"{type(error).__name__}: {error}"
                    )
                else:
                    per_element.append(rows)
                    element_details.append("")
        fused: List[ArrayMeasurement] = []
        for row in range(n_rows):
            raw = [
                rows[row] if rows is not None else None
                for rows in per_element
            ]
            fused.append(self._fuse(raw, element_details))
        return fused

    # -- fusion ----------------------------------------------------------------

    def _fuse(
        self,
        raw: Sequence[Optional[HeadingMeasurement]],
        details: Sequence[str],
    ) -> ArrayMeasurement:
        """Screen → vote → weighted-least-squares fuse → gradiometer."""
        geometry = self.config.geometry
        candidates: List[int] = []
        body_headings: List[float] = []
        statuses: List[str] = ["ok"] * self.n_elements
        for index, measurement in enumerate(raw):
            if measurement is None:
                statuses[index] = "fault"
                continue
            if measurement.degraded:
                statuses[index] = "degraded"
                continue
            candidates.append(index)
            body_headings.append(
                wrap_degrees(
                    measurement.heading_deg - geometry.mounting_deg[index]
                )
            )

        if len(candidates) < max(1, self.config.min_elements):
            self._count_fusion("refused")
            raise ArrayFusionError(
                f"only {len(candidates)} of {self.n_elements} elements "
                f"produced a healthy heading; fusion needs "
                f"{max(1, self.config.min_elements)} "
                f"({', '.join(d for d in details if d) or 'no detail'})"
            )

        vote: Optional[VoteResult] = None
        used = list(candidates)
        if len(candidates) > 1:
            vote = vote_headings(
                body_headings,
                outlier_threshold_deg=self.config.vote_outlier_deg,
                mad_scale=self.config.vote_mad_scale,
            )
            for position in vote.outliers:
                statuses[candidates[position]] = "outlier"
            used = [candidates[position] for position in vote.inliers]
            if len(used) < max(1, self.config.min_elements):
                self._count_fusion("refused")
                raise ArrayFusionError(
                    f"K-of-N vote left {len(used)} agreeing elements of "
                    f"{len(candidates)} healthy; fusion needs "
                    f"{max(1, self.config.min_elements)} "
                    f"(dissent {vote.dissent_deg:.2f} deg, threshold "
                    f"{vote.threshold_deg:.2f} deg)"
                )

        # Weighted least squares for the common-mode field vector.  The
        # model is c_i = C + e_i with per-element confidence w_i; the
        # normal equations for the stacked-identity design collapse to
        # the weighted mean — computed here in closed form.
        weights: dict = {}
        vectors: dict = {}
        for index in used:
            measurement = raw[index]
            body = wrap_degrees(
                measurement.heading_deg - geometry.mounting_deg[index]
            )
            angle = math.radians(body)
            magnitude = measurement.field_estimate_a_per_m
            vectors[index] = (
                magnitude * math.cos(angle),
                magnitude * math.sin(angle),
            )
            # Confidence ∝ integrated counter ticks: more counts = finer
            # angular quantisation.  Identical elements in a uniform
            # field weigh identically (pinned by the hypothesis suite).
            weights[index] = float(
                abs(measurement.x_count) + abs(measurement.y_count)
            ) or 1.0
        total_weight = sum(weights.values())
        norm_weights = {i: w / total_weight for i, w in weights.items()}

        if len(used) == 1:
            # Degenerate fusion: serve the single element's measurement
            # unchanged (bit-identical to the bare compass for the
            # identity geometry).
            index = used[0]
            measurement = raw[index]
            fused_heading = wrap_degrees(
                measurement.heading_deg - geometry.mounting_deg[index]
            )
            fused_magnitude = measurement.field_estimate_a_per_m
            residuals = {index: 0.0}
        else:
            fused_x = sum(
                norm_weights[i] * vectors[i][0] for i in used
            )
            fused_y = sum(
                norm_weights[i] * vectors[i][1] for i in used
            )
            fused_magnitude = math.hypot(fused_x, fused_y)
            if fused_magnitude <= 0.0:
                self._count_fusion("refused")
                raise ArrayFusionError(
                    "fused field vector vanished; element headings are "
                    "uniformly opposed"
                )
            fused_heading = wrap_degrees(
                math.degrees(math.atan2(fused_y, fused_x))
            )
            residuals = {
                i: math.hypot(
                    vectors[i][0] - fused_x, vectors[i][1] - fused_y
                )
                / fused_magnitude
                for i in used
            }

        residual_max = max(residuals.values()) if residuals else 0.0
        flags: List[str] = []
        if len(used) > 1 and residual_max > self.config.gradient_threshold:
            flags.append(F_ARRAY_GRADIENT)
        majority = self.n_elements // 2 + 1
        if self.n_elements > 1 and len(used) < majority:
            flags.append(F_ARRAY_REDUNDANCY)
        if self.config.strict and F_ARRAY_GRADIENT in flags:
            self._count_fusion("refused")
            raise ArrayFusionError(
                f"gradiometer residual {residual_max:.4f} of the fused "
                f"field exceeds the {self.config.gradient_threshold:.4f} "
                f"near-field threshold: the elements disagree in a way a "
                f"uniform Earth field cannot explain"
            )

        reports: List[ElementReport] = []
        for index in range(self.n_elements):
            measurement = raw[index]
            reports.append(
                ElementReport(
                    index=index,
                    status=statuses[index],
                    heading_deg=(
                        wrap_degrees(
                            measurement.heading_deg
                            - geometry.mounting_deg[index]
                        )
                        if measurement is not None
                        else None
                    ),
                    field_a_per_m=(
                        measurement.field_estimate_a_per_m
                        if measurement is not None
                        else None
                    ),
                    residual_fraction=residuals.get(index),
                    weight=norm_weights.get(index, 0.0),
                    detail=details[index],
                )
            )
        self._observe_fusion(reports, flags, residual_max)
        return ArrayMeasurement(
            heading_deg=fused_heading,
            field_a_per_m=fused_magnitude,
            flags=tuple(flags),
            elements=tuple(reports),
            vote=vote,
            residual_max_fraction=residual_max,
            n_used=len(used),
        )

    # -- observability ---------------------------------------------------------

    def _count_fusion(self, status: str) -> None:
        metrics = self.observer.metrics
        if metrics is not None:
            metrics.counter(
                M_ARRAY_FUSIONS,
                "array fusions served, by trust status",
                ("status",),
            ).inc(status=status)

    def _observe_fusion(
        self,
        reports: Sequence[ElementReport],
        flags: Sequence[str],
        residual_max: float,
    ) -> None:
        metrics = self.observer.metrics
        if metrics is None:
            return
        self._count_fusion("flagged" if flags else "ok")
        element_counter = metrics.counter(
            M_ARRAY_ELEMENTS,
            "element contributions to fusions, by outcome",
            ("element", "outcome"),
        )
        for report in reports:
            element_counter.inc(
                element=str(report.index), outcome=report.status
            )
        metrics.histogram(
            M_ARRAY_RESIDUAL,
            "max gradiometer residual per fusion "
            "(fraction of the fused field)",
            (),
            buckets=RESIDUAL_BUCKETS_FRACTION,
        ).observe(residual_max)


__all__ = [
    "ArrayCompass",
    "ArrayConfig",
    "ArrayMeasurement",
    "ElementReport",
    "F_ARRAY_GRADIENT",
    "F_ARRAY_REDUNDANCY",
]
