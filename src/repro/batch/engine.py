"""Sweep-shaped measurement over one compass: :class:`BatchCompass`.

The compass's measurement engine (``IntegratedCompass._measure_rows``)
turns ``N`` axis-field rows into ``N`` heading records; a scalar
``measure_heading`` is its one-row case.  Sweeps repeat almost all of
the per-row work — the excitation current is identical across headings
and every per-sample transform vectorizes over a ``(N, n_samples)``
matrix — so :class:`BatchCompass` drives the engine with many rows.  It is the
one multi-row API: scenes, heading and magnitude sweeps, and
Monte-Carlo runs.  The stepped chain runs :data:`~repro.core.compass.CHUNK_ROWS` rows per
numpy pass, so every intermediate matrix stays cache-resident.

Scalar and batch rows alike take their excitation trace (with its
precomputed finite-difference gradient) from an
:class:`~repro.analog.excitation.ExcitationTraceCache`, re-exported
here.  It is keyed by the values the trace is built from — oscillator
and converter parameters, soft start, grid geometry and load — not by
channel, so x and y share one entry; it keeps the
:attr:`~repro.analog.excitation.ExcitationTraceCache.CAPACITY` most
recently used traces and computes without storing when the source or
converter is powered down or a fault wrapper is armed on the source.

Results are bit-identical to the scalar loop — counts, headings, duty
cycles and noise draws (asserted by ``tests/test_batch_sweep.py`` and
the golden vectors).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..analog.excitation import DEFAULT_TRACE_CACHE, ExcitationTraceCache
from ..core.accuracy import ErrorStats
from ..core.compass import CompassConfig, IntegratedCompass
from ..core.heading import HeadingMeasurement, headings_evenly_spaced
from ..errors import ConfigurationError
from ..observe import M_BATCH_ROWS
from .scene import BatchScene


@dataclass
class MonteCarloResult:
    """Outcome of a batch Monte-Carlo accuracy run.

    ``records[trial]`` holds ``(true_heading_deg, measurement)`` pairs for
    every heading of that trial; ``stats`` pools every heading error.
    """

    records: List[List[Tuple[float, HeadingMeasurement]]]
    stats: ErrorStats


class BatchCompass:
    """Vectorized sweep interface over one :class:`IntegratedCompass`.

    Parameters
    ----------
    compass:
        The compass to drive (or a :class:`CompassConfig` / ``None`` to
        build one).  Batches run through the compass's own measurement
        engine and front- and back-end instances, so interleaving scalar
        and batch measurements keeps a single noise stream.
    cache:
        Optional :class:`ExcitationTraceCache`; ``None`` uses the
        process-wide default every compass shares.  Because the cache
        is keyed by configuration values, equally configured devices
        (array elements, service replicas) reuse one another's traces
        through it.
    """

    def __init__(
        self,
        compass: Optional[object] = None,
        cache: Optional[ExcitationTraceCache] = None,
    ):
        if compass is None:
            compass = IntegratedCompass()
        elif isinstance(compass, CompassConfig):
            compass = IntegratedCompass(compass)
        elif not isinstance(compass, IntegratedCompass):
            raise ConfigurationError(
                "BatchCompass wants an IntegratedCompass, a CompassConfig, or None"
            )
        self.compass = compass
        self.cache = DEFAULT_TRACE_CACHE if cache is None else cache

    # -- core batch measurement ------------------------------------------------

    def measure_components_batch(
        self, h_x: np.ndarray, h_y: np.ndarray
    ) -> List[HeadingMeasurement]:
        """Batched :meth:`IntegratedCompass.measure_components`.

        ``h_x[i]``/``h_y[i]`` are the axis fields of measurement ``i``
        [A/m]; the result list is bit-identical (counts, headings, duty
        cycles, noise draws) to calling the scalar method per pair, in
        order — both run the compass's one measurement engine, the
        scalar method with one row and this one with ``N``.

        Failure parity: a broken sensor raises the same typed
        :class:`~repro.errors.ReproError` subclass the scalar loop
        raises (asserted by ``tests/test_failure_parity.py``), and every
        row passes through the compass's
        :class:`~repro.core.health.HealthSupervisor` exactly like a
        scalar measurement.  The one scalar-only behaviour is the
        *single-axis* degradation fallback: a channel failure aborts the
        whole batch with the typed error instead of degrading row by
        row, because the failing channel is shared by every row.
        """
        h_x = np.asarray(h_x, dtype=float)
        h_y = np.asarray(h_y, dtype=float)
        if h_x.ndim != 1 or h_x.shape != h_y.shape:
            raise ConfigurationError("h_x and h_y must be 1-D arrays of equal length")
        if h_x.size == 0:
            return []
        measurements = self.compass._measure_rows(h_x, h_y, "batch", cache=self.cache)
        metrics = self.compass.observer.metrics
        if metrics is not None:
            metrics.counter(
                M_BATCH_ROWS, "measurement rows served by the batch engine"
            ).inc(len(measurements))
        return measurements

    # -- scene / sweep APIs ------------------------------------------------------

    def measure_scene(self, scene: BatchScene) -> List[HeadingMeasurement]:
        """Measure one frozen :class:`~repro.batch.scene.BatchScene`.

        The seam every bulk consumer shares (sweeps, the factory
        turn-table, the service/fleet batch backend, the array): the
        scene's rows go through :meth:`measure_components_batch`
        unchanged, so results are bit-identical to the scalar
        ``measure_components`` loop over the same rows.
        """
        h_x, h_y = scene.arrays()
        return self.measure_components_batch(h_x, h_y)

    def sweep_headings(
        self,
        headings_deg: Optional[Sequence[float]] = None,
        field_magnitude_t: float = 50.0e-6,
        n_points: int = 72,
        start_deg: float = 0.5,
    ) -> List[HeadingMeasurement]:
        """Measure a set of true headings in one batched pass.

        ``headings_deg`` defaults to ``n_points`` evenly spaced headings
        from ``start_deg``; results are ordered like the input and
        bit-identical to a scalar ``measure_heading`` loop.
        """
        if headings_deg is None:
            headings_deg = headings_evenly_spaced(n_points, start_deg)
        scene = BatchScene.from_headings(
            self.compass.sensors, headings_deg, field_magnitude_t
        )
        return self.measure_scene(scene)

    def sweep_magnitudes(
        self,
        magnitudes_t: Sequence[float],
        n_headings: int = 24,
        start_deg: float = 0.5,
    ) -> List[Tuple[float, List[HeadingMeasurement]]]:
        """Heading sweeps at several field magnitudes, one fused batch.

        All ``len(magnitudes) × n_headings`` measurements run as a single
        batch (magnitude-major order, matching the scalar nested loop),
        then are regrouped per magnitude.
        """
        headings = headings_evenly_spaced(n_headings, start_deg)
        scene = BatchScene.from_magnitudes(
            self.compass.sensors, magnitudes_t, headings
        )
        measurements = self.measure_scene(scene)
        grouped = []
        for i, magnitude in enumerate(magnitudes_t):
            grouped.append(
                (magnitude, measurements[i * n_headings : (i + 1) * n_headings])
            )
        return grouped

    @staticmethod
    def monte_carlo(
        base_config: Optional[CompassConfig] = None,
        n_trials: int = 20,
        n_headings: int = 12,
        field_magnitude_t: float = 50.0e-6,
        perturb: Optional[Callable[[CompassConfig, int], CompassConfig]] = None,
    ) -> MonteCarloResult:
        """Monte-Carlo accuracy run over randomised trials.

        Each trial builds a compass from ``perturb(base_config, trial)``
        (default: vary only the noise seed) and batch-sweeps its
        headings; the returned record keeps every individual measurement
        alongside the pooled error statistics.  A static method because
        each trial perturbs the *configuration* and therefore needs its
        own compass instance.
        """
        if n_trials < 1:
            raise ConfigurationError("need at least one trial")
        base_config = base_config or CompassConfig()

        def default_perturb(config: CompassConfig, trial: int) -> CompassConfig:
            front_end = dataclasses.replace(config.front_end, noise_seed=trial)
            return dataclasses.replace(config, front_end=front_end)

        perturb = perturb or default_perturb
        records: List[List[Tuple[float, HeadingMeasurement]]] = []
        errors: List[float] = []
        for trial in range(n_trials):
            batch = BatchCompass(perturb(base_config, trial))
            start = 0.5 + 360.0 * trial / (n_trials * n_headings)
            headings = headings_evenly_spaced(n_headings, start)
            measurements = batch.sweep_headings(
                headings, field_magnitude_t=field_magnitude_t
            )
            trial_records = list(zip(headings, measurements))
            records.append(trial_records)
            errors.extend(m.error_against(h) for h, m in trial_records)
        return MonteCarloResult(records=records, stats=ErrorStats.from_errors(errors))
