"""Vectorized batch-measurement engine (sweep-shaped workloads).

One :class:`BatchCompass` call evaluates N headings / magnitudes /
parameter draws through the full signal chain in a handful of numpy
passes instead of N scalar ``measure_heading`` calls, producing
bit-identical :class:`~repro.core.heading.HeadingMeasurement` records.
"""

from .engine import BatchCompass, ExcitationTraceCache, MonteCarloResult
from .scene import BatchScene

__all__ = [
    "BatchCompass",
    "BatchScene",
    "ExcitationTraceCache",
    "MonteCarloResult",
]
