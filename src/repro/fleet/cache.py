"""Request coalescing + the bounded LRU heading cache.

Under a burst, many devices ask for (nearly) the same measurement: the
same heading at the same field through the same compass configuration.
Measuring each one independently is wasted capacity — the clean compass
is deterministic, so identical questions have identical answers.  The
fleet exploits that in two layers:

* **Quantized scene keys** — a request is snapped onto a measurement
  grid (:func:`quantize_heading` / :func:`quantize_field`; default
  360/4096 ≈ 0.088° and 0.25 µT, both exact binary fractions so
  on-grid inputs like the 48 golden vectors snap to themselves).  The
  backend measures *at the snapped point*, so every request in a grid
  cell receives the bit-identical heading the cell representative
  would — cached, coalesced or freshly measured.  The snap adds at most
  half a quantum (≈0.05°) of heading error, budgeted well inside the
  paper's 1° spec.
* **:class:`HeadingCache`** — a bounded LRU over scene keys.  Only
  ``AUTHORITATIVE`` responses are stored: a quorum-degraded answer
  (fault in the pool, brownout step-down) is never allowed to outlive
  the conditions that produced it.  The key carries the compass
  configuration fingerprint (:func:`repro.replay.format.config_fingerprint`),
  so entries can never leak across differently-configured fleets.

Coalescing of *in-flight* duplicates lives in
:class:`~repro.fleet.fleet.HeadingFleet` (it needs the future plumbing);
this module owns the key algebra and the completed-response store.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import ConfigurationError

#: Default heading quantum: 360/4096 deg — an exact binary fraction
#: (0.087890625) that divides the golden-vector grid (11.25° = 128 q).
DEFAULT_HEADING_QUANTUM_DEG = 360.0 / 4096.0
#: Default field quantum [µT]: exact binary fraction dividing the
#: worldwide 25…65 µT band endpoints and the golden magnitudes.
DEFAULT_FIELD_QUANTUM_UT = 0.25
#: Scene-key entries the fleet's cache holds before LRU eviction.
FLEET_CACHE_CAPACITY = 4096


def quantize_heading(heading_deg: float, quantum_deg: float) -> Tuple[int, float]:
    """Snap a heading onto the grid; returns ``(bin, snapped_deg)``."""
    bins = int(round(360.0 / quantum_deg))
    index = int(round((heading_deg % 360.0) / quantum_deg)) % bins
    return index, index * quantum_deg


def quantize_field(field_t: float, quantum_ut: float) -> Tuple[int, float]:
    """Snap a field magnitude onto the grid; returns ``(bin, snapped_t)``."""
    field_ut = field_t / 1e-6
    index = int(round(field_ut / quantum_ut))
    return index, (index * quantum_ut) * 1e-6


def scene_key(
    fingerprint: str,
    heading_bin: int,
    field_bin: int,
) -> str:
    """The canonical cache/coalesce key of one quantized measurement."""
    return f"{fingerprint}:{heading_bin}:{field_bin}"


@dataclass(frozen=True)
class CacheEntry:
    """The replayable core of one served measurement.

    Carries the snapped grid inputs it was measured at so the
    conformance guard can re-run the identical measurement and demand a
    bit-identical answer.
    """

    heading_deg: float
    field_estimate_a_per_m: float
    verdict: str
    heading_input_deg: float = 0.0
    field_input_t: float = 50.0e-6


class HeadingCache:
    """Bounded LRU of authoritative measurements by scene key."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError("cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[CacheEntry]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: str, entry: CacheEntry) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = entry
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


__all__ = [
    "CacheEntry",
    "DEFAULT_FIELD_QUANTUM_UT",
    "DEFAULT_HEADING_QUANTUM_DEG",
    "FLEET_CACHE_CAPACITY",
    "HeadingCache",
    "quantize_field",
    "quantize_heading",
    "scene_key",
]
