"""Deterministic defect minting over the fault registry.

:func:`mint_units` turns ``(seed, DefectDistribution)`` into a lot of
per-unit defect tuples.  Everything downstream keys on the **defect
signature** — the sorted ``(fault, severity)`` tuple — so two units with
the same defects are physically identical and the line evaluates their
staged verdicts once (:mod:`repro.factory.line`).

The mint uses :class:`random.Random`, whose ``random``/``choice``/
``choices`` streams are pinned by CPython across versions, so a lot is
bit-identically reproducible from its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..faults.model import REGISTRY, FaultRegistry, FaultSpec
from .config import DefectDistribution, LotConfig

#: A unit's canonical defect signature: sorted ``(fault, severity)`` pairs.
Signature = Tuple[Tuple[str, float], ...]


@dataclass(frozen=True)
class Defect:
    """One physical defect on one minted unit.

    Attributes
    ----------
    fault:
        Registry name (``<layer>.<fault>``).
    severity:
        The severity the process dealt this unit.
    expected_detector:
        The stage the registry claims should catch this fault at its
        detector severity (``"btest"`` / ``"bist"`` / ``"calibration"``
        / ``"env"``) — carried on the defect so lot reports are
        self-describing.
    """

    fault: str
    severity: float
    expected_detector: str

    def to_dict(self) -> dict:
        return {
            "fault": self.fault,
            "severity": self.severity,
            "expected_detector": self.expected_detector,
        }


def defect(
    name: str,
    severity: Optional[float] = None,
    registry: FaultRegistry = REGISTRY,
) -> Defect:
    """Build a :class:`Defect` from a registered fault.

    ``severity`` defaults to the spec's detector severity (the highest
    registered one — the severity the ``expected_detector`` contract is
    asserted at).
    """
    spec = registry.get(name)
    if severity is None:
        severity = spec.detector_severity
    return Defect(
        fault=name,
        severity=float(severity),
        expected_detector=spec.expected_detector,
    )


def signature(defects: Tuple[Defect, ...]) -> Signature:
    """The canonical evaluation key for a unit's defect set."""
    return tuple(sorted((d.fault, d.severity) for d in defects))


def _specs_by_layer(
    distribution: DefectDistribution, registry: FaultRegistry
) -> Dict[str, List[FaultSpec]]:
    by_layer: Dict[str, List[FaultSpec]] = {}
    for spec in registry.specs():
        by_layer.setdefault(spec.layer, []).append(spec)
    weighted = {}
    for layer, weight in distribution.layer_mix:
        if layer not in by_layer:
            raise ConfigurationError(
                f"layer_mix names layer {layer!r} but the registry has no "
                "faults in it"
            )
        weighted[layer] = by_layer[layer]
    return weighted


def _draw_severity(
    rng: random.Random, spec: FaultSpec, law: str
) -> float:
    if law == "worst":
        return max(spec.severities)
    if law == "mild":
        return min(spec.severities)
    return rng.choice(spec.severities)


def mint_units(
    config: LotConfig, registry: FaultRegistry = REGISTRY
) -> List[Tuple[Defect, ...]]:
    """Mint ``config.size`` units; element ``i`` is unit ``i``'s defects.

    A clean unit is the empty tuple.  Defective units carry 1 to
    ``max_faults_per_unit`` *distinct* faults, each drawn layer-first by
    ``layer_mix`` weight, with severities per the configured law.
    """
    distribution = config.defects
    rng = random.Random(config.seed)
    by_layer = _specs_by_layer(distribution, registry)
    layers = [layer for layer, _ in distribution.layer_mix]
    weights = [weight for _, weight in distribution.layer_mix]

    units: List[Tuple[Defect, ...]] = []
    for _ in range(config.size):
        if rng.random() >= distribution.rate:
            units.append(())
            continue
        n_faults = 1
        while (
            n_faults < distribution.max_faults_per_unit
            and rng.random() < distribution.multi_fault_rate
        ):
            n_faults += 1
        drawn: Dict[str, Defect] = {}
        # Redraws on collision are bounded: distinct faults per layer
        # exceed max_faults_per_unit for any sane registry; bail to
        # fewer faults rather than loop forever on a tiny registry.
        attempts = 0
        while len(drawn) < n_faults and attempts < 16 * n_faults:
            attempts += 1
            [layer] = rng.choices(layers, weights=weights)
            spec = rng.choice(by_layer[layer])
            if spec.name in drawn:
                continue
            severity = _draw_severity(rng, spec, distribution.severity_law)
            drawn[spec.name] = Defect(
                fault=spec.name,
                severity=float(severity),
                expected_detector=spec.expected_detector,
            )
        units.append(
            tuple(sorted(drawn.values(), key=lambda d: (d.fault, d.severity)))
        )
    return units


__all__ = ["Defect", "Signature", "defect", "mint_units", "signature"]
