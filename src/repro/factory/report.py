"""Lot accounting: per-unit dispositions rolled up into a `LotReport`.

Every unit ends in exactly **one** disposition:

* ``"pass"`` — clean unit, passed the whole program (good yield),
* ``"false-fail"`` — clean unit a stage rejected (overkill: lost yield),
* ``"caught"`` — defective unit stopped at a stage (the stage earns
  the catch),
* ``"pass-latent"`` — defective unit that passed, but the field-audit
  oracle shows it stays inside the product spec, gets flagged by the
  supervisor, or fails loudly — annoying, not silent,
* ``"escape"`` — defective unit that passed and **would serve an
  unflagged out-of-spec heading in the field**.  The product claim is
  that this count is zero; :meth:`LotReport.raise_for_escapes` turns a
  violation into a typed :class:`~repro.errors.EscapeError` (exit 18).

The disposition partition is airtight by construction — one disposition
per unit, stage catch counts summing into the partition — which is what
the property suite asserts and CI ratchets on.

``to_dict``/``to_json`` are canonical: deterministic float arithmetic
in, sorted keys out, wall-clock time deliberately excluded (kept on
:attr:`LotReport.wall_s` for benchmarks), so a golden lot file is
bit-identical across runs and machines.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import EscapeError
from ..report import report_json
from .config import LotConfig
from .defects import Defect

#: Every disposition a unit can end in (the partition).
DISPOSITIONS = ("pass", "false-fail", "caught", "pass-latent", "escape")


@dataclass(frozen=True)
class OracleResult:
    """The field-audit verdict on one defective-but-passing signature.

    ``verdict`` is ``"in-spec"`` (worst unflagged error inside the
    product tolerance), ``"flagged"`` (supervisor degrades it in the
    field — visible), ``"fails-loud"`` (raises in the field — visible),
    or ``"silent-wrong"`` (unflagged error beyond spec: an escape).
    """

    verdict: str
    worst_error_deg: Optional[float]
    detail: str

    @property
    def is_escape(self) -> bool:
        return self.verdict == "silent-wrong"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "worst_error_deg": self.worst_error_deg,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class UnitRecord:
    """One minted unit's journey through the program."""

    unit: int
    defects: Tuple[Defect, ...]
    disposition: str
    caught_by: Optional[str]
    detail: str
    test_time_s: float
    oracle: Optional[OracleResult] = None

    @property
    def defective(self) -> bool:
        return bool(self.defects)

    def to_dict(self) -> dict:
        return {
            "unit": self.unit,
            "defects": [d.to_dict() for d in self.defects],
            "disposition": self.disposition,
            "caught_by": self.caught_by,
            "detail": self.detail,
            "test_time_s": self.test_time_s,
            "oracle": None if self.oracle is None else self.oracle.to_dict(),
        }


@dataclass
class StageReport:
    """Catch/false-fail/cost accounting for one stage of the program.

    ``tested`` counts only units that *reached* the stage (units stop at
    their first failing stage), so ``sim_time_s`` is the tester time the
    lot actually spent here and ``cost_per_defect_caught_s`` is an
    honest economics number, not an all-units upper bound.
    """

    name: str
    tested: int = 0
    caught: int = 0
    false_fails: int = 0
    passed: int = 0
    sim_time_s: float = 0.0

    @property
    def cost_per_defect_caught_s(self) -> Optional[float]:
        if self.caught == 0:
            return None
        return self.sim_time_s / self.caught

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "tested": self.tested,
            "caught": self.caught,
            "false_fails": self.false_fails,
            "passed": self.passed,
            "sim_time_s": self.sim_time_s,
            "cost_per_defect_caught_s": self.cost_per_defect_caught_s,
        }


@dataclass
class LotReport:
    """The full accounting of one lot through one test program."""

    config: LotConfig
    units: List[UnitRecord]
    stages: List[StageReport]
    distinct_signatures: int
    #: Wall-clock seconds the lot took; *not* serialised (bit-identity).
    wall_s: float = 0.0
    #: Per-signature evaluations (line internals) for audits and the
    #: replay seam; not serialised.
    evaluations: dict = field(default_factory=dict, repr=False)

    @property
    def size(self) -> int:
        return len(self.units)

    def counts(self) -> Dict[str, int]:
        """Units per disposition (all five keys always present)."""
        tally = Counter(u.disposition for u in self.units)
        return {d: tally.get(d, 0) for d in DISPOSITIONS}

    @property
    def defective_units(self) -> int:
        return sum(1 for u in self.units if u.defective)

    @property
    def shipped(self) -> int:
        """Units that passed the whole program (good, latent, or escaped)."""
        return sum(
            1
            for u in self.units
            if u.disposition in ("pass", "pass-latent", "escape")
        )

    @property
    def yield_fraction(self) -> float:
        return self.shipped / self.size

    @property
    def escapes(self) -> List[UnitRecord]:
        return [u for u in self.units if u.disposition == "escape"]

    @property
    def escape_rate(self) -> float:
        return len(self.escapes) / self.size

    @property
    def test_time_per_unit_s(self) -> float:
        return sum(u.test_time_s for u in self.units) / self.size

    def stage(self, name: str) -> StageReport:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(name)

    def raise_for_escapes(self) -> None:
        """The factory gate: any escape raises :class:`EscapeError` (exit 18)."""
        escaped = self.escapes
        if escaped:
            worst = max(
                (u.oracle.worst_error_deg or 0.0)
                for u in escaped
                if u.oracle is not None
            )
            raise EscapeError(
                f"{len(escaped)} of {self.size} units escaped the test "
                f"program and would serve silent-wrong headings "
                f"(worst unflagged error {worst:.3f} deg; units "
                f"{[u.unit for u in escaped]})",
                report=self,
            )

    def to_dict(self, include_units: bool = True) -> dict:
        record = {
            "config": self.config.to_dict(),
            "size": self.size,
            "distinct_signatures": self.distinct_signatures,
            "defective_units": self.defective_units,
            "dispositions": self.counts(),
            "yield_fraction": self.yield_fraction,
            "escape_rate": self.escape_rate,
            "escaped_units": [u.unit for u in self.escapes],
            "test_time_per_unit_s": self.test_time_per_unit_s,
            "stages": [stage.to_dict() for stage in self.stages],
        }
        if include_units:
            record["units"] = [u.to_dict() for u in self.units]
        return record

    def to_json(self, include_units: bool = True) -> str:
        return report_json(self.to_dict(include_units))

    def summary(self) -> str:
        counts = self.counts()
        lines = [
            f"lot of {self.size} units (seed {self.config.seed}, "
            f"{self.defective_units} defective, "
            f"{self.distinct_signatures} distinct signatures)",
            f"  program: {' -> '.join(self.config.stages)} "
            f"[{self.config.calibration_path} calibration]",
            f"  yield {self.yield_fraction:.4f} "
            f"({self.shipped}/{self.size} shipped), "
            f"test time {self.test_time_per_unit_s * 1e3:.2f} ms/unit",
            "  dispositions: "
            + ", ".join(f"{d}={counts[d]}" for d in DISPOSITIONS),
        ]
        for stage in self.stages:
            cost = stage.cost_per_defect_caught_s
            cost_text = "n/a" if cost is None else f"{cost * 1e3:.2f} ms"
            lines.append(
                f"  {stage.name:<11} tested {stage.tested:5d}  "
                f"caught {stage.caught:4d}  false-fail {stage.false_fails}  "
                f"cost/defect {cost_text}"
            )
        lines.append(
            f"  escapes: {len(self.escapes)} "
            f"(rate {self.escape_rate:.6f}) — must be 0"
        )
        return "\n".join(lines)


__all__ = [
    "DISPOSITIONS",
    "LotReport",
    "OracleResult",
    "StageReport",
    "UnitRecord",
]
