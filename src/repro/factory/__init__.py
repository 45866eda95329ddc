"""`repro.factory` — the simulated production line.

Mints lots of device instances with defects drawn from a seeded
distribution over the fault registry (:mod:`repro.factory.defects`),
pushes them through a staged test program — interconnect boundary scan,
power-on BIST, field calibration sweep, environment screen
(:mod:`repro.factory.stages`) —
and accounts yield, per-stage catches, false fails, test time and
escapes in a bit-identically reproducible
:class:`~repro.factory.report.LotReport`
(:mod:`repro.factory.line`).  See ``docs/factory.md``.
"""

from .config import (
    DefectDistribution,
    LotConfig,
    SEVERITY_LAWS,
    STAGE_NAMES,
    golden_lot_config,
)
from .defects import Defect, defect, mint_units, signature
from .line import FactoryLine, SignatureEvaluation, run_field_oracle
from .report import (
    DISPOSITIONS,
    LotReport,
    OracleResult,
    StageReport,
    UnitRecord,
)
from .stages import (
    StageResult,
    run_bist,
    run_btest,
    run_calibration,
    run_stage,
    split_defects,
)

__all__ = [
    "DISPOSITIONS",
    "Defect",
    "DefectDistribution",
    "FactoryLine",
    "LotConfig",
    "LotReport",
    "OracleResult",
    "SEVERITY_LAWS",
    "STAGE_NAMES",
    "SignatureEvaluation",
    "StageReport",
    "StageResult",
    "UnitRecord",
    "defect",
    "golden_lot_config",
    "mint_units",
    "run_bist",
    "run_btest",
    "run_calibration",
    "run_field_oracle",
    "run_stage",
    "signature",
    "split_defects",
]
