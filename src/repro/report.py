"""The one JSON report format: ``indent=2``, sorted keys, final newline.

Every harness report (campaign, soak, fleet soak, lot) and every CLI
``--json``/``--metrics`` file is written through :func:`report_json`, so
reports diff cleanly across runs and commits.  Three formats stay
separate on purpose because they are not reports: the JSONL span sink
(:mod:`repro.observe.trace`, one compact object per line), the compact
hashed record body of a replay log (:mod:`repro.replay.format`) and the
CRC-sealed calibration-store encoding (:mod:`repro.scenario.compensation`).
"""

from __future__ import annotations

import json
from typing import Any


def report_json(payload: Any) -> str:
    """``payload`` as report text."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_report(path: str, payload: Any) -> None:
    """Write ``payload`` to ``path`` as report text."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(report_json(payload))
