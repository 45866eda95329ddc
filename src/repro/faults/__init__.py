"""repro.faults — systematic fault injection and campaign evaluation.

The paper equips the compass MCM with boundary-scan structures [Oli96]
because a smart sensor must make its own failures *detectable*.  This
package turns that philosophy into a test harness for the whole
reproduction:

* :mod:`repro.faults.model` — a registry of parameterized, injectable
  faults spanning every layer (sensor coils, analogue front-end, digital
  datapath, scan chain, and the environment seams of
  :mod:`repro.scenario`), implemented as reversible patches of live
  component instances — mostly of values the signal chain reads, so the
  certified fast path measures a faulted compass as the stepped chain
  does;
* :mod:`repro.faults.campaign` — a campaign engine that sweeps
  (fault × severity × heading) grids through the scalar and batch
  measurement paths and classifies every outcome as *detected*,
  *degraded*, *benign* or *silent-wrong* — the last being the metric
  driven to zero;
* :mod:`repro.faults.chaos` — a seeded chaos soak that arms and disarms
  registered faults on a minority of :class:`~repro.service.HeadingService`
  replicas while asserting the service keeps silent-wrong at zero and
  availability above a floor.

Quickstart::

    from repro.faults import FaultCampaign
    result = FaultCampaign().run()
    print(result.summary())
    assert not result.silent_wrong()
"""

from .campaign import (
    CampaignCell,
    CampaignResult,
    FaultCampaign,
    Outcome,
    classify_heading,
    classify_replay_record,
)
from .chaos import ChaosSoak, SoakConfig, SoakEvent, SoakReport
from .model import REGISTRY, FaultRegistry, FaultSpec, registered_faults

# Populate the environment layer (imported for its registration side
# effect; the injectors duck-type the ScenarioRunner seams, so this
# does not pull in repro.scenario).
from . import environment as _environment  # noqa: F401  isort: skip

# Populate the array layer (registration side effect; the injectors
# duck-type the ArrayCompass seams, so this does not pull in
# repro.array).
from . import array as _array  # noqa: F401  isort: skip

__all__ = [
    "CampaignCell",
    "CampaignResult",
    "ChaosSoak",
    "FaultCampaign",
    "FaultRegistry",
    "FaultSpec",
    "Outcome",
    "REGISTRY",
    "SoakConfig",
    "SoakEvent",
    "SoakReport",
    "classify_heading",
    "classify_replay_record",
    "registered_faults",
]
