"""Property: no stack serves a silent-wrong heading under a single fault.

One trust rule (:mod:`repro.trust`) scores every served answer, so one
property can audit every stack that serves one.  Draw a registered
measurement-probe fault at one of its registered severities, a heading,
an Earth-field magnitude and a stack:

* a bare supervised compass with graceful degradation armed;
* a 3-replica :class:`~repro.service.HeadingService`, fault on replica 0;
* the square 4-element :class:`~repro.array.ArrayCompass`, fault on
  element 0;
* a one-shard :class:`~repro.fleet.HeadingFleet`, fault on replica 0 of
  its shard.

The stack must either refuse (a typed :class:`~repro.errors.ReproError`)
or serve an answer whose :func:`~repro.trust.served_outcome` against
the truth is not :attr:`~repro.trust.Outcome.SILENT_WRONG`.

One cell breaks that contract, and that is an open program defect: a
5 µV amplifier offset on a bare compass below ~36 µT (see
:data:`OPEN_SILENT_WRONG`).  Its draws are still made, but they assert
a 1.5° error cap instead of the spec, and
:func:`test_amplifier_offset_low_field_window_is_real` pins the window
so that the fix has to delete both.
"""

import contextlib

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.array import ArrayCompass, ArrayConfig, ArrayGeometry
from repro.core.compass import CompassConfig, IntegratedCompass
from repro.core.health import HealthConfig
from repro.errors import ReproError
from repro.faults.model import REGISTRY
from repro.fleet import FleetConfig, HeadingFleet
from repro.fleet.kernel import Kernel
from repro.service import HeadingService, ServiceConfig
from repro.trust import Outcome, served_outcome
from repro.units import heading_error_deg

#: Clean warm-up heading: arms the last-known-good fallback before the
#: fault, as in the fault campaign (a mid-service failure).
WARM_UP_DEG = 0.5

#: Open silent-wrong defect, keyed by (stack, fault, severity) → the
#: error cap [deg] its draws must respect.  A static amplifier offset
#: shifts both counts like a hard-iron offset, so no single-measurement
#: check can see it (docs/fault_model.md, "Physically honest
#: detectability limits").  Its heading error grows as 1/field: the
#: registered "benign" 5 µV stays in spec from ~40 µT up, but at
#: 25-36 µT it adds ~0.6° to the chain's own ≤0.69° and serves up to
#: 1.24° unflagged on a few percent of headings.  Voting stacks outvote
#: the faulted replica or element; the bare compass cannot.
OPEN_SILENT_WRONG = {("compass", "analog.amplifier_offset", 5e-06): 1.5}

fault_cells = st.sampled_from([
    (name, severity)
    for name in REGISTRY.names()
    if REGISTRY.get(name).probe == "measurement"
    for severity in REGISTRY.get(name).severities
])
headings = st.floats(
    min_value=0.0, max_value=360.0, exclude_max=True, allow_nan=False
)
fields_ut = st.floats(min_value=25.0, max_value=65.0)


def _inject(fault, target, severity):
    """Arm ``fault`` on ``target``; ``fault=None`` is the clean run."""
    if fault is None:
        return contextlib.nullcontext()
    return REGISTRY.inject(fault, target, severity)


def _compass(fault, severity, heading, field_t):
    compass = IntegratedCompass(
        CompassConfig(health=HealthConfig(degrade=True))
    )
    compass.measure_heading(WARM_UP_DEG, field_t)
    with _inject(fault, compass, severity):
        return compass.measure_heading(heading, field_t)


def _service(fault, severity, heading, field_t):
    service = HeadingService(ServiceConfig())
    with _inject(fault, service.replicas[0].compass, severity):
        return service.measure_heading(heading, field_t)


def _array(fault, severity, heading, field_t):
    array = ArrayCompass(ArrayConfig(geometry=ArrayGeometry.square()))
    array.measure_heading(WARM_UP_DEG, field_t)
    with _inject(fault, array.elements[0], severity):
        return array.measure_heading(heading, field_t)


def _fleet(fault, severity, heading, field_t):
    kernel = Kernel()
    fleet = HeadingFleet(FleetConfig(shards=1, seed=0), scheduler=kernel)
    replica = fleet.shards[0].service.replicas[0]

    async def main():
        fleet.start()
        try:
            with _inject(fault, replica.compass, severity):
                return await fleet.submit("device-0", heading, field_t)
        finally:
            await fleet.stop()

    return kernel.run(main())


STACKS = {
    "compass": _compass,
    "service": _service,
    "array": _array,
    "fleet": _fleet,
}


def _check_served_answer(cell, heading, field_ut, stack):
    fault, severity = cell
    try:
        answer = STACKS[stack](fault, severity, heading, field_ut * 1e-6)
    except ReproError:
        return  # refused loudly: honest.
    error = heading_error_deg(answer.heading_deg, heading)
    cap = OPEN_SILENT_WRONG.get((stack, fault, severity))
    if cap is not None:
        assert error <= cap, (stack, fault, severity, heading, field_ut)
        return
    outcome = served_outcome(error, answer.authoritative)
    assert outcome is not Outcome.SILENT_WRONG, (
        f"SILENT WRONG: {stack} {fault} sev={severity} heading={heading} "
        f"field={field_ut} uT served {answer.heading_deg} "
        f"(error {error:.3f} deg) as authoritative"
    )


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_clean_stack_serves_benign(stack):
    answer = STACKS[stack](None, 0.0, 123.0, 50.0e-6)
    error = heading_error_deg(answer.heading_deg, 123.0)
    assert served_outcome(error, answer.authoritative) is Outcome.BENIGN


def test_amplifier_offset_low_field_window_is_real():
    # Characterization of the open defect in OPEN_SILENT_WRONG.  When a
    # change closes the window this fails: delete it and the entry.
    answer = _compass("analog.amplifier_offset", 5e-06, 231.0, 25.0e-6)
    error = heading_error_deg(answer.heading_deg, 231.0)
    assert served_outcome(error, answer.authoritative) is Outcome.SILENT_WRONG


@settings(max_examples=60, deadline=None)
@given(
    cell=fault_cells,
    heading=headings,
    field_ut=fields_ut,
    stack=st.sampled_from(sorted(STACKS)),
)
# Regression: 20 % excitation-turn loss near the top of the band, served
# 1.09° off and unflagged before the rated-range field limit.
@example(
    cell=("sensor.saturation_loss", 0.2),
    heading=98.87217426751819,
    field_ut=64.17282584639364,
    stack="compass",
)
def test_no_stack_serves_silent_wrong(cell, heading, field_ut, stack):
    _check_served_answer(cell, heading, field_ut, stack)


@pytest.mark.slow
@settings(max_examples=600, deadline=None)
@given(
    cell=fault_cells,
    heading=headings,
    field_ut=fields_ut,
    stack=st.sampled_from(sorted(STACKS)),
)
def test_no_stack_serves_silent_wrong_deep(cell, heading, field_ut, stack):
    _check_served_answer(cell, heading, field_ut, stack)
