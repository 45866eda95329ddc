"""Faults record that they are armed.

Every registered fault arms itself through the registry's arming seam,
which counts each attribute it patches on the target compass's
``armed_faults`` record while the fault is live.  The fast path and the
excitation-trace cache read that record; they used to scan the
signal-chain objects' instance dicts instead.  The scan is kept here as
the oracle: the record must route exactly the faults it flagged to the
stepped engine, channel by channel.  No registered fault wraps a method
any more (each patches a value the fast path reads), so the wrapped
route is held with test doubles armed through the same seam.
"""

import pytest

from repro.analog import fastpath
from repro.array import ArrayCompass, ArrayConfig, ArrayGeometry
from repro.core.compass import IntegratedCompass
from repro.faults import REGISTRY
from repro.faults.model import _patched, arming

MEASUREMENT_FAULTS = [
    (name, severity)
    for name in REGISTRY.names()
    if REGISTRY.get(name).probe == "measurement"
    for severity in REGISTRY.get(name).severities
]


def scanned(front_end, sensor):
    """The instance-dict scan the armed record replaced."""

    def overridden(obj, *names):
        return any(name in vars(obj) for name in names)

    detector = front_end.detector
    excitation = front_end.excitation
    return (
        overridden(sensor, "simulate_batch")
        or overridden(front_end.amplifier, "amplify_batch")
        or overridden(detector, "detect_batch")
        or overridden(detector.comparator_positive, "falling_edges_batch")
        or overridden(detector.comparator_negative, "falling_edges_batch")
        or overridden(excitation, "current")
        or overridden(excitation.oscillator, "generate")
        or any(overridden(c, "drive") for c in excitation.converters.values())
    )


def routing(compass):
    """(scan says armed, ``ineligibility_reason``) per channel."""
    front_end = compass.front_end
    return [
        (scanned(front_end, sensor), fastpath.ineligibility_reason(front_end, sensor))
        for sensor in (compass.sensors.sensor_x, compass.sensors.sensor_y)
    ]


CLEAN = [(False, None), (False, None)]


@pytest.mark.parametrize("name,severity", MEASUREMENT_FAULTS)
def test_record_follows_the_armed_fault(name, severity):
    compass = IntegratedCompass()
    assert not compass.armed_faults
    with REGISTRY.inject(name, compass, severity):
        assert compass.armed_faults
        for flagged, reason in routing(compass):
            assert reason == ("armed-fault" if flagged else None)
    assert not compass.armed_faults
    assert routing(compass) == CLEAN


@pytest.mark.parametrize("name,severity", MEASUREMENT_FAULTS)
def test_record_empties_on_exit_by_exception(name, severity):
    compass = IntegratedCompass()
    with pytest.raises(RuntimeError):
        with REGISTRY.inject(name, compass, severity):
            assert compass.armed_faults
            raise RuntimeError("exit by exception")
    assert not compass.armed_faults
    assert routing(compass) == CLEAN


def wrapped(compass, obj, name):
    """A method-wrapper double of ``obj.name``, armed on ``compass``."""
    original = getattr(obj, name)

    def wrapper(*args, **kwargs):
        return original(*args, **kwargs)

    return arming(compass, _patched(obj, name, wrapper))


def test_the_oracle_flags_exactly_the_method_wrappers():
    for name, severity in MEASUREMENT_FAULTS:
        compass = IntegratedCompass()
        with REGISTRY.inject(name, compass, severity):
            assert not any(armed for armed, _ in routing(compass)), name
    compass = IntegratedCompass()
    with wrapped(compass, compass.sensors.sensor_y, "simulate_batch"):
        assert routing(compass) == [(False, None), (True, "armed-fault")]
    with wrapped(compass, compass.front_end.amplifier, "amplify_batch"):
        assert routing(compass) == [(True, "armed-fault")] * 2
    assert routing(compass) == CLEAN


def test_nested_faults_on_one_attribute_are_counted():
    compass = IntegratedCompass()
    sensor = compass.sensors.sensor_x
    record = compass.armed_faults
    with REGISTRY.inject("sensor.shorted_pickup_coil", compass, 0.3):
        with REGISTRY.inject("sensor.axis_gain_mismatch", compass, 0.02):
            assert record.count(sensor, "pickup_scales") == 2
            assert sensor.pickup_scales == (0.7, 0.98)
        assert record.count(sensor, "pickup_scales") == 1
        assert sensor.pickup_scales == (0.7,)
        assert routing(compass) == CLEAN
    assert record.count(sensor, "pickup_scales") == 0
    assert sensor.pickup_scales == ()
    assert not record
    with wrapped(compass, sensor, "simulate_batch"):
        with wrapped(compass, sensor, "simulate_batch"):
            assert record.count(sensor, "simulate_batch") == 2
        assert record.count(sensor, "simulate_batch") == 1
        assert routing(compass) == [(True, "armed-fault"), (False, None)]
    assert not record
    assert routing(compass) == CLEAN


def test_a_target_without_a_record_arms_as_before():
    # An array has no armed record, so a fault armed on it is counted
    # nowhere, not even on the element compass whose sensor it patches.
    array = ArrayCompass(ArrayConfig(geometry=ArrayGeometry.square()))
    sensors = [element.sensors.sensor_x for element in array.elements]
    before = [sensor.params for sensor in sensors]
    with REGISTRY.inject("array.element_dead", array, 1.0):
        assert [s.params for s in sensors] != before
        assert not any(element.armed_faults for element in array.elements)
    assert [s.params for s in sensors] == before
