"""Physical units and constants used throughout the compass reproduction.

The paper mixes unit systems freely: the fluxgate anisotropy field is quoted
in oersted (``HK = 10 Oe``), the earth's field in microtesla (25 µT in South
America, 65 µT near the pole), coil currents in milliampere and frequencies
in kilohertz.  Internally this library works in SI units only:

* magnetic flux density ``B`` in tesla,
* magnetic field strength ``H`` in ampere per metre,
* time in seconds, voltage in volts, current in amperes.

This module provides the conversion helpers and the named constants that the
paper quotes, so that every magic number in the code base can be traced back
to a sentence in the paper.
"""

from __future__ import annotations

import math

# --- fundamental constants -------------------------------------------------

#: Permeability of free space [H/m].
MU_0 = 4.0e-7 * math.pi

# --- CGS <-> SI magnetic conversions ---------------------------------------

#: One oersted expressed in ampere per metre.
OERSTED_TO_A_PER_M = 1000.0 / (4.0 * math.pi)

#: One gauss expressed in tesla.
GAUSS_TO_TESLA = 1.0e-4

#: One microtesla expressed in tesla.
MICROTESLA = 1.0e-6


def oersted_to_a_per_m(h_oe: float) -> float:
    """Convert a magnetic field strength from oersted to A/m."""
    return h_oe * OERSTED_TO_A_PER_M


def a_per_m_to_oersted(h_si: float) -> float:
    """Convert a magnetic field strength from A/m to oersted."""
    return h_si / OERSTED_TO_A_PER_M


def tesla_to_a_per_m(b_tesla: float) -> float:
    """Convert a free-space flux density to the equivalent field strength."""
    return b_tesla / MU_0


def a_per_m_to_tesla(h_si: float) -> float:
    """Convert a field strength to the free-space flux density it produces."""
    return h_si * MU_0


def microtesla_to_a_per_m(b_ut: float) -> float:
    """Convert a free-space flux density in µT to field strength in A/m."""
    return tesla_to_a_per_m(b_ut * MICROTESLA)


# --- paper constants ---------------------------------------------------------
# Every constant below is quoted directly in the paper text; section numbers
# refer to the DATE'97 paper.

#: §4 — counter clock frequency [Hz]; 4.194304 MHz is exactly 2**22 Hz, the
#: classic watch-crystal multiple that divides to 1 Hz for the timekeeping
#: "watch options" the digital section provides.
COUNTER_CLOCK_HZ = 4_194_304.0

#: §3.1 — excitation waveform frequency [Hz].
EXCITATION_FREQUENCY_HZ = 8_000.0

#: §3.1 — excitation current amplitude, peak to peak [A].
EXCITATION_CURRENT_PP = 12.0e-3

#: §2 — supply voltage [V] ("currently 5 Volts, but can be scaled to 3.5V").
SUPPLY_VOLTAGE = 5.0
SUPPLY_VOLTAGE_LOW = 3.5

#: §2.1.1 — measured anisotropy (saturation) field of the Kaw95 sensor:
#: "it reached saturation at 15 times the magnitude of the earth's magnetic
#: field (HK = 10 Oe)" [A/m].
HK_MEASURED = oersted_to_a_per_m(10.0)

#: §2.1.1 — the earth's field magnitude implied by the measured HK
#: (HK = 15 × H_earth → H_earth = 2/3 Oe ≈ 53 A/m ≈ 0.67 G ≈ 67 µT) [A/m].
H_EARTH_NOMINAL = HK_MEASURED / 15.0

#: §2.1.1 — "HK has been adapted to obtain a saturation level suitable for
#: our application": the anisotropy field of the *ideal* (target) sensor in
#: the ELDO model [A/m].  43 A/m ≈ 54 µT sits inside the earth-field range
#: ("same magnitude as the earth's magnetic field") and gives the 12 mA pp
#: excitation a drive ratio of ~2.5 — enough ramp past the zero crossing
#: for the pickup pulse to complete even at the 65 µT worldwide maximum.
HK_IDEAL = 43.0

#: §2.1.1 — internal (series) resistance of the measured sensor [ohm].
SENSOR_RESISTANCE_MEASURED = 77.0

#: §3.1 — maximum sensor resistance the 5 V front-end can drive [ohm].
SENSOR_RESISTANCE_MAX = 800.0

#: §3.1 — oscillator timing capacitor on the Sea-of-Gates [F].
OSCILLATOR_CAPACITANCE = 10.0e-12

#: §3.1 — external oscillator resistor realised on the MCM substrate [ohm].
OSCILLATOR_RESISTANCE = 12.5e6

#: §2 — capacitors larger than this must be realised on the MCM substrate,
#: not on the Sea-of-Gates array [F].
SOG_MAX_CAPACITANCE = 400.0e-12

#: §4 — the magnitude of the earth's field varies worldwide [T]:
#: "between 25µT in south America and 65µT near the south pole".
EARTH_FIELD_MIN_T = 25.0e-6
EARTH_FIELD_MAX_T = 65.0e-6

#: §4/Abstract — target heading accuracy [degrees].
TARGET_ACCURACY_DEG = 1.0

#: §4/Fig 8 — CORDIC iteration count used by the paper.
CORDIC_ITERATIONS = 8

#: §2 — Sea-of-Gates array size: "a single Sea-of-Gates array of 200k
#: transistors" organised as 4 quarters.
SOG_TOTAL_TRANSISTORS = 200_000
SOG_QUARTERS = 4

#: Clock cycles of the up-down counter per excitation period; a derived
#: constant the digital design is built around (2**22 / 8000 = 524.288).
COUNTER_CYCLES_PER_EXCITATION_PERIOD = COUNTER_CLOCK_HZ / EXCITATION_FREQUENCY_HZ


def wrap_degrees(angle_deg: float) -> float:
    """Wrap an angle into the compass range ``[0, 360)`` degrees."""
    wrapped = math.fmod(angle_deg, 360.0)
    if wrapped < 0.0:
        wrapped += 360.0
    # Adding 360 to a tiny negative angle can round to exactly 360.0;
    # fold that boundary back to 0 so the contract [0, 360) holds.
    return 0.0 if wrapped >= 360.0 else wrapped


def wrap_degrees_signed(angle_deg: float) -> float:
    """Wrap an angle into the signed range ``[-180, 180)`` degrees."""
    wrapped = math.fmod(angle_deg + 180.0, 360.0)
    if wrapped < 0.0:
        wrapped += 360.0
    return wrapped - 180.0


def angular_difference_deg(a_deg: float, b_deg: float) -> float:
    """Smallest signed difference ``a - b`` between two headings in degrees.

    The result lies in ``[-180, 180)``; its absolute value is the error
    metric used for all accuracy experiments.
    """
    return wrap_degrees_signed(a_deg - b_deg)


def heading_error_deg(measured_deg: float, truth_deg: float) -> float:
    """Absolute circular heading error ``|measured - truth|`` [degrees]."""
    return abs(angular_difference_deg(measured_deg, truth_deg))


def heading_from_components_deg(h_x: float, h_y: float) -> float:
    """Ideal heading ``atan2(-h_y, h_x)`` of two axis fields, in ``[0, 360)``."""
    heading = math.degrees(math.atan2(-h_y, h_x)) % 360.0
    # Float modulo of a tiny negative angle can round up to exactly
    # 360.0; fold that boundary case back to 0.
    return 0.0 if heading >= 360.0 else heading


def field_from_count(
    count: int, ticks: int, coil_constant: float, current_amplitude: float
) -> float:
    """The axis field [A/m] that an up-down count over ``ticks`` encodes.

    The detector's duty cycle is ``1/2 + H/(2·Ha)``, so the counter ends
    at ``ticks · H / Ha``, where ``Ha`` is the peak excitation field: the
    coil constant [A/m per A] times the peak current [A].  ``ticks`` must
    be non-zero; each caller raises its own error for an empty window.
    """
    h_amp = coil_constant * current_amplitude
    return count * h_amp / ticks
