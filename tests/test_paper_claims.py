"""Every quantitative claim in the paper, as an executable test.

One test per sentence-level claim, with the paper text quoted.  These are
the reproduction's contract; the benches regenerate the corresponding
figures with full sweeps.
"""

import pytest

from repro.batch import BatchCompass
from repro.core.accuracy import ErrorStats
from repro.core.compass import CompassConfig, IntegratedCompass
from repro.core.heading import headings_evenly_spaced
from repro.core.power import PowerModel
from repro.digital.atan_rom import algorithmic_residual_deg
from repro.digital.cordic import CordicArctan
from repro.sensors.parameters import IDEAL_TARGET, MICROMACHINED_KAW95
from repro.soc.netlist import CompassNetlist
from repro.soc.sea_of_gates import PAIRS_PER_QUARTER
from repro.units import (
    COUNTER_CLOCK_HZ,
    EXCITATION_CURRENT_PP,
    EXCITATION_FREQUENCY_HZ,
    H_EARTH_NOMINAL,
    HK_MEASURED,
)


def _turntable_stats(compass, n_points):
    """Error statistics of an ``n_points`` batch heading sweep from 0.5°."""
    headings = headings_evenly_spaced(n_points, 0.5)
    measurements = BatchCompass(compass).sweep_headings(headings)
    return ErrorStats.from_sweep(headings, measurements)


class TestAbstractClaims:
    def test_accuracy_of_one_degree(self):
        """'The compass has been designed to have an accuracy of one
        degree.'"""
        stats = _turntable_stats(IntegratedCompass(), 36)
        assert stats.max_error < 1.0

    def test_fits_single_sog_of_200k_transistors(self):
        """'The analogue and digital circuitry in the system fit on a
        single Sea-of-Gates array of 200k transistors.'"""
        array = CompassNetlist().place()  # raises if it does not fit
        assert array.total_transistors == 200_000


class TestSection2Claims:
    def test_heading_is_arctangent_of_component_ratio(self):
        """'The angle to the magnetic north is calculated by taking the
        arctangent of the division of the two measurants.'"""
        compass = IntegratedCompass()
        m = compass.measure_heading(30.0)
        cordic = CordicArctan()
        recomputed = cordic.heading_degrees(m.x_count, m.y_count)
        assert recomputed == pytest.approx(m.heading_deg)

    def test_multiplexing_halves_momental_power(self):
        """'This reduces both momental power consumption and chip area
        since only one oscillator is needed.'"""
        model = PowerModel()
        assert model.momental_analog_power(True) == pytest.approx(
            model.momental_analog_power(False) / 2.0
        )

    def test_digital_three_quarters_analog_under_15_percent(self):
        """'The digital part of the integrated compass occupies 3 quarters
        fully and the analogue part 1 quarter for less than 15%.'"""
        netlist = CompassNetlist()
        assert 2.7 <= netlist.digital_pairs() / PAIRS_PER_QUARTER <= 3.0
        assert netlist.analog_pairs() / PAIRS_PER_QUARTER < 0.15


class TestSection21Claims:
    def test_measured_sensor_saturates_at_15x_earth_field(self):
        """'it reached saturation at 15 times the magnitude of the earth's
        magnetic field (HK=10Oe)'"""
        assert HK_MEASURED / H_EARTH_NOMINAL == pytest.approx(15.0)
        assert MICROMACHINED_KAW95.core.anisotropy_field == pytest.approx(HK_MEASURED)

    def test_measured_sensor_unusable_ideal_usable(self):
        """'Hence, for the time being, a discrete miniaturised fluxgate
        sensor has been used' — because the measured device cannot be
        saturated by the available drive."""
        amplitude = EXCITATION_CURRENT_PP / 2.0
        assert not MICROMACHINED_KAW95.saturates_with(amplitude)
        assert IDEAL_TARGET.saturates_with(amplitude)


class TestSection3Claims:
    def test_excitation_is_12ma_pp_at_8khz(self):
        """'a triangular excitation current of 12 mA peak to peak with a
        frequency of 8kHz'"""
        from repro.analog.excitation import ExcitationSource
        from repro.simulation.engine import TimeGrid

        current = ExcitationSource().current(TimeGrid(8), "x", 77.0)
        assert current.peak_to_peak() == pytest.approx(12e-3, rel=0.01)
        assert current.fundamental_frequency() == pytest.approx(8000.0, rel=0.01)

    def test_800_ohm_compliance_at_5v(self):
        """'With the supply voltage at 5 Volt, sensors with a resistance
        as high as 800 Ω can be driven.'"""
        from repro.analog.vi_converter import VIConverterParameters

        assert VIConverterParameters().max_load_resistance(6e-3) == pytest.approx(800.0)

    def test_no_adc_needed(self):
        """'Since the analogue output consists only of one digital
        compatible signal, a complicated AD-converter is not necessary.'"""
        from repro.analog.pulse_detector import PulsePositionDetector
        from repro.sensors.second_harmonic import SecondHarmonicReadout

        assert PulsePositionDetector.hardware_cost()["needs_adc"] is False
        assert SecondHarmonicReadout.hardware_cost()["needs_adc"] is True

    def test_duty_cycle_directly_indicates_field(self):
        """'The fraction of time in a period at which the output of the
        pulse detector is high is a direct indication of the field
        component measured.'"""
        compass = IntegratedCompass()
        m_north = compass.measure_heading(0.5)   # full positive h_x
        m_east = compass.measure_heading(90.0)   # zero h_x
        assert m_north.duty_x > 0.55
        assert m_east.duty_x == pytest.approx(0.5, abs=0.01)


class TestSection4Claims:
    def test_counter_frequency(self):
        """'a high-frequency (4.194304MHz) up-down counter'"""
        assert COUNTER_CLOCK_HZ == 4_194_304.0

    def test_cordic_8_cycles_one_degree(self):
        """'It used only 8 cycles to calculate the direction with an
        accuracy of one degree.'"""
        cordic = CordicArctan(iterations=8)
        assert cordic.arctan_first_quadrant(1, 2).cycles == 8
        assert cordic.worst_case_error_deg(magnitude=2000, step_deg=0.5) < 1.0
        assert algorithmic_residual_deg(8) < 0.5

    def test_magnitude_insensitivity_25_to_65_ut(self):
        """'insensitive to local variations of the magnitude of the earths
        magnetic field ... between 25µT in south America and 65µT near the
        south pole'"""
        headings = headings_evenly_spaced(12, 0.5)
        grouped = BatchCompass().sweep_magnitudes([25e-6, 45e-6, 65e-6], 12)
        for _, measurements in grouped:
            assert ErrorStats.from_sweep(headings, measurements).in_spec

    def test_arbitrary_precision_extension(self):
        """'The pulse count part and the arctan part can be modified easily
        to compute the direction with an arbitrary precision.'"""
        coarse = CordicArctan(iterations=8).worst_case_error_deg(4000, 1.0)
        fine = CordicArctan(iterations=14).worst_case_error_deg(4000, 1.0)
        assert fine < coarse / 8.0


class TestSection6Claims:
    def test_conclusion_accuracy_within_one_degree(self):
        """'Simulations indicate that an accuracy within one degree is
        possible.'"""
        stats = _turntable_stats(IntegratedCompass(), 24)
        assert stats.in_spec

    def test_designed_to_broad_specifications(self):
        """'the system is designed to broad specifications so it can
        operate with fluxgate sensors which will be realised in near
        future' — any sensor the drive saturates works."""
        softer = IDEAL_TARGET.with_anisotropy_field(30.0)
        compass = IntegratedCompass(CompassConfig(sensor=softer))
        m = compass.measure_heading(120.0, 35e-6)
        assert m.error_against(120.0) < 1.0
