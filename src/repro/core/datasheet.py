"""Datasheet generation: measure the device and print its specifications.

Every number in the produced datasheet is *measured from the simulation*
at generation time — nothing is hard-coded — so the datasheet doubles as
a regression harness: if a library change degrades a specification, the
datasheet (and its tests) move.

The sections mirror a 1997 sensor-ASIC datasheet: electrical
characteristics, compass performance, timing, power, environmental
limits, and the test/assembly features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

from ..analog.vi_converter import VIConverterParameters
from ..physics.thermal import compass_config_at_temperature
from ..soc.netlist import CompassNetlist
from ..soc.sea_of_gates import PAIRS_PER_QUARTER
from ..units import (
    COUNTER_CLOCK_HZ,
    EXCITATION_CURRENT_PP,
    EXCITATION_FREQUENCY_HZ,
    SUPPLY_VOLTAGE,
)
from .accuracy import ErrorStats
from .compass import CompassConfig, IntegratedCompass
from .heading import headings_evenly_spaced
from .power import PowerModel
from .tilt import max_tolerable_tilt_deg


@dataclass
class SpecLine:
    """One datasheet row."""

    parameter: str
    value: str
    conditions: str = ""


@dataclass
class Datasheet:
    """A measured datasheet: named sections of spec lines."""

    sections: Dict[str, List[SpecLine]] = field(default_factory=dict)

    def add(self, section: str, parameter: str, value: str, conditions: str = "") -> None:
        self.sections.setdefault(section, []).append(
            SpecLine(parameter, value, conditions)
        )

    def lookup(self, section: str, parameter: str) -> SpecLine:
        for line in self.sections.get(section, []):
            if line.parameter == parameter:
                return line
        raise KeyError(f"{section}/{parameter} not in datasheet")

    def render(self) -> str:
        out = [
            "INTEGRATED FLUXGATE COMPASS — MEASURED DATASHEET",
            "(every value measured from the behavioural simulation)",
            "",
        ]
        for section, lines in self.sections.items():
            out.append(section.upper())
            out.append("-" * len(section))
            for line in lines:
                conditions = f"  [{line.conditions}]" if line.conditions else ""
                out.append(f"  {line.parameter:<34} {line.value:>16}{conditions}")
            out.append("")
        return "\n".join(out)


def generate_datasheet(
    n_headings: int = 16, quick: bool = False
) -> Datasheet:
    """Measure the default design point and build its datasheet.

    ``quick`` trims the sweep sizes for test runs.
    """
    if quick:
        n_headings = max(6, n_headings // 2)
    sheet = Datasheet()
    compass = IntegratedCompass()

    # -- electrical -------------------------------------------------------
    vi = VIConverterParameters()
    sheet.add("electrical characteristics", "supply voltage", f"{SUPPLY_VOLTAGE:.1f} V",
              "scalable to 3.5 V")
    sheet.add("electrical characteristics", "excitation current",
              f"{EXCITATION_CURRENT_PP * 1e3:.0f} mA pp", "triangular")
    sheet.add("electrical characteristics", "excitation frequency",
              f"{EXCITATION_FREQUENCY_HZ / 1e3:.0f} kHz", "R·C = 12.5 MΩ × 10 pF")
    sheet.add("electrical characteristics", "max sensor resistance",
              f"{vi.max_load_resistance(EXCITATION_CURRENT_PP / 2):.0f} Ω",
              f"at {SUPPLY_VOLTAGE:.0f} V supply")
    sheet.add("electrical characteristics", "counter clock",
              f"{COUNTER_CLOCK_HZ / 1e6:.6f} MHz", "2^22 Hz watch family")

    # -- compass performance ------------------------------------------------
    # Deferred import: repro.batch itself imports this package.
    from ..batch import BatchCompass

    batch = BatchCompass(compass)
    headings = headings_evenly_spaced(n_headings, 0.5)
    stats = ErrorStats.from_sweep(headings, batch.sweep_headings(headings))
    sheet.add("compass performance", "heading accuracy (max)",
              f"{stats.max_error:.3f} deg", f"{n_headings}-point sweep, 50 µT")
    sheet.add("compass performance", "heading accuracy (rms)",
              f"{stats.rms_error:.3f} deg")
    n_range = max(6, n_headings // 2)
    range_headings = headings_evenly_spaced(n_range, 0.5)
    worst_over_range = max(
        ErrorStats.from_sweep(range_headings, measurements).max_error
        for _, measurements in batch.sweep_magnitudes(
            [25e-6, 65e-6], n_headings=n_range
        )
    )
    sheet.add("compass performance", "accuracy over 25…65 µT",
              f"{worst_over_range:.3f} deg", "worldwide field range")
    sheet.add("compass performance", "resolution (counter LSB)",
              f"{math.degrees(1.0 / compass.count_full_scale()):.4f} deg",
              "8-period window")
    sheet.add("compass performance", "max level-use tilt",
              f"{max_tolerable_tilt_deg(69.4):.2f} deg",
              "1° budget at 69.4° inclination")

    # -- timing -------------------------------------------------------------------
    measurement = compass.measure_heading(45.0)
    sheet.add("timing", "measurement time",
              f"{measurement.measurement_time_s * 1e3:.2f} ms",
              "settle + count ×2 + compute")
    sheet.add("timing", "max update rate",
              f"{compass.update_rate_hz():.0f} Hz")
    sheet.add("timing", "arctangent latency",
              f"{measurement.cordic_cycles} cycles",
              f"{measurement.cordic_cycles / COUNTER_CLOCK_HZ * 1e6:.2f} µs")

    # -- power ----------------------------------------------------------------------
    model = PowerModel()
    gated = model.gated(repetition_period=1.0)
    sheet.add("power", "average current @ 1 Hz updates",
              f"{gated.total_current * 1e6:.1f} µA", "power-gated")
    sheet.add("power", "momental analogue power",
              f"{model.momental_analog_power(True) * 1e3:.1f} mW",
              "one channel multiplexed")
    sheet.add("power", "always-on current",
              f"{model.always_on().total_current * 1e3:.2f} mA",
              "gating disabled")

    # -- environmental ----------------------------------------------------------------
    for temperature in (-20.0, 60.0):
        config = compass_config_at_temperature(CompassConfig(), temperature)
        cold_hot = IntegratedCompass(config).measure_heading(45.0)
        sheet.add("environmental", f"heading error at {temperature:+.0f} °C",
                  f"{cold_hot.error_against(45.0):.3f} deg")

    # -- integration -------------------------------------------------------------------
    netlist = CompassNetlist()
    sheet.add("integration", "digital area",
              f"{netlist.digital_pairs() / PAIRS_PER_QUARTER:.2f} quarters",
              "fishbone SoG, 200k transistors")
    sheet.add("integration", "analogue area",
              f"{netlist.analog_pairs() / PAIRS_PER_QUARTER * 100:.1f} % of a quarter")
    sheet.add("integration", "assembly test",
              "IEEE 1149.1", "counting-sequence interconnect test")
    return sheet
