"""Temperature behaviour of the compass components.

A wrist compass lives between a ski slope and a dashboard; the paper is
silent on temperature, so this extension models the dominant drifts with
standard material coefficients and lets bench TEMP1 sweep the range:

* permalloy anisotropy field HK: decreases with temperature as the
  film's induced anisotropy relaxes (~ −0.1 %/K here),
* permalloy saturation flux density Bs: falls toward the Curie point
  (~ −0.03 %/K far below Tc),
* copper coil resistance: +0.39 %/K,
* the MCM timing resistor (thin film): ±25 ppm/K,
* the on-array MOS capacitor: ±30 ppm/K.

The architectural point the sweep demonstrates: the heading is a *ratio*
of two channels sharing one oscillator, one detector and one counter, so
every common-mode drift cancels; only the (small) shift of the usable
field range survives.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..errors import ConfigurationError

#: Reference temperature for all coefficients [°C].
T_REFERENCE_C = 25.0


@dataclass(frozen=True)
class ThermalCoefficients:
    """First-order temperature coefficients (per kelvin)."""

    hk_per_k: float = -1.0e-3
    bs_per_k: float = -3.0e-4
    copper_resistance_per_k: float = 3.9e-3
    film_resistor_per_k: float = 25.0e-6
    capacitor_per_k: float = 30.0e-6

    def factor(self, coefficient: float, temperature_c: float) -> float:
        """Multiplicative drift factor at a given temperature."""
        return 1.0 + coefficient * (temperature_c - T_REFERENCE_C)


NOMINAL_COEFFICIENTS = ThermalCoefficients()


def sensor_at_temperature(params, temperature_c: float):
    """A :class:`~repro.sensors.parameters.FluxgateParameters` copy at T.

    HK, Bs and the copper series resistance drift; the geometry does not.
    """
    _check_temperature(temperature_c)
    drift = NOMINAL_COEFFICIENTS
    core = dataclasses.replace(
        params.core,
        anisotropy_field=params.core.anisotropy_field
        * drift.factor(drift.hk_per_k, temperature_c),
        saturation_flux_density=params.core.saturation_flux_density
        * drift.factor(drift.bs_per_k, temperature_c),
    )
    return dataclasses.replace(
        params,
        core=core,
        series_resistance=params.series_resistance
        * drift.factor(drift.copper_resistance_per_k, temperature_c),
    )


def oscillator_at_temperature(osc_params, temperature_c: float):
    """An :class:`~repro.analog.waveform.OscillatorParameters` copy at T."""
    _check_temperature(temperature_c)
    drift = NOMINAL_COEFFICIENTS
    return dataclasses.replace(
        osc_params,
        resistance=osc_params.resistance
        * drift.factor(drift.film_resistor_per_k, temperature_c),
        capacitance=osc_params.capacitance
        * drift.factor(drift.capacitor_per_k, temperature_c),
    )


def compass_config_at_temperature(base_config, temperature_c: float):
    """A full :class:`~repro.core.compass.CompassConfig` drifted to T."""
    _check_temperature(temperature_c)
    sensor = sensor_at_temperature(base_config.sensor, temperature_c)
    oscillator = oscillator_at_temperature(
        base_config.front_end.excitation.oscillator, temperature_c
    )
    excitation = dataclasses.replace(
        base_config.front_end.excitation, oscillator=oscillator
    )
    front_end = dataclasses.replace(base_config.front_end, excitation=excitation)
    return dataclasses.replace(base_config, sensor=sensor, front_end=front_end)


def _check_temperature(temperature_c: float) -> None:
    if not -60.0 <= temperature_c <= 125.0:
        raise ConfigurationError(
            f"temperature {temperature_c} °C outside the modelled "
            "-60…125 °C envelope"
        )
