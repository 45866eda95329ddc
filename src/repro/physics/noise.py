"""Noise and imperfection sources for the mixed-signal simulation.

The paper's accuracy claim ("within one degree", §6) is a *simulated*
claim; our reproduction is only honest if the simulation includes the
non-idealities that dominate a real front-end:

* thermal (white) noise on the pickup voltage,
* 1/f flicker noise from the comparators,
* comparator input offset and hysteresis spread,
* clock jitter on the 4.194304 MHz counter clock,
* quantisation from sampling the pulse-position signal with that clock.

All sources are seeded deterministically so every test and bench is
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from ..errors import ConfigurationError

#: Anything ``np.random.default_rng`` accepts as deterministic seed material.
Seed = Union[int, np.random.SeedSequence]

#: Boltzmann constant [J/K].
BOLTZMANN = 1.380649e-23


@dataclass(frozen=True)
class NoiseBudget:
    """Noise configuration for an analogue signal chain.

    Attributes
    ----------
    white_density:
        White-noise voltage density [V/√Hz] referred to the pickup output.
    flicker_corner_hz:
        Frequency below which 1/f noise dominates the white floor [Hz].
    comparator_offset_sigma:
        One-sigma spread of comparator input offset [V].
    clock_jitter_rms:
        RMS cycle-to-cycle jitter of the counter clock [s].
    """

    white_density: float = 0.0
    flicker_corner_hz: float = 0.0
    comparator_offset_sigma: float = 0.0
    clock_jitter_rms: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "white_density",
            "flicker_corner_hz",
            "comparator_offset_sigma",
            "clock_jitter_rms",
        ):
            if getattr(self, name) < 0.0:
                raise ConfigurationError(f"{name} must be non-negative")

    @property
    def is_noiseless(self) -> bool:
        return (
            self.white_density == 0.0
            and self.comparator_offset_sigma == 0.0
            and self.clock_jitter_rms == 0.0
        )


#: A quiet bench — the configuration the paper's own ELDO runs used.
NOISELESS = NoiseBudget()

#: A plausible CMOS front-end on the 1997-era Sea-of-Gates process:
#: ~50 nV/√Hz white floor, 1 kHz flicker corner, 2 mV comparator offset,
#: 100 ps clock jitter.
TYPICAL_1997_CMOS = NoiseBudget(
    white_density=50e-9,
    flicker_corner_hz=1e3,
    comparator_offset_sigma=2e-3,
    clock_jitter_rms=100e-12,
)


def thermal_noise_density(resistance: float, temperature_k: float = 300.0) -> float:
    """Johnson-Nyquist voltage noise density of a resistor [V/√Hz].

    The sensor's 77 Ω (measured) to 800 Ω (compliance limit) series
    resistance sets the irreducible noise floor of the pickup signal.
    """
    if resistance < 0.0 or temperature_k <= 0.0:
        raise ConfigurationError("resistance >= 0 and temperature > 0 required")
    return math.sqrt(4.0 * BOLTZMANN * temperature_k * resistance)


class NoiseGenerator:
    """Deterministic sampled-noise generator for a :class:`NoiseBudget`."""

    def __init__(self, budget: NoiseBudget, sample_rate_hz: float, seed: Seed = 0):
        if sample_rate_hz <= 0.0:
            raise ConfigurationError("sample rate must be positive")
        self.budget = budget
        self.sample_rate_hz = sample_rate_hz
        self._rng = np.random.default_rng(seed)
        self._flicker_state = 0.0

    def white(self, n: int) -> np.ndarray:
        """``n`` samples of white voltage noise [V] at the sample rate.

        Sampled white noise of density ``e_n`` over bandwidth ``fs/2`` has
        RMS ``e_n·sqrt(fs/2)``.
        """
        sigma = self.budget.white_density * math.sqrt(self.sample_rate_hz / 2.0)
        if sigma == 0.0:
            return np.zeros(n)
        return self._rng.normal(0.0, sigma, n)

    def flicker(self, n: int) -> np.ndarray:
        """``n`` samples of 1/f noise [V], matched to the white floor at
        the flicker corner frequency.

        Implemented as white noise through a single-pole leaky integrator
        whose pole sits at the flicker corner — a standard cheap
        approximation good to a few dB over the two decades we care about
        (8 kHz excitation down to ~10 Hz measurement rates).  The
        recurrence ``y[i] = alpha·y[i-1] + (1-alpha)·drive[i]`` runs as one
        ``lfilter`` call, bit-identical to evaluating it sample by sample,
        and its state carries across calls.
        """
        fc = self.budget.flicker_corner_hz
        if fc <= 0.0 or self.budget.white_density == 0.0:
            return np.zeros(n)
        # Imported here: scipy.signal is slow to load and a noiseless
        # compass never gets this far.
        from scipy.signal import lfilter

        alpha = math.exp(-2.0 * math.pi * fc / self.sample_rate_hz)
        drive_sigma = self.budget.white_density * math.sqrt(self.sample_rate_hz / 2.0)
        drive = self._rng.normal(0.0, drive_sigma, n)
        gain = 1.0 - alpha
        out, _ = lfilter(
            [gain], [1.0, -alpha], drive, zi=[alpha * self._flicker_state]
        )
        if n > 0:
            self._flicker_state = float(out[-1])
        # Normalise so the flicker PSD equals the white PSD at fc.
        return out / max(gain, 1e-12) * gain * math.sqrt(2.0)

    def voltage_noise(self, n: int) -> np.ndarray:
        """Combined white + flicker noise, ``n`` samples [V]."""
        return self.white(n) + self.flicker(n)

    def comparator_offset(self) -> float:
        """Draw one static comparator input offset [V]."""
        sigma = self.budget.comparator_offset_sigma
        if sigma == 0.0:
            return 0.0
        return float(self._rng.normal(0.0, sigma))

    def jittered_edges(self, nominal_edges: np.ndarray) -> np.ndarray:
        """Apply clock jitter to an array of nominal edge times [s]."""
        rms = self.budget.clock_jitter_rms
        edges = np.asarray(nominal_edges, dtype=float)
        if rms == 0.0 or edges.size == 0:
            return edges
        return edges + self._rng.normal(0.0, rms, edges.shape)
