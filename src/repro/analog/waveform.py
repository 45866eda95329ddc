"""Triangular waveform generator (§3.1, Figure 7).

The paper's oscillator is a relaxation type built on the Sea-of-Gates with
a 10 pF metal-metal capacitor; its 12.5 MΩ timing resistor is "realised on
the substrate of the MCM" because the array cannot hold such a value.  The
nominal time constant R·C = 12.5 MΩ · 10 pF = 125 µs is exactly the 8 kHz
period — the paper's component values encode the frequency directly.

"The linearity of the waveform is not very essential but the dc-offset is,
and is therefore corrected by measuring the average of the excitation
current."  The generator therefore models:

* frequency set by R·C with component tolerances,
* a raw DC offset plus a finite-gain correction loop that measures the
  waveform average and subtracts it,
* bounded non-linearity (slew asymmetry), which per the paper may be left
  uncorrected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from ..simulation.engine import TimeGrid
from ..simulation.signals import Trace
from ..units import OSCILLATOR_CAPACITANCE, OSCILLATOR_RESISTANCE


@dataclass(frozen=True)
class OscillatorParameters:
    """Component values and imperfections of the triangle oscillator.

    Attributes
    ----------
    capacitance:
        On-array timing capacitor [F] (10 pF in Figure 7).
    resistance:
        MCM-substrate timing resistor [Ω] (12.5 MΩ).
    amplitude:
        Peak output voltage of the triangle [V].
    raw_offset:
        Uncorrected DC offset of the waveform [V].
    offset_loop_gain:
        DC gain of the average-measuring correction loop; the residual
        offset is ``raw_offset / (1 + loop_gain)``.  0 disables correction.
    slope_asymmetry:
        Relative difference between rising and falling slopes
        (0.05 = rising 5 % faster); period is preserved.
    """

    capacitance: float = OSCILLATOR_CAPACITANCE
    resistance: float = OSCILLATOR_RESISTANCE
    amplitude: float = 1.0
    raw_offset: float = 0.0
    offset_loop_gain: float = 0.0
    slope_asymmetry: float = 0.0

    def __post_init__(self) -> None:
        if self.capacitance <= 0.0 or self.resistance <= 0.0:
            raise ConfigurationError("R and C must be positive")
        if self.amplitude <= 0.0:
            raise ConfigurationError("amplitude must be positive")
        if self.offset_loop_gain < 0.0:
            raise ConfigurationError("loop gain must be non-negative")
        if not -0.9 <= self.slope_asymmetry <= 0.9:
            raise ConfigurationError("slope asymmetry must be within ±0.9")

    @property
    def frequency_hz(self) -> float:
        """Oscillation frequency ``1/(R·C)`` [Hz]."""
        return 1.0 / (self.resistance * self.capacitance)

    @property
    def residual_offset(self) -> float:
        """DC offset after the correction loop [V]."""
        return self.raw_offset / (1.0 + self.offset_loop_gain)


class TriangularWaveformGenerator:
    """Behavioural triangle-wave source.

    The output is a voltage waveform; the V-I converters
    (:mod:`repro.analog.vi_converter`) turn it into the ±6 mA excitation
    current.
    """

    def __init__(self, params: OscillatorParameters = OscillatorParameters()):
        self.params = params

    def generate(
        self, grid: TimeGrid, start: int = 0, stop: Optional[int] = None
    ) -> Trace:
        """Produce the triangle on a time grid.

        The grid's frequency is ignored in favour of the oscillator's own
        R·C frequency — exactly like the silicon, where the digital section
        must tolerate the analogue oscillator's tolerance-dependent rate.
        ``start``/``stop`` select a sample window of the grid; every
        sample is computed on its own, so a window is bit-identical to
        the same samples of the full trace.
        """
        p = self.params
        t = grid.times(start, stop)
        period = 1.0 / p.frequency_hz
        # Phase within a period, starting at the negative peak so the first
        # rising ramp begins at t = 0 (matches the analytic timing oracles).
        phase = np.mod(t, period) / period

        rise_frac = 0.5 * (1.0 + p.slope_asymmetry)
        rising = phase < rise_frac
        v = np.empty_like(phase)
        v[rising] = -1.0 + 2.0 * phase[rising] / rise_frac
        v[~rising] = 1.0 - 2.0 * (phase[~rising] - rise_frac) / (1.0 - rise_frac)

        return Trace(t, v * p.amplitude + p.residual_offset)

    def measure_average(self, trace: Trace) -> float:
        """The correction loop's sensing element: the waveform average [V].

        §3.1: the DC offset "is therefore corrected by measuring the
        average of the excitation current" — exposed so tests can verify
        the loop actually nulls what it measures.
        """
        return trace.mean()
