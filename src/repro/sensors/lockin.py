"""Synchronous (lock-in) demodulation for the second-harmonic readout.

The classic fluxgate electronics the paper argues against (§2.1) do not
just measure the 2nd-harmonic *amplitude* — they demodulate the pickup
synchronously at ``2·f_exc`` with a phase reference derived from the
excitation, which is what recovers the field's *sign*.  This module
implements that chain honestly:

* quadrature reference generation at the n-th harmonic of the
  excitation,
* multiplication and integration over whole excitation periods (an
  ideal integrate-and-dump low-pass),
* phase calibration against a known field, after which the in-phase
  output is a signed, linear field measure.

Used by the PPOS1 comparison and by
:class:`~repro.sensors.second_harmonic.SecondHarmonicReadout` as the
proper demodulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, ProtocolError
from ..simulation.signals import Trace


@dataclass(frozen=True)
class DemodulationResult:
    """Output of one synchronous demodulation.

    Attributes
    ----------
    in_phase:
        Component along the calibrated reference phase [V].
    quadrature:
        Component 90° from it [V].
    """

    in_phase: float
    quadrature: float

    @property
    def magnitude(self) -> float:
        return math.hypot(self.in_phase, self.quadrature)


class LockInDemodulator:
    """Quadrature lock-in at a harmonic of the excitation frequency.

    Parameters
    ----------
    fundamental_hz:
        The excitation frequency the references are derived from.
    harmonic:
        Which harmonic to demodulate (2 for fluxgates).
    """

    def __init__(self, fundamental_hz: float, harmonic: int = 2):
        if fundamental_hz <= 0.0:
            raise ConfigurationError("fundamental frequency must be positive")
        if harmonic < 1:
            raise ConfigurationError("harmonic must be >= 1")
        self.fundamental_hz = fundamental_hz
        self.harmonic = harmonic
        self._phase_offset_rad = 0.0

    # -- core demodulation ---------------------------------------------------

    def _integrate(self, signal: Trace) -> DemodulationResult:
        period = 1.0 / self.fundamental_hz
        n_periods = int(np.floor(signal.duration / period))
        if n_periods < 1:
            raise ConfigurationError(
                "signal shorter than one excitation period"
            )
        sub = signal.slice_time(
            signal.t[0], signal.t[0] + n_periods * period
        )
        omega = 2.0 * np.pi * self.fundamental_hz * self.harmonic
        phase = omega * sub.t + self._phase_offset_rad
        integrate = getattr(np, "trapezoid", None) or np.trapz
        span = sub.duration
        in_phase = 2.0 * integrate(sub.v * np.cos(phase), sub.t) / span
        quadrature = 2.0 * integrate(sub.v * np.sin(phase), sub.t) / span
        return DemodulationResult(float(in_phase), float(quadrature))

    def demodulate(self, signal: Trace) -> DemodulationResult:
        """Demodulate one pickup trace with the current phase reference."""
        return self._integrate(signal)

    # -- phase calibration ------------------------------------------------------

    def calibrate_phase(self, reference_signal: Trace) -> float:
        """Rotate the reference so a known-positive field is all in-phase.

        Returns the applied phase rotation [rad].  After calibration,
        ``demodulate(...).in_phase`` is a signed field measure and the
        quadrature channel carries only distortion.
        """
        raw = self._integrate(reference_signal)
        if raw.magnitude < 1e-15:
            raise ProtocolError(
                "phase calibration signal contains no component at the "
                f"{self.harmonic}ᵗʰ harmonic"
            )
        # With references cos(ωt+φ0)/sin(ωt+φ0), a signal at phase ψ
        # demodulates to (cos(ψ−φ0), −sin(ψ−φ0)); rotating the offset to
        # ψ therefore needs the *negated* quadrature in the atan2.
        rotation = math.atan2(-raw.quadrature, raw.in_phase)
        self._phase_offset_rad += rotation
        return rotation


class SynchronousFieldReadout:
    """Complete lock-in field readout for a fluxgate sensor.

    The honest version of the second-harmonic baseline: sensor →
    lock-in at 2·f_exc → signed in-phase output → field estimate through
    a one-point gain calibration.
    """

    def __init__(self, sensor, fundamental_hz: float):
        self.sensor = sensor
        self.lockin = LockInDemodulator(fundamental_hz, harmonic=2)
        self._gain: float = 0.0  # A/m per volt

    def calibrate(self, current: Trace, h_reference: float) -> None:
        """Phase + gain calibration with one known positive field."""
        if h_reference <= 0.0:
            raise ConfigurationError(
                "calibration field must be positive (sets the sign)"
            )
        waves = self.sensor.simulate(current, h_reference)
        self.lockin.calibrate_phase(waves.pickup_voltage)
        result = self.lockin.demodulate(waves.pickup_voltage)
        if abs(result.in_phase) < 1e-15:
            raise ProtocolError("no in-phase response after calibration")
        self._gain = h_reference / result.in_phase

    def measure(self, current: Trace, h_external: float) -> float:
        """Measure a field; the sign comes from the demodulator phase."""
        if self._gain == 0.0:
            raise ProtocolError("readout must be calibrated first")
        waves = self.sensor.simulate(current, h_external)
        result = self.lockin.demodulate(waves.pickup_voltage)
        return result.in_phase * self._gain
