"""Behavioural fluxgate sensor model (§2.1 of the paper).

The fluxgate "is a form of transformer, which is deliberately driven into
saturation periodically with a symmetrical excitation field".  The model
implements exactly that transformer:

* the excitation current ``i(t)`` produces a core field
  ``H_exc = (N_exc / l) · i``,
* an external field component ``H_ext`` (the earth's field projected on
  the sensor axis) adds to it,
* the core magnetisation law turns the total field into a flux density
  ``B(H_exc + H_ext)``,
* the pickup coil sees ``V_pick = -N_pick · A · dB/dt`` — the voltage
  pulses of Figure 3d whose *positions in time* carry the measurand,
* the excitation coil sees ``V_exc = i·R + N_exc·A·dB/dt + L_leak·di/dt``
  — reproducing Figure 4's visible "change in impedance of the excitation
  coil, when saturation is reached".

Pulse-position arithmetic (the analytic ground truth used by tests):

With a symmetric triangular excitation of peak field ``Ha`` and period
``T``, the core crosses zero total field when ``H_exc(t) = -H_ext``.  The
detector output is high between the positive-pulse and negative-pulse
events, giving a duty cycle

    D = 1/2 + H_ext / (2·Ha)

so the up-down counter integrates to a count proportional to ``H_ext``
(see :mod:`repro.digital.counter`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..physics.magnetics import MagnetisationModel, make_core
from ..simulation.scratch import scratch
from ..simulation.signals import TimeGradient, Trace
from .parameters import FluxgateParameters


@dataclass
class SensorWaveforms:
    """All probe-able waveforms of one excitation run.

    Attributes
    ----------
    excitation_current:
        The driving current [A].
    core_field:
        Total field in the core, excitation + external [A/m].
    flux_density:
        Core flux density [T].
    pickup_voltage:
        Voltage across the (open-circuit) pickup coil [V].
    excitation_voltage:
        Voltage across the excitation coil [V] — resistive plus the
        core-coupled inductive component that collapses in saturation.
    """

    excitation_current: Trace
    core_field: Trace
    flux_density: Trace
    pickup_voltage: Trace
    excitation_voltage: Trace


class FluxgateSensor:
    """One fluxgate sensing element driven through its excitation coil.

    Parameters
    ----------
    params:
        Electromagnetic parameters (see :mod:`repro.sensors.parameters`).
    core_model:
        Magnetisation-law registry name: ``"piecewise"``, ``"tanh"``
        (default — the ELDO-style behavioural model) or
        ``"jiles-atherton"`` (hysteretic, for ablations).
    """

    def __init__(self, params: FluxgateParameters, core_model: str = "tanh"):
        self.params = params
        self.core: MagnetisationModel = make_core(core_model, params.core)
        self.core_model_name = core_model
        #: Pickup gain factors of armed faults (shorted turns, axis gain
        #: loss), in arming order; :meth:`simulate_batch` multiplies the
        #: pickup by each in turn.
        self.pickup_scales: Tuple[float, ...] = ()

    # -- elementary transforms -------------------------------------------------

    def excitation_field(self, current: Trace) -> Trace:
        """Core field produced by the excitation current [A/m]."""
        return current.scaled(self.params.excitation_coil_constant)

    def simulate(self, current: Trace, h_external: float = 0.0) -> SensorWaveforms:
        """Run one excitation waveform through the sensor.

        Parameters
        ----------
        current:
            Excitation current trace [A].
        h_external:
            External field component along the sensor axis [A/m].

        Returns
        -------
        SensorWaveforms
            Every internal waveform, on the input's time grid.
        """
        p = self.params
        self.core.reset()
        h_total = self.excitation_field(current).scaled(1.0, h_external)
        b = np.asarray(self.core.flux_density(h_total.v), dtype=float)
        flux = Trace(current.t, b)
        db_dt = flux.derivative()
        di_dt = current.derivative()

        # Winding sense: the pickup is wound so that the core's rising flux
        # induces a *positive* pulse.  (Faraday gives ±N·A·dB/dt; the sign
        # is a winding choice, and this orientation makes the detector's
        # set-on-positive-pulse convention yield duty = ½ + H_ext/(2·Ha).)
        pickup = db_dt.scaled(p.pickup_turns * p.core_area)
        excitation_voltage = Trace(
            current.t,
            current.v * p.series_resistance
            + p.excitation_turns * p.core_area * db_dt.v
            + p.leakage_inductance * di_dt.v,
        )
        return SensorWaveforms(
            excitation_current=current,
            core_field=h_total,
            flux_density=flux,
            pickup_voltage=pickup,
            excitation_voltage=excitation_voltage,
        )

    def simulate_batch(
        self,
        current: Trace,
        h_external: np.ndarray,
        gradient: Optional[TimeGradient] = None,
    ) -> np.ndarray:
        """Pickup voltages for a batch of external fields, ``(N, n_samples)``.

        Row ``i`` is bit-identical to
        ``simulate(current, h_external[i]).pickup_voltage.v``; the other
        :class:`SensorWaveforms` members (excitation voltage, di/dt) are
        not computed — the measurement chain only consumes the pickup.
        A hysteretic core integrates sample by sample, so its rows run
        one :meth:`simulate` call at a time (from a reset core each) into
        a fresh matrix.  Either way the pickup is then multiplied by each
        of :attr:`pickup_scales` in turn (``pickup *= s``); the waveform
        probe :meth:`simulate` never applies them.

        For an anhysteretic core a multi-row result is a buffer of the
        process-wide :func:`~repro.simulation.scratch.scratch` workspace:
        it is valid until the next multi-row call of the same shape on
        *any* sensor, so consume (or copy) it at once, as the stepped
        chain does (``IntegratedCompass._channel_rows`` amplifies it
        before the next call).  A one-row result is a fresh array.

        Parameters
        ----------
        current:
            Shared excitation current trace [A].
        h_external:
            External field per row [A/m], shape ``(N,)``.
        gradient:
            Optional precomputed :class:`TimeGradient` for ``current.t``
            (built on the fly when omitted).
        """
        p = self.params
        h = np.asarray(h_external, dtype=float)
        if h.ndim != 1:
            raise ConfigurationError("h_external must be a 1-D array of fields")
        if self.core.is_hysteretic:
            pickup = np.stack([
                self.simulate(current, float(x)).pickup_voltage.v for x in h
            ])
            for scale in self.pickup_scales:
                pickup *= scale
            return pickup
        shape = (h.size, current.t.size)
        h_total = scratch("fluxgate.field", shape)
        np.add(current.v * p.excitation_coil_constant, h[:, None], out=h_total)
        b = self.core.flux_density_into(h_total, out=h_total)
        if gradient is None:
            gradient = TimeGradient(current.t)
        db_dt = gradient.apply(b, out=scratch("fluxgate.pickup", shape))
        db_dt *= p.pickup_turns * p.core_area
        for scale in self.pickup_scales:
            db_dt *= scale
        return db_dt

    # -- analytic helpers (used as test oracles) -------------------------------

    def peak_pickup_voltage(self, current_amplitude: float, frequency_hz: float) -> float:
        """Analytic peak pickup voltage for a triangular drive [V].

        At the zero crossing of the total field the differential
        permeability is ``Bs/HK``; the triangular field slews at
        ``4·Ha·f``, so the pulse peaks at ``N·A·(Bs/HK)·4·Ha·f``.
        """
        p = self.params
        h_amp = p.excitation_coil_constant * current_amplitude
        slew = 4.0 * h_amp * frequency_hz
        mu_peak = p.core.saturation_flux_density / p.core.anisotropy_field
        return p.pickup_turns * p.core_area * mu_peak * slew

    def expected_duty_cycle(
        self, current_amplitude: float, h_external: float
    ) -> float:
        """Analytic detector duty cycle ``1/2 + H_ext/(2·Ha)``.

        Only valid when the drive saturates the core
        (``drive_ratio > 1``) and the external field does not push the
        zero crossing off the excitation ramp
        (``|H_ext| < Ha - HK`` for clean, full-amplitude pulses).
        """
        if not self.params.saturates_with(current_amplitude):
            raise ConfigurationError(
                f"{self.params.name}: drive amplitude {current_amplitude} A "
                "does not saturate the core; no pulses are produced"
            )
        h_amp = self.params.excitation_coil_constant * current_amplitude
        return 0.5 + h_external / (2.0 * h_amp)

    def field_from_duty_cycle(
        self, duty: float, current_amplitude: float
    ) -> float:
        """Invert :meth:`expected_duty_cycle`: duty → H_ext [A/m]."""
        h_amp = self.params.excitation_coil_constant * current_amplitude
        return (duty - 0.5) * 2.0 * h_amp

    def sensitivity(self, current_amplitude: float) -> float:
        """Duty-cycle change per unit external field [per (A/m)].

        ``dD/dH_ext = 1/(2·Ha)`` — the *electrical* sensitivity falls with
        drive amplitude, but below ``drive_ratio ≈ 2`` the pulses weaken
        and detection fails; bench SENS1 maps the resulting optimum.
        """
        h_amp = self.params.excitation_coil_constant * current_amplitude
        if h_amp <= 0.0:
            raise ConfigurationError("current amplitude must be positive")
        return 1.0 / (2.0 * h_amp)

    def measurable_field_range(self, current_amplitude: float) -> float:
        """Largest |H_ext| that keeps both pulses on the ramps [A/m].

        Beyond ``Ha - HK`` the core no longer reaches one of its
        saturation states every half period and the pulse pair collapses.
        """
        p = self.params
        h_amp = p.excitation_coil_constant * current_amplitude
        return max(0.0, h_amp - p.core.anisotropy_field)
