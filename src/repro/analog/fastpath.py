"""Closed-form pulse-timing fast path for the analog front-end.

The stepped engine simulates ~37k samples per measurement to find four
numbers per excitation period: the comparator release times that set and
reset the SR latch.  For a *noiseless* budget and the anhysteretic tanh
core those times are analytically computable — the §2.1 arithmetic
(``D = 1/2 + H_ext/(2·Ha)``) taken to edge-time precision:

* The triangular excitation maps time linearly to core field on each
  half-period ramp: ``H(t) = Ha·v_norm(t) + H0`` with
  ``H0 = H_offset + H_ext``, slewing at ``s = 2·Ha/(r·T)`` (rising) and
  ``2·Ha/((1−r)·T)`` (falling).
* The pickup pulse is the magnetisation law's differential permeability
  ridden along that ramp: ``y(t) = G·N_p·A·µ(H(t))·dH/dt`` with
  ``µ(H) = (Bs/HK)·sech²(H/HK)`` for the tanh core.
* A comparator level ``L`` therefore corresponds to a *field* crossing:
  ``µ(H) = L/(G·N_p·A·s)``, i.e. ``H = ±HK·arccosh(1/√q)`` with
  ``q = L·HK/(G·N_p·A·s·Bs)`` — invertible whenever ``0 < q < 1``
  (the pulse actually reaches the level).
* The release crossing (the trailing flank, the edge the SR latch uses)
  happens past the pulse centre: ``H = +H_cross`` on the rising ramp,
  ``H = −H_cross`` on the falling ramp.  Inverting the ramp gives the
  crossing time; the single-pole amplifier adds its discrete-filter ramp
  delay ``τ_d = α·Δt/(1−α)`` plus a curvature correction
  ``−(Var/2)·w''/w'`` (see :func:`_curvature_shift`), and the comparator
  its propagation delay.

The solver emits the same :class:`~repro.analog.pulse_detector
.DetectorOutput` edge stream the counter consumes — no sampled waveform
is ever materialised.  It *refuses* (returns ``None``) whenever the
closed form would not reproduce the stepped engine: noise in the budget,
a non-tanh core, soft-start or nonlinear excitation, an armed
analog-layer fault injector, or an external field that pushes a crossing
out of the guarded validity envelope.  The caller then silently runs the
stepped engine, so enabling the fast path can never change *what* is
measured — only how fast (timing agrees to well below one grid tick;
see ``docs/fastpath.md`` for the error budget).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..physics.magnetics import TanhCore
from ..simulation.engine import TimeGrid
from .excitation import overridden
from .pulse_detector import DetectorOutput, LogicEdge

#: Refuse when the comparator level is above this fraction of the pulse
#: peak: near the peak the level crossing becomes tangent and the stepped
#: engine's sample-grid detection of it is no longer sub-tick stable.
PEAK_MARGIN = 0.98

#: Guard distance between a crossing and a ramp corner, in amplifier
#: time constants — inside this zone the pure-delay model of the filter
#: breaks down (the response curls around the corner).
GUARD_FILTER_TAUS = 8.0

#: Additional guard in grid samples, so the stepped engine always has
#: bracketing samples strictly inside the ramp to interpolate between.
GUARD_GRID_SAMPLES = 4.0

#: Require the pulse field-scale time ``HK/s`` to exceed this many
#: amplifier time constants; a slower amplifier reshapes the pulse
#: instead of merely delaying it and the algebra stops being exact.
MIN_BANDWIDTH_RATIO = 20.0


@dataclass
class FastPathStats:
    """Bookkeeping of fast-path routing decisions on one front end."""

    attempted: int = 0
    used: int = 0
    fallbacks: Dict[str, int] = field(default_factory=dict)

    def record_fallback(self, reason: str) -> None:
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1

    @property
    def fallback_total(self) -> int:
        return sum(self.fallbacks.values())


def ineligibility_reason(front_end, sensor) -> Optional[str]:
    """Device-level reasons the closed form cannot be used (or ``None``).

    Field-dependent (per-measurement) validity is checked separately by
    the solver itself; this covers configuration and armed faults.
    """
    if not front_end.amplifier.budget.is_noiseless:
        return "noise-budget"
    if type(sensor.core) is not TanhCore:
        return "core-model"
    excitation = front_end.excitation
    if excitation.settings.soft_start_periods > 0.0:
        return "soft-start"
    for converter in excitation.converters.values():
        cp = converter.params
        if not cp.linearised and cp.cubic_distortion != 0.0:
            return "nonlinear-converter"
    detector = front_end.detector
    # Each scalar method is a one-row view of its batch kernel, so the
    # kernel is the one name per block a fault can wrap.
    if (
        overridden(sensor, "simulate_batch")
        or overridden(front_end.amplifier, "amplify_batch")
        or overridden(detector, "detect_batch")
        or overridden(detector.comparator_positive, "falling_edges_batch")
        or overridden(detector.comparator_negative, "falling_edges_batch")
        or excitation.fault_armed
    ):
        return "armed-fault"
    return None


def _filter_delay_tau_var2(amplifier, dt: float) -> tuple:
    """Delay, time constant and half-variance of the discrete filter.

    Mirrors :meth:`PickupAmplifier._lowpass`: no filtering when the
    bandwidth is ``None`` or at/above Nyquist of the grid.  The filter's
    impulse response ``(1−α)·α^k`` has mean delay ``α·Δt/(1−α)`` (exact
    for a ramp) and variance ``α·Δt²/(1−α)²``; half the variance is the
    coefficient of the curvature correction to a level-crossing time:
    ``y_f(t) ≈ y(t−τ_d) + (Var/2)·y''``, so the crossing shifts by an
    extra ``−(Var/2)·y''/y'``.
    """
    sample_rate = 1.0 / dt
    bandwidth = amplifier.bandwidth_hz
    if bandwidth is None or bandwidth >= sample_rate / 2.0:
        return 0.0, 0.0, 0.0
    alpha = math.exp(-2.0 * math.pi * bandwidth / sample_rate)
    one_minus = 1.0 - alpha
    delay = alpha * dt / one_minus
    var2 = 0.5 * alpha * dt * dt / (one_minus * one_minus)
    return delay, 1.0 / (2.0 * math.pi * bandwidth), var2


def _crossing(
    level: float, volts_per_mu: float, mu_max: float, hk: float
) -> Optional[tuple]:
    """Invert ``µ(H) = level/volts_per_mu`` on the tanh core, or ``None``.

    Returns ``(H_cross, q)``: the positive crossing field
    ``HK·arccosh(1/√q)`` and the level-to-peak ratio ``q = sech²`` at
    the crossing, when the pulse comfortably reaches the level
    (``0 < q ≤ PEAK_MARGIN``).
    """
    if volts_per_mu <= 0.0:
        return None
    q = level / (volts_per_mu * mu_max)
    if q <= 0.0 or q > PEAK_MARGIN:
        return None
    return hk * math.acosh(1.0 / math.sqrt(q)), q


def _curvature_shift(var2: float, slew: float, hk: float, q: float) -> float:
    """Second-order filter correction to a release-crossing time [s].

    On the pulse's trailing flank ``w''/w' = (s/HK)·(sech² − 2·tanh²)/
    tanh``; with ``sech² = q`` at the crossing this is
    ``(s/HK)·(3q − 2)/√(1−q)``, and the crossing shifts by
    ``−(Var/2)·w''/w'`` relative to the pure-delay model.
    """
    return var2 * (slew / hk) * (2.0 - 3.0 * q) / math.sqrt(1.0 - q)


def solve_channel_batch(
    front_end,
    sensor,
    channel: str,
    h_external: np.ndarray,
    grid: TimeGrid,
) -> Optional[List[DetectorOutput]]:
    """Closed-form detector outputs for a batch of external fields.

    Returns one :class:`DetectorOutput` per entry of ``h_external`` —
    equal to the stepped engine's output to well below one grid tick —
    or ``None`` when *any* entry leaves the validity envelope (the
    caller falls back to the stepped engine for the whole batch, keeping
    routing deterministic and trivially diffable).

    ``ineligibility_reason`` must have returned ``None`` first; this
    function only adds the geometry- and field-dependent checks.
    """
    excitation = front_end.excitation
    osc = excitation.oscillator.params
    # The compass builds its grid on the oscillator's own frequency; a
    # grid on any other clock would sample a non-periodic pattern.
    if grid.t_start != 0.0 or grid.frequency_hz != osc.frequency_hz:
        return None
    converter = excitation.converters[channel]
    params = sensor.params
    core_params = sensor.core.params

    gm = converter.params.transconductance
    # Stay clear of the compliance limit: at the margin the stepped
    # engine's sampled-peak check decides, so let it.
    peak_volts = abs(osc.amplitude) + abs(osc.residual_offset)
    if (
        params.series_resistance * abs(gm) * peak_volts
        >= converter.params.compliance_voltage
    ):
        return None

    coil = params.excitation_coil_constant
    h_amp = coil * gm * osc.amplitude
    if h_amp <= 0.0:
        return None
    h_offset = coil * gm * osc.residual_offset

    period = 1.0 / osc.frequency_hz
    rise = 0.5 * (1.0 + osc.slope_asymmetry)
    slew_rise = 2.0 * h_amp / (rise * period)
    slew_fall = 2.0 * h_amp / ((1.0 - rise) * period)

    bs = core_params.saturation_flux_density
    hk = core_params.anisotropy_field
    mu_max = bs / hk
    scale = front_end.amplifier.gain * params.pickup_turns * params.core_area
    delay, tau, var2 = _filter_delay_tau_var2(front_end.amplifier, grid.dt)
    if tau > 0.0 and (
        hk / slew_rise < MIN_BANDWIDTH_RATIO * tau
        or hk / slew_fall < MIN_BANDWIDTH_RATIO * tau
    ):
        return None

    pos = front_end.detector.comparator_positive.params
    neg = front_end.detector.comparator_negative.params
    release_rise = _crossing(pos.release_level, scale * slew_rise, mu_max, hk)
    trip_rise = _crossing(pos.trip_level, scale * slew_rise, mu_max, hk)
    release_fall = _crossing(neg.release_level, scale * slew_fall, mu_max, hk)
    trip_fall = _crossing(neg.trip_level, scale * slew_fall, mu_max, hk)
    if None in (release_rise, trip_rise, release_fall, trip_fall):
        return None
    h_release_rise, q_rise = release_rise
    h_release_fall, q_fall = release_fall
    h_trip_rise = trip_rise[0]
    h_trip_fall = trip_fall[0]
    shift_rise = _curvature_shift(var2, slew_rise, hk, q_rise)
    shift_fall = _curvature_shift(var2, slew_fall, hk, q_fall)

    guard_rise = (GUARD_FILTER_TAUS * tau + GUARD_GRID_SAMPLES * grid.dt) * slew_rise
    guard_fall = (GUARD_FILTER_TAUS * tau + GUARD_GRID_SAMPLES * grid.dt) * slew_fall
    h0 = np.asarray(h_external, dtype=float) + h_offset
    # Both crossings of both ramps must sit strictly inside the guarded
    # ramp: trip after the corner, release before the apex.
    valid = (
        (h0 <= h_amp - h_trip_rise - guard_rise)
        & (h0 >= h_release_rise - h_amp + guard_rise)
        & (h0 >= h_trip_fall - h_amp + guard_fall)
        & (h0 <= h_amp - h_release_fall - guard_fall)
    )
    if not bool(np.all(valid)):
        return None

    # Ramp inversion: normalised triangle value at the crossing → time.
    v_set = (h_release_rise - h0) / h_amp
    v_reset = (-h_release_fall - h0) / h_amp
    periods = np.arange(grid.n_periods, dtype=float) * period
    t_set = (
        periods[None, :]
        + (v_set[:, None] + 1.0) * (0.5 * rise * period)
        + (delay + shift_rise + pos.delay)
    )
    t_reset = (
        periods[None, :]
        + (rise + (1.0 - v_reset[:, None]) * 0.5 * (1.0 - rise)) * period
        + (delay + shift_fall + neg.delay)
    )
    window = (grid.t_start, grid.t_start + float(grid.n_samples - 1) * grid.dt)
    outputs: List[DetectorOutput] = []
    for row in range(h0.size):
        edges: List[LogicEdge] = []
        for j in range(grid.n_periods):
            edges.append(LogicEdge(float(t_set[row, j]), 1))
            edges.append(LogicEdge(float(t_reset[row, j]), 0))
        outputs.append(
            DetectorOutput(edges=tuple(edges), initial_value=0, window=window)
        )
    return outputs


def solve_channel(
    front_end,
    sensor,
    channel: str,
    h_external: float,
    grid: TimeGrid,
) -> Optional[DetectorOutput]:
    """Scalar wrapper around :func:`solve_channel_batch` (one field)."""
    outputs = solve_channel_batch(
        front_end, sensor, channel, np.array([h_external], dtype=float), grid
    )
    return None if outputs is None else outputs[0]
