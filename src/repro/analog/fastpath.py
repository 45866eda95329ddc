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

The solver emits its interleaved (set, reset) edge-times matrix as the
:class:`~repro.analog.pulse_detector.EdgeBlock` the counter and the
health review consume, one :class:`~repro.analog.pulse_detector
.DetectorOutput` view per row — no sampled waveform and no per-edge
object is ever materialised — and certifies it: the edge times agree
with the stepped engine to well below one grid tick, and every edge
close enough to a counter tick for that to matter is resolved to the
stepped edge exactly, so the counts are the stepped engine's.  It
*refuses* (returns ``None``) whenever the closed form would not
reproduce the stepped engine: noise in the budget, a non-tanh core,
soft-start or nonlinear excitation, an armed fault wrapping a method of
the signal chain, an external field that pushes a crossing out of the
guarded validity envelope, or an edge it cannot resolve.  The caller then runs
the stepped engine, so the fast path never changes *what* is measured —
only how fast (see ``docs/fastpath.md`` for the error budget and the
certificate).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Union

import numpy as np

from ..observe import M_FASTPATH, MetricsRegistry
from ..physics.magnetics import TanhCore
from ..simulation.engine import TimeGrid
from ..simulation.signals import TimeGradient
from .pulse_detector import DetectorOutput, EdgeBlock

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

#: Certification guard [s].  A closed-form edge closer than this to a
#: counter tick, or to the count-window end, might fall on the other
#: side of it in the stepped engine, so the solver resolves that edge
#: exactly (:class:`_ExactWindow`) instead of trusting it.  The solver
#: refuses any device whose modelled worst edge error
#: (:func:`_edge_error_bound`, the docs/fastpath.md §1 error budget)
#: exceeds half of it; the design point models 30 ps.  The counter tick
#: is 238 ns, so ~0.085 % of edges resolve.
TICK_GUARD_S = 100e-12

#: The resolver starts its two bounding filter trajectories (state
#: ``±M``) far enough ahead of the pulse centre for them to contract by
#: ``2**-COALESCE_BITS`` — below one ulp of the pulse flank — by the
#: time the comparator needs the true samples.
COALESCE_BITS = 60


@dataclass
class FastPathStats:
    """Bookkeeping of fast-path routing decisions on one front end.

    ``resolved`` counts the closed-form edges the certificate resolved
    exactly.  With ``metrics`` set, every row is also exported as
    ``fastpath_total{outcome, reason}``: ``used`` (reason ``none``) or
    ``fallback`` with its reason.
    """

    attempted: int = 0
    used: int = 0
    fallbacks: Dict[str, int] = field(default_factory=dict)
    resolved: int = 0
    metrics: Optional[MetricsRegistry] = field(
        default=None, repr=False, compare=False
    )

    def _export(self, outcome: str, reason: str, rows: int) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                M_FASTPATH,
                "front-end channel rows by fast-path outcome and reason",
                ("outcome", "reason"),
            ).inc(rows, outcome=outcome, reason=reason)

    def record_use(self, rows: int = 1) -> None:
        self.used += rows
        self._export("used", "none", rows)

    def record_fallback(self, reason: str, rows: int = 1) -> None:
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + rows
        self._export("fallback", reason, rows)

    @property
    def fallback_total(self) -> int:
        return sum(self.fallbacks.values())


class CountLattice(NamedTuple):
    """Where the up-down counter can tell edge times apart.

    Ticks fall at ``origin + k·tick`` and only edges inside
    ``[origin, end)`` are counted (:meth:`UpDownCounter.count_window`
    with its clock aligned to the window start).
    """

    origin: float
    end: float
    tick: float

    def near(self, times: np.ndarray) -> np.ndarray:
        """Mask of edge times within :data:`TICK_GUARD_S` of a tick or of
        the window end, in ``_ticks_in``'s own arithmetic.

        Edges outside the window are masked too when they sit near a
        lattice point: resolving one costs a little time, never a count.
        """
        ticks = (times - self.origin) / self.tick - 1e-12
        ticks -= np.rint(ticks)
        near = np.abs(ticks, out=ticks) < TICK_GUARD_S / self.tick
        near |= np.abs(times - self.end) < TICK_GUARD_S
        return near


def ineligibility_reason(front_end, sensor) -> Optional[str]:
    """Device-level reasons the closed form cannot be used (or ``None``).

    Field-dependent (per-measurement) validity is checked separately by
    the solver itself; this covers configuration and armed faults.  A
    fault armed on the compass (``front_end.armed_faults``) refuses the
    channel when it wraps a method of the channel's sensor, the
    amplifier, the detector, a comparator or the excitation source's
    parts: the closed form never calls those methods, so it cannot
    reproduce what the wrapper does.  A patched value (a sensor's
    ``params`` or ``pickup_scales``, the amplifier's ``output_offset``,
    a comparator's ``stuck`` flag) is read by the solver itself and
    stays on the fast path.
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
    armed = front_end.armed_faults
    detector = front_end.detector
    if armed and armed.wraps(
        sensor,
        front_end.amplifier,
        detector,
        detector.comparator_positive,
        detector.comparator_negative,
        *excitation.parts,
    ):
        return "armed-fault"
    return None


def _filter_delay_tau_var2(
    alpha: Optional[float], bandwidth: float, dt: float
) -> tuple:
    """Delay, time constant and half-variance of the discrete filter.

    Zero when the amplifier does not filter (``alpha`` is ``None``, see
    :meth:`PickupAmplifier.pole`).  The filter's impulse response
    ``(1−α)·α^k`` has mean delay ``α·Δt/(1−α)`` (exact for a ramp) and
    variance ``α·Δt²/(1−α)²``; half the variance is the coefficient of
    the curvature correction to a level-crossing time:
    ``y_f(t) ≈ y(t−τ_d) + (Var/2)·y''``, so the crossing shifts by an
    extra ``−(Var/2)·y''/y'``.
    """
    if alpha is None:
        return 0.0, 0.0, 0.0
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


@functools.lru_cache(maxsize=8)
def _axis_is_uniform(
    n_periods: int, samples_per_period: int, frequency_hz: float
) -> bool:
    """The stencil the stepped engine's :class:`TimeGradient` takes on the
    whole axis of a grid starting at 0 (a window must take the same)."""
    grid = TimeGrid(n_periods, samples_per_period, frequency_hz)
    return TimeGradient.is_uniform(grid.times())


class _ExactWindow:
    """The stepped chain of one channel, rebuilt on a short sample window.

    Resolves the edges the certificate does not trust to the stepped
    engine's edge time, bit for bit, by running the stepped engine's own
    arithmetic on samples ``[start, stop)`` only: the oscillator and
    converter, the sensor's ``simulate_batch`` with the whole axis's
    stencil (and its pickup scales), the amplifier's single-pole filter,
    gain and output offset, and the comparator's
    ``falling_edges_batch``.  Every stage but the filter is elementwise
    in time.  The filter's state entering the window is unknown, so it
    runs from both ends of a bound ``±M`` on it, in ``lfilter``'s float
    order (``y = z + b0·x``, ``z = 0·x − (−α)·y``).  That rounded
    recursion is monotone in its state, so once the two trajectories
    meet the true one is squeezed between them and equals them.
    """

    def __init__(
        self,
        front_end,
        sensor,
        channel: str,
        grid: TimeGrid,
        alpha: Optional[float],
        bound: float,
    ):
        self.oscillator = front_end.excitation.oscillator
        self.converter = front_end.excitation.converters[channel]
        self.sensor = sensor
        self.gain = front_end.amplifier.gain
        self.offset = front_end.amplifier.output_offset
        self.grid = grid
        self.uniform = _axis_is_uniform(
            grid.n_periods, grid.samples_per_period, grid.frequency_hz
        )
        self.alpha = alpha
        self.bound = bound
        self.coalesce = (
            0
            if self.alpha is None
            else math.ceil(COALESCE_BITS * math.log(2.0) / -math.log(self.alpha))
        )

    def _amplified(self, pickup: np.ndarray) -> Optional[tuple]:
        """``(first, values)``: the amplified samples from the first index
        at which the bounding trajectories coalesce, or ``None``.  The
        gain, then a non-zero output offset, is applied in
        ``PickupAmplifier.amplify_batch``'s order."""
        xs = pickup.tolist()
        first, values = 0, xs
        if self.alpha is not None:
            b0, a1 = 1.0 - self.alpha, -self.alpha
            low, high = -self.bound, self.bound
            for first, x in enumerate(xs):
                y_low = low + b0 * x
                y_high = high + b0 * x
                if y_low == y_high:
                    break
                low = 0.0 * x - a1 * y_low
                high = 0.0 * x - a1 * y_high
            else:
                return None
            values = [y_low]
            z = 0.0 * xs[first] - a1 * y_low
            for x in xs[first + 1:]:
                y = z + b0 * x
                values.append(y)
                z = 0.0 * x - a1 * y
        amplified = np.array(values)
        amplified *= self.gain
        if self.offset:
            amplified += self.offset
        return first, amplified

    def release_time(
        self, comparator, negate: bool, h: float, t_edge: float, lead: int
    ) -> Optional[float]:
        """The stepped release time of the comparator edge near ``t_edge``.

        ``lead`` is the number of samples from the pulse centre to the
        edge: the window opens :attr:`coalesce` samples before the
        centre, so the filter has coalesced while the comparator is
        still forced high.  ``None`` when that does not hold (or the
        window leaves the grid) — the caller then refuses.
        """
        grid = self.grid
        crossing = math.floor(
            (t_edge - comparator.params.delay - grid.t_start) / grid.dt
        )
        start = crossing - lead - self.coalesce
        stop = crossing + 3
        if start < 1 or stop > grid.n_samples - 1:
            return None
        # One sample either side so the stencil is the interior one.
        triangle = self.oscillator.generate(grid, start - 1, stop + 1)
        current = self.converter.drive(triangle, self.sensor.params.series_resistance)
        pickup = self.sensor.simulate_batch(
            current,
            np.array([h], dtype=float),
            TimeGradient(current.t, uniform=self.uniform),
        )
        filtered = self._amplified(pickup[0, 1:-1])
        if filtered is None:
            return None
        first, values = filtered
        level = -values[0] if negate else values[0]
        params = comparator.params
        # The window's comparator starts low; that is its true state only
        # on a forced sample (above trip is forced high, below release low).
        if params.release_level <= level <= params.trip_level:
            return None
        (edges,) = comparator.falling_edges_batch(
            values[None, :], current.t[1 + first:-1], negate
        )
        return float(edges[0]) if edges.size == 1 else None


@functools.lru_cache(maxsize=8)
def _latch_values(n_periods: int) -> np.ndarray:
    """The latch values every solved row shares, as one read-only
    :class:`EdgeBlock` row: set, reset, ... once per period."""
    values = np.tile(np.array([1, 0], dtype=np.int8), n_periods)[None, :]
    values.flags.writeable = False
    return values


def _edge_error_bound(
    q: float, slew: float, hk: float, dt: float, alpha: Optional[float]
) -> float:
    """Modelled worst |closed form − stepped| of a release edge [s].

    The sum of the leading terms the closed form leaves out, each scaled
    by the pulse's derivative ratios at the crossing (``sech² = q``,
    ``r = s/HK``): ``|w''/w'| = r·|3q−2|/√(1−q)`` and
    ``|w'''/w'| = r²·|4−12q|``.  Sampling contributes the central
    difference's ``Δt²/6`` and at most ``Δt²/8`` of linear
    interpolation, times ``|w''/w'|``; the filter contributes its
    impulse response's third cumulant ``κ3 = α(1+α)Δt³/(1−α)³``, over
    6, times ``|w'''/w'|``.
    """
    r = slew / hk
    bound = (
        dt * dt * (1.0 / 6.0 + 1.0 / 8.0) * r * abs(3.0 * q - 2.0) / math.sqrt(1.0 - q)
    )
    if alpha is not None:
        kappa3 = alpha * (1.0 + alpha) * dt**3 / (1.0 - alpha) ** 3
        bound += kappa3 / 6.0 * r * r * abs(4.0 - 12.0 * q)
    return bound


def solve_channel_batch(
    front_end,
    sensor,
    channel: str,
    h_external: np.ndarray,
    grid: TimeGrid,
    lattice: Optional[CountLattice] = None,
    stats: Optional[FastPathStats] = None,
) -> Optional[List[DetectorOutput]]:
    """Closed-form detector outputs for a batch of external fields.

    Returns one :class:`DetectorOutput` per entry of ``h_external`` —
    equal to the stepped engine's output to well below one grid tick —
    or ``None`` when *any* entry leaves the validity envelope (the
    caller falls back to the stepped engine for the whole batch, keeping
    routing deterministic and trivially diffable).

    With a ``lattice`` the outputs are certified: every edge within
    :data:`TICK_GUARD_S` of a counter tick or of the count-window end
    is replaced by the stepped engine's exact edge time
    (:class:`_ExactWindow`), so the counter reads the stepped engine's
    counts.  An edge that cannot be resolved refuses the batch
    (``tick-margin``).  ``stats``, when given, receives the refusal
    reason for every row, or the number of resolved edges.

    ``ineligibility_reason`` must have returned ``None`` first; this
    function only adds the geometry- and field-dependent checks.
    """
    h = np.asarray(h_external, dtype=float)
    solved = _solve(front_end, sensor, channel, h, grid, lattice)
    if isinstance(solved, str):
        if stats is not None:
            stats.record_fallback(solved, h.size)
        return None
    outputs, resolved = solved
    if stats is not None:
        stats.resolved += resolved
    return outputs


def _solve(
    front_end,
    sensor,
    channel: str,
    h_external: np.ndarray,
    grid: TimeGrid,
    lattice: Optional[CountLattice],
) -> Union[tuple, str]:
    """``(outputs, resolved edge count)``, or the reason for refusing."""
    envelope = "validity-envelope"
    excitation = front_end.excitation
    osc = excitation.oscillator.params
    # The compass builds its grid on the oscillator's own frequency; a
    # grid on any other clock would sample a non-periodic pattern.
    if grid.t_start != 0.0 or grid.frequency_hz != osc.frequency_hz:
        return envelope
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
        return envelope

    coil = params.excitation_coil_constant
    h_amp = coil * gm * osc.amplitude
    if h_amp <= 0.0:
        return envelope
    h_offset = coil * gm * osc.residual_offset

    period = 1.0 / osc.frequency_hz
    rise = 0.5 * (1.0 + osc.slope_asymmetry)
    slew_rise = 2.0 * h_amp / (rise * period)
    slew_fall = 2.0 * h_amp / ((1.0 - rise) * period)

    bs = core_params.saturation_flux_density
    hk = core_params.anisotropy_field
    mu_max = bs / hk
    amplifier = front_end.amplifier
    pickup_gain = math.prod(sensor.pickup_scales)
    scale = amplifier.gain * params.pickup_turns * params.core_area * pickup_gain
    # The stepped filter's sample rate: Trace.sample_rate on this grid.
    alpha = amplifier.pole(1.0 / grid.dt)
    delay, tau, var2 = _filter_delay_tau_var2(alpha, amplifier.bandwidth_hz, grid.dt)
    if tau > 0.0 and (
        hk / slew_rise < MIN_BANDWIDTH_RATIO * tau
        or hk / slew_fall < MIN_BANDWIDTH_RATIO * tau
    ):
        return envelope

    detector = front_end.detector
    # With both comparators stuck there is no edge stream at all: the
    # stepped detector raises, so let it.
    stuck = (detector.comparator_positive.stuck, detector.comparator_negative.stuck)
    if all(stuck):
        return envelope
    pos = detector.comparator_positive.params
    neg = detector.comparator_negative.params
    # The output offset sits on the pulse, so each comparator's levels
    # move against it (the negative one watches the inverted pickup).
    offset = amplifier.output_offset
    release_rise = _crossing(pos.release_level - offset, scale * slew_rise, mu_max, hk)
    trip_rise = _crossing(pos.trip_level - offset, scale * slew_rise, mu_max, hk)
    release_fall = _crossing(neg.release_level + offset, scale * slew_fall, mu_max, hk)
    trip_fall = _crossing(neg.trip_level + offset, scale * slew_fall, mu_max, hk)
    if None in (release_rise, trip_rise, release_fall, trip_fall):
        return envelope
    h_release_rise, q_rise = release_rise
    h_release_fall, q_fall = release_fall
    h_trip_rise = trip_rise[0]
    h_trip_fall = trip_fall[0]
    if max(
        _edge_error_bound(q_rise, slew_rise, hk, grid.dt, alpha),
        _edge_error_bound(q_fall, slew_fall, hk, grid.dt, alpha),
    ) > 0.5 * TICK_GUARD_S:
        return envelope
    shift_rise = _curvature_shift(var2, slew_rise, hk, q_rise)
    shift_fall = _curvature_shift(var2, slew_fall, hk, q_fall)

    guard_rise = (GUARD_FILTER_TAUS * tau + GUARD_GRID_SAMPLES * grid.dt) * slew_rise
    guard_fall = (GUARD_FILTER_TAUS * tau + GUARD_GRID_SAMPLES * grid.dt) * slew_fall
    h0 = h_external + h_offset
    # Both crossings of both ramps must sit strictly inside the guarded
    # ramp: trip after the corner, release before the apex.
    valid = (
        (h0 <= h_amp - h_trip_rise - guard_rise)
        & (h0 >= h_release_rise - h_amp + guard_rise)
        & (h0 >= h_trip_fall - h_amp + guard_fall)
        & (h0 <= h_amp - h_release_fall - guard_fall)
    )
    if not bool(np.all(valid)):
        return envelope

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
    # Interleaved (set, reset) pairs: each row's edges in time order.
    times = np.empty((h0.size, 2 * grid.n_periods))
    times[:, 0::2] = t_set
    times[:, 1::2] = t_reset
    values = _latch_values(grid.n_periods)
    initial = np.zeros(h0.size, dtype=np.int8)
    # A stuck comparator's edge stream is empty, so the SR latch keeps
    # the other stream's first edge only, holding the opposite value
    # before it (``PulsePositionDetector._latch``).  ``skip`` is the
    # column of that edge, and the parity of each kept column's kind.
    skip = 1 if stuck[0] else 0
    if any(stuck):
        times = times[:, skip:skip + 1].copy()
        values = np.array([[1 - skip]], dtype=np.int8)
        initial += skip

    resolved = 0
    if lattice is not None:
        near = lattice.near(times)
        if near.any():
            rows, cols = np.nonzero(near)
            # The filter state never exceeds the pickup's peak
            # N_p·A·µmax·s times the pickup scales (a convex average of
            # it); twice that is M.
            bound = 2.0 * params.pickup_turns * params.core_area * mu_max * max(
                slew_rise, slew_fall
            ) * pickup_gain
            resolver = _ExactWindow(front_end, sensor, channel, grid, alpha, bound)
            # (comparator, negate, centre-to-edge samples) per edge kind.
            kinds = (
                (detector.comparator_positive, False,
                 round(h_release_rise / (slew_rise * grid.dt))),
                (detector.comparator_negative, True,
                 round(h_release_fall / (slew_fall * grid.dt))),
            )
            for row, col in zip(rows.tolist(), cols.tolist()):
                comparator, negate, lead = kinds[(col + skip) % 2]
                exact = resolver.release_time(
                    comparator, negate, float(h_external[row]),
                    float(times[row, col]), lead,
                )
                if exact is None:
                    return "tick-margin"
                times[row, col] = exact
            resolved = rows.size

    window = (grid.t_start, grid.t_start + float(grid.n_samples - 1) * grid.dt)
    # Read-only: compasses sharing one solve share the block.
    for array in (times, values, initial):
        array.flags.writeable = False
    block = EdgeBlock(times, values, initial, window)
    return block.rows(), resolved


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
