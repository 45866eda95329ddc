"""Signal traces and waveform utilities for the mixed-signal simulation.

The analogue half of the compass is simulated the way the paper's authors
simulated it — as behavioural waveforms on a fixed time grid (they used
Anacad ELDO; we use numpy arrays).  A :class:`Trace` couples a time vector
with a sample vector and provides the waveform measurements every block
needs: threshold crossings with sub-sample interpolation, duty cycles,
amplitude/frequency estimates.

Sub-sample crossing interpolation matters: the pulse-position method encodes
the measurand *in the timing of edges*, so naive sample-index edges would
add quantisation noise that the real hardware does not have (the hardware's
quantiser is the 4.194304 MHz counter clock, modelled separately in
:mod:`repro.digital.counter`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigurationError


@dataclass
class Trace:
    """A sampled analogue or digital waveform.

    Attributes
    ----------
    t:
        Sample times [s], strictly increasing, uniform spacing assumed by
        the spectral helpers.
    v:
        Sample values (volts, amperes, A/m, or logic levels 0.0/1.0).
    """

    t: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        self.t = np.asarray(self.t, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.t.ndim != 1 or self.v.ndim != 1:
            raise ConfigurationError("trace arrays must be one-dimensional")
        if self.t.shape != self.v.shape:
            raise ConfigurationError("time and value arrays must match in length")
        if self.t.size >= 2 and not np.all(np.diff(self.t) > 0.0):
            raise ConfigurationError("trace time axis must be strictly increasing")

    # -- basic properties ---------------------------------------------------

    def __len__(self) -> int:
        return self.t.size

    @property
    def dt(self) -> float:
        """Nominal sample spacing [s]."""
        if self.t.size < 2:
            raise ConfigurationError("trace too short to define a timestep")
        return float(self.t[1] - self.t[0])

    @property
    def duration(self) -> float:
        """Total span of the time axis [s]."""
        if self.t.size == 0:
            return 0.0
        return float(self.t[-1] - self.t[0])

    @property
    def sample_rate(self) -> float:
        """Sampling rate [Hz]."""
        return 1.0 / self.dt

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Trace") -> "Trace":
        self._check_aligned(other)
        return Trace(self.t, self.v + other.v)

    def __sub__(self, other: "Trace") -> "Trace":
        self._check_aligned(other)
        return Trace(self.t, self.v - other.v)

    def scaled(self, gain: float, offset: float = 0.0) -> "Trace":
        """Return ``gain·v + offset`` on the same time axis."""
        return Trace(self.t, self.v * gain + offset)

    def _check_aligned(self, other: "Trace") -> None:
        if self.t.shape != other.t.shape or not np.allclose(self.t, other.t):
            raise ConfigurationError("traces are not on the same time grid")

    # -- waveform measurements ------------------------------------------------

    def derivative(self) -> "Trace":
        """Numerical time derivative (central differences)."""
        return Trace(self.t, np.gradient(self.v, self.t))

    def mean(self) -> float:
        return float(np.mean(self.v))

    def peak_to_peak(self) -> float:
        return float(np.max(self.v) - np.min(self.v))

    def rms(self) -> float:
        return float(np.sqrt(np.mean(self.v**2)))

    def crossing_times(
        self, threshold: float = 0.0, direction: str = "rising"
    ) -> np.ndarray:
        """Times at which the waveform crosses ``threshold``.

        ``direction`` is ``"rising"``, ``"falling"`` or ``"both"``.  Crossing
        instants are linearly interpolated between the bracketing samples.
        """
        if direction not in ("rising", "falling", "both"):
            raise ConfigurationError(f"bad crossing direction {direction!r}")
        above = self.v > threshold
        change = np.diff(above.astype(np.int8))
        if direction == "rising":
            idx = np.nonzero(change == 1)[0]
        elif direction == "falling":
            idx = np.nonzero(change == -1)[0]
        else:
            idx = np.nonzero(change != 0)[0]
        if idx.size == 0:
            return np.empty(0)
        v0 = self.v[idx]
        v1 = self.v[idx + 1]
        t0 = self.t[idx]
        t1 = self.t[idx + 1]
        frac = (threshold - v0) / (v1 - v0)
        return t0 + frac * (t1 - t0)

    def duty_cycle(self, threshold: float = 0.5) -> float:
        """Fraction of time the waveform is above ``threshold``.

        Uses interpolated crossings so the answer is exact for trapezoidal
        logic waveforms, not just sample-counted.
        """
        if self.t.size < 2:
            raise ConfigurationError("trace too short for a duty cycle")
        rising = self.crossing_times(threshold, "rising")
        falling = self.crossing_times(threshold, "falling")
        t_start, t_end = float(self.t[0]), float(self.t[-1])
        events = [(t, +1) for t in rising] + [(t, -1) for t in falling]
        events.sort()
        state = self.v[0] > threshold
        high_time = 0.0
        t_prev = t_start
        for t_event, kind in events:
            if state:
                high_time += t_event - t_prev
            state = kind == +1
            t_prev = t_event
        if state:
            high_time += t_end - t_prev
        return high_time / (t_end - t_start)

    def fundamental_frequency(self) -> float:
        """Estimate the fundamental frequency from mean-crossing spacing [Hz]."""
        crossings = self.crossing_times(self.mean(), "rising")
        if crossings.size < 2:
            raise ConfigurationError("not enough crossings to estimate frequency")
        return float(1.0 / np.mean(np.diff(crossings)))

    def slice_time(self, t_start: float, t_end: float) -> "Trace":
        """Return the sub-trace with ``t_start <= t <= t_end``."""
        mask = (self.t >= t_start) & (self.t <= t_end)
        if not np.any(mask):
            raise ConfigurationError("time slice selects no samples")
        return Trace(self.t[mask], self.v[mask])

    def sample_at(self, times: np.ndarray) -> np.ndarray:
        """Linear-interpolated values at arbitrary times."""
        return np.interp(np.asarray(times, dtype=float), self.t, self.v)

    def harmonic_amplitude(self, fundamental_hz: float, harmonic: int) -> float:
        """Amplitude of the n-th harmonic via single-bin DFT correlation.

        Used by the second-harmonic readout baseline
        (:mod:`repro.sensors.second_harmonic`): classic fluxgate
        electronics demodulate the pickup at ``2·f_exc``.
        """
        if harmonic < 1:
            raise ConfigurationError("harmonic index must be >= 1")
        if fundamental_hz <= 0.0:
            raise ConfigurationError("fundamental frequency must be positive")
        omega = 2.0 * np.pi * fundamental_hz * harmonic
        # Integrate over an integer number of fundamental periods for an
        # unbiased single-bin estimate.
        period = 1.0 / fundamental_hz
        n_periods = int(np.floor(self.duration / period))
        if n_periods < 1:
            raise ConfigurationError("trace shorter than one fundamental period")
        sub = self.slice_time(self.t[0], self.t[0] + n_periods * period)
        integrate = getattr(np, "trapezoid", None) or np.trapz
        cos_corr = integrate(sub.v * np.cos(omega * sub.t), sub.t)
        sin_corr = integrate(sub.v * np.sin(omega * sub.t), sub.t)
        span = sub.duration
        return float(2.0 * np.hypot(cos_corr, sin_corr) / span)


class TimeGradient:
    """Reusable ``d/dt`` operator for waveform batches on one time axis.

    ``np.gradient(v, t)`` re-derives its finite-difference coefficients
    from ``t`` on every call; for a batch of waveforms sharing a time axis
    that work is identical each time.  This precomputes the coefficients
    once and applies them to an ``(N, n_samples)`` matrix row-wise,
    reproducing ``np.gradient``'s arithmetic (including its uniform-spacing
    fast path and ``edge_order=1`` endpoints) bit-for-bit.
    """

    def __init__(self, t: np.ndarray, uniform: Optional[bool] = None):
        t = np.asarray(t, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ConfigurationError("gradient needs a 1-D time axis of >= 2 samples")
        dx = np.diff(t)
        if not np.all(dx > 0.0):
            raise ConfigurationError("time axis must be strictly increasing")
        self.t = t
        self._dx = dx
        # ``uniform`` pins the stencil of a window cut from a longer axis
        # to the one the whole axis takes (see :meth:`is_uniform`).
        self._uniform = self.is_uniform(t) if uniform is None else uniform
        if not self._uniform and t.size >= 3:
            dx1, dx2 = dx[:-1], dx[1:]
            self._a = -dx2 / (dx1 * (dx1 + dx2))
            self._b = (dx2 - dx1) / (dx1 * dx2)
            self._c = dx1 / (dx2 * (dx1 + dx2))
        #: One row of interior-stencil scratch, reused by every apply:
        #: fresh temporaries cost page faults on every call, and a row
        #: (not a per-shape matrix) keeps a long-lived operator small.
        self._row_tmp: Optional[np.ndarray] = None

    @staticmethod
    def is_uniform(t: np.ndarray) -> bool:
        """Whether ``t`` takes ``np.gradient``'s uniform-spacing stencil."""
        dx = np.diff(t)
        return bool(np.all(dx == dx[0]))

    def apply(
        self, values: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Time derivative of each row of ``values`` (``(N, n)`` or ``(n,)``).

        ``out`` optionally receives the result in place (the batch engine
        passes a persistent buffer to avoid reallocating per chunk).
        """
        V = np.asarray(values, dtype=float)
        squeeze = V.ndim == 1
        if squeeze:
            V = V[None, :]
        if V.ndim != 2 or V.shape[1] != self.t.size:
            raise ConfigurationError("values do not match the gradient's time axis")
        dx = self._dx
        if out is None:
            out = np.empty_like(V)
        elif out.shape != V.shape:
            raise ConfigurationError("gradient output buffer has the wrong shape")
        if V.shape[1] == 2:
            out[:, 0] = out[:, 1] = (V[:, 1] - V[:, 0]) / dx[0]
        elif self._uniform:
            out[:, 1:-1] = (V[:, 2:] - V[:, :-2]) / (2.0 * dx[0])
            out[:, 0] = (V[:, 1] - V[:, 0]) / dx[0]
            out[:, -1] = (V[:, -1] - V[:, -2]) / dx[-1]
        else:
            if self._row_tmp is None:
                self._row_tmp = np.empty(V.shape[1] - 2)
            tmp = self._row_tmp
            for v, o in zip(V, out):
                interior = o[1:-1]
                np.multiply(self._a, v[:-2], out=interior)
                np.multiply(self._b, v[1:-1], out=tmp)
                interior += tmp
                np.multiply(self._c, v[2:], out=tmp)
                interior += tmp
            out[:, 0] = (V[:, 1] - V[:, 0]) / dx[0]
            out[:, -1] = (V[:, -1] - V[:, -2]) / dx[-1]
        return out[0] if squeeze else out


@dataclass(frozen=True)
class PulseEvent:
    """A detected pickup pulse.

    Attributes
    ----------
    time:
        Pulse centre estimate [s].
    polarity:
        +1 for a positive pulse (core leaving negative saturation),
        -1 for a negative pulse.
    peak:
        Peak pulse amplitude [V], signed.
    width:
        Time between the threshold crossings that bracket the pulse [s].
    """

    time: float
    polarity: int
    peak: float
    width: float


def find_pulses(trace: Trace, threshold: float) -> Tuple[PulseEvent, ...]:
    """Locate positive and negative pulses in a pickup-voltage trace.

    A positive pulse is a region where ``v > +threshold``; a negative pulse
    a region where ``v < -threshold``.  Regions still open at the trace
    boundaries are discarded (they belong to a partially captured pulse).
    """
    if threshold <= 0.0:
        raise ConfigurationError("pulse threshold must be positive")
    events = []
    for polarity in (+1, -1):
        flipped = Trace(trace.t, trace.v * polarity)
        rising = flipped.crossing_times(threshold, "rising")
        falling = flipped.crossing_times(threshold, "falling")
        for t_on in rising:
            later = falling[falling > t_on]
            if later.size == 0:
                continue
            t_off = float(later[0])
            mask = (trace.t >= t_on) & (trace.t <= t_off)
            if not np.any(mask):
                peak = polarity * threshold
            else:
                segment = trace.v[mask] * polarity
                peak = polarity * float(np.max(segment))
            events.append(
                PulseEvent(
                    time=0.5 * (t_on + t_off),
                    polarity=polarity,
                    peak=peak,
                    width=t_off - t_on,
                )
            )
    events.sort(key=lambda e: e.time)
    return tuple(events)
