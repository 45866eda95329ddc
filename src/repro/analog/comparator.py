"""Comparators and the pickup amplifier of the pulse-position detector path.

The pulse-position detector (§3.2) watches the pickup voltage with two
comparators — one for the positive pulses, one for the negative — whose
edges drive an SR latch.  The comparator model includes the imperfections
that matter to edge timing:

* static input offset (drawn from the noise budget),
* hysteresis (needed to avoid chatter on noisy pulses),
* propagation delay (a common-mode shift of both edges — duty-cycle
  neutral, but modelled for completeness).

The micro-machined pickup delivers only millivolt pulses, so a gain stage
precedes the comparators; its input-referred noise is where the noise
budget enters the timing chain.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..physics.noise import NoiseBudget, NoiseGenerator, NOISELESS
from ..simulation.scratch import scratch
from ..simulation.signals import Trace

#: Pickup-amplifier voltage gain [V/V] (``FrontEndConfig.amplifier_gain``).
AMPLIFIER_GAIN = 100.0


@dataclass(frozen=True)
class ComparatorParameters:
    """Electrical parameters of one comparator.

    Attributes
    ----------
    threshold:
        Nominal switching threshold [V] (sign selects pulse polarity).
    hysteresis:
        Full hysteresis width [V]; the comparator trips at
        ``threshold + hysteresis/2`` and releases at
        ``threshold − hysteresis/2``.
    offset:
        Static input-referred offset [V].
    delay:
        Propagation delay [s].
    """

    threshold: float
    hysteresis: float = 0.0
    offset: float = 0.0
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.hysteresis < 0.0 or self.delay < 0.0:
            raise ConfigurationError("hysteresis and delay must be non-negative")

    @property
    def trip_level(self) -> float:
        """Input level that drives the output high [V]."""
        return self.threshold + self.offset + self.hysteresis / 2.0

    @property
    def release_level(self) -> float:
        """Input level that drives the output low [V]."""
        return self.threshold + self.offset - self.hysteresis / 2.0


@functools.lru_cache(maxsize=8)
def _event_codes(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only per-column event codes ``(set, reset)`` of an ``n``-sample
    grid, for the parity-accumulate state machine.

    Odd codes mark a "forced high" sample, even codes "forced low";
    later columns always carry larger codes, so a running maximum yields
    the most recent forcing event and its parity is the Schmitt-trigger
    state.  int32 comfortably holds 2n+3 and halves the matrix memory
    traffic.
    """
    set_codes = (2 * np.arange(n, dtype=np.int64) + 3).astype(np.int32)
    reset_codes = set_codes - np.int32(1)
    set_codes.flags.writeable = False
    reset_codes.flags.writeable = False
    return set_codes, reset_codes


class Comparator:
    """Threshold comparator with hysteresis, offset and delay.

    The output is a true Schmitt trigger: it goes high only when the
    input exceeds the trip level and low only when it falls below the
    release level — the hold band in between preserves the previous
    state.  This matters under noise: a plain level-crossing detector
    would report spurious "falling edges" wherever noise dips the rising
    flank of a pulse below the release level, even though the comparator
    had not yet tripped.
    """

    def __init__(self, params: ComparatorParameters):
        self.params = params
        #: A stuck comparator never releases: :meth:`falling_edges_batch`
        #: returns an empty edge stream for every row (the stuck
        #: comparator fault sets it).
        self.stuck = False

    def _state_matrix(
        self, values: np.ndarray, times: np.ndarray, negate: bool
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Schmitt-trigger state (0/1, int8) of every sample of every row.

        Returns ``(parity, change)``: the state matrix and an uninitialised
        ``(N, n_samples − 1)`` bool buffer for the caller's edge compare.
        For more than one row both are buffers of the process-wide
        :func:`~repro.simulation.scratch.scratch` workspace, shared by
        every comparator (so the caller reads them before the next
        call), as are the forcing masks and the encoded matrix they are
        built from; every element is written before it is read.  The
        per-grid event codes are cached read-only.  Before its first
        forcing sample a row holds the reset state (low).
        """
        p = self.params
        V = values
        if V.ndim != 2 or V.shape[1] != times.size:
            raise ConfigurationError(
                "the comparator needs an (N, n_samples) matrix on the "
                "shared time axis"
            )
        rows, n = V.shape
        # A one-row call (a scalar measurement, or an exact window of
        # any length) keeps no code table, so it cannot evict a sweep's.
        codes = _event_codes if rows > 1 else _event_codes.__wrapped__
        set_codes, reset_codes = codes(n)
        forced_high = scratch("comparator.forced_high", V.shape, bool)
        forced_low = scratch("comparator.forced_low", V.shape, bool)
        encoded = scratch("comparator.encoded", V.shape, np.int32)
        parity = scratch("comparator.parity", V.shape, np.int8)
        change = scratch("comparator.change", (rows, max(n - 1, 0)), bool)
        if negate:
            np.less(V, -p.trip_level, out=forced_high)
            np.greater(V, -p.release_level, out=forced_low)
        else:
            np.greater(V, p.trip_level, out=forced_high)
            np.less(V, p.release_level, out=forced_low)
        # bool × int32 is the masked select: reset code where forced low,
        # zero elsewhere (bit-identical to np.where, without allocating).
        np.multiply(forced_low, reset_codes, out=encoded)
        np.copyto(encoded, np.broadcast_to(set_codes, encoded.shape), where=forced_high)
        np.maximum.accumulate(encoded, axis=1, out=encoded)
        # The parity (state) is 0/1, so narrowing to int8 is exact and
        # quarters the memory traffic of the edge-detection compare.
        np.bitwise_and(encoded, 1, out=parity)
        return parity, change

    def _edges_batch(
        self, values: np.ndarray, times: np.ndarray, negate: bool, rising: bool
    ) -> List[np.ndarray]:
        """Output transition times per row, with sub-sample interpolation."""
        p = self.params
        V = values
        parity, change = self._state_matrix(V, times, negate)
        if rising:
            np.less(parity[:, :-1], parity[:, 1:], out=change)
            level = p.trip_level
        else:
            np.greater(parity[:, :-1], parity[:, 1:], out=change)
            level = p.release_level
        # flatnonzero on the contiguous view is a single pass — an order
        # of magnitude faster than 2-D nonzero for these sparse edges.
        rows, cols = divmod(np.flatnonzero(change.ravel()), change.shape[1])
        v0 = V[rows, cols]
        v1 = V[rows, cols + 1]
        if negate:
            v0 = -v0
            v1 = -v1
        t0 = times[cols]
        t1 = times[cols + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(v1 != v0, (level - v0) / (v1 - v0), 0.0)
        frac = np.clip(frac, 0.0, 1.0)
        edge_times = t0 + frac * (t1 - t0) + p.delay
        splits = np.searchsorted(rows, np.arange(1, V.shape[0]))
        return np.split(edge_times, splits)

    def falling_edges_batch(
        self, values: np.ndarray, times: np.ndarray, negate: bool = False
    ) -> List[np.ndarray]:
        """Release times [s] of each row of an ``(N, n_samples)`` matrix.

        Each row is an independent waveform sharing the ``times`` axis;
        the result is one edge-time array per row.  ``negate=True``
        evaluates the comparator on ``-v`` without materialising the
        negated matrix (the pulse-position detector's negative comparator
        watches the inverted pickup).  A :attr:`stuck` comparator returns
        an empty array per row without looking at the values.
        """
        if self.stuck:
            return [np.empty(0) for _ in range(values.shape[0])]
        return self._edges_batch(values, times, negate, rising=False)

    # -- one-row views --------------------------------------------------------

    def compare(self, signal: Trace) -> Trace:
        """Produce the logic output trace (0.0 / 1.0) for an input trace."""
        parity, _ = self._state_matrix(signal.v[None, :], signal.t, False)
        out = parity[0].astype(float)
        if self.params.delay > 0.0:
            return Trace(signal.t + self.params.delay, out)
        return Trace(signal.t, out)

    def rising_edges(self, signal: Trace) -> np.ndarray:
        """Times at which the output trips high [s]."""
        return self._edges_batch(signal.v[None, :], signal.t, False, rising=True)[0]

    def falling_edges(self, signal: Trace) -> np.ndarray:
        """Times at which the output releases low [s]."""
        return self.falling_edges_batch(signal.v[None, :], signal.t)[0]


@functools.lru_cache(maxsize=8)
def _steady_state(alpha: float) -> np.ndarray:
    """Read-only ``lfilter_zi`` of the single-pole band limit with pole
    ``alpha``: the filter state of a unit step in steady state.

    It is not exactly ``alpha`` in floats, so it is computed (once per
    pole) rather than replaced by ``alpha``.  ``scipy.signal`` is
    imported on the first call only (the default fast-path engine never
    filters a waveform).
    """
    from scipy.signal import lfilter_zi

    zi = lfilter_zi([1.0 - alpha], [1.0, -alpha])
    zi.flags.writeable = False
    return zi


class PickupAmplifier:
    """Gain stage between the pickup coil and the comparators.

    The voltage gain is the fixed :data:`AMPLIFIER_GAIN` (the
    :attr:`gain` attribute).  :attr:`output_offset` [V] is a static
    offset at the output, ``0.0`` unless an amplifier-offset fault is
    armed (an input-referred offset times the gain).

    Parameters
    ----------
    budget:
        Noise budget; white + flicker noise is injected input-referred.
        Every :meth:`amplify` call draws a *fresh* noise realization from
        a persistent stream (``SeedSequence((seed, draw_index))``), so the
        two multiplexed channels and successive measurements see
        statistically independent noise while the whole run stays
        reproducible from ``seed``.
    seed:
        RNG seed for reproducible noise.
    bandwidth_hz:
        Single-pole −3 dB bandwidth of the stage.  This is load-bearing
        for the noise analysis: sampled white noise otherwise integrates
        over the *simulation* bandwidth (tens of MHz), producing
        comparator chatter no real front-end would see.  1 MHz passes the
        ~10 µs pickup pulses essentially undistorted while bounding the
        noise to a physical value.  ``None`` disables filtering.
    """

    def __init__(
        self,
        budget: NoiseBudget = NOISELESS,
        seed: int = 0,
        bandwidth_hz: float = 1.0e6,
    ):
        if bandwidth_hz is not None and bandwidth_hz <= 0.0:
            raise ConfigurationError("bandwidth must be positive or None")
        self.gain = AMPLIFIER_GAIN
        self.output_offset = 0.0
        self.budget = budget
        self.bandwidth_hz = bandwidth_hz
        self._seed = seed
        self._noise_draws = 0

    # -- noise stream ---------------------------------------------------------

    @property
    def noise_draws(self) -> int:
        """Number of noise realizations drawn so far (the stream position)."""
        return self._noise_draws

    def noise_realization(
        self, n: int, sample_rate: float, draw_index: int
    ) -> np.ndarray:
        """The ``draw_index``-th input-referred noise realization [V].

        Realizations are independent across draw indices but fully
        determined by ``(seed, draw_index)`` — the batch engine uses this
        for random access into the same stream the scalar path consumes
        sequentially.
        """
        generator = NoiseGenerator(
            self.budget,
            sample_rate,
            np.random.SeedSequence((self._seed, draw_index)),
        )
        return generator.voltage_noise(n)

    def consume_noise_draws(self, count: int) -> int:
        """Advance the stream position by ``count`` draws; returns the old
        position (the base index of the consumed block)."""
        if count < 0:
            raise ConfigurationError("cannot consume a negative draw count")
        base = self._noise_draws
        self._noise_draws += count
        return base

    # -- signal path ----------------------------------------------------------

    def pole(self, sample_rate: float) -> Optional[float]:
        """The band limit's pole ``α`` at ``sample_rate``, or ``None`` when
        the stage does not filter (no bandwidth, or one at/above Nyquist).

        The filter is ``y[n] = α·y[n−1] + (1−α)·x[n]``.
        """
        if self.bandwidth_hz is None or self.bandwidth_hz >= sample_rate / 2.0:
            return None
        return math.exp(-2.0 * math.pi * self.bandwidth_hz / sample_rate)

    def _lowpass(self, values: np.ndarray, sample_rate: float) -> np.ndarray:
        """Single-pole band limit along each row of an (N, n_samples) matrix."""
        alpha = self.pole(sample_rate)
        if alpha is None:
            return values
        from scipy.signal import lfilter

        zi = _steady_state(alpha) * values[:, :1]
        out, _ = lfilter([1.0 - alpha], [1.0, -alpha], values, axis=-1, zi=zi)
        return out

    def amplify(self, signal: Trace) -> Trace:
        """Band-limit, amplify and add input-referred noise.

        A one-row :meth:`amplify_batch` that draws the next realization
        of the noise stream.
        """
        draws = None
        if not self.budget.is_noiseless:
            draws = [self.consume_noise_draws(1)]
        amplified = self.amplify_batch(signal.v[None, :], signal.sample_rate, draws)
        return Trace(signal.t, amplified[0])

    def amplify_batch(
        self,
        values: np.ndarray,
        sample_rate: float,
        draw_indices: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Amplify an ``(N, n_samples)`` matrix of pickup waveforms.

        ``draw_indices`` assigns one noise-stream index per row so a batch
        can replicate exactly the draws a sequence of :meth:`amplify` calls
        would have made (it does **not** advance the stream — the caller
        accounts for the block with :meth:`consume_noise_draws`).  Ignored
        for a noiseless budget.  A non-zero :attr:`output_offset` is added
        after the gain.  A noisy budget sums pickup and noise in a
        :func:`~repro.simulation.scratch.scratch` buffer that the filter
        (or the gain) consumes into a fresh result.
        """
        if values.ndim != 2:
            raise ConfigurationError("amplify_batch needs an (N, n_samples) matrix")
        if not self.budget.is_noiseless:
            if draw_indices is None or len(draw_indices) != values.shape[0]:
                raise ConfigurationError(
                    "amplify_batch needs one noise draw index per row"
                )
            noisy = scratch("amplifier.noisy", values.shape)
            for row, index in enumerate(draw_indices):
                noisy[row] = values[row] + self.noise_realization(
                    values.shape[1], sample_rate, index
                )
            values = noisy
        filtered = self._lowpass(values, sample_rate)
        if filtered is values:
            filtered = filtered * self.gain
        else:
            filtered *= self.gain
        if self.output_offset:
            filtered += self.output_offset
        return filtered
