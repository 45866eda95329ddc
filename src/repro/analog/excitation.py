"""The complete excitation current source (§3.1).

Composes the triangle oscillator and the two V-I converters into the block
of Figure 1 that feeds the sensors: one oscillator shared by both channels
("only one oscillator is needed" thanks to multiplexing, §2), a converter
per sensor, and the DC-offset correction loop that measures the average of
the excitation current — plus :class:`ExcitationTraceCache`, which
builds each distinct excitation trace once for every stepped measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..observe import M_CACHE_EVENTS, MetricsRegistry
from ..simulation.engine import TimeGrid
from ..simulation.signals import TimeGradient, Trace
from ..units import EXCITATION_CURRENT_PP
from .vi_converter import VIConverter, VIConverterParameters
from .waveform import OscillatorParameters, TriangularWaveformGenerator

if TYPE_CHECKING:
    from .frontend import ArmedFaults


@dataclass(frozen=True)
class ExcitationSettings:
    """Top-level excitation targets from the paper.

    Attributes
    ----------
    current_pp:
        Target excitation current, peak-to-peak [A] (12 mA, §3.1).
    oscillator:
        Oscillator parameter set.
    converter:
        V-I converter parameter set; its transconductance is derived so
        the oscillator amplitude maps to the target current.
    soft_start_periods:
        Enable transient of the power-gated V-I converter: the output
        envelope ramps from zero over this many excitation periods after
        the channel is enabled.  0 models an ideal instant-on source;
        ~0.5 is realistic for a gated bias network and is the physical
        reason the measurement schedule discards settle periods.
    """

    current_pp: float = EXCITATION_CURRENT_PP
    oscillator: OscillatorParameters = field(default_factory=OscillatorParameters)
    converter: VIConverterParameters = field(default_factory=VIConverterParameters)
    soft_start_periods: float = 0.0

    def __post_init__(self) -> None:
        if self.current_pp <= 0.0:
            raise ConfigurationError("excitation current must be positive")
        if self.soft_start_periods < 0.0:
            raise ConfigurationError("soft start must be non-negative")

    @property
    def current_amplitude(self) -> float:
        """Peak current (half the peak-to-peak) [A]."""
        return self.current_pp / 2.0


class ExcitationSource:
    """Oscillator + two V-I converters + offset correction (Figure 1 left).

    Parameters
    ----------
    settings:
        Electrical targets; the converter transconductance is recomputed
        from the oscillator amplitude so that the triangle's ±amplitude
        maps exactly onto ±current_amplitude.
    """

    CHANNELS = ("x", "y")

    def __init__(self, settings: Optional[ExcitationSettings] = None):
        settings = ExcitationSettings() if settings is None else settings
        gm = settings.current_amplitude / settings.oscillator.amplitude
        converter_params = replace(settings.converter, transconductance=gm)
        self.settings = settings
        self.oscillator = TriangularWaveformGenerator(settings.oscillator)
        self.converters = {name: VIConverter(converter_params) for name in self.CHANNELS}
        self._enabled = True

    # -- power gating --------------------------------------------------------

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False
        for conv in self.converters.values():
            conv.disable()

    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def parts(self) -> Tuple[object, ...]:
        """The source and the blocks its current is built from: a fault
        wrapping :meth:`current`, the oscillator's ``generate`` or a
        converter's ``drive`` wraps a method of one of these."""
        return (self, self.oscillator, *self.converters.values())

    def select_channel(self, channel: str) -> None:
        """Enable exactly one converter — the multiplexing of §2.

        "The system uses a multiplexing technique by exciting one sensor at
        a time.  This reduces both momental power consumption and chip
        area since only one oscillator is needed."
        """
        if channel not in self.converters:
            raise ConfigurationError(f"unknown channel {channel!r}")
        for name, conv in self.converters.items():
            if name == channel:
                conv.enable()
            else:
                conv.disable()

    # -- signal generation -----------------------------------------------------

    def current(
        self, grid: TimeGrid, channel: str, load_resistance: float
    ) -> Trace:
        """Excitation current delivered to one sensor [A].

        Raises :class:`repro.errors.ComplianceError` if the sensor's series
        resistance exceeds what the 5 V supply can drive (800 Ω at 6 mA).
        """
        if channel not in self.converters:
            raise ConfigurationError(f"unknown channel {channel!r}")
        if not self._enabled:
            triangle = self.oscillator.generate(grid)
            return Trace(triangle.t, triangle.v * 0.0)
        triangle = self.oscillator.generate(grid)
        current = self.converters[channel].drive(triangle, load_resistance)
        soft = self.settings.soft_start_periods
        if soft > 0.0:
            ramp_time = soft / self.oscillator.params.frequency_hz
            envelope = (current.t - current.t[0]) / ramp_time
            envelope = np.clip(envelope, 0.0, 1.0)
            current = Trace(current.t, current.v * envelope)
        return current

    def both_currents(
        self, grid: TimeGrid, load_resistance: float
    ) -> Tuple[Trace, Trace]:
        """Currents of both channels with the current enable state.

        Used by the power bench to contrast multiplexed operation (one
        channel live) with a hypothetical simultaneous-drive design.
        """
        return (
            self.current(grid, "x", load_resistance),
            self.current(grid, "y", load_resistance),
        )

    def measured_offset(self, grid: TimeGrid, channel: str, load_resistance: float) -> float:
        """Average of the excitation current — the §3.1 correction signal [A]."""
        return self.current(grid, channel, load_resistance).mean()


@dataclass(frozen=True)
class ExcitationTrace:
    """One excitation-current trace plus its finite-difference operator."""

    current: Trace
    gradient: TimeGradient


class ExcitationTraceCache:
    """Bounded LRU cache of excitation traces for the stepped engine.

    :meth:`ExcitationSource.current` is a pure function of the oscillator
    parameters, the channel converter's parameters, the soft-start
    setting, the grid geometry and the load resistance — not of the
    measurand — so exactly those values form the key.  The channel name
    is not part of it: both converters are built from one parameter set
    (one oscillator multiplexed through identical converters, §2), so
    the x and y channels share an entry, and so do equally configured
    compasses.

    Each entry holds the current (its ``t``/``v`` arrays read-only, since
    every caller shares them) and a :class:`TimeGradient` on its time
    axis.  A lookup computes the trace without storing it when the source
    or the channel's converter is powered down or the caller's armed
    record (:class:`~repro.analog.frontend.ArmedFaults`) holds a fault
    wrapping one of the source's :attr:`~ExcitationSource.parts`: those
    traces are not functions of the key.
    """

    #: At most this many traces are retained (least recently used goes
    #: first).  x and y share an entry, so a compass needs one per grid
    #: and load; a few cover a scenario's temperature steps while a
    #: long-lived process stays bounded.
    CAPACITY = 4

    def __init__(self) -> None:
        self._entries: Dict[Tuple, ExcitationTrace] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(
        source: ExcitationSource,
        grid: TimeGrid,
        channel: str,
        load_resistance: float,
    ) -> Tuple:
        return (
            source.oscillator.params,
            source.converters[channel].params,
            source.settings.soft_start_periods,
            grid.n_periods,
            grid.samples_per_period,
            grid.frequency_hz,
            grid.t_start,
            load_resistance,
        )

    def entry(
        self,
        source: ExcitationSource,
        grid: TimeGrid,
        channel: str,
        load_resistance: float,
        metrics: Optional[MetricsRegistry] = None,
        armed: Optional["ArmedFaults"] = None,
    ) -> ExcitationTrace:
        """The excitation trace/gradient, computing it on a miss.

        ``metrics`` (the caller's registry, if any) counts the lookup in
        ``excitation_cache_total`` by event: hit, miss or bypass.
        ``armed`` is the faults armed on the source's compass.
        """
        converter = source.converters.get(channel)
        if (
            converter is None
            or not (source.enabled and converter.enabled)
            or (armed and armed.wraps(*source.parts))
        ):
            event = "bypass"
            current = source.current(grid, channel, load_resistance)
            trace = ExcitationTrace(current, TimeGradient(current.t))
        else:
            key = self.key(source, grid, channel, load_resistance)
            trace = self._entries.pop(key, None)
            if trace is None:
                self.misses += 1
                event = "miss"
                current = source.current(grid, channel, load_resistance)
                current.t.flags.writeable = False
                current.v.flags.writeable = False
                trace = ExcitationTrace(current, TimeGradient(current.t))
            else:
                self.hits += 1
                event = "hit"
            # (Re-)insert so dict order tracks recency: oldest first.
            while len(self._entries) >= self.CAPACITY:
                self._entries.pop(next(iter(self._entries)))
            self._entries[key] = trace
        if metrics is not None:
            metrics.counter(
                M_CACHE_EVENTS,
                "excitation-trace cache lookups, by outcome",
                ("event",),
            ).inc(event=event)
        return trace

    def __len__(self) -> int:
        return len(self._entries)


#: The cache every compass uses unless it is handed another one.
DEFAULT_TRACE_CACHE = ExcitationTraceCache()
