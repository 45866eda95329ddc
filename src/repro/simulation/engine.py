"""Fixed-timestep mixed-signal simulation engine.

The compass is a chain of behavioural analogue blocks followed by
bit-accurate digital blocks.  The engine's job is small but load-bearing:

* build a **time grid** aligned to the 8 kHz excitation so that every
  measurement window contains an integer number of excitation periods
  (the up-down counter relies on symmetric windows to reject the 50 %
  no-field duty cycle), and
* run a chain of :class:`AnalogBlock` transforms over that grid while
  recording named traces for inspection — the Python equivalent of probing
  nets in the ELDO testbench the paper used.

Digital blocks do not run on the dense analogue grid.  They consume *edge
times* extracted from the detector output and quantise them against their
own 4.194304 MHz clock (:mod:`repro.digital.counter`), which is both faster
and closer to the hardware: the silicon counter never sees the analogue
waveform, only the comparator edges.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..units import EXCITATION_FREQUENCY_HZ
from .signals import Trace


class TimeGrid:
    """A uniform time axis spanning an integer number of excitation periods.

    Parameters
    ----------
    n_periods:
        Number of excitation periods to simulate.
    samples_per_period:
        Oversampling of the analogue waveforms.  4096 resolves the pickup
        pulse edges to ~30 ns at 8 kHz, an order of magnitude finer than the
        counter clock period (238 ns), so analogue-grid quantisation never
        dominates the modelled hardware quantiser.
    frequency_hz:
        Excitation frequency; defaults to the paper's 8 kHz.
    t_start:
        Offset of the first sample [s].
    """

    DEFAULT_SAMPLES_PER_PERIOD = 4096

    def __init__(
        self,
        n_periods: int,
        samples_per_period: int = DEFAULT_SAMPLES_PER_PERIOD,
        frequency_hz: float = EXCITATION_FREQUENCY_HZ,
        t_start: float = 0.0,
    ):
        if n_periods < 1:
            raise ConfigurationError("need at least one excitation period")
        if samples_per_period < 16:
            raise ConfigurationError("samples_per_period must be >= 16")
        if frequency_hz <= 0.0:
            raise ConfigurationError("frequency must be positive")
        self.n_periods = n_periods
        self.samples_per_period = samples_per_period
        self.frequency_hz = frequency_hz
        self.t_start = t_start

    @property
    def period(self) -> float:
        """Excitation period [s]."""
        return 1.0 / self.frequency_hz

    @property
    def dt(self) -> float:
        """Analogue timestep [s]."""
        return self.period / self.samples_per_period

    @property
    def duration(self) -> float:
        """Total simulated time [s]."""
        return self.n_periods * self.period

    @property
    def n_samples(self) -> int:
        return self.n_periods * self.samples_per_period

    def times(self, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """The time axis [s]; endpoint excluded so grids concatenate.

        ``start``/``stop`` select samples ``[start, stop)``, each
        bit-identical to the same sample of the full axis.
        """
        stop = self.n_samples if stop is None else stop
        return self.t_start + np.arange(start, stop) * self.dt

    def window(self) -> Tuple[float, float]:
        """(start, end) of the grid [s]."""
        return self.t_start, self.t_start + self.duration

    def trace(self, values: np.ndarray) -> Trace:
        """Wrap sample values into a :class:`Trace` on this grid."""
        return Trace(self.times(), values)


#: An analogue block: maps (grid, input trace or None) -> output trace.
AnalogBlock = Callable[[TimeGrid, Optional[Trace]], Trace]


class ProbeBoard:
    """Named trace storage — the simulation's oscilloscope channels."""

    def __init__(self) -> None:
        self._traces: Dict[str, Trace] = {}

    def record(self, name: str, trace: Trace) -> Trace:
        self._traces[name] = trace
        return trace

    def __getitem__(self, name: str) -> Trace:
        if name not in self._traces:
            known = ", ".join(sorted(self._traces)) or "<none>"
            raise ConfigurationError(f"no probe {name!r}; recorded: {known}")
        return self._traces[name]

    def __contains__(self, name: str) -> bool:
        return name in self._traces

    def names(self) -> List[str]:
        return sorted(self._traces)


class SimulationEngine:
    """Runs a pipeline of analogue blocks on a shared time grid.

    A deliberately thin orchestrator: each stage is a callable taking the
    grid and the previous stage's trace, and the engine records every
    intermediate under the stage's name.
    """

    def __init__(self, grid: TimeGrid):
        self.grid = grid
        self.probes = ProbeBoard()

    def run_chain(
        self, stages: Iterable[Tuple[str, AnalogBlock]], source: Optional[Trace] = None
    ) -> Trace:
        """Run ``stages`` in order, feeding each the previous output.

        Returns the final trace; all intermediates are available via
        :attr:`probes`.  Probes are committed to the board only once the
        whole chain has succeeded: a rejected call *or a stage raising
        mid-chain* leaves the probe board exactly as it was, so a failed
        run can never poison the next one with stale traces.
        """
        stage_list = list(stages)
        if not stage_list:
            raise ConfigurationError("run_chain needs at least one stage")
        trace = source
        staged: List[Tuple[str, Trace]] = []
        for name, block in stage_list:
            trace = block(self.grid, trace)
            if not isinstance(trace, Trace):
                raise ConfigurationError(f"stage {name!r} did not return a Trace")
            staged.append((name, trace))
        for name, recorded in staged:
            self.probes.record(name, recorded)
        assert trace is not None  # stage_list is non-empty and each stage returned a Trace
        return trace
