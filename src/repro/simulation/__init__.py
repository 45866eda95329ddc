"""Mixed-signal simulation substrate: traces, time grids, VCD dumps."""

from .engine import TimeGrid
from .signals import PulseEvent, Trace, find_pulses
from .vcd import VCDWriter

__all__ = [
    "PulseEvent",
    "TimeGrid",
    "Trace",
    "VCDWriter",
    "find_pulses",
]
