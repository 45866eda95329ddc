"""The complete analogue front-end of Figure 1.

"The system comprises of a analogue front-end which excites the sensors
with a triangular waveform and converts the resulting sensor output to
measurable digital signals."

One :class:`AnalogFrontEnd` owns the excitation source, the pickup
amplifier and the pulse-position detector, and runs a single-channel
measurement: grid in, detector edges (plus all intermediate waveforms)
out.  The digital back-end never touches anything in this module except
the :class:`~repro.analog.pulse_detector.DetectorOutput` — exactly the
"very simple communication between the analogue and digital part" the
pulse-position method was chosen for (§2.1).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..errors import ConfigurationError
from ..physics.noise import NoiseBudget, NOISELESS
from ..sensors.fluxgate import FluxgateSensor, SensorWaveforms
from ..simulation.engine import TimeGrid
from ..simulation.signals import Trace
from .excitation import ExcitationSettings, ExcitationSource
from .fastpath import FastPathStats
from .mux import SensorMultiplexer
from .comparator import AMPLIFIER_GAIN, PickupAmplifier
from .pulse_detector import DetectorOutput, DetectorParameters, PulsePositionDetector


@dataclass
class ChannelMeasurement:
    """Everything produced by one single-channel front-end run."""

    channel: str
    waveforms: SensorWaveforms
    amplified_pickup: Trace
    detector_output: DetectorOutput

    @property
    def duty_cycle(self) -> float:
        return self.detector_output.duty_cycle()


class ArmedFaults:
    """The fault patches armed on one compass, counted.

    The fault registry's arming seam (:func:`repro.faults.model.arming`)
    fills it: each instance attribute a registered fault patches adds one
    count under its object and name while armed, and the patch's exit —
    by exception too — takes it off again.  An unfaulted compass's
    record is empty, which is the one check the fast path and the
    excitation-trace cache make in the common case.  A patched *method*
    (a callable value) is a wrapper neither of them may stand in for; a
    patched value (a sensor's ``params`` or ``pickup_scales``, the
    amplifier's ``output_offset``, a comparator's ``stuck`` flag, the
    CORDIC ``rom``) is read where it lives.
    """

    __slots__ = ("_patches",)

    def __init__(self) -> None:
        #: ``(id(object), attribute, is a method wrapper)`` → live patches.
        self._patches: Counter = Counter()

    def __bool__(self) -> bool:
        return bool(self._patches)

    def count(self, obj: object, attribute: str) -> int:
        """How many armed patches of ``obj.attribute`` are live."""
        return sum(
            n for (key, name, _), n in self._patches.items()
            if key == id(obj) and name == attribute
        )

    def wraps(self, *objects: object) -> bool:
        """True when an armed fault wraps a method of any of ``objects``."""
        keys = {id(obj) for obj in objects}
        return any(wrapper and key in keys for key, _, wrapper in self._patches)

    def arm(self, obj: object, attribute: str, value: object) -> None:
        self._patches[id(obj), attribute, callable(value)] += 1

    def disarm(self, obj: object, attribute: str, value: object) -> None:
        key = (id(obj), attribute, callable(value))
        self._patches[key] -= 1
        if not self._patches[key]:
            del self._patches[key]


@dataclass(frozen=True)
class FrontEndConfig:
    """Front-end configuration knobs gathered in one place.

    ``fastpath`` routes the compass's measurement engine through the
    certified closed-form pulse-timing solver
    (:mod:`repro.analog.fastpath`): noiseless measurements on the tanh
    core skip the sampled simulation entirely and compute the comparator
    edge times algebraically, resolving the few edges near a counter
    tick exactly, so every count equals the stepped engine's.  It falls
    back to the stepped engine whenever the closed form would not apply.
    ``fastpath=False`` pins the stepped engine (tests and benchmark
    references); it never changes a measurement, only its cost.
    ``amplifier_gain`` is fixed at :data:`AMPLIFIER_GAIN` (``init=False``).
    """

    excitation: ExcitationSettings = field(default_factory=ExcitationSettings)
    detector: DetectorParameters = field(default_factory=DetectorParameters)
    amplifier_gain: float = field(default=AMPLIFIER_GAIN, init=False)
    noise: NoiseBudget = NOISELESS
    noise_seed: int = 0
    fastpath: bool = True


class AnalogFrontEnd:
    """Excitation source + pickup amplifier + pulse-position detector."""

    def __init__(self, config: Optional[FrontEndConfig] = None):
        config = FrontEndConfig() if config is None else config
        self.config = config
        self.excitation = ExcitationSource(config.excitation)
        self.amplifier = PickupAmplifier(budget=config.noise, seed=config.noise_seed)
        self.detector = PulsePositionDetector(config.detector)
        self.multiplexer = SensorMultiplexer()
        self._enabled = True
        #: Routing decisions of the fast path (attempts, uses, fallback
        #: reasons, resolved edges), kept by the compass's measurement
        #: engine.
        self.fastpath_stats = FastPathStats()
        #: The fast path's certificate (or refusal reason) per channel,
        #: with the device state it was computed from; the solver
        #: recomputes it when that state compares unequal.
        self.fastpath_certificates: Dict[str, tuple] = {}
        #: The compass's armed fault patches (:class:`ArmedFaults`).
        self.armed_faults = ArmedFaults()

    # -- power gating ---------------------------------------------------------

    def enable(self) -> None:
        self._enabled = True
        self.excitation.enable()

    def disable(self) -> None:
        self._enabled = False
        self.excitation.disable()

    @property
    def enabled(self) -> bool:
        return self._enabled

    # -- measurement ------------------------------------------------------------

    def measure_channel(
        self,
        sensor: FluxgateSensor,
        channel: str,
        h_external: float,
        grid: TimeGrid,
    ) -> ChannelMeasurement:
        """Excite one sensor and detect its pulse positions.

        The stepped reference chain, keeping every intermediate waveform
        (the compass measures through its own row engine, which
        reproduces this chain bit for bit or solves it in closed form).
        Its waveforms come from the full-waveform probe
        :meth:`FluxgateSensor.simulate`, which sensor faults leave
        unfaulted; amplifier and comparator faults do reach it.

        Parameters
        ----------
        sensor:
            The fluxgate on this channel.
        channel:
            ``"x"`` or ``"y"`` — selects which V-I converter is enabled.
        h_external:
            External field along the sensor axis [A/m].
        grid:
            Excitation time grid (integer number of periods).
        """
        if not self._enabled:
            raise ConfigurationError("front-end is powered down")
        self.excitation.select_channel(channel)
        self.multiplexer.select(channel)
        current = self.excitation.current(
            grid, channel, sensor.params.series_resistance
        )
        waveforms = sensor.simulate(current, h_external)
        amplified = self.amplifier.amplify(waveforms.pickup_voltage)
        detected = self.detector.detect(amplified)
        return ChannelMeasurement(
            channel=channel,
            waveforms=waveforms,
            amplified_pickup=amplified,
            detector_output=detected,
        )
