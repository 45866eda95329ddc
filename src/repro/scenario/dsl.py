"""The declarative scenario DSL — environments and missions as data.

A :class:`Scenario` is a frozen, JSON-round-trippable description of
*everything around the compass* for one mission: where on Earth it is
(the tilted-dipole :mod:`repro.physics.earth_field` model), how the
ambient temperature evolves, how the platform is tilted, what hard-/
soft-iron distortion the platform adds, which local magnetic anomalies
appear mid-mission, and whether the mission dead-reckons a track
through :mod:`repro.nav`.

The DSL deliberately separates the *environment* (what the world does)
from the *compensation policy* (which correction layers the instrument
arms).  A clean bench scenario with every compensator disarmed must be
bit-identical to the plain compass — that is the conformance anchor the
golden-vector suite pins — while a field scenario arms the full chain
and is judged on the compensated heading.

Scenario corpus
---------------
:data:`SCENARIOS` holds the named golden corpus.  Each entry is chosen
to exercise one compensation layer hard while staying inside the
paper's 1° spec when the instrument is healthy; the fault campaign then
re-runs every corpus scenario with each registered environment fault
injected (see :mod:`repro.scenario.campaign`).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Optional, Tuple

from ..errors import ConfigurationError
from ..physics.earth_field import LOCATIONS
from ..units import wrap_degrees

#: Temperatures the polynomial compensator is fitted over (°C); also the
#: envelope outside which :class:`~repro.errors.EnvelopeError` applies.
FIT_TEMPERATURES_C = (-20.0, 0.0, 25.0, 40.0, 55.0, 70.0)


@dataclass(frozen=True)
class TemperatureProfile:
    """Ambient temperature over the mission [°C].

    ``at(step)`` = ``base_c + ramp_c_per_step·step +
    amplitude_c·sin(2π·step/period_steps)`` — a constant bench, a linear
    chamber ramp, a diurnal swing, or any sum of the three.
    """

    base_c: float = 25.0
    ramp_c_per_step: float = 0.0
    amplitude_c: float = 0.0
    period_steps: int = 0

    def __post_init__(self) -> None:
        if self.period_steps < 0:
            raise ConfigurationError("period_steps must be >= 0")
        if self.amplitude_c != 0.0 and self.period_steps == 0:
            raise ConfigurationError(
                "a temperature swing needs a positive period_steps"
            )

    def at(self, step: int) -> float:
        value = self.base_c + self.ramp_c_per_step * step
        if self.period_steps:
            value += self.amplitude_c * math.sin(
                2.0 * math.pi * step / self.period_steps
            )
        return value


@dataclass(frozen=True)
class TiltProfile:
    """Platform attitude over the mission [degrees].

    The tilt switches on at ``onset_fraction`` of the mission (0.0 =
    tilted from the first step) and stays constant — a vehicle driving
    onto a grade.  Scenarios keep the tilt piecewise-constant because
    the chain's field-magnitude residual monitor verifies the tilt
    sensor *against the headings actually visited*; see
    ``docs/scenarios.md`` for the detectability geometry.
    """

    pitch_deg: float = 0.0
    roll_deg: float = 0.0
    onset_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not -30.0 <= self.pitch_deg <= 30.0:
            raise ConfigurationError("scenario pitch must be within ±30°")
        if not -30.0 <= self.roll_deg <= 30.0:
            raise ConfigurationError("scenario roll must be within ±30°")
        if not 0.0 <= self.onset_fraction <= 1.0:
            raise ConfigurationError("onset_fraction must be in [0, 1]")

    def at(self, step: int, total_steps: int) -> Tuple[float, float]:
        if step < self.onset_fraction * total_steps:
            return 0.0, 0.0
        return self.pitch_deg, self.roll_deg


@dataclass(frozen=True)
class IronDistortion:
    """Platform-fixed magnetic distortion, applied in the body frame.

    ``h' = S·h + o`` with ``S = [[1, cross], [cross, y_gain]]`` and
    ``o`` the hard-iron offset [µT] — the standard ellipse the
    turn-table calibration (:mod:`repro.core.calibration`) un-distorts.
    """

    hard_x_ut: float = 0.0
    hard_y_ut: float = 0.0
    cross_coupling: float = 0.0
    y_gain: float = 1.0

    def __post_init__(self) -> None:
        if self.y_gain <= 0.0:
            raise ConfigurationError("soft-iron y_gain must be positive")
        if abs(self.cross_coupling) >= 0.5:
            raise ConfigurationError("cross_coupling must satisfy |c| < 0.5")

    @property
    def is_identity(self) -> bool:
        return (
            self.hard_x_ut == 0.0
            and self.hard_y_ut == 0.0
            and self.cross_coupling == 0.0
            and self.y_gain == 1.0
        )


#: The do-nothing distortion.
CLEAN_IRON = IronDistortion()


@dataclass(frozen=True)
class AnomalySpec:
    """A local magnetic anomaly: a world-frame field delta [µT].

    Active from ``start_fraction`` to ``stop_fraction`` of the mission —
    the classic mid-mission ambush: a parked truck, a rebar bridge, a
    buried pipe.
    """

    delta_north_ut: float = 0.0
    delta_east_ut: float = 0.0
    delta_down_ut: float = 0.0
    start_fraction: float = 0.5
    stop_fraction: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.start_fraction <= self.stop_fraction <= 1.0:
            raise ConfigurationError(
                "anomaly window must satisfy 0 <= start <= stop <= 1"
            )

    def active(self, step: int, total_steps: int) -> bool:
        return (
            self.start_fraction * total_steps
            <= step
            < self.stop_fraction * total_steps
            or (self.stop_fraction == 1.0
                and step >= self.start_fraction * total_steps)
        )

    @property
    def magnitude_ut(self) -> float:
        return math.sqrt(
            self.delta_north_ut**2
            + self.delta_east_ut**2
            + self.delta_down_ut**2
        )


@dataclass(frozen=True)
class MissionSpec:
    """Dead-reckoning parameters: one leg walked per scenario step."""

    step_distance_m: float = 100.0

    def __post_init__(self) -> None:
        if self.step_distance_m <= 0.0:
            raise ConfigurationError("step_distance_m must be positive")


@dataclass(frozen=True)
class CompensationPolicy:
    """Which correction layers the instrument arms for a scenario."""

    temperature: bool = True
    calibration: bool = True
    tilt: bool = True
    anomaly_gate: bool = True

    @property
    def any_armed(self) -> bool:
        return (
            self.temperature
            or self.calibration
            or self.tilt
            or self.anomaly_gate
        )


#: Every compensator off — the raw-compass conformance anchor.
RAW_POLICY = CompensationPolicy(
    temperature=False, calibration=False, tilt=False, anomaly_gate=False
)


@dataclass(frozen=True)
class Scenario:
    """One declarative environment + mission description.

    Attributes
    ----------
    name, description:
        Corpus identity and intent.
    steps:
        Mission steps; the heading at step ``k`` is
        ``heading_start_deg + k·turn_deg_per_step`` (magnetic).
    location:
        Key into :data:`repro.physics.earth_field.LOCATIONS`; the
        tilted-dipole model supplies the full field vector there
        (magnitude, inclination, declination).
    field_override_ut:
        When set, replaces the location field with a pure horizontal
        field of this magnitude [µT] and zero inclination/declination —
        the bench configuration of the golden vectors.
    """

    name: str
    description: str = ""
    steps: int = 12
    heading_start_deg: float = 0.0
    turn_deg_per_step: float = 30.0
    location: str = "enschede"
    field_override_ut: Optional[float] = None
    temperature: TemperatureProfile = field(default_factory=TemperatureProfile)
    tilt: TiltProfile = field(default_factory=TiltProfile)
    iron: IronDistortion = CLEAN_IRON
    anomaly: Optional[AnomalySpec] = None
    mission: Optional[MissionSpec] = None
    compensation: CompensationPolicy = field(
        default_factory=CompensationPolicy
    )

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ConfigurationError("a scenario needs at least one step")
        if self.location not in LOCATIONS:
            known = ", ".join(sorted(LOCATIONS))
            raise ConfigurationError(
                f"unknown location {self.location!r}; known: {known}"
            )
        if self.field_override_ut is not None and self.field_override_ut <= 0:
            raise ConfigurationError("field_override_ut must be positive")
        for step in range(self.steps):
            t = self.temperature.at(step)
            if not -60.0 <= t <= 125.0:
                raise ConfigurationError(
                    f"temperature profile leaves the modelled -60…125 °C "
                    f"envelope at step {step} ({t:.1f} °C)"
                )

    def heading_at(self, step: int) -> float:
        """Commanded magnetic heading at a mission step [deg, 0..360)."""
        return wrap_degrees(
            self.heading_start_deg + step * self.turn_deg_per_step
        )

    # -- JSON round trip -------------------------------------------------------

    def to_dict(self) -> Dict:
        record = asdict(self)
        record["anomaly"] = (
            None if self.anomaly is None else asdict(self.anomaly)
        )
        record["mission"] = (
            None if self.mission is None else asdict(self.mission)
        )
        return record

    @classmethod
    def from_dict(cls, record: Dict) -> "Scenario":
        data = dict(record)
        data["temperature"] = TemperatureProfile(**data["temperature"])
        data["tilt"] = TiltProfile(**data["tilt"])
        data["iron"] = IronDistortion(**data["iron"])
        if data.get("anomaly") is not None:
            data["anomaly"] = AnomalySpec(**data["anomaly"])
        if data.get("mission") is not None:
            data["mission"] = MissionSpec(**data["mission"])
        data["compensation"] = CompensationPolicy(**data["compensation"])
        return cls(**data)


def bench_clean_scenario(field_ut: float = 50.0, steps: int = 16) -> Scenario:
    """The golden-vector twin: level, 25 °C, no iron, compensators off.

    With ``steps=16`` the heading schedule reproduces the golden grid
    ``11.25° + k·22.5°`` exactly, so every raw measurement must match
    ``tests/golden/compass_vectors.json`` bit-for-bit.
    """
    return Scenario(
        name=f"bench-clean-{field_ut:g}ut",
        description="clean fixed-temperature bench; conformance anchor",
        steps=steps,
        heading_start_deg=11.25,
        turn_deg_per_step=22.5,
        field_override_ut=field_ut,
        compensation=RAW_POLICY,
    )


#: The environment-screen scenario the factory's ``env`` stage runs: two
#: level verification steps at orthogonal headings (they sensitise the
#: field-magnitude residual monitor against a lying tilt sensor before
#: any tilt compensation is trusted), then a chamber ramp to 55 °C with
#: the platform tilted — six measurements that exercise every guard.
ENV_SCREEN = Scenario(
    name="env-screen",
    description="factory environment screen: temperature ramp + tilt "
    "table over orthogonal headings",
    steps=6,
    heading_start_deg=0.0,
    turn_deg_per_step=90.0,
    location="san_francisco",
    temperature=TemperatureProfile(base_c=25.0, ramp_c_per_step=6.0),
    tilt=TiltProfile(pitch_deg=6.0, roll_deg=-4.0, onset_fraction=0.5),
)


def _corpus() -> Dict[str, Scenario]:
    scenarios = [
        bench_clean_scenario(50.0),
        Scenario(
            name="tropic-crossing",
            description="equatorial mission with a 30 °C diurnal swing; "
            "polynomial temperature compensation under test",
            steps=12,
            heading_start_deg=20.0,
            turn_deg_per_step=30.0,
            location="equator_atlantic",
            temperature=TemperatureProfile(
                base_c=30.0, amplitude_c=25.0, period_steps=12
            ),
            mission=MissionSpec(step_distance_m=400.0),
        ),
        Scenario(
            name="steel-hull",
            description="hard-/soft-iron platform; ellipse-fit "
            "calibration under test",
            steps=12,
            heading_start_deg=0.0,
            turn_deg_per_step=30.0,
            location="sao_paulo",
            iron=IronDistortion(
                hard_x_ut=6.0, hard_y_ut=-4.0, cross_coupling=0.03,
                y_gain=1.06,
            ),
            mission=MissionSpec(step_distance_m=800.0),
        ),
        Scenario(
            name="alpine-traverse",
            description="cold tilted traverse at mid latitude; tilt "
            "compensation and the thermal fit's cold end under test",
            steps=12,
            heading_start_deg=0.0,
            turn_deg_per_step=30.0,
            location="san_francisco",
            temperature=TemperatureProfile(base_c=5.0, ramp_c_per_step=-1.5),
            tilt=TiltProfile(pitch_deg=5.0, roll_deg=3.0,
                             onset_fraction=0.25),
            mission=MissionSpec(step_distance_m=250.0),
        ),
        Scenario(
            name="urban-ambush",
            description="mid-mission magnetic ambush (parked steel); the "
            "anomaly gate must refuse to trust the disturbed field",
            steps=12,
            heading_start_deg=45.0,
            turn_deg_per_step=25.0,
            location="equator_atlantic",
            anomaly=AnomalySpec(
                delta_north_ut=18.0, delta_east_ut=-12.0,
                delta_down_ut=6.0, start_fraction=0.5,
            ),
            mission=MissionSpec(step_distance_m=150.0),
        ),
        ENV_SCREEN,
    ]
    return {scenario.name: scenario for scenario in scenarios}


#: The named golden scenario corpus.
SCENARIOS: Dict[str, Scenario] = _corpus()

#: Corpus scenarios expected to stay fully in-spec when clean.  The
#: ambush scenario is *designed* to degrade (the gate must flag the
#: disturbance), so it is excluded from the clean-spec contract.
CLEAN_SPEC_SCENARIOS = tuple(
    name for name, scenario in SCENARIOS.items() if scenario.anomaly is None
)


def get_scenario(name: str) -> Scenario:
    """Look up a corpus scenario by name."""
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise ConfigurationError(
            f"unknown scenario {name!r}; known: {known}"
        )
    return SCENARIOS[name]


def scenario_with(scenario: Scenario, **overrides) -> Scenario:
    """A copy of a scenario with fields replaced (keeps validation)."""
    return replace(scenario, **overrides)
