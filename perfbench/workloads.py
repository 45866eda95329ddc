"""The four benchmark workloads.

Each workload turns the seed into a list of distinct round inputs, builds
what it needs and runs one warm-up op in ``setup()`` (which also runs the
checks that need no timed round), and runs one round per
``run_round(index)``.  Every round checks its own outputs against the
repository's golden artifacts or invariants.

* ``mc-noisy`` — batch Monte-Carlo accuracy study under the
  ``TYPICAL_1997_CMOS`` noise budget: the stepped analog engine and
  ``physics.noise``.  Op: one measurement.
* ``fleet-rated`` — open-loop Poisson traffic at the fleet's rated
  300 rps in virtual time: the fast path, the digital back end, health,
  the service and the fleet.  Op: one offered request.
* ``factory-lot`` — the 256-unit golden lot: compass construction,
  boundary scan and the signature memo.  Op: one lot unit.
* ``missions`` — the golden scenario corpus plus a 4-element array:
  many small per-temperature batches, compensation and fusion.  Op: one
  served heading (a scenario step or an array fusion).
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import List

import numpy as np

from harness import RoundResult, digest
from repro.analog.frontend import FrontEndConfig
from repro.array import ArrayCompass, ArrayConfig, ArrayGeometry, NearFieldSource
from repro.array.device import F_ARRAY_GRADIENT
from repro.batch import BatchCompass
from repro.core.compass import CompassConfig, IntegratedCompass
from repro.errors import ReproError
from repro.factory import FactoryLine, golden_lot_config, signature
from repro.faults.campaign import heading_error_deg
from repro.fleet import (
    SOURCE_MEASURED,
    FleetConfig,
    HeadingFleet,
    Kernel,
    LoadPhase,
    OpenLoopGenerator,
)
from repro.physics.noise import TYPICAL_1997_CMOS
from repro.scenario import SCENARIOS, ScenarioRunner
from repro.units import TARGET_ACCURACY_DEG

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"


def _golden_vectors() -> List[dict]:
    payload = json.loads((GOLDEN / "compass_vectors.json").read_text(encoding="utf-8"))
    return payload["vectors"]


def _golden_mismatches(
    config: CompassConfig, vectors: List[dict], batch: bool
) -> List[str]:
    """Golden vectors a compass built from ``config`` does not reproduce
    bit for bit (counts, heading and field estimate)."""
    problems = []
    compass = IntegratedCompass(config)
    for vector in vectors:
        truth, field_t = vector["true_heading_deg"], vector["field_ut"] * 1e-6
        if batch:
            [m] = BatchCompass(compass).sweep_headings([truth], field_t)
        else:
            m = compass.measure_heading(truth, field_t)
        got = (m.x_count, m.y_count, m.heading_deg, m.field_estimate_a_per_m)
        want = (
            vector["x_count"],
            vector["y_count"],
            vector["heading_deg"],
            vector["field_estimate_a_per_m"],
        )
        if got != want:
            problems.append(
                f"golden vector {truth} deg @ {vector['field_ut']} uT: "
                f"got {got}, want {want}"
            )
    return problems


def _vector_ids(vectors: List[dict]) -> List[tuple]:
    return [(v["true_heading_deg"], v["field_ut"]) for v in vectors]


def _sample(rng: np.random.Generator, items: list, count: int) -> list:
    return [items[i] for i in sorted(rng.choice(len(items), count, replace=False))]


class McNoisy:
    """Batch Monte-Carlo accuracy study under the 1997 CMOS noise budget.

    A round is one ``BatchCompass.monte_carlo`` trial of 24 headings at
    one of 25, 45 and 65 uT; four trials per field, each on its own noise
    seed.  The noise seeds are the study's fixed population, so the
    accuracy figures do not swing with the benchmark seed; the seed picks
    the golden vectors checked during warm-up.
    """

    name = "mc-noisy"
    FIELDS_T = (25e-6, 45e-6, 65e-6)
    HEADINGS = 24
    TRIALS = 4
    GOLDEN_SAMPLE = 8

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.base = CompassConfig(front_end=FrontEndConfig(noise=TYPICAL_1997_CMOS))
        #: (noise seed, field) per round.
        self.inputs = [
            (len(self.FIELDS_T) * trial + offset, field_t)
            for trial in range(self.TRIALS)
            for offset, field_t in enumerate(self.FIELDS_T)
        ]
        self.golden = _sample(rng, _golden_vectors(), self.GOLDEN_SAMPLE)
        self.params = {
            "trials_per_field": self.TRIALS,
            "headings": self.HEADINGS,
            "fields_ut": [f * 1e6 for f in self.FIELDS_T],
            "noise": "TYPICAL_1997_CMOS",
            "golden_sample": _vector_ids(self.golden),
        }

    def _config(self, noise_seed: int) -> CompassConfig:
        front_end = dataclasses.replace(self.base.front_end, noise_seed=noise_seed)
        return dataclasses.replace(self.base, front_end=front_end)

    def setup(self) -> List[str]:
        # The noiseless stepped batch engine must still hit the golden vectors.
        problems = _golden_mismatches(CompassConfig(), self.golden, batch=True)
        BatchCompass(IntegratedCompass(self._config(0))).sweep_headings([0.5], 25e-6)
        return problems

    def run_round(self, index: int) -> RoundResult:
        noise_seed, field_t = self.inputs[index]
        study = BatchCompass.monte_carlo(
            self.base,
            n_trials=1,
            n_headings=self.HEADINGS,
            field_magnitude_t=field_t,
            perturb=lambda config, _trial: self._config(noise_seed),
        )
        rows, errors = [], []
        for truth, m in study.records[0]:
            rows.append((truth, m.x_count, m.y_count, m.heading_deg, m.degraded))
            if not m.degraded:
                errors.append(m.error_against(truth))
        return RoundResult(ops=len(rows), failed=0, digest=digest(rows), errors=errors)


class _RecordingFleet:
    """The fleet as the load generator sees it, keeping every answer."""

    def __init__(self, fleet: HeadingFleet):
        self.fleet = fleet
        self.config = fleet.config
        self.scheduler = fleet.scheduler
        self.answers: list = []

    async def submit(self, key, true_heading_deg, field_magnitude_t, **kwargs):
        slot = len(self.answers)
        self.answers.append(None)
        try:
            response = await self.fleet.submit(
                key, true_heading_deg, field_magnitude_t, **kwargs
            )
        except ReproError as error:
            self.answers[slot] = (true_heading_deg, field_magnitude_t, error)
            raise
        self.answers[slot] = (true_heading_deg, field_magnitude_t, response)
        return response


class FleetRated:
    """Open-loop Poisson load at the rated 300 rps, in virtual time.

    A round is a fresh default fleet (4 shards x 3 fast-path replicas,
    strict health) under ``ROUND_SIM_S`` simulated seconds of traffic
    with half the requests revisiting hot scenes.  The seed draws each
    round's fleet seed and load seed.
    """

    name = "fleet-rated"
    RPS = 300.0
    ROUND_SIM_S = 3.0
    ROUNDS = 4
    GOLDEN_SAMPLE = 8

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.inputs = [
            (int(rng.integers(2**31)), int(rng.integers(2**31)))
            for _ in range(self.ROUNDS)
        ]
        self.golden = _sample(rng, _golden_vectors(), self.GOLDEN_SAMPLE)
        self.slo = FleetConfig().slo
        self.params = {
            "rps": self.RPS,
            "round_sim_s": self.ROUND_SIM_S,
            "rounds": self.inputs,
            "hot_fraction": 0.5,
            "golden_sample": _vector_ids(self.golden),
        }

    def _drive(self, fleet: HeadingFleet, kernel: Kernel, main):
        async def lifecycle():
            fleet.start()
            try:
                return await main()
            finally:
                await fleet.stop()

        return kernel.run(lifecycle())

    def setup(self) -> List[str]:
        # The fleet's fast-path compass must reproduce the golden vectors.
        problems = _golden_mismatches(
            FleetConfig().service.compass, self.golden, batch=False
        )
        kernel = Kernel()
        fleet = HeadingFleet(FleetConfig(seed=self.inputs[0][0]), scheduler=kernel)
        self._drive(fleet, kernel, lambda: fleet.submit("warm-up", 123.0, 50e-6))
        return problems

    def run_round(self, index: int) -> RoundResult:
        fleet_seed, load_seed = self.inputs[index]
        kernel = Kernel()
        fleet = HeadingFleet(FleetConfig(seed=fleet_seed), scheduler=kernel)
        recording = _RecordingFleet(fleet)
        generator = OpenLoopGenerator(
            recording,
            [LoadPhase(rps=self.RPS, duration_s=self.ROUND_SIM_S, label="rated")],
            seed=load_seed,
        )
        [record] = self._drive(fleet, kernel, generator.run)
        stats = fleet.stats()

        outputs, errors = [], []
        for truth, field_t, answer in recording.answers:
            if isinstance(answer, ReproError):
                outputs.append((truth, field_t, type(answer).__name__))
                continue
            outputs.append(
                (truth, field_t, answer.heading_deg, answer.verdict,
                 answer.source, answer.latency_s)
            )
            # Cache hits and coalesced answers repeat a measured answer bit
            # for bit, so accuracy counts each measured scene once.
            if answer.authoritative and answer.source == SOURCE_MEASURED:
                errors.append(heading_error_deg(answer.heading_deg, truth))
        problems = []
        where = f"fleet round {index}"
        if record.silent_wrong:
            problems.append(f"{where}: {record.silent_wrong} silent-wrong answers")
        if record.availability < self.slo.availability_floor:
            problems.append(f"{where}: availability {record.availability:.4f}")
        p99 = record.latency_percentile(99)
        if p99 > self.slo.p99_latency_s:
            problems.append(f"{where}: p99 {p99 * 1e3:.1f} ms over the SLO")
        cache = stats["cache"]
        return RoundResult(
            ops=record.offered,
            failed=record.shed_total + record.failed_total,
            digest=digest(outputs),
            errors=errors,
            counters={
                "fleet.cache_hits": cache["hits"],
                "fleet.cache_lookups": cache["hits"] + cache["misses"],
                "fleet.coalesced": record.sources.get("coalesced", 0),
                "fleet.backend_measurements": sum(s["served"] for s in stats["shards"]),
                "fleet.offered": record.offered,
            },
            latencies_s=list(record.latencies_s),
            problems=problems,
        )


class FactoryLot:
    """The pinned 256-unit golden lot through all four stages and the oracle.

    The lot is the golden artifact itself, so its inputs do not depend on
    the seed.  The accuracy figures are the calibration-stage worst
    heading error of every shipped unit.
    """

    name = "factory-lot"
    SHIPPED = ("pass", "pass-latent", "escape")

    def __init__(self, seed: int):
        self.inputs = [golden_lot_config()]
        self.params = {"lot": "golden_lot_config()", "units": self.inputs[0].size}

    def setup(self) -> List[str]:
        self.golden = (GOLDEN / "factory_lot.json").read_text(encoding="utf-8")
        FactoryLine(self.inputs[0]).run(units=[()])
        return []

    def run_round(self, index: int) -> RoundResult:
        report = FactoryLine(self.inputs[index]).run()
        text = report.to_json()
        problems = []
        if text != self.golden:
            problems.append("lot report differs from tests/golden/factory_lot.json")
        if report.escapes:
            problems.append(f"{len(report.escapes)} escaped units")
        errors = []
        for unit in report.units:
            if unit.disposition not in self.SHIPPED:
                continue
            calibration = report.evaluations[signature(unit.defects)].results.get(
                "calibration"
            )
            if calibration is not None and calibration.worst_error_deg is not None:
                errors.append(calibration.worst_error_deg)
        return RoundResult(
            ops=len(report.units),
            failed=0,
            digest=digest(text),
            errors=errors,
            counters={
                "factory.signatures": report.distinct_signatures,
                "factory.units": len(report.units),
            },
            problems=problems,
        )


class Missions:
    """The golden scenario corpus plus a 4-element square array.

    A round flies all six corpus scenarios, sweeps the array over 24
    seeded headings and takes two world measurements at a seeded heading,
    one with a 1 uT near-field ambush at 1 m that the gradiometer must
    flag.
    """

    name = "missions"
    ROUNDS = 2
    SWEEP = 24
    FIELD_UT = 50.0
    AMBUSH_BEARING_DEG = 30.0
    AMBUSH = NearFieldSource(
        delta_north_ut=math.cos(math.radians(AMBUSH_BEARING_DEG)),
        delta_east_ut=math.sin(math.radians(AMBUSH_BEARING_DEG)),
        distance_m=1.0,
        bearing_deg=AMBUSH_BEARING_DEG,
    )

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.inputs = [
            (
                [float(h) for h in rng.uniform(0.0, 360.0, self.SWEEP)],
                float(rng.uniform(0.0, 360.0)),
            )
            for _ in range(self.ROUNDS)
        ]
        self.params = {
            "scenarios": sorted(SCENARIOS),
            "array": "square(0.3 m), 4 elements",
            "rounds": self.inputs,
            "ambush_ut": 1.0,
        }

    def _array(self) -> ArrayCompass:
        return ArrayCompass(ArrayConfig(geometry=ArrayGeometry.square()))

    def setup(self) -> List[str]:
        self.corpus = json.loads(
            (GOLDEN / "scenario_corpus.json").read_text(encoding="utf-8")
        )
        self._array().measure_heading(self.inputs[0][1])
        return []

    def run_round(self, index: int) -> RoundResult:
        outputs, errors, problems = [], [], []
        for name in sorted(SCENARIOS):
            result = ScenarioRunner(SCENARIOS[name]).run()
            if result.summary() != self.corpus[name]["summary"]:
                problems.append(f"scenario {name}: summary differs from the corpus")
            for step in result.steps:
                outputs.append((name, step.served_heading_deg, step.flags))
                if not step.degraded:
                    errors.append(abs(step.error_deg))

        headings, world_heading = self.inputs[index]
        array = self._array()
        fused = array.sweep_headings(headings)
        clean = array.measure_world(world_heading, self.FIELD_UT)
        ambush = array.measure_world(world_heading, self.FIELD_UT, source=self.AMBUSH)
        for truth, m in zip(headings + [world_heading], fused + [clean]):
            outputs.append((truth, m.heading_deg, m.flags))
            if m.degraded:
                continue
            error = m.error_against(truth)
            errors.append(error)
            if error > TARGET_ACCURACY_DEG:
                problems.append(f"array: silent-wrong {error:.3f} deg at {truth} deg")
        if clean.degraded:
            problems.append(f"array: clean world measurement flagged {clean.flags}")
        if F_ARRAY_GRADIENT not in ambush.flags:
            problems.append("array: near-field ambush served without a gradient flag")
        outputs.append((world_heading, ambush.heading_deg, ambush.flags))
        return RoundResult(
            ops=len(outputs), failed=0, digest=digest(outputs), errors=errors,
            problems=problems,
        )


WORKLOADS = {w.name: w for w in (McNoisy, FleetRated, FactoryLot, Missions)}
