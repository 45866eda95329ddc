"""Property tests: the factory's accounting is airtight by construction.

Three claims carry the production line's story:

1. **A defect-free process has perfect yield.**  A lot minted at defect
   rate 0 ships every unit: 100% yield, zero false fails, zero escapes,
   for any lot size and seed.
2. **The disposition partition is exact.**  Every unit lands in exactly
   one disposition, defective units only in {caught, pass-latent,
   escape}, clean units only in {pass, false-fail}; stage ``tested``
   counts chain (each stage tests exactly its predecessor's survivors)
   and per-stage catch/false-fail tallies sum into the lot partition —
   no defect is double-counted and none vanishes.
3. **Stage order never changes what escapes.**  Stage verdicts are
   evaluated on a fresh target per stage, so permuting the program can
   only move a catch between stages — the escape set, the caught set,
   and every unit's disposition are permutation-invariant.
4. **The line's shortcuts are invisible.**  A signature runs the
   program only up to its first failing stage, and each stage (and the
   field oracle) runs once per lot for each distinct set of defects its
   probe sees; every verdict still equals the stage run alone on the
   unit's own defects.

Real-physics lots cost tens of milliseconds per distinct defect
signature, so claims 1–3 memoize signature evaluations *across*
examples via :class:`MemoLine` — sound because an evaluation is a
function of (signature, ordered program, stage knobs) alone, and all
examples here share the default stage knobs.  Claim 4 runs the plain
:class:`~repro.factory.FactoryLine`.
"""

import dataclasses

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from repro.factory import (
    DefectDistribution,
    FactoryLine,
    LotConfig,
    SEVERITY_LAWS,
    STAGE_NAMES,
    defect,
    run_field_oracle,
    run_stage,
    signature,
)
from repro.faults.model import registered_faults


class MemoLine(FactoryLine):
    """A :class:`FactoryLine` with a suite-wide signature-evaluation memo."""

    _memo = {}

    def _evaluate_signature(self, defects, record_logs, memo):
        # The program's order decides where a signature stops.
        key = (self.config.stages, signature(defects))
        if key not in self._memo:
            self._memo[key] = super()._evaluate_signature(
                defects, record_logs, memo
            )
        return self._memo[key]


DISTRIBUTIONS = st.builds(
    DefectDistribution,
    rate=st.floats(min_value=0.0, max_value=1.0),
    multi_fault_rate=st.floats(min_value=0.0, max_value=0.3),
    severity_law=st.sampled_from(SEVERITY_LAWS),
)


class TestDefectFreeYield:
    @given(size=st.integers(1, 16), seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_rate_zero_ships_every_unit(self, size, seed):
        config = LotConfig(
            size=size, seed=seed, defects=DefectDistribution(rate=0.0)
        )
        report = MemoLine(config).run()
        counts = report.counts()
        assert counts["pass"] == size
        assert counts["false-fail"] == 0
        assert report.yield_fraction == 1.0
        assert report.escapes == []
        report.raise_for_escapes()


class TestDispositionPartition:
    @given(
        size=st.integers(1, 8),
        seed=st.integers(0, 2**16),
        defects=DISTRIBUTIONS,
    )
    @settings(max_examples=8, deadline=None)
    def test_partition_and_stage_chain(self, size, seed, defects):
        config = LotConfig(size=size, seed=seed, defects=defects)
        report = MemoLine(config).run()
        counts = report.counts()
        # One disposition per unit, every unit counted exactly once.
        assert sum(counts.values()) == report.size == size
        for unit in report.units:
            if unit.defective:
                assert unit.disposition in ("caught", "pass-latent", "escape")
            else:
                assert unit.disposition in ("pass", "false-fail")
            if unit.disposition in ("caught", "false-fail"):
                assert unit.caught_by in config.stages
            else:
                assert unit.caught_by is None
            if unit.disposition == "escape":
                assert unit.oracle is not None and unit.oracle.is_escape
        # Stage chain: each stage tests exactly its predecessor's
        # survivors, and splits them exactly into pass/caught/false-fail.
        stages = report.stages
        assert stages[0].tested == report.size
        for earlier, later in zip(stages, stages[1:]):
            assert later.tested == earlier.passed
        for stage in stages:
            assert (
                stage.tested
                == stage.passed + stage.caught + stage.false_fails
            )
        # Per-stage tallies sum into the lot partition: nothing double
        # counted, nothing lost.
        assert sum(s.caught for s in stages) == counts["caught"]
        assert sum(s.false_fails for s in stages) == counts["false-fail"]
        assert stages[-1].passed == report.shipped


class TestStageOrderInvariance:
    @given(
        seed=st.integers(0, 500),
        order=st.permutations(list(STAGE_NAMES)),
    )
    @settings(max_examples=8, deadline=None)
    def test_permuting_the_program_moves_catches_not_escapes(
        self, seed, order
    ):
        base = LotConfig(
            size=6,
            seed=seed,
            defects=DefectDistribution(rate=0.7, multi_fault_rate=0.2),
        )
        forward = MemoLine(base).run()
        permuted = MemoLine(
            dataclasses.replace(base, stages=tuple(order))
        ).run()
        assert [u.unit for u in permuted.escapes] == [
            u.unit for u in forward.escapes
        ]
        assert permuted.counts() == forward.counts()
        for a, b in zip(forward.units, permuted.units):
            assert a.disposition == b.disposition
            # Only the *attributed* stage may move between programs.
            assert (a.caught_by is None) == (b.caught_by is None)


#: (fault, severity) cells of each probe a factory stage can see.
PROBE_CELLS = [
    [
        (spec.name, severity)
        for spec in registered_faults()
        if spec.probe == probe
        for severity in spec.severities
    ]
    for probe in ("scan", "measurement", "scenario")
]


@st.composite
def mixed_units(draw):
    """Hand-built units over a small pool per probe, so a lot's units
    share scan, measurement and environment sub-signatures in every
    combination (sorted per unit, as :func:`mint_units` leaves them)."""
    pools = [
        draw(
            st.lists(
                st.sampled_from(cells), min_size=1, max_size=2, unique=True
            )
        )
        for cells in PROBE_CELLS
    ]
    units = []
    for _ in range(draw(st.integers(1, 6))):
        cells = [draw(st.none() | st.sampled_from(pool)) for pool in pools]
        defects = [defect(*cell) for cell in cells if cell is not None]
        units.append(
            tuple(sorted(defects, key=lambda d: (d.fault, d.severity)))
        )
    return units


PROGRAMS = st.builds(
    lambda order, length: tuple(order[:length]),
    st.permutations(list(STAGE_NAMES)),
    st.integers(1, len(STAGE_NAMES)),
)


class TestMemoAndEarlyStopAreInvisible:
    @staticmethod
    def _assert_each_signature_as_run_alone(config, report):
        representatives = {}
        for unit in report.units:
            representatives.setdefault(signature(unit.defects), unit.defects)
        assert set(representatives) == set(report.evaluations)
        for key, defects in representatives.items():
            evaluation = report.evaluations[key]
            reached = []
            for stage in config.stages:
                alone = run_stage(stage, defects, config)
                reached.append(stage)
                assert evaluation.results[stage] == alone, (key, stage)
                if not alone.passed:
                    break
            # The reached stages are the program up to its first failure.
            assert list(evaluation.results) == reached
            if defects and all(r.passed for r in evaluation.results.values()):
                assert evaluation.oracle == run_field_oracle(defects, config)
            else:
                assert evaluation.oracle is None

    @given(
        size=st.integers(1, 8),
        seed=st.integers(0, 2**16),
        defects=DISTRIBUTIONS,
        stages=PROGRAMS,
    )
    @settings(max_examples=10, deadline=None)
    def test_minted_lots(self, size, seed, defects, stages):
        config = LotConfig(
            size=size, seed=seed, defects=defects, stages=stages
        )
        report = FactoryLine(config).run()
        self._assert_each_signature_as_run_alone(config, report)

    @given(units=mixed_units(), stages=PROGRAMS)
    # Without the env stage, both units pass with the same (empty)
    # measurement defects; only the field oracle's mission tells them
    # apart, so its memo must key on the scenario defects too.
    @example(
        units=[
            (defect("environment.anomaly_ambush", 0.3),),
            (defect("environment.calibration_stale", 12.0),),
        ],
        stages=("btest", "bist", "calibration"),
    )
    @settings(max_examples=10, deadline=None)
    def test_hand_built_units_mixing_probes(self, units, stages):
        config = LotConfig(size=len(units), stages=stages)
        report = FactoryLine(config).run(units=units)
        self._assert_each_signature_as_run_alone(config, report)
