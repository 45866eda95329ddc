"""Tests for the component-tolerance / yield analysis."""

import numpy as np
import pytest

from repro.core.compass import CompassConfig
from repro.core.tolerance import (
    PRODUCTION_1997,
    ToleranceBudget,
    measure_unit,
    perturbed_config,
    tolerance_yield,
)
from repro.errors import ConfigurationError


class TestBudget:
    def test_negative_tolerance_rejected(self):
        with pytest.raises(ConfigurationError):
            ToleranceBudget(rc_tolerance=-0.01)

    def test_production_defaults(self):
        assert PRODUCTION_1997.rc_tolerance == 0.01
        assert PRODUCTION_1997.comparator_offset_sigma == pytest.approx(2e-3)


class TestPerturbedConfig:
    def test_zero_budget_is_identity(self):
        rng = np.random.default_rng(0)
        zero = ToleranceBudget(0.0, 0.0, 0.0, 0.0, 0.0)
        base = CompassConfig()
        perturbed = perturbed_config(base, zero, rng)
        assert perturbed.sensor.core.anisotropy_field == pytest.approx(
            base.sensor.core.anisotropy_field
        )
        assert perturbed.front_end.detector.threshold == pytest.approx(
            base.front_end.detector.threshold
        )
        assert perturbed.imperfections.misalignment_deg == 0.0

    def test_perturbations_within_bounds(self):
        rng = np.random.default_rng(1)
        base = CompassConfig()
        for _ in range(20):
            config = perturbed_config(base, PRODUCTION_1997, rng)
            osc = config.front_end.excitation.oscillator
            base_osc = base.front_end.excitation.oscillator
            assert abs(osc.resistance / base_osc.resistance - 1.0) <= 0.0100001
            assert abs(osc.capacitance / base_osc.capacitance - 1.0) <= 0.0100001
            hk_ratio = (
                config.sensor.core.anisotropy_field
                / base.sensor.core.anisotropy_field
            )
            assert abs(hk_ratio - 1.0) <= 0.0500001

    def test_reproducible_with_seed(self):
        base = CompassConfig()
        a = perturbed_config(base, PRODUCTION_1997, np.random.default_rng(7))
        b = perturbed_config(base, PRODUCTION_1997, np.random.default_rng(7))
        assert a.sensor.core.anisotropy_field == b.sensor.core.anisotropy_field
        assert a.imperfections == b.imperfections


class TestMeasureUnit:
    def test_nominal_unit_passes(self):
        stats = measure_unit(CompassConfig(), n_headings=6)
        assert stats.in_spec

    def test_bad_unit_fails(self):
        import dataclasses

        from repro.sensors.pair import PairImperfections

        bad = dataclasses.replace(
            CompassConfig(),
            imperfections=PairImperfections(misalignment_deg=8.0),
        )
        stats = measure_unit(bad, n_headings=6)
        assert not stats.in_spec


class TestYield:
    def test_production_yield_high(self):
        report = tolerance_yield(n_units=8, n_headings=6, seed=3)
        assert report.n_units == 8
        assert report.yield_fraction >= 0.75

    def test_loose_budget_kills_yield(self):
        sloppy = ToleranceBudget(
            rc_tolerance=0.10,
            comparator_offset_sigma=20e-3,
            hk_tolerance=0.3,
            gain_mismatch_sigma=0.10,
            misalignment_sigma_deg=3.0,
        )
        report = tolerance_yield(sloppy, n_units=8, n_headings=6, seed=3)
        tight = tolerance_yield(n_units=8, n_headings=6, seed=3)
        assert report.yield_fraction < tight.yield_fraction
        assert report.worst_unit_error > tight.worst_unit_error

    def test_percentiles_ordered(self):
        report = tolerance_yield(n_units=8, n_headings=6, seed=5)
        assert report.error_percentile(50) <= report.error_percentile(90)
        assert report.error_percentile(90) <= report.worst_unit_error + 1e-12

    def test_zero_units_rejected(self):
        with pytest.raises(ConfigurationError):
            tolerance_yield(n_units=0)
