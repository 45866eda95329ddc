"""Tests for the accuracy-analysis machinery."""

import dataclasses

import pytest

from repro.batch import BatchCompass
from repro.core.accuracy import ErrorStats, quantisation_floor_deg
from repro.core.compass import CompassConfig
from repro.core.heading import headings_evenly_spaced
from repro.errors import ConfigurationError
from repro.units import angular_difference_deg


@pytest.fixture(scope="module")
def batch():
    return BatchCompass()


class TestErrorStats:
    def test_from_errors(self):
        stats = ErrorStats.from_errors([-1.0, 0.5, 2.0])
        assert stats.max_error == 2.0
        assert stats.n_samples == 3
        assert stats.rms_error == pytest.approx((5.25 / 3) ** 0.5)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ErrorStats.from_errors([])

    def test_meets_budget(self):
        assert ErrorStats.from_errors([0.3, -0.8]).in_spec
        assert not ErrorStats.from_errors([0.3, -1.2]).in_spec


class TestHeadingSweep:
    def test_sweep_covers_circle(self, batch):
        measurements = batch.sweep_headings(n_points=8)
        headings = [m.heading_deg for m in measurements]
        assert len(headings) == 8
        assert max(headings) - min(headings) > 300.0

    @pytest.mark.slow
    def test_paper_accuracy_on_sweep(self, batch):
        # The §6 claim at the default design point; test_paper_claims.py
        # keeps a smaller sweep of the same claim in the default tier.
        headings = headings_evenly_spaced(24, 0.5)
        stats = ErrorStats.from_sweep(headings, batch.sweep_headings(headings))
        assert stats.in_spec

    def test_error_signs_preserved(self, batch):
        headings = headings_evenly_spaced(8, 0.5)
        measurements = batch.sweep_headings(headings)
        signed = [
            angular_difference_deg(m.heading_deg, h)
            for h, m in zip(headings, measurements)
        ]
        # The signed errors fall on both sides; the stats take magnitudes.
        assert min(signed) < 0.0 < max(signed)
        stats = ErrorStats.from_sweep(headings, measurements)
        assert stats.max_error == max(abs(e) for e in signed)
        assert stats == ErrorStats.from_errors(signed)


class TestMagnitudeSweep:
    def test_insensitive_across_worldwide_range(self, batch):
        headings = headings_evenly_spaced(8, 0.5)
        grouped = batch.sweep_magnitudes([25e-6, 65e-6], n_headings=8)
        for magnitude, measurements in grouped:
            stats = ErrorStats.from_sweep(headings, measurements)
            assert stats.in_spec, f"failed at {magnitude*1e6:.0f} µT"

    def test_empty_magnitudes_rejected(self, batch):
        with pytest.raises(ConfigurationError):
            batch.sweep_magnitudes([])


class TestMonteCarlo:
    def test_noise_seeds_stay_within_budget(self):
        stats = BatchCompass.monte_carlo(
            CompassConfig(), n_trials=3, n_headings=6
        ).stats
        assert stats.n_samples == 18
        assert stats.in_spec

    def test_custom_perturbation(self):
        def perturb(config, trial):
            fe = dataclasses.replace(config.front_end, noise_seed=trial + 100)
            return dataclasses.replace(config, front_end=fe)

        result = BatchCompass.monte_carlo(
            CompassConfig(), n_trials=2, n_headings=4, perturb=perturb
        )
        assert result.stats.n_samples == 8
        assert [len(trial) for trial in result.records] == [4, 4]

    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchCompass.monte_carlo(CompassConfig(), n_trials=0)


class TestQuantisationFloor:
    def test_floor_for_paper_full_scale(self):
        # 4194 counts full scale → ~0.014° floor: far below 1°.
        assert quantisation_floor_deg(4194) < 0.05

    def test_floor_shrinks_with_resolution(self):
        assert quantisation_floor_deg(8000) < quantisation_floor_deg(1000)

    def test_invalid_full_scale(self):
        with pytest.raises(ConfigurationError):
            quantisation_floor_deg(0)
