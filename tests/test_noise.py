"""Tests for the noise models."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analog.comparator import PickupAmplifier
from repro.errors import ConfigurationError
from repro.physics.noise import (
    NOISELESS,
    TYPICAL_1997_CMOS,
    NoiseBudget,
    NoiseGenerator,
    thermal_noise_density,
)


class TestNoiseBudget:
    def test_negative_values_rejected(self):
        with pytest.raises(ConfigurationError):
            NoiseBudget(white_density=-1.0)

    def test_noiseless_flag(self):
        assert NOISELESS.is_noiseless
        assert not TYPICAL_1997_CMOS.is_noiseless

    def test_flicker_only_still_counts_as_noiseless(self):
        # Flicker without a white floor produces nothing in our model.
        budget = NoiseBudget(flicker_corner_hz=1000.0)
        assert budget.is_noiseless


class TestThermalNoise:
    def test_77_ohm_sensor_noise_density(self):
        # The measured sensor's 77 Ω: ~1.1 nV/√Hz at 300 K.
        density = thermal_noise_density(77.0)
        assert density == pytest.approx(1.13e-9, rel=0.02)

    def test_scales_with_sqrt_resistance(self):
        assert thermal_noise_density(400.0) == pytest.approx(
            2.0 * thermal_noise_density(100.0)
        )

    def test_invalid_temperature_rejected(self):
        with pytest.raises(ConfigurationError):
            thermal_noise_density(100.0, temperature_k=0.0)


class TestNoiseGenerator:
    def test_deterministic_with_seed(self):
        a = NoiseGenerator(TYPICAL_1997_CMOS, 1e6, seed=7).white(100)
        b = NoiseGenerator(TYPICAL_1997_CMOS, 1e6, seed=7).white(100)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = NoiseGenerator(TYPICAL_1997_CMOS, 1e6, seed=1).white(100)
        b = NoiseGenerator(TYPICAL_1997_CMOS, 1e6, seed=2).white(100)
        assert not np.array_equal(a, b)

    def test_white_rms_matches_density(self):
        fs = 1e6
        gen = NoiseGenerator(NoiseBudget(white_density=100e-9), fs, seed=0)
        samples = gen.white(200_000)
        expected_rms = 100e-9 * math.sqrt(fs / 2.0)
        assert np.std(samples) == pytest.approx(expected_rms, rel=0.02)

    def test_noiseless_budget_returns_zeros(self):
        gen = NoiseGenerator(NOISELESS, 1e6)
        assert np.all(gen.voltage_noise(1000) == 0.0)

    def test_flicker_is_low_frequency_weighted(self):
        fs = 100e3
        budget = NoiseBudget(white_density=100e-9, flicker_corner_hz=5e3)
        gen = NoiseGenerator(budget, fs, seed=3)
        samples = gen.flicker(2**16)
        spectrum = np.abs(np.fft.rfft(samples)) ** 2
        freqs = np.fft.rfftfreq(samples.size, 1.0 / fs)
        low = spectrum[(freqs > 100) & (freqs < 1000)].mean()
        high = spectrum[(freqs > 20e3) & (freqs < 40e3)].mean()
        assert low > 5.0 * high

    def test_comparator_offset_statistics(self):
        budget = NoiseBudget(comparator_offset_sigma=2e-3)
        offsets = [
            NoiseGenerator(budget, 1e6, seed=s).comparator_offset()
            for s in range(400)
        ]
        assert np.std(offsets) == pytest.approx(2e-3, rel=0.15)

    def test_zero_offset_budget(self):
        gen = NoiseGenerator(NOISELESS, 1e6)
        assert gen.comparator_offset() == 0.0

    def test_jittered_edges_preserve_count(self):
        gen = NoiseGenerator(TYPICAL_1997_CMOS, 1e6, seed=0)
        edges = np.linspace(0, 1e-3, 50)
        jittered = gen.jittered_edges(edges)
        assert jittered.shape == edges.shape
        assert np.max(np.abs(jittered - edges)) < 10 * TYPICAL_1997_CMOS.clock_jitter_rms

    def test_jitter_disabled_returns_input(self):
        gen = NoiseGenerator(NOISELESS, 1e6)
        edges = np.array([1e-6, 2e-6])
        assert np.array_equal(gen.jittered_edges(edges), edges)

    def test_invalid_sample_rate(self):
        with pytest.raises(ConfigurationError):
            NoiseGenerator(NOISELESS, 0.0)


def _reference_flicker(budget, sample_rate, rng, state, n):
    """The flicker recurrence written out sample by sample.

    Draws the drive from ``rng`` exactly as :meth:`NoiseGenerator.flicker`
    does and returns ``(samples, new_state)``.
    """
    alpha = math.exp(-2.0 * math.pi * budget.flicker_corner_hz / sample_rate)
    drive_sigma = budget.white_density * math.sqrt(sample_rate / 2.0)
    drive = rng.normal(0.0, drive_sigma, n)
    gain = 1.0 - alpha
    out = np.empty(n)
    for i in range(n):
        state = alpha * state + gain * drive[i]
        out[i] = state
    return out / max(gain, 1e-12) * gain * math.sqrt(2.0), state


class TestFlickerStream:
    """The flicker samples, and the state they carry across calls, are
    pinned bit for bit to the per-sample recurrence."""

    @pytest.mark.parametrize("n", [0, 1, 2, 4096])
    @pytest.mark.parametrize(
        "sample_rate,corner_hz",
        [(1e6, 1e3), (100e3, 5e3), (32.768e6, 1e3), (32.768e6, 10.0)],
    )
    @pytest.mark.parametrize("seed", [0, 11])
    def test_chained_calls_match_the_recurrence(
        self, n, sample_rate, corner_hz, seed
    ):
        budget = NoiseBudget(white_density=50e-9, flicker_corner_hz=corner_hz)
        gen = NoiseGenerator(budget, sample_rate, seed=seed)
        rng = np.random.default_rng(seed)
        state = 0.0
        for _ in range(2):
            expected, state = _reference_flicker(budget, sample_rate, rng, state, n)
            got = gen.flicker(n)
            assert got.shape == (n,)
            assert np.array_equal(got, expected)
            assert gen._flicker_state == state

    def test_empty_call_keeps_the_state(self):
        budget = NoiseBudget(white_density=50e-9, flicker_corner_hz=1e3)
        gen = NoiseGenerator(budget, 1e6, seed=5)
        gen.flicker(64)
        state = gen._flicker_state
        assert state != 0.0
        empty = gen.flicker(0)
        assert empty.shape == (0,)
        assert gen._flicker_state == state

    # SHA-256 of the float64 bytes of two amplifier noise realizations at
    # the stepped chain's 32.768 MHz sample rate and sample count.
    @pytest.mark.parametrize(
        "draw_index,digest",
        [
            (0, "11b797b8707bd6aab2ad5a896ba0486c23a49f428dfd6bb172deeed09d9e6d4b"),
            (5, "42a5a3518b16083539a878b15d580e8b8e9e4f872dddd91246a7a390a797ef4a"),
        ],
    )
    def test_amplifier_noise_fingerprint(self, draw_index, digest):
        amplifier = PickupAmplifier(budget=TYPICAL_1997_CMOS, seed=3)
        noise = amplifier.noise_realization(36864, 32.768e6, draw_index)
        assert noise.dtype == np.float64
        assert hashlib.sha256(noise.tobytes()).hexdigest() == digest


def test_fastpath_compass_never_imports_scipy_signal():
    # scipy.signal takes over a second to import; a noiseless fast-path
    # compass (the fleet's serving config) must not pay for it.
    script = (
        "import sys\n"
        "from repro.core.compass import IntegratedCompass\n"
        "from repro.fleet import FleetConfig\n"
        "IntegratedCompass(FleetConfig().service.compass).measure_heading(45.0)\n"
        "assert 'scipy.signal' not in sys.modules, 'scipy.signal was imported'\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
