"""Integration tests for the qualitative claims of the paper's evaluation.

These are scaled-down versions of the behaviours behind Tables II-IV and
Figures 4-6; the full benchmark harness in ``benchmarks/`` regenerates the
actual rows/series.
"""

import numpy as np
import pytest

from repro.analysis import approximation_sample_count, crossover_noise_count, trajectories_sample_count
from repro.circuits.library import qaoa_circuit
from repro.core import contraction_count
from repro.noise import (
    NoiseModel,
    SYCAMORE_LIKE_SPEC,
    depolarizing_channel,
    noise_rate,
)
from repro.simulators import DensityMatrixSimulator, StatevectorSimulator
from repro.utils import zero_state
from tests.core.reference import StatevectorReference


class TestTableIVBehaviour:
    """Accuracy improves (and cost grows) with the approximation level."""

    def test_levels_tradeoff(self):
        ideal = qaoa_circuit(4, seed=5)
        noisy = NoiseModel(depolarizing_channel(0.01), seed=5).insert_random(ideal, 6)
        # |v⟩ = U|0…0⟩ exactly as in the paper's Table IV setup.
        v = StatevectorSimulator().run(ideal)
        exact = DensityMatrixSimulator().run(noisy)
        exact_value = float(np.real(np.vdot(v, exact @ v)))

        errors, contractions = [], []
        for level in range(4):
            result = StatevectorReference(level=level).fidelity(
                noisy, output_state=v
            )
            errors.append(abs(result.value - exact_value))
            contractions.append(result.num_contractions)
        # Error decreases (weakly) with level; cost strictly increases.
        assert errors[3] <= errors[1] <= errors[0] + 1e-12
        assert contractions == sorted(contractions)
        assert contractions[0] < contractions[3]
        # Level-1 error is already tiny for p = 0.01 (Table IV shows 3e-5).
        assert errors[1] < 1e-3

    def test_level0_captures_most_of_the_fidelity(self):
        ideal = qaoa_circuit(4, seed=6)
        noisy = NoiseModel(depolarizing_channel(0.005), seed=6).insert_random(ideal, 8)
        v = StatevectorSimulator().run(ideal)
        exact = DensityMatrixSimulator().run(noisy)
        exact_value = float(np.real(np.vdot(v, exact @ v)))
        level0 = StatevectorReference(level=0).fidelity(
            noisy, output_state=v
        )
        assert level0.value == pytest.approx(exact_value, abs=0.05)


class TestFigure4Behaviour:
    """Cost of the level-1 approximation grows linearly in the noise count."""

    def test_contraction_count_linear_in_noises(self):
        counts = [contraction_count(n, 1) for n in range(0, 81, 20)]
        diffs = np.diff(counts)
        assert np.all(diffs == diffs[0])

    def test_runtime_scales_roughly_linearly(self):
        ideal = qaoa_circuit(4, seed=7)
        times = []
        for noises in (2, 4, 8):
            noisy = NoiseModel(depolarizing_channel(0.001), seed=7).insert_random(ideal, noises)
            result = StatevectorReference(level=1).fidelity(noisy)
            times.append(result.elapsed_seconds / result.num_contractions)
        # Per-contraction cost stays flat (within a generous factor) as noises grow.
        assert max(times) < 5 * min(times)


class TestFigure5Behaviour:
    """Sample-count comparison against quantum trajectories."""

    def test_crossover_matches_paper_at_1e3(self):
        assert crossover_noise_count(1e-3) in (25, 26, 27)

    def test_ours_wins_consistently_at_1e4(self):
        for n in range(10, 41, 5):
            assert approximation_sample_count(n, 1) <= trajectories_sample_count(n, 1e-4)

    def test_ours_wins_below_crossover_at_1e3(self):
        for n in range(10, 26, 5):
            assert approximation_sample_count(n, 1) <= trajectories_sample_count(n, 1e-3)


class TestFigure6Behaviour:
    """Approximation error grows with the noise rate, for both noise models."""

    def _level1_error(self, channel, seed=8, noises=4):
        ideal = qaoa_circuit(4, seed=seed)
        noisy = NoiseModel(channel, seed=seed).insert_random(ideal, noises)
        exact = DensityMatrixSimulator().fidelity(noisy, zero_state(4))
        result = StatevectorReference(level=1).fidelity(noisy)
        return abs(result.value - exact)

    def test_depolarizing_error_grows_with_rate(self):
        errors = [self._level1_error(depolarizing_channel(p)) for p in (0.002, 0.02, 0.1)]
        assert errors[0] <= errors[1] <= errors[2] + 1e-12
        assert errors[2] > errors[0]

    def test_realistic_model_error_grows_with_rate(self):
        errors = []
        for factor in (1.0, 20.0, 100.0):
            spec = SYCAMORE_LIKE_SPEC.scaled(factor)
            channel = spec.gate_noise(1, rng=0)
            errors.append(self._level1_error(channel))
        assert errors[0] <= errors[-1]

    def test_realistic_rates_are_small(self):
        channel = SYCAMORE_LIKE_SPEC.gate_noise(1, rng=1)
        assert noise_rate(channel) < 0.02
