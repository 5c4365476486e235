"""Tests for the weight-ordered path-truncation variant."""

import numpy as np
import pytest

from repro.circuits.library import random_circuit
from repro.core import (
    PathTruncatedSimulator,
    decompose_noise,
    enumerate_paths_by_weight,
)
from repro.noise import NoiseModel, amplitude_damping_channel, depolarizing_channel
from repro.simulators import DensityMatrixSimulator
from repro.utils import zero_state
from repro.utils.validation import ValidationError
from tests.core.reference import StatevectorReference


def _noisy(seed=0, qubits=3, depth=12, noises=3, p=0.05, channel=None):
    ideal = random_circuit(qubits, depth, rng=seed)
    channel = depolarizing_channel(p) if channel is None else channel
    return NoiseModel(channel, seed=seed).insert_random(ideal, noises)


class TestPathEnumeration:
    def test_empty_decomposition_list(self):
        paths = list(enumerate_paths_by_weight([]))
        assert paths == [(1.0, ())]

    def test_weights_are_non_increasing(self):
        decompositions = [
            decompose_noise(depolarizing_channel(0.1)),
            decompose_noise(amplitude_damping_channel(0.2)),
        ]
        weights = [w for w, _ in enumerate_paths_by_weight(decompositions)]
        assert all(a >= b - 1e-12 for a, b in zip(weights[:-1], weights[1:]))

    def test_enumerates_all_paths(self):
        decompositions = [decompose_noise(depolarizing_channel(0.1))] * 2
        paths = list(enumerate_paths_by_weight(decompositions))
        assert len(paths) == 16  # 4 terms per depolarizing noise, 2 noises

    def test_first_path_is_all_dominant(self):
        decompositions = [decompose_noise(depolarizing_channel(0.05))] * 3
        _, first = next(iter(enumerate_paths_by_weight(decompositions)))
        assert first == (0, 0, 0)

    def test_max_paths_limits_output(self):
        decompositions = [decompose_noise(depolarizing_channel(0.1))] * 3
        assert len(list(enumerate_paths_by_weight(decompositions, max_paths=7))) == 7


class TestPathTruncatedSimulator:
    def test_single_path_equals_level0(self):
        noisy = _noisy(seed=1)
        level0 = StatevectorReference(level=0).fidelity(noisy)
        path1 = PathTruncatedSimulator(max_paths=1).fidelity(noisy)
        assert path1.value == pytest.approx(level0.value, abs=1e-12)
        assert path1.num_contractions == 2

    def test_all_paths_is_exact(self):
        noisy = _noisy(seed=2, noises=3)
        exact = DensityMatrixSimulator().fidelity(noisy, zero_state(3))
        result = PathTruncatedSimulator(max_paths=4**3).fidelity(noisy)
        assert result.value == pytest.approx(exact, abs=1e-9)
        assert result.weight_coverage == pytest.approx(1.0, abs=1e-9)

    def test_error_decreases_with_budget(self):
        noisy = _noisy(seed=3, noises=4, p=0.1)
        exact = DensityMatrixSimulator().fidelity(noisy, zero_state(3))
        errors = []
        for budget in (1, 8, 64, 256):
            value = PathTruncatedSimulator(max_paths=budget).fidelity(noisy).value
            errors.append(abs(value - exact))
        assert errors[-1] <= errors[0] + 1e-12
        assert errors[-1] < 1e-9

    def test_matches_level1_at_equivalent_budget_for_uniform_noise(self):
        """With identical noises, the heaviest 1+3N paths are exactly the level-1 set."""
        noisy = _noisy(seed=4, noises=3, p=0.02)
        level1 = StatevectorReference(level=1).fidelity(noisy)
        paths = PathTruncatedSimulator(max_paths=1 + 3 * 3).fidelity(noisy)
        assert paths.value == pytest.approx(level1.value, abs=1e-10)

    def test_mixed_strength_noise_beats_level_scheme_at_same_budget(self):
        """When one noise is much stronger, spending the budget on its terms pays off."""
        ideal = random_circuit(3, 12, rng=5)
        strong_then_weak = NoiseModel(amplitude_damping_channel(0.4), seed=5).insert_at(
            ideal, positions=[2], qubits=[0]
        )
        noisy = NoiseModel(depolarizing_channel(1e-4), seed=6).insert_random(strong_then_weak, 3)
        exact = DensityMatrixSimulator().fidelity(noisy, zero_state(3))
        budget_terms = 1 + 3 * 4  # the level-1 budget for N=4 noises
        level1 = StatevectorReference(level=1).fidelity(noisy)
        paths = PathTruncatedSimulator(max_paths=budget_terms).fidelity(noisy)
        assert abs(paths.value - exact) <= abs(level1.value - exact) + 1e-9

    def test_weight_coverage_monotone(self):
        noisy = _noisy(seed=7, noises=3)
        small = PathTruncatedSimulator(max_paths=2).fidelity(noisy)
        large = PathTruncatedSimulator(max_paths=20).fidelity(noisy)
        assert large.weight_coverage >= small.weight_coverage
        assert 0.0 < small.weight_coverage <= 1.0 + 1e-9

    def test_invalid_budget(self):
        with pytest.raises(ValidationError):
            PathTruncatedSimulator(max_paths=0)
        with pytest.raises(ValidationError):
            PathTruncatedSimulator().fidelity(_noisy(seed=8), max_paths=0)

    def test_noiseless_circuit(self):
        circuit = random_circuit(3, 10, rng=9)
        exact = DensityMatrixSimulator().fidelity(circuit, zero_state(3))
        result = PathTruncatedSimulator(max_paths=5).fidelity(circuit)
        assert result.value == pytest.approx(exact, abs=1e-10)
        assert result.num_paths == 1
