"""Tests for the quantum-trajectories baseline: estimator quality and sample budgeting.

Engine mechanics (noiseless short-circuit, argument validation, amplitude
damping, statevector-vs-TN agreement, seeding) live in
``tests/backends/test_engine.py``.
"""

import pytest

from repro.api import Session
from repro.backends.engine import BatchedTrajectoryEngine
from repro.circuits.library import random_circuit
from repro.noise import NoiseModel, depolarizing_channel
from repro.simulators import DensityMatrixSimulator
from repro.utils import zero_state
from repro.utils.validation import ValidationError


@pytest.fixture(scope="module")
def noisy_circuit():
    ideal = random_circuit(3, 15, rng=4)
    return NoiseModel(depolarizing_channel(0.1), seed=4).insert_random(ideal, 4)


@pytest.fixture(scope="module")
def exact_value(noisy_circuit):
    return DensityMatrixSimulator().fidelity(noisy_circuit, zero_state(3))


class TestStatevectorBackend:
    def test_unbiased_estimate(self, noisy_circuit, exact_value):
        result = BatchedTrajectoryEngine("statevector").estimate_fidelity(
            noisy_circuit, 4000, rng=0
        )
        assert result.estimate == pytest.approx(exact_value, abs=5 * result.standard_error + 1e-3)

    def test_error_shrinks_with_samples(self, noisy_circuit):
        engine = BatchedTrajectoryEngine("statevector")
        small = engine.estimate_fidelity(noisy_circuit, 50, rng=1)
        large = engine.estimate_fidelity(noisy_circuit, 3000, rng=1)
        assert large.standard_error < small.standard_error

    def test_result_metadata(self, noisy_circuit):
        result = BatchedTrajectoryEngine("statevector").estimate_fidelity(
            noisy_circuit, 16, rng=3, keep_samples=True
        )
        assert result.num_samples == 16
        assert len(result.samples) == 16
        low, high = result.confidence_interval()
        assert low <= result.estimate <= high

    def test_samples_not_retained_by_default(self, noisy_circuit):
        result = BatchedTrajectoryEngine("statevector").estimate_fidelity(
            noisy_circuit, 16, rng=3
        )
        assert result.samples is None
        assert result.num_samples == 16


class TestTNBackend:
    def test_unbiased_estimate(self, noisy_circuit, exact_value):
        result = BatchedTrajectoryEngine("tn").estimate_fidelity(noisy_circuit, 1500, rng=6)
        assert result.estimate == pytest.approx(exact_value, abs=5 * result.standard_error + 2e-3)

    def test_unknown_backend(self):
        with pytest.raises(ValidationError):
            BatchedTrajectoryEngine("magic")


class TestSampleBudgeting:
    def test_samples_for_precision_scales_inversely(self, noisy_circuit):
        with Session(passes=False) as session:
            loose = session.samples_for_precision(noisy_circuit, 1e-2, seed=8)
            tight = session.samples_for_precision(noisy_circuit, 1e-3, seed=8)
        assert tight > loose

    def test_samples_for_precision_invalid_target(self, noisy_circuit):
        with Session() as session, pytest.raises(ValidationError):
            session.samples_for_precision(noisy_circuit, 0.0)
