"""Tests for Algorithm 1 (the approximation noisy-simulation algorithm)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.library import ghz_circuit, hf_circuit, qaoa_circuit, random_circuit
from repro.core import ApproximateNoisySimulator, contraction_count, theorem1_error_bound
from repro.noise import (
    NoiseModel,
    SYCAMORE_LIKE_SPEC,
    amplitude_damping_channel,
    depolarizing_channel,
    noise_rate,
)
from repro.simulators import DensityMatrixSimulator, TNSimulator
from repro.utils import zero_state
from repro.utils.validation import ValidationError
from tests.core.reference import StatevectorReference


def _noisy(seed=0, qubits=3, depth=15, noises=4, p=0.02, circuit=None):
    ideal = circuit if circuit is not None else random_circuit(qubits, depth, rng=seed)
    return NoiseModel(depolarizing_channel(p), seed=seed).insert_random(ideal, noises)


class TestBasicBehaviour:
    def test_level0_single_term(self):
        noisy = _noisy()
        result = ApproximateNoisySimulator(level=0).fidelity(noisy)
        assert result.num_terms == 1
        assert result.num_contractions == 2

    def test_contraction_count_matches_theorem(self):
        noisy = _noisy(noises=5)
        for level in range(3):
            result = ApproximateNoisySimulator(level=level).fidelity(noisy)
            assert result.num_contractions == contraction_count(5, level)

    def test_noiseless_circuit_is_exact_at_level0(self):
        circuit = ghz_circuit(3)
        result = ApproximateNoisySimulator(level=0).fidelity(circuit, output_state="111")
        assert result.value == pytest.approx(0.5, abs=1e-10)
        assert result.num_noises == 0

    def test_level_capped_at_noise_count(self):
        noisy = _noisy(noises=2)
        result = ApproximateNoisySimulator(level=10).fidelity(noisy)
        assert result.level == 2

    def test_invalid_level(self):
        with pytest.raises(ValidationError):
            ApproximateNoisySimulator(level=-1)
        with pytest.raises(ValidationError):
            ApproximateNoisySimulator().fidelity(_noisy(), level=-2)

    def test_invalid_backend(self):
        # Terms are always evaluated by plan replay: there is no backend option.
        with pytest.raises(TypeError):
            ApproximateNoisySimulator(backend="statevector")

    def test_result_metadata(self):
        noisy = _noisy(noises=3, p=0.01)
        result = ApproximateNoisySimulator(level=1).fidelity(noisy)
        assert result.num_noises == 3
        assert result.max_noise_rate == pytest.approx(noise_rate(depolarizing_channel(0.01)))
        assert result.elapsed_seconds > 0
        assert len(result.level_contributions) == 2
        assert result.error_bound == pytest.approx(
            theorem1_error_bound(3, result.max_noise_rate, 1)
        )
        assert "A(1)" in str(result)

    def test_planned_contractions(self):
        noisy = _noisy(noises=4)
        sim = ApproximateNoisySimulator(level=1)
        assert sim.planned_contractions(noisy) == contraction_count(4, 1)


class TestAccuracy:
    def test_exact_at_level_n(self):
        noisy = _noisy(seed=1, noises=4)
        exact = DensityMatrixSimulator().fidelity(noisy, zero_state(3))
        result = ApproximateNoisySimulator().exact_fidelity(noisy)
        assert result.value == pytest.approx(exact, abs=1e-10)

    def test_error_within_theorem1_bound_at_every_level(self):
        noisy = _noisy(seed=2, noises=5, p=0.02)
        exact = DensityMatrixSimulator().fidelity(noisy, zero_state(3))
        for level in range(6):
            result = ApproximateNoisySimulator(level=level).fidelity(noisy)
            assert abs(result.value - exact) <= result.error_bound + 1e-9

    def test_error_decreases_with_level(self):
        noisy = _noisy(seed=3, noises=5, p=0.05)
        exact = DensityMatrixSimulator().fidelity(noisy, zero_state(3))
        errors = [
            abs(ApproximateNoisySimulator(level=level).fidelity(noisy).value - exact)
            for level in (0, 1, 3, 5)
        ]
        assert errors[-1] <= errors[0] + 1e-12
        assert errors[-1] < 1e-9

    def test_level1_already_accurate_for_weak_noise(self):
        noisy = _noisy(seed=4, noises=6, p=0.001)
        exact = DensityMatrixSimulator().fidelity(noisy, zero_state(3))
        result = ApproximateNoisySimulator(level=1).fidelity(noisy)
        assert abs(result.value - exact) < 1e-5

    def test_statevector_backend_matches_tn_backend(self):
        noisy = _noisy(seed=5, noises=4)
        tn_result = ApproximateNoisySimulator(level=2).fidelity(noisy)
        sv_result = StatevectorReference(level=2).fidelity(noisy)
        assert tn_result.value == pytest.approx(sv_result.value, abs=1e-12)
        assert tn_result.num_terms == sv_result.num_terms

    def test_agrees_with_exact_tn_simulator(self):
        noisy = _noisy(seed=6, noises=3, p=0.01)
        exact = TNSimulator().fidelity(noisy)
        result = ApproximateNoisySimulator(level=3).fidelity(noisy)
        assert result.value == pytest.approx(exact, abs=1e-9)

    def test_amplitude_damping_noise(self):
        """The algorithm is not specific to unital/Pauli noise."""
        ideal = ghz_circuit(3)
        noisy = NoiseModel(amplitude_damping_channel(0.05), seed=7).insert_random(ideal, 3)
        exact = DensityMatrixSimulator().fidelity(noisy, zero_state(3))
        result = ApproximateNoisySimulator(level=1).fidelity(noisy)
        assert abs(result.value - exact) <= result.error_bound + 1e-9

    def test_superconducting_noise(self):
        ideal = qaoa_circuit(4, seed=2)
        model = NoiseModel(lambda arity, rng: SYCAMORE_LIKE_SPEC.gate_noise(arity, rng), seed=8)
        noisy = model.insert_random(ideal, 5)
        exact = DensityMatrixSimulator().fidelity(noisy, zero_state(4))
        result = ApproximateNoisySimulator(level=1).fidelity(noisy)
        assert abs(result.value - exact) <= result.error_bound + 1e-9

    def test_hartree_fock_benchmark_circuit(self):
        ideal = hf_circuit(4, seed=3, native_gates=False)
        noisy = NoiseModel(depolarizing_channel(0.01), seed=9).insert_random(ideal, 4)
        exact = DensityMatrixSimulator().fidelity(noisy, zero_state(4))
        result = ApproximateNoisySimulator(level=1).fidelity(noisy)
        assert abs(result.value - exact) < 1e-3

    def test_custom_input_output_states(self):
        noisy = _noisy(seed=10, noises=3)
        rng = np.random.default_rng(0)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        exact = float(np.real(np.vdot(v, DensityMatrixSimulator().run(noisy) @ v)))
        result = ApproximateNoisySimulator(level=3).fidelity(noisy, output_state=v)
        assert result.value == pytest.approx(exact, abs=1e-9)

    @given(st.integers(min_value=0, max_value=500), st.floats(min_value=1e-4, max_value=0.05))
    @settings(max_examples=12, deadline=None)
    def test_property_error_within_bound(self, seed, p):
        noisy = _noisy(seed=seed, qubits=3, depth=10, noises=3, p=p)
        exact = DensityMatrixSimulator().fidelity(noisy, zero_state(3))
        result = StatevectorReference(level=1).fidelity(noisy)
        assert abs(result.value - exact) <= result.error_bound + 1e-9
        tn_value = ApproximateNoisySimulator(level=1).fidelity(noisy).value
        assert tn_value == pytest.approx(result.value, abs=1e-12)
