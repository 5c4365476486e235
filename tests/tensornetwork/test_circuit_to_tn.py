"""Tests for the circuit → tensor-network builders (Section III diagrams)."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.library import ghz_circuit, qft_circuit, random_circuit
from repro.noise import NoiseModel, amplitude_damping_channel, depolarizing_channel
from repro.simulators import DensityMatrixSimulator, StatevectorSimulator
from repro.tensornetwork import (
    circuit_amplitude_network,
    noisy_doubled_network,
    operator_amplitude_network,
    resolve_product_state,
)
from repro.core import decompose_noise
from repro.utils import basis_state, zero_state
from repro.utils.validation import ValidationError
from tests.core.reference import substituted_split_networks


def _dense(state, n):
    resolved = resolve_product_state(state, n)
    if isinstance(resolved, list):
        return functools.reduce(np.kron, resolved)
    return resolved


class TestResolveProductState:
    def test_bitstring(self):
        factors = resolve_product_state("01+", 3)
        assert isinstance(factors, list)
        assert np.allclose(factors[1], [0, 1])
        assert np.allclose(factors[2], [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_invalid_bitstring(self):
        with pytest.raises(ValidationError):
            resolve_product_state("012", 3)

    def test_wrong_length_bitstring(self):
        with pytest.raises(ValidationError):
            resolve_product_state("01", 3)

    def test_factor_list(self):
        factors = resolve_product_state([np.array([1, 0]), np.array([0, 1])], 2)
        assert isinstance(factors, list) and len(factors) == 2

    def test_dense_vector(self):
        dense = resolve_product_state(np.ones(8) / np.sqrt(8), 3)
        assert isinstance(dense, np.ndarray) and dense.shape == (8,)

    def test_dense_wrong_length(self):
        with pytest.raises(ValidationError):
            resolve_product_state(np.ones(6), 3)


class TestAmplitudeNetwork:
    @pytest.mark.parametrize("output", ["000", "111", "010", "+-+"])
    def test_ghz_amplitudes(self, output):
        circuit = ghz_circuit(3)
        amp = circuit_amplitude_network(circuit, "000", output).contract_to_scalar()
        psi = StatevectorSimulator().run(circuit)
        expected = np.vdot(_dense(output, 3), psi)
        assert amp == pytest.approx(expected, abs=1e-10)

    def test_dense_boundary_states(self):
        circuit = qft_circuit(3)
        rng = np.random.default_rng(0)
        vin = rng.normal(size=8) + 1j * rng.normal(size=8)
        vin /= np.linalg.norm(vin)
        vout = rng.normal(size=8) + 1j * rng.normal(size=8)
        vout /= np.linalg.norm(vout)
        amp = circuit_amplitude_network(circuit, vin, vout).contract_to_scalar()
        expected = np.vdot(vout, circuit.unitary() @ vin)
        assert amp == pytest.approx(expected, abs=1e-10)

    def test_rejects_noisy_circuit(self):
        circuit = ghz_circuit(2)
        circuit.append(depolarizing_channel(0.1), 0)
        with pytest.raises(ValidationError):
            circuit_amplitude_network(circuit, "00", "00")

    def test_operator_network_with_nonunitary_ops(self):
        """Arbitrary (non-unitary) matrices are accepted — needed by Algorithm 1."""
        k = np.array([[1.0, 0.0], [0.0, 0.5]])
        network = operator_amplitude_network(1, [(k, (0,))], "+", "0")
        assert network.contract_to_scalar() == pytest.approx(1 / np.sqrt(2))

    def test_operator_network_bad_shape(self):
        with pytest.raises(ValidationError):
            operator_amplitude_network(2, [(np.eye(2), (0, 1))], "00", "00")

    def test_operator_network_bad_qubit(self):
        with pytest.raises(ValidationError):
            operator_amplitude_network(1, [(np.eye(2), (3,))], "0", "0")

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_random_circuit_amplitude_matches_statevector(self, seed):
        circuit = random_circuit(3, 15, rng=seed)
        psi = StatevectorSimulator().run(circuit)
        target = format(seed % 8, "03b")
        amp = circuit_amplitude_network(circuit, "000", target).contract_to_scalar()
        assert amp == pytest.approx(psi[int(target, 2)], abs=1e-9)


class TestDoubledNetwork:
    def _noisy_fixture(self, seed=0, noises=3):
        ideal = random_circuit(3, 15, rng=seed)
        return NoiseModel(depolarizing_channel(0.05), seed=seed).insert_random(ideal, noises)

    def test_matches_density_matrix_simulator(self):
        noisy = self._noisy_fixture()
        value = noisy_doubled_network(noisy, "000", "000").contract_to_scalar()
        expected = DensityMatrixSimulator().fidelity(noisy, zero_state(3))
        assert value.real == pytest.approx(expected, abs=1e-10)
        assert abs(value.imag) < 1e-10

    def test_non_basis_output(self):
        noisy = self._noisy_fixture(seed=3)
        value = noisy_doubled_network(noisy, "000", "+01").contract_to_scalar()
        v = _dense("+01", 3)
        rho = DensityMatrixSimulator().run(noisy)
        assert value.real == pytest.approx(float(np.real(np.vdot(v, rho @ v))), abs=1e-10)

    def test_amplitude_damping_channel(self):
        ideal = ghz_circuit(2)
        noisy = NoiseModel(amplitude_damping_channel(0.2), seed=1).insert_random(ideal, 2)
        value = noisy_doubled_network(noisy, "00", "11").contract_to_scalar()
        expected = DensityMatrixSimulator().fidelity(noisy, basis_state("11"))
        assert value.real == pytest.approx(expected, abs=1e-10)

    def test_noiseless_circuit_reduces_to_amplitude_squared(self):
        circuit = ghz_circuit(3)
        value = noisy_doubled_network(circuit, "000", "111").contract_to_scalar()
        assert value.real == pytest.approx(0.5, abs=1e-10)


class TestSplitNetworks:
    def test_dominant_substitution_splits_and_multiplies(self):
        noisy = NoiseModel(depolarizing_channel(0.01), seed=2).insert_random(
            random_circuit(3, 12, rng=5), 2
        )
        decomposition = [decompose_noise(inst.operation) for inst in noisy.noise_instructions]
        substitution = {i: d.terms[0] for i, d in enumerate(decomposition)}
        upper, lower = substituted_split_networks(noisy, substitution, "000", "000")
        product = upper.contract_to_scalar() * lower.contract_to_scalar()
        # With every noise substituted by U_0 ⊗ V_0 this is the level-0 value,
        # close to (but not exactly) the true fidelity.
        exact = DensityMatrixSimulator().fidelity(noisy, zero_state(3))
        assert product.real == pytest.approx(exact, abs=0.05)

    def test_missing_substitution_rejected(self):
        noisy = NoiseModel(depolarizing_channel(0.01), seed=2).insert_random(ghz_circuit(2), 2)
        with pytest.raises(ValidationError):
            substituted_split_networks(noisy, {0: (np.eye(2), np.eye(2))}, "00", "00")

    def test_extra_substitution_rejected(self):
        circuit = ghz_circuit(2)
        with pytest.raises(ValidationError):
            substituted_split_networks(circuit, {0: (np.eye(2), np.eye(2))}, "00", "00")

    def test_identity_substitution_recovers_noiseless_value(self):
        """Substituting identity for every noise gives the noiseless fidelity."""
        ideal = ghz_circuit(3)
        noisy = NoiseModel(depolarizing_channel(0.3), seed=4).insert_random(ideal, 2)
        identity_sub = {i: (np.eye(2), np.eye(2)) for i in range(2)}
        upper, lower = substituted_split_networks(noisy, identity_sub, "000", "111")
        product = upper.contract_to_scalar() * lower.contract_to_scalar()
        assert product.real == pytest.approx(0.5, abs=1e-10)
