"""Tests for matrix-element estimation via the polarisation identity."""

import numpy as np
import pytest

from repro.circuits.library import ghz_circuit, random_circuit
from repro.core import estimate_density_matrix, estimate_matrix_element
from repro.noise import NoiseModel, depolarizing_channel
from repro.simulators import DensityMatrixSimulator, TNSimulator
from repro.utils import basis_state
from repro.utils.linalg import is_density_matrix
from repro.utils.validation import ValidationError
from tests.core.reference import StatevectorReference


@pytest.fixture(scope="module")
def noisy_circuit():
    ideal = random_circuit(3, 12, rng=3)
    return NoiseModel(depolarizing_channel(0.05), seed=3).insert_random(ideal, 3)


@pytest.fixture(scope="module")
def exact_rho(noisy_circuit):
    return DensityMatrixSimulator().run(noisy_circuit)


class TestMatrixElement:
    def test_with_exact_tn_estimator(self, noisy_circuit, exact_rho):
        x, y = basis_state("010"), basis_state("101")
        value = estimate_matrix_element(TNSimulator(), noisy_circuit, x, y)
        assert value == pytest.approx(complex(np.vdot(x, exact_rho @ y)), abs=1e-9)

    def test_with_approximation_estimator(self, noisy_circuit, exact_rho):
        x, y = basis_state("000"), basis_state("011")
        estimator = StatevectorReference(level=2)
        value = estimate_matrix_element(estimator, noisy_circuit, x, y)
        assert value == pytest.approx(complex(np.vdot(x, exact_rho @ y)), abs=1e-3)

    def test_diagonal_element_is_real(self, noisy_circuit):
        x = basis_state("000")
        value = estimate_matrix_element(TNSimulator(), noisy_circuit, x, x)
        assert abs(value.imag) < 1e-10

    def test_bitstring_inputs(self, noisy_circuit, exact_rho):
        value = estimate_matrix_element(TNSimulator(), noisy_circuit, "010", "101")
        x, y = basis_state("010"), basis_state("101")
        assert value == pytest.approx(complex(np.vdot(x, exact_rho @ y)), abs=1e-9)

    def test_dimension_mismatch(self, noisy_circuit):
        with pytest.raises(ValidationError):
            estimate_matrix_element(TNSimulator(), noisy_circuit, basis_state("00"), basis_state("000"))


class TestDensityMatrixReconstruction:
    def test_reconstruction_matches_exact(self, noisy_circuit, exact_rho):
        rho = estimate_density_matrix(TNSimulator(), noisy_circuit)
        assert np.allclose(rho, exact_rho, atol=1e-8)
        assert is_density_matrix(rho, atol=1e-6)

    def test_reconstruction_on_ghz(self):
        circuit = ghz_circuit(2)
        rho = estimate_density_matrix(TNSimulator(), circuit)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
        assert np.allclose(rho, expected, atol=1e-9)

    def test_qubit_guard(self):
        with pytest.raises(ValidationError):
            estimate_density_matrix(TNSimulator(), ghz_circuit(7))
