"""Symbolic parameters: expressions, parametric gates, circuit helpers.

Covers the structure/value split that the compile-once/bind-many machinery
relies on (``structure_token`` stable across bind/shift, fingerprints), the
QASM round-trip of free and bound parametric gates, and the parametric
library ansätze.
"""

import math

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.library import benchmark_circuit, hf_circuit, qaoa_circuit
from repro.circuits.gates import GATE_FACTORIES
from repro.circuits.parameters import (
    GATE_GENERATORS,
    Parameter,
    ParameterExpression,
    ParametricGate,
    UnboundParameterError,
    circuit_parameters,
    gate_derivative,
    is_parametric,
    normalize_binding,
    substitute,
)
from repro.circuits.qasm import from_qasm, to_qasm
from repro.utils.validation import ValidationError


class TestParameterExpression:
    def test_parameter_requires_identifier(self):
        with pytest.raises(ValidationError):
            Parameter("2bad")
        with pytest.raises(ValidationError):
            Parameter("a b")

    def test_arithmetic_collects_terms(self):
        gamma, beta = Parameter("gamma"), Parameter("beta")
        expr = 2.0 * gamma - beta / 2 + 1.0
        assert sorted(expr.parameters) == ["beta", "gamma"]
        assert expr.coefficient("gamma") == 2.0
        assert expr.coefficient("beta") == -0.5
        assert expr.evaluate({"gamma": 0.5, "beta": 2.0}) == 1.0

    def test_zero_coefficients_drop_out(self):
        gamma = Parameter("gamma")
        expr = gamma - gamma + 3.0
        assert expr.parameters == frozenset()
        assert expr.evaluate({}) == 3.0

    def test_evaluate_reports_missing_names(self):
        expr = Parameter("gamma") + Parameter("beta")
        with pytest.raises(UnboundParameterError, match="beta"):
            expr.evaluate({"gamma": 1.0})

    def test_structure_key_distinguishes_coefficients(self):
        gamma = Parameter("gamma")
        assert (2.0 * gamma).structure_key() != gamma._expr().structure_key()
        assert (2.0 * gamma).structure_key() == (gamma * 2.0).structure_key()


class TestParametricGate:
    def test_matrix_requires_full_binding(self):
        gate = ParametricGate("rx", (Parameter("theta"),))
        assert gate.free_parameters == frozenset({"theta"})
        assert not gate.is_bound
        with pytest.raises(UnboundParameterError):
            _ = gate.matrix

    def test_bind_is_partial_and_ignores_irrelevant_names(self):
        gate = ParametricGate("cp", (Parameter("a") + Parameter("b"),))
        half = gate.bind({"a": 0.25, "other": 9.0})
        assert half.free_parameters == frozenset({"b"})
        full = half.bind({"b": 0.5})
        assert full.is_bound
        reference = ParametricGate("cp", (0.75,))
        np.testing.assert_allclose(full.matrix, reference.matrix)

    def test_structure_token_stable_across_bind_and_shift(self):
        gate = ParametricGate("rz", (2.0 * Parameter("g"),))
        assert gate.structure_token() == gate.bind({"g": 1.0}).structure_token()
        assert gate.structure_token() == gate.shifted(0, math.pi / 2).structure_token()
        # ...while the value token tracks binding and offsets.
        assert gate.value_token() != gate.bind({"g": 1.0}).value_token()
        assert gate.value_token() != gate.shifted(0, 0.1).value_token()

    def test_shifted_offsets_add_after_evaluation(self):
        gate = ParametricGate("rx", (2.0 * Parameter("t"),)).bind({"t": 0.3})
        shifted = gate.shifted(0, 0.5)
        reference = ParametricGate("rx", (2.0 * 0.3 + 0.5,))
        np.testing.assert_allclose(shifted.matrix, reference.matrix)

    def test_unknown_factory_and_bad_slot_rejected(self):
        with pytest.raises(ValidationError):
            ParametricGate("nope", (Parameter("x"),))
        gate = ParametricGate("rx", (Parameter("x"),))
        with pytest.raises(ValidationError):
            gate.shifted(1, 0.1)


class TestCircuitHelpers:
    def _circuit(self):
        circuit = Circuit(2, name="pc")
        circuit.h(0)
        circuit.append(ParametricGate("rx", (Parameter("a"),)), (0,))
        circuit.append(ParametricGate("cp", (2.0 * Parameter("b"),)), (0, 1))
        return circuit

    def test_circuit_parameters_and_substitute(self):
        circuit = self._circuit()
        assert circuit_parameters(circuit) == frozenset({"a", "b"})
        bound = substitute(circuit, {"a": 0.1, "b": 0.2})
        assert circuit_parameters(bound) == frozenset()
        # Bound gates stay marked parametric: that marker is what routes a
        # placeholder-compiled plan into bind mode.
        assert is_parametric(bound)

    def test_normalize_binding_accepts_parameter_keys(self):
        binding = normalize_binding({Parameter("a"): 1, "b": 2.0})
        assert binding == {"a": 1.0, "b": 2.0}

    def test_fingerprint_separates_values_not_structure(self):
        circuit = self._circuit()
        one = substitute(circuit, {"a": 0.1, "b": 0.2})
        two = substitute(circuit, {"a": 0.3, "b": 0.4})
        assert one.fingerprint() != two.fingerprint()
        assert (
            circuit.structural_fingerprint()
            == one.structural_fingerprint()
            == two.structural_fingerprint()
        )

    def test_substitute_inherits_the_structural_fingerprint_it_would_compute(self):
        # substitute() copies the source's structural fingerprint instead of
        # hashing again; a fresh circuit with the same instructions hashes
        # to the same value.
        circuit = self._circuit()
        bound = substitute(circuit, {"a": 0.1, "b": 0.2, "unused": 0.3})
        rebuilt = Circuit(2, name="pc").extend(bound)
        assert rebuilt.structural_fingerprint() == bound.structural_fingerprint()
        assert rebuilt.fingerprint() == bound.fingerprint()
        assert bound[0] is circuit[0]
        assert bound[1].operation.binding == {"a": 0.1}

    def test_fingerprint_distinguishes_parameter_names(self):
        left = Circuit(1).append(ParametricGate("rx", (Parameter("a"),)), (0,))
        right = Circuit(1).append(ParametricGate("rx", (Parameter("b"),)), (0,))
        assert left.structural_fingerprint() != right.structural_fingerprint()

    def test_fingerprint_of_free_parametric_gate_does_not_raise(self):
        # Regression: fingerprint() used to touch .matrix, which raises on
        # free parameters.
        circuit = self._circuit()
        assert isinstance(circuit.fingerprint(), str)


class TestQasmRoundTrip:
    def test_free_parameters_round_trip(self):
        circuit = Circuit(2, name="qasm_pc")
        circuit.h(0)
        circuit.append(ParametricGate("rz", (2.0 * Parameter("gamma0"),)), (1,))
        circuit.append(ParametricGate("rx", (Parameter("beta0") + 0.5,)), (0,))
        text = to_qasm(circuit)
        assert "gamma0" in text and "beta0" in text
        back = from_qasm(text)
        assert circuit_parameters(back) == frozenset({"beta0", "gamma0"})
        assert back.structural_fingerprint() == circuit.structural_fingerprint()

    def test_bound_gates_serialise_their_evaluated_angle(self):
        circuit = Circuit(1)
        circuit.append(
            ParametricGate("rx", (2.0 * Parameter("t"),)).bind({"t": 0.25}), (0,)
        )
        back = from_qasm(to_qasm(circuit))
        assert circuit_parameters(back) == frozenset()
        np.testing.assert_allclose(back[0].operation.matrix, circuit[0].operation.matrix)

    def test_parametric_qaoa_round_trips(self):
        # native_gates=True keeps the ansatz on QASM-native gates (h/cz/rz),
        # so the round trip preserves structure exactly; the non-native
        # zzphase form round-trips semantically but decomposes to CX+RZ+CX.
        circuit = qaoa_circuit(4, seed=7, native_gates=True, parametric=True)
        back = from_qasm(to_qasm(circuit))
        assert circuit_parameters(back) == circuit_parameters(circuit)
        assert back.structural_fingerprint() == circuit.structural_fingerprint()


class TestLibraryAnsatze:
    def test_parametric_qaoa_exposes_round_angles(self):
        circuit = qaoa_circuit(4, seed=7, parametric=True)
        names = circuit_parameters(circuit)
        assert "gamma0" in names and "beta0" in names

    def test_parametric_hf_exposes_givens_angles(self):
        circuit = hf_circuit(4, seed=11, parametric=True)
        names = circuit_parameters(circuit)
        assert names and all(name.startswith("theta") for name in names)

    def test_benchmark_circuit_gates_the_flag(self):
        parametric = benchmark_circuit("qaoa_4", seed=7, parametric=True)
        assert is_parametric(parametric)
        with pytest.raises(ValidationError, match="no parametric form"):
            benchmark_circuit("ghz_4", parametric=True)


class TestGateGenerators:
    @pytest.mark.parametrize("name", sorted(GATE_GENERATORS))
    @pytest.mark.parametrize("theta", [-2.3, 0.0, 0.7, 3.1])
    def test_derivative_matches_central_differences(self, name, theta):
        eps = 1e-6
        factory = GATE_FACTORIES[name]
        central = (factory(theta + eps).matrix - factory(theta - eps).matrix) / (2 * eps)
        np.testing.assert_allclose(gate_derivative(factory(theta)), central, atol=1e-9)

    @pytest.mark.parametrize("name", sorted(GATE_GENERATORS))
    def test_generator_is_hermitian_with_unit_gap(self, name):
        generator = GATE_GENERATORS[name]
        np.testing.assert_allclose(generator, generator.conj().T)
        eigenvalues = np.unique(np.round(np.linalg.eigvalsh(generator), 12))
        assert len(eigenvalues) == 2 and eigenvalues[1] - eigenvalues[0] == pytest.approx(1.0)

    def test_derivative_of_a_bound_parametric_gate_includes_its_offset(self):
        gate = ParametricGate("rx", (2.0 * Parameter("theta"),)).bind({"theta": 0.4})
        shifted = gate.shifted(0, 0.1)
        expected = gate_derivative(GATE_FACTORIES["rx"](0.9))
        np.testing.assert_allclose(gate_derivative(shifted), expected, atol=1e-15)

    def test_gate_without_generator_is_rejected(self):
        with pytest.raises(ValidationError, match="no generator"):
            gate_derivative(GATE_FACTORIES["givens"](0.3))
