"""Gradients: analytic closed forms, finite differences, the tn environment
sweep against parameter shift on the density-matrix backend, worker-count
determinism, and eligibility validation."""

import math

import numpy as np
import pytest

import repro.simulators.tn_simulator as tn_module
from repro.api import Session, apply_noise
from repro.api.executable import PARAMETER_SHIFT_GATES, Executable
from repro.circuits.circuit import Circuit
from repro.circuits.library import qaoa_circuit
from repro.circuits.observables import PauliObservable
from repro.circuits.parameters import (
    GATE_GENERATORS,
    Parameter,
    ParametricGate,
    UnboundParameterError,
    circuit_parameters,
    gate_derivative,
    substitute,
)
from repro.utils.validation import ValidationError
from tests.core.reference import tensordot_environments


def _single_gate_circuit(gate_name, expression):
    circuit = Circuit(1)
    circuit.append(ParametricGate(gate_name, (expression,)), (0,))
    return circuit


def _binding_for(circuit, offset=0.0):
    return {
        name: 0.3 + 0.17 * index + offset
        for index, name in enumerate(sorted(circuit_parameters(circuit)))
    }


class TestAnalyticForms:
    @pytest.mark.parametrize("theta", [0.3, 1.1, -0.7])
    def test_rx_fidelity_gradient(self, theta):
        # F(θ) = |<0|rx(θ)|0>|² = cos²(θ/2)  →  dF/dθ = -sin(θ)/2, and the
        # two-term shift rule reproduces it exactly (not just to O(θ²)).
        circuit = _single_gate_circuit("rx", Parameter("theta"))
        with Session() as session:
            grad = session.compile(circuit, backend="tn").gradient({"theta": theta})
        assert grad["theta"] == pytest.approx(-math.sin(theta) / 2.0, abs=1e-12)

    @pytest.mark.parametrize("theta", [0.4, 2.0])
    def test_chain_rule_through_scaled_angle(self, theta):
        # rx(2θ): F = cos²(θ)  →  dF/dθ = -sin(2θ).
        circuit = _single_gate_circuit("rx", 2.0 * Parameter("theta"))
        with Session() as session:
            grad = session.compile(circuit, backend="tn").gradient({"theta": theta})
        assert grad["theta"] == pytest.approx(-math.sin(2.0 * theta), abs=1e-12)

    @pytest.mark.parametrize("theta", [0.25, 1.7])
    def test_observable_gradient_matches_closed_form(self, theta):
        # <Z₀> of ry(θ)|0> = cos(θ)  →  d<Z>/dθ = -sin(θ).
        circuit = _single_gate_circuit("ry", Parameter("theta"))
        observable = PauliObservable().add_term(1.0, {0: "Z"})
        with Session() as session:
            grad = session.compile(circuit, backend="tn").gradient(
                {"theta": theta}, observable=observable
            )
        assert grad["theta"] == pytest.approx(-math.sin(theta), abs=1e-12)

    def test_shared_parameter_accumulates_over_occurrences(self):
        # Two rx(θ) gates on one qubit compose to rx(2θ): the per-occurrence
        # partials must sum to the composite gate's derivative.
        theta = 0.6
        circuit = Circuit(1)
        circuit.append(ParametricGate("rx", (Parameter("theta"),)), (0,))
        circuit.append(ParametricGate("rx", (Parameter("theta"),)), (0,))
        with Session() as session:
            grad = session.compile(circuit, backend="tn").gradient({"theta": theta})
        assert grad["theta"] == pytest.approx(-math.sin(2.0 * theta), abs=1e-12)


class TestFiniteDifferences:
    def test_qaoa_gradient_matches_central_differences(self):
        parametric = qaoa_circuit(4, seed=7, native_gates=False, parametric=True)
        params = _binding_for(parametric)
        eps = 1e-5
        with Session(seed=3) as session:
            executable = session.compile(parametric, backend="tn", seed=11)
            grad = executable.gradient(params)

            def objective(binding):
                return executable.bind(binding).run().value

            for name in params:
                plus = dict(params, **{name: params[name] + eps})
                minus = dict(params, **{name: params[name] - eps})
                fd = (objective(plus) - objective(minus)) / (2.0 * eps)
                assert grad[name] == pytest.approx(fd, abs=1e-6), name


class TestDeterminism:
    def test_gradient_bit_identical_across_worker_counts(self):
        from repro.api import apply_noise

        parametric = apply_noise(
            qaoa_circuit(4, seed=7, native_gates=False, parametric=True),
            {"channel": "depolarizing", "parameter": 0.02, "count": 2, "seed": 5},
        )
        params = _binding_for(parametric)
        gradients = []
        for workers in (1, 2):
            with Session(seed=9) as session:
                executable = session.compile(
                    parametric, backend="trajectories", samples=64,
                    seed=21, workers=workers,
                )
                gradients.append(executable.gradient(params))
        assert gradients[0] == gradients[1]

    def test_repeated_gradient_is_bit_identical(self):
        parametric = qaoa_circuit(4, seed=7, native_gates=False, parametric=True)
        params = _binding_for(parametric)
        with Session(seed=3) as session:
            executable = session.compile(parametric, backend="tn", seed=11)
            assert executable.gradient(params) == executable.gradient(params)

    def test_shifted_evaluations_replay_the_compiled_plan(self):
        # tn differentiates its plan directly, so the shifted path is pinned
        # on a plan backend that keeps parameter shift.
        parametric = qaoa_circuit(4, seed=7, native_gates=False, parametric=True)
        params = _binding_for(parametric)
        with Session(seed=3) as session:
            executable = session.compile(parametric, backend="approximation", seed=11)
            executable.gradient(params)
            stats = session.cache_stats()
            occurrences = len(executable._shift_occurrences())
        # One compile-time miss; every ±π/2 evaluation is a cache hit because
        # shift offsets are excluded from the structural fingerprint.
        assert occurrences > 0
        assert stats["misses"] == 1
        assert stats["hits"] == 2 * occurrences


class TestValidation:
    def test_unsupported_gate_has_no_shift_rule(self):
        circuit = Circuit(2)
        circuit.append(ParametricGate("givens", (Parameter("theta"),)), (0, 1))
        assert "givens" not in PARAMETER_SHIFT_GATES
        with Session() as session:
            executable = session.compile(circuit, backend="tn")
            with pytest.raises(ValidationError, match="parameter-shift"):
                executable.gradient({"theta": 0.3})

    def test_gradient_requires_full_binding(self):
        parametric = qaoa_circuit(4, seed=7, native_gates=False, parametric=True)
        with Session() as session:
            executable = session.compile(parametric, backend="tn")
            with pytest.raises(UnboundParameterError):
                executable.gradient({"gamma0": 0.1})

    def test_bound_executable_delegates_gradient(self):
        parametric = qaoa_circuit(4, seed=7, native_gates=False, parametric=True)
        params = _binding_for(parametric)
        with Session(seed=3) as session:
            executable = session.compile(parametric, backend="tn", seed=11)
            bound = executable.bind(params)
            assert bound.gradient(params) == executable.gradient(params)

    def test_literal_gates_do_not_contribute(self):
        # Bound-value gates (no free parameter) are skipped, including ones
        # outside the shift set: only *free* occurrences need a rule.
        circuit = Circuit(2)
        circuit.append(
            ParametricGate("givens", (Parameter("phi"),)).bind({"phi": 0.2}), (0, 1)
        )
        circuit.append(ParametricGate("rx", (Parameter("theta"),)), (0,))
        with Session() as session:
            executable = session.compile(circuit, backend="tn")
            grad = executable.gradient({"theta": 0.4})
        # The gate-level binding removed phi from the free set entirely.
        assert set(grad) == {"theta"}


# ----------------------------------------------------------------------
# The tn environment sweep vs parameter shift
# ----------------------------------------------------------------------
_NOISE = {"channel": "depolarizing", "parameter": 0.02, "count": 3, "seed": 5}


def _every_table_gate():
    """Each generator-table gate once, on entangled qubits, with shared scaled parameters."""
    theta, phi = Parameter("theta"), Parameter("phi")
    circuit = Circuit(3).h(0).h(1).cx(0, 2)
    expressions = [2.0 * theta, theta - phi / 2, -1.5 * phi + 0.3, theta, 0.5 * phi, theta + phi]
    for index, name in enumerate(sorted(GATE_GENERATORS)):
        expression = expressions[index % len(expressions)]
        gate = ParametricGate(name, (expression,))
        qubits = (index % 3,) if gate.num_qubits == 1 else (index % 3, (index + 1) % 3)
        circuit.append(gate, qubits)
        circuit.cx((index + 1) % 3, index % 3)
    return circuit


def _dense_state(num_qubits, seed):
    rng = np.random.default_rng(seed)
    vector = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return vector / np.linalg.norm(vector)


def _qaoa():
    return qaoa_circuit(4, seed=7, native_gates=False, parametric=True)


CASES = {
    "qaoa_noiseless": (_qaoa, {}),
    "qaoa_noisy": (lambda: apply_noise(_qaoa(), _NOISE), {}),
    "qaoa_noisy_dense_states": (
        lambda: apply_noise(_qaoa(), _NOISE),
        {"input_state": _dense_state(4, 1), "output_state": _dense_state(4, 2)},
    ),
    "table_gates_noiseless": (_every_table_gate, {"output_state": "+01"}),
    "table_gates_noisy": (lambda: apply_noise(_every_table_gate(), _NOISE), {"input_state": "0+1"}),
    "table_gates_dense_input": (
        lambda: apply_noise(_every_table_gate(), _NOISE),
        {"input_state": _dense_state(3, 3)},
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
class TestEnvironmentGradient:
    def test_tn_sweep_matches_density_matrix_parameter_shift(self, case):
        build, states = CASES[case]
        circuit = build()
        params = _binding_for(circuit)
        with Session(seed=3) as session:
            swept = session.compile(circuit, backend="tn", **states).gradient(params)
            shifted = session.compile(circuit, backend="density_matrix", **states).gradient(params)
        assert set(swept) == set(shifted) == set(params)
        for name in params:
            assert swept[name] == pytest.approx(shifted[name], abs=1e-10), name

    def test_tn_gradient_makes_no_shifted_submits(self, case, monkeypatch):
        build, states = CASES[case]
        circuit = build()
        params = _binding_for(circuit)
        submits = []
        original = Executable.submit

        def spy(self, **kwargs):
            submits.append(self.backend)
            return original(self, **kwargs)

        monkeypatch.setattr(Executable, "submit", spy)
        with Session(seed=3) as session:
            session.compile(circuit, backend="tn", **states).gradient(params)
            assert submits == []
            executable = session.compile(circuit, backend="density_matrix", **states)
            executable.gradient(params)
        assert submits == ["density_matrix"] * (2 * len(executable._shift_occurrences()))

    def test_angle_derivatives_equal_a_tensordot_sweep(self, case):
        # Bit for bit: a per-step np.tensordot forward and reverse sweep, and
        # np.tensordot for every <E, U'> pairing.
        build, states = CASES[case]
        circuit = build()
        bound = substitute(circuit, _binding_for(circuit))
        prepared = tn_module.TNSimulator().prepare(
            bound, states.get("input_state"), states.get("output_state")
        )
        indices = sorted(prepared.gate_nodes)
        positions = [node for index in indices for node in prepared.gate_nodes[index]]
        value, envs = tensordot_environments(prepared.plan, list(prepared.tensors), positions)
        expected = []
        for index in indices:
            operation = bound[index].operation
            tensor = gate_derivative(operation).reshape([2] * (2 * operation.num_qubits))
            nodes = prepared.gate_nodes[index]
            upper = np.tensordot(envs[nodes[0]], tensor, axes=tensor.ndim)
            if prepared.noiseless:
                expected.append(float(2.0 * np.real(np.conj(value) * upper)))
            else:
                lower = np.tensordot(envs[nodes[1]], tensor.conj(), axes=tensor.ndim)
                expected.append(float(np.real(upper + lower)))
        assert prepared.angle_derivatives(bound, indices) == expected


@pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
class TestBindReusesStaticTensors:
    def test_bound_runs_build_no_network(self, noisy, monkeypatch):
        circuit = apply_noise(_qaoa(), _NOISE) if noisy else _qaoa()
        builds = []
        for name in ("noisy_doubled_network", "circuit_amplitude_network"):
            original = getattr(tn_module, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                builds.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(tn_module, name, counted)
        bindings = [_binding_for(circuit, offset) for offset in (0.0, 0.4, -1.1)]
        with Session(seed=3) as session:
            executable = session.compile(circuit, backend="tn")
            assert len(builds) == 1
            values = [executable.bind(binding).run().value for binding in bindings]
            executable.gradient(bindings[0])
        assert len(builds) == 1
        for binding, value in zip(bindings, values):
            with Session(plan_cache_size=0) as independent:
                reference = independent.run(substitute(circuit, binding), backend="tn").value
            assert value == reference
