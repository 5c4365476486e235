"""BindEquivalence and GradientAgreement oracles + parametric-gate artifact serialisation."""

import numpy as np
import pytest

from repro.api import Session
from repro.circuits.circuit import Circuit
from repro.circuits.parameters import (
    Parameter,
    ParametricGate,
    circuit_parameters,
    substitute,
)
from repro.sweeps.spec import stable_seed
from repro.verify import (
    DEFAULT_ORACLES,
    BindEquivalence,
    GradientAgreement,
    Violation,
    circuit_from_dict,
    circuit_to_dict,
    generate_workloads,
    load_artifact,
    parametrize_circuit,
    replay_artifact,
    save_artifact,
)


@pytest.fixture(scope="module")
def workload():
    return next(iter(generate_workloads(families="brickwork", cases=1, seed=5)))


@pytest.fixture(scope="module")
def parametrized(workload):
    rng = np.random.default_rng(stable_seed(workload.seed, "bind"))
    return parametrize_circuit(workload.noisy_circuit(), rng)


class TestParametrizeCircuit:
    def test_binding_covers_free_parameters(self, parametrized):
        parametric, binding = parametrized
        assert parametric is not None
        free = circuit_parameters(parametric)
        assert free and free == frozenset(binding)

    def test_substitution_reproduces_the_original_angles(self, workload, parametrized):
        parametric, binding = parametrized
        bound = substitute(parametric, binding)
        original = workload.noisy_circuit()
        assert bound.num_qubits == original.num_qubits
        for ours, theirs in zip(bound, original):
            assert ours.qubits == theirs.qubits
            if ours.is_gate:
                assert ours.operation.name == theirs.operation.name
                np.testing.assert_allclose(
                    ours.operation.matrix, theirs.operation.matrix, atol=1e-12
                )

    def test_seeded_and_deterministic(self, workload):
        draws = [
            parametrize_circuit(
                workload.noisy_circuit(),
                np.random.default_rng(stable_seed(workload.seed, "bind")),
            )
            for _ in range(2)
        ]
        assert draws[0][1] == draws[1][1]
        assert draws[0][0].fingerprint() == draws[1][0].fingerprint()

    def test_no_parametrizable_gate_returns_none(self):
        circuit = Circuit(2).h(0).cx(0, 1)
        parametric, binding = parametrize_circuit(circuit, np.random.default_rng(0))
        assert parametric is None and binding == {}


class TestBindEquivalenceOracle:
    def test_registered_in_default_oracles(self):
        assert any(o.name == "bind_equivalence" for o in DEFAULT_ORACLES())

    def test_clean_on_healthy_backends(self, workload):
        oracle = BindEquivalence(backends=["tn", "density_matrix", "trajectories"])
        assert oracle.applies(workload)
        with Session(seed=11) as session:
            assert oracle.check(workload, session) == []

    def test_not_applicable_without_parametrizable_gates(self, workload):
        from dataclasses import replace

        clifford = Circuit(2).h(0).cx(0, 1)
        oracle = BindEquivalence()
        assert not oracle.applies(replace(workload, circuit=clifford, noise=None))

    def test_violates_needs_a_covered_parametric_candidate(self, parametrized):
        parametric, binding = parametrized
        oracle = BindEquivalence()
        details = {
            "backend": "tn", "binding": binding,
            "samples": 64, "seed": 5, "level": 1,
        }
        with Session() as session:
            # Healthy system: the recorded failure does not reproduce.
            assert not oracle.violates(parametric, details, session)
            # A shrunk candidate with no parameters left cannot exercise bind.
            assert not oracle.violates(Circuit(2).h(0), details, session)
            # Unknown parameters (outside the recorded binding) bail out too.
            rogue = Circuit(2)
            rogue.append(ParametricGate("rx", (Parameter("rogue"),)), (0,))
            assert not oracle.violates(rogue, details, session)


class TestGradientAgreementOracle:
    def test_registered_in_default_oracles(self):
        assert any(o.name == "gradient_agreement" for o in DEFAULT_ORACLES())

    def test_clean_on_healthy_backends(self, workload):
        oracle = GradientAgreement()
        assert oracle.applies(workload)
        with Session(seed=11) as session:
            assert oracle.check(workload, session) == []

    def test_catches_a_wrong_environment_gradient(self, workload, monkeypatch):
        from repro.backends.adapters import TNBackend

        original = TNBackend.angle_derivatives

        def halved(self, *args):
            return [value / 2 for value in original(self, *args)]

        monkeypatch.setattr(TNBackend, "angle_derivatives", halved)
        oracle = GradientAgreement()
        with Session(seed=11) as session:
            violations = oracle.check(workload, session)
            assert len(violations) == 1 and violations[0].deviation > oracle.tolerance
            assert oracle.violates(violations[0].circuit, violations[0].details, session)

    def test_gates_without_a_generator_do_not_apply(self):
        circuit = Circuit(2)
        circuit.append(ParametricGate("givens", (Parameter("phi"),)), (0, 1))
        circuit.append(ParametricGate("rx", (Parameter("theta"),)), (0,))
        with Session() as session:
            assert not GradientAgreement().violates(
                circuit, {"binding": {"phi": 0.1, "theta": 0.2}}, session
            )


class TestParametricArtifacts:
    def test_pgate_round_trip_preserves_both_fingerprints(self, parametrized):
        parametric, _ = parametrized
        rebuilt = circuit_from_dict(circuit_to_dict(parametric))
        assert rebuilt.fingerprint() == parametric.fingerprint()
        assert rebuilt.structural_fingerprint() == parametric.structural_fingerprint()

    def test_pgate_round_trip_preserves_binding_and_offsets(self):
        circuit = Circuit(1)
        gate = (
            ParametricGate("rx", (2.0 * Parameter("t") + 0.5,))
            .bind({"t": 0.3})
            .shifted(0, 0.25)
        )
        circuit.append(gate, (0,))
        rebuilt = circuit_from_dict(circuit_to_dict(circuit))
        back = rebuilt[0].operation
        assert back.binding == {"t": 0.3}
        assert back.offsets == (0.25,)
        np.testing.assert_allclose(back.matrix, gate.matrix)

    def test_artifact_save_load_replay(self, tmp_path, workload, parametrized):
        parametric, binding = parametrized
        violation = Violation(
            oracle="bind_equivalence",
            family=workload.family,
            case_index=workload.index,
            workload_seed=workload.seed,
            deviation=1.0,
            tolerance=0.0,
            circuit=parametric,
            details={
                "backend": "tn", "binding": binding,
                "samples": workload.samples, "seed": workload.seed,
                "level": workload.level,
            },
        )
        path = save_artifact(violation, tmp_path, shrunk_circuit=parametric)
        artifact = load_artifact(path)
        kinds = {entry["kind"] for entry in artifact["circuit"]["instructions"]}
        assert "pgate" in kinds
        # The bind contract holds, so the recorded failure must not replay.
        assert replay_artifact(artifact) is False
