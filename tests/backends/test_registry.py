"""Tests for the unified backend registry and its adapters."""

import dataclasses

import numpy as np
import pytest

from repro.backends import (
    BackendUnsupportedError,
    SimulationBackend,
    SimulationTask,
    available_backends,
    backend_names,
    capability_table,
    get_backend,
    register_backend,
    resolve_backends,
)
from repro.backends.registry import _REGISTRY, adapter_options
from repro.circuits.circuit import Circuit
from repro.circuits.library import benchmark_circuit, ghz_circuit
from repro.noise import NoiseModel, depolarizing_channel, two_qubit_depolarizing_channel
from repro.utils.validation import ValidationError
from repro.verify.generators import generate_workloads


@pytest.fixture(scope="module")
def noisy_circuit():
    """A small noisy circuit with 1-qubit channels (every noisy backend applies)."""
    ideal = benchmark_circuit("qaoa_4", seed=2)
    return NoiseModel(depolarizing_channel(0.05), seed=2).insert_random(ideal, 3)


class TestRegistry:
    def test_builtin_backends_registered(self):
        expected = {
            "statevector",
            "density_matrix",
            "tn",
            "tdd",
            "mps",
            "mpdo",
            "trajectories",
            "trajectories_tn",
            "approximation",
        }
        assert expected <= set(backend_names())

    def test_get_backend_unknown_name(self):
        with pytest.raises(ValidationError, match="unknown backend"):
            get_backend("does_not_exist")

    def test_get_backend_unknown_option_names_accepted_options(self):
        with pytest.raises(ValidationError, match="accepts: max_intermediate_size"):
            get_backend("tn", max_intermediate=5)
        with pytest.raises(ValidationError, match="accepts: no options"):
            get_backend("sv", max_qubits=4)

    def test_only_memory_budgets_are_adapter_options(self):
        # Constructor options are the one configuration channel; exactly the
        # Table II memory budgets are settable.
        configurable = {
            name: sorted(adapter_options(name))
            for name in backend_names()
            if adapter_options(name)
        }
        assert configurable == {
            "approximation": ["max_intermediate_size"],
            "density_matrix": ["max_qubits"],
            "tdd": ["max_nodes"],
            "tn": ["max_intermediate_size"],
        }
        assert "options" not in {field.name for field in dataclasses.fields(SimulationTask)}

    def test_one_max_qubits_implementation(self):
        for name in backend_names():
            assert _REGISTRY[name].max_qubits is SimulationBackend.max_qubits, name

    def test_aliases_resolve(self):
        assert get_backend("mm").name == "density_matrix"
        assert get_backend("ours").name == "approximation"
        assert get_backend("traj_tn").name == "trajectories_tn"

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValidationError, match="already registered"):

            @register_backend("tn", noisy=True, exact=True)
            class Duplicate(SimulationBackend):  # pragma: no cover - never used
                def _execute(self, circuit, task, plan):
                    raise NotImplementedError

        assert _REGISTRY["tn"].name == "tn"

    def test_capability_table_covers_all_backends(self):
        rows = capability_table()
        assert [row[0] for row in rows] == backend_names()
        assert all(len(row) == 6 for row in rows)

    def test_resolve_backends_specs(self, noisy_circuit):
        assert resolve_backends("tn,mm") == ["tn", "density_matrix"]
        assert resolve_backends(["tdd", "tdd"]) == ["tdd"]
        assert set(resolve_backends("all", noisy_circuit)) == set(
            available_backends(noisy_circuit)
        )
        with pytest.raises(ValidationError, match="unknown backend"):
            resolve_backends("tn,bogus")


class TestAvailability:
    def test_noiseless_only_backends_excluded_for_noisy_circuit(self, noisy_circuit):
        names = available_backends(noisy_circuit)
        assert "statevector" not in names
        assert "mps" not in names
        assert {"density_matrix", "tn", "tdd", "trajectories", "approximation"} <= set(names)

    def test_noiseless_circuit_includes_statevector(self):
        names = available_backends(ghz_circuit(3))
        assert "statevector" in names and "mps" in names

    def test_mpdo_excluded_for_two_qubit_noise(self, noisy_circuit):
        circuit = Circuit(2)
        circuit.h(0).cx(0, 1)
        circuit.append(two_qubit_depolarizing_channel(0.01), (0, 1))
        assert "mpdo" not in available_backends(circuit)
        assert "mpdo" in available_backends(noisy_circuit)

    def test_qubit_ceiling_respected(self, noisy_circuit):
        assert get_backend("density_matrix", max_qubits=2).supports(noisy_circuit) is not None
        with pytest.raises(BackendUnsupportedError):
            get_backend("statevector").run(noisy_circuit)

    def test_constructor_ceiling_applies_to_density_matrix(self, noisy_circuit):
        task = SimulationTask()
        tight = get_backend("density_matrix", max_qubits=2)
        assert "limited to 2 qubits" in tight.supports(noisy_circuit, task)
        with pytest.raises(BackendUnsupportedError):
            tight.run(noisy_circuit, task)
        default = get_backend("density_matrix")
        assert default.supports(noisy_circuit, task) is None
        assert default.run(noisy_circuit, task).value > 0

    def test_product_state_capability_enforced(self, noisy_circuit):
        dense = np.zeros(2**noisy_circuit.num_qubits, dtype=complex)
        dense[0] = 1.0
        task = SimulationTask(output_state=dense)
        backend = get_backend("mpdo")
        assert backend.supports(noisy_circuit, task) is not None
        with pytest.raises(BackendUnsupportedError):
            backend.run(noisy_circuit, task)
        # Product descriptions pass the same check.
        assert backend.supports(
            noisy_circuit, SimulationTask(output_state="0" * noisy_circuit.num_qubits)
        ) is None


class TestConformance:
    """Every applicable backend must agree on one small noisy circuit."""

    def test_all_backends_agree_on_fidelity(self, noisy_circuit):
        exact = get_backend("density_matrix").run(noisy_circuit).value
        task = SimulationTask(num_samples=4000, seed=11, level=noisy_circuit.noise_count())
        for name in available_backends(noisy_circuit):
            backend = get_backend(name)
            result = backend.run(noisy_circuit, task)
            assert result.backend == name
            assert result.elapsed_seconds >= 0.0
            if backend.capabilities.stochastic:
                tolerance = 6 * result.standard_error + 2e-3
                assert result.num_samples == 4000
            else:
                tolerance = 1e-6
            assert result.value == pytest.approx(exact, abs=tolerance), name

    def test_every_adapter_has_one_execution_method(self):
        # run() always compiles then calls _execute: no adapter may keep a
        # plan-less twin of its execution path.
        for name in backend_names():
            backend_class = _REGISTRY[name]
            assert not backend_class.__abstractmethods__, name
            for legacy in ("_run", "_run_plan"):
                assert not hasattr(backend_class, legacy), (name, legacy)

    @pytest.mark.parametrize("workload", generate_workloads("all", cases=6, seed=3),
                             ids=lambda workload: workload.family)
    def test_one_shot_run_equals_compiled_run(self, workload):
        circuit = workload.noisy_circuit()
        task = SimulationTask(num_samples=200, seed=4, level=2)
        for name in available_backends(circuit):
            backend = get_backend(name)
            if backend.supports(circuit, task) is not None:
                continue
            compiled = backend.run(circuit, task, plan=backend.compile(circuit, task))
            assert backend.run(circuit, task).value == compiled.value, name

    def test_noiseless_backends_agree_on_fidelity(self):
        circuit = ghz_circuit(3)
        # |⟨0…0|GHZ⟩|² = 1/2 for every exact noiseless method.
        for name in available_backends(circuit):
            result = get_backend(name).run(circuit, SimulationTask(num_samples=500, seed=3))
            assert result.value == pytest.approx(0.5, abs=1e-6), name


class TestResultMetadata:
    def test_approximation_result_carries_bound(self, noisy_circuit):
        result = get_backend("approximation").run(noisy_circuit, SimulationTask(level=1))
        assert result.metadata["level"] == 1
        assert result.metadata["error_bound"] > 0
        assert result.num_contractions and result.num_contractions > 0

    def test_trajectory_result_carries_stderr(self, noisy_circuit):
        result = get_backend("trajectories").run(
            noisy_circuit, SimulationTask(num_samples=256, seed=0)
        )
        assert result.standard_error > 0
        low, high = result.confidence_interval()
        assert low <= result.value <= high

    def test_tn_counts_single_contraction(self, noisy_circuit):
        assert get_backend("tn").run(noisy_circuit).num_contractions == 1

    def test_constructor_budgets_reach_the_simulator(self, noisy_circuit):
        # A tiny constructor budget must trip the memory-out guard that the
        # default would not.
        with pytest.raises(MemoryError):
            get_backend("tdd", max_nodes=8).run(noisy_circuit)
        with pytest.raises(MemoryError):
            get_backend("tn", max_intermediate_size=2).run(noisy_circuit)
        with pytest.raises(MemoryError):
            get_backend("approximation", max_intermediate_size=2).run(noisy_circuit)
        result = get_backend("tdd", max_nodes=100_000).run(noisy_circuit)
        assert result.metadata["max_nodes"] == 100_000


class TestSupportCheck:
    """``check_supported`` runs at compile and on a one-shot run, never on a compiled run."""

    @pytest.fixture
    def check_calls(self, monkeypatch):
        calls = []
        original = SimulationBackend.check_supported

        def spy(self, circuit, task=None):
            calls.append(self.name)
            return original(self, circuit, task)

        monkeypatch.setattr(SimulationBackend, "check_supported", spy)
        return calls

    def test_compiled_run_skips_the_check(self, check_calls, noisy_circuit):
        backend, task = get_backend("tn"), SimulationTask()
        plan = backend.compile(noisy_circuit, task)
        assert check_calls == ["tn"]
        backend.run(noisy_circuit, task, plan=plan)
        assert check_calls == ["tn"]
        backend.run(noisy_circuit, task)
        assert check_calls == ["tn", "tn"]

    def test_executable_runs_make_no_check(self, check_calls, noisy_circuit):
        from repro.api import Session

        with Session() as session:
            executable = session.compile(noisy_circuit, backend="tn")
            checks_at_compile = len(check_calls)
            for _ in range(3):
                executable.run()
        assert checks_at_compile >= 1
        assert len(check_calls) == checks_at_compile

    def test_unsupported_circuit_raises_at_compile_and_one_shot_run(
        self, check_calls, noisy_circuit
    ):
        from repro.api import Session

        backend = get_backend("statevector")
        with pytest.raises(BackendUnsupportedError, match="cannot simulate noise"):
            backend.compile(noisy_circuit)
        with pytest.raises(BackendUnsupportedError, match="cannot simulate noise"):
            backend.run(noisy_circuit)
        with Session() as session:
            with pytest.raises(BackendUnsupportedError, match="cannot simulate noise"):
                session.compile(noisy_circuit, backend="statevector")
        assert check_calls.count("statevector") == 3
