"""Session-layer happy paths: dispatch, batching, seeds, provenance."""

import dataclasses
import inspect

import pytest

from repro.api import Session, SimulationResult, apply_noise, simulate, task_config_hash
from repro.backends import SimulationTask, get_backend
from repro.circuits.library import ghz_circuit, qaoa_circuit
from repro.utils.validation import ValidationError


@pytest.fixture(scope="module")
def noisy_circuit():
    ideal = qaoa_circuit(4, seed=7, native_gates=False)
    return apply_noise(
        ideal, {"channel": "depolarizing", "parameter": 0.01, "count": 3, "seed": 2}
    )


class TestSimulate:
    def test_exact_backend(self, noisy_circuit):
        result = simulate(noisy_circuit, backend="tn")
        assert isinstance(result, SimulationResult)
        assert result.backend == "tn"
        assert 0.0 <= result.value <= 1.0
        assert result.standard_error == 0.0
        assert result.elapsed_seconds > 0.0
        assert result.config_hash

    def test_alias_resolves_to_canonical_name(self, noisy_circuit):
        assert simulate(noisy_circuit, backend="mm").backend == "density_matrix"

    def test_noise_mapping_matches_manual_injection(self):
        ideal = qaoa_circuit(4, seed=7, native_gates=False)
        via_api = simulate(
            ideal,
            noise={"channel": "depolarizing", "parameter": 0.01, "count": 3, "seed": 2},
            backend="density_matrix",
        )
        manual = simulate(
            apply_noise(
                ideal,
                {"channel": "depolarizing", "parameter": 0.01, "count": 3, "seed": 2},
            ),
            backend="density_matrix",
        )
        assert via_api.value == manual.value

    def test_error_bound_populated_by_approximation_backend(self, noisy_circuit):
        result = simulate(noisy_circuit, backend="approximation", level=1)
        assert result.error_bound is not None and result.error_bound > 0.0
        assert result.metadata["level"] == 1
        # exact backends carry no a-priori bound
        assert simulate(noisy_circuit, backend="tn").error_bound is None

    def test_auto_backend_selection(self, noisy_circuit):
        assert simulate(ghz_circuit(2)).backend == "statevector"
        assert simulate(noisy_circuit).backend == "tn"

    def test_ideal_output_state(self):
        # scored against its own ideal output, a noiseless run has fidelity 1
        result = simulate(ghz_circuit(3), backend="tn", output_state="ideal")
        assert result.value == pytest.approx(1.0, abs=1e-9)

    def test_agrees_with_direct_backend_run(self, noisy_circuit):
        direct = get_backend("tn").run(noisy_circuit)
        # With passes disabled the session executes the raw circuit, so the
        # value is bit-identical to a direct backend run; with the optimizing
        # passes on (the default) the executed circuit differs, so agreement
        # is exact only up to floating-point contraction order.
        assert simulate(noisy_circuit, backend="tn", passes=False).value == direct.value
        assert simulate(noisy_circuit, backend="tn").value == pytest.approx(
            direct.value, abs=1e-9
        )


class TestSessionBatch:
    def test_submit_matches_run(self, noisy_circuit):
        with Session() as session:
            blocking = session.run(
                noisy_circuit, backend="trajectories", samples=300, seed=11, workers=1
            )
            future = session.submit(
                noisy_circuit, backend="trajectories", samples=300, seed=11, workers=1
            )
            async_result = future.result()
        assert blocking.value == async_result.value
        assert blocking.standard_error == async_result.standard_error
        assert blocking.seed == async_result.seed == 11
        assert blocking.config_hash == async_result.config_hash

    def test_values_identical_across_worker_counts(self, noisy_circuit):
        results = []
        for workers in (1, 2):
            with Session(workers=workers) as session:
                results.append(
                    session.run(noisy_circuit, backend="trajectories",
                                samples=600, seed=5)
                )
        first, second = results
        assert first.value == second.value
        assert first.standard_error == second.standard_error
        # provenance hash excludes worker count: same computation, same hash
        assert first.config_hash == second.config_hash

    def test_batch_over_multiple_backends(self, noisy_circuit):
        with Session(seed=7) as session:
            futures = {
                name: session.submit(noisy_circuit, backend=name)
                for name in ("density_matrix", "tn", "approximation")
            }
            values = {name: future.result().value for name, future in futures.items()}
        assert values["density_matrix"] == pytest.approx(values["tn"], abs=1e-9)
        assert values["approximation"] == pytest.approx(values["tn"], abs=5e-3)

    def test_session_seed_drives_unseeded_stochastic_tasks(self, noisy_circuit):
        def batch():
            with Session(seed=42) as session:
                return [
                    session.run(noisy_circuit, backend="trajectories",
                                samples=128, workers=1)
                    for _ in range(2)
                ]

        first, second = batch(), batch()
        # reproducible end-to-end: same session seed -> same derived seeds
        assert [r.seed for r in first] == [r.seed for r in second]
        assert [r.value for r in first] == [r.value for r in second]
        # but each submission draws an independent derived seed
        assert first[0].seed != first[1].seed

    def test_unseeded_task_records_resolved_seed(self, noisy_circuit):
        with Session() as session:
            result = session.run(noisy_circuit, backend="trajectories",
                                 samples=64, workers=1)
            assert result.seed is not None
            replay = session.run(noisy_circuit, backend="trajectories",
                                 samples=64, seed=result.seed, workers=1)
        assert replay.value == result.value

    def test_unseeded_noise_mapping_is_replayable_from_provenance(self):
        ideal = qaoa_circuit(4, seed=7, native_gates=False)
        noise = {"channel": "depolarizing", "parameter": 0.05, "count": 3}

        def run():
            with Session(seed=7) as session:
                return session.run(ideal, noise=dict(noise), backend="trajectories",
                                   samples=64, workers=1)

        first, second = run(), run()
        # the session seed drives the *injection* too, not just the sampling
        assert first.value == second.value
        assert first.seed == second.seed is not None
        # the recorded seed alone replays the run, noise placement included
        with Session() as session:
            replay = session.run(ideal, noise=dict(noise), backend="trajectories",
                                 samples=64, seed=first.seed, workers=1)
        assert replay.value == first.value
        # an explicit "seed": None behaves exactly like an absent key: the
        # session's resolved seed drives the injection, not NoiseModel(None)
        with Session(seed=7) as session:
            explicit_none = session.run(
                ideal, noise={**noise, "seed": None}, backend="trajectories",
                samples=64, workers=1,
            )
        assert explicit_none.value == first.value

    def test_ideal_output_state_computed_once_per_circuit(self, noisy_circuit, monkeypatch):
        import repro.api.session as session_module

        calls = []
        original = session_module.ideal_output_state

        def counting(circuit):
            calls.append(circuit)
            return original(circuit)

        monkeypatch.setattr(session_module, "ideal_output_state", counting)
        with Session() as session:
            values = {
                session.run(noisy_circuit, backend=name, output_state="ideal").value
                for name in ("tn", "density_matrix")
            }
        assert len(calls) == 1
        assert max(values) - min(values) < 1e-9

    def test_prepared_task_dispatch(self, noisy_circuit):
        task = SimulationTask(num_samples=200, seed=3, workers=1)
        with Session() as session:
            via_task = session.run(noisy_circuit, backend="trajectories", task=task)
            via_kwargs = session.run(noisy_circuit, backend="trajectories",
                                     samples=200, seed=3, workers=1)
        assert via_task.value == via_kwargs.value
        assert via_task.config_hash == via_kwargs.config_hash

    def test_backend_options_are_the_only_configuration_channel(self):
        for entry in (Session.compile, Session.run, Session.submit, simulate):
            assert "options" not in inspect.signature(entry).parameters, entry
        with Session() as session:
            with pytest.raises(ValidationError, match="accepts: max_intermediate_size"):
                session.run(ghz_circuit(2), "tn", backend_options={"bogus": 1})


class TestProvenance:
    def test_config_hash_covers_semantic_fields(self):
        base = SimulationTask(num_samples=100, seed=1)
        assert task_config_hash("tn", base) == task_config_hash("tn", base)
        assert task_config_hash("tn", base) != task_config_hash("tdd", base)
        assert task_config_hash("tn", base) != task_config_hash(
            "tn", dataclasses.replace(base, seed=2)
        )

    def test_config_hash_ignores_execution_plumbing(self):
        base = SimulationTask(num_samples=100, seed=1, workers=1)
        pooled = SimulationTask(num_samples=100, seed=1, workers=8, executor=object())
        assert task_config_hash("trajectories", base) == task_config_hash(
            "trajectories", pooled
        )

    def test_config_hash_ignores_workers_covers_backend_options(self):
        # workers=None and workers=1 draw the same seeded RNG blocks, so they
        # compute the same estimate and must hash equal; adapter construction
        # options change the value, so they must not.
        one = SimulationTask(num_samples=100, seed=1, workers=1)
        unset = SimulationTask(num_samples=100, seed=1, workers=None)
        assert task_config_hash("trajectories", one) == task_config_hash(
            "trajectories", unset
        )
        assert task_config_hash("tdd", one) != task_config_hash(
            "tdd", one, {"max_nodes": 1000}
        )

    def test_to_dict_round_trips_through_json(self, noisy_circuit):
        import json

        result = simulate(noisy_circuit, backend="approximation", level=1)
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["backend"] == "approximation"
        assert payload["value"] == result.value
        assert payload["error_bound"] == result.error_bound
        assert payload["config_hash"] == result.config_hash
