"""Differential bind-equivalence harness + plan-cache fragmentation tests.

The contract under test: ``session.compile(parametric).bind(p).run(seed=s)``
is bit-identical to compiling the substituted circuit from scratch in an
*independent* session (plan cache disabled, so the reference path cannot
reuse the parametric plan under test), on every backend, with passes on and
off, on cpu and the fake_gpu device.  Seeds are explicit in both paths —
the session's per-submission seed derivation would otherwise give the two
paths different defaults.
"""

import numpy as np
import pytest

import repro.core.approximation as approximation
import repro.tensornetwork.circuit_to_tn as circuit_to_tn
import repro.tensornetwork.plan as plan_module
from repro.api import Session, apply_noise, plan_cache_key
from repro.backends import SimulationTask, get_backend
from repro.backends.engine import BatchedTrajectoryEngine
from repro.backends.registry import backend_names
from repro.circuits.circuit import Circuit
from repro.circuits.library import hf_circuit, qaoa_circuit
from repro.circuits.parameters import (
    Parameter,
    ParametricGate,
    UnboundParameterError,
    circuit_parameters,
    substitute,
)
from repro.core import ApproximateNoisySimulator
from repro.simulators import TNSimulator
from repro.tensornetwork.plan import ContractionPlan
from repro.utils.validation import ValidationError
from repro.verify import generate_workloads, parametrize_circuit
from repro.verify.oracles import stable_seed

SAMPLES = 96
SEED = 123


def _binding_for(circuit, offset=0.0):
    return {
        name: 0.3 + 0.17 * index + offset
        for index, name in enumerate(sorted(circuit_parameters(circuit)))
    }


def _assert_bind_matches_substitute(parametric, binding, backend, passes, device=None):
    if get_backend(backend).supports(substitute(parametric, binding)) is not None:
        pytest.skip(f"{backend} does not support this circuit")
    workers = 1 if get_backend(backend).capabilities.stochastic else None
    with Session(seed=5, passes=passes, device=device) as session:
        bound_value = (
            session.compile(
                parametric, backend=backend, samples=SAMPLES, seed=SEED,
                workers=workers,
            )
            .bind(binding)
            .run()
            .value
        )
    with Session(plan_cache_size=0, passes=passes, device=device) as independent:
        reference = independent.run(
            substitute(parametric, binding), backend=backend, samples=SAMPLES,
            seed=SEED, workers=workers,
        ).value
    assert bound_value == reference


@pytest.fixture(scope="module")
def noisy_parametric_qaoa():
    ideal = qaoa_circuit(4, seed=7, native_gates=False, parametric=True)
    return apply_noise(
        ideal, {"channel": "depolarizing", "parameter": 0.01, "count": 3, "seed": 2}
    )


class TestBindEquivalence:
    @pytest.mark.parametrize("passes", [True, False], ids=["passes_on", "passes_off"])
    @pytest.mark.parametrize("backend", backend_names())
    def test_noisy_qaoa_all_backends(self, noisy_parametric_qaoa, backend, passes):
        binding = _binding_for(noisy_parametric_qaoa)
        _assert_bind_matches_substitute(noisy_parametric_qaoa, binding, backend, passes)

    @pytest.mark.parametrize("backend", ["tn", "trajectories_tn", "statevector"])
    def test_noisy_qaoa_fake_gpu(self, noisy_parametric_qaoa, backend):
        binding = _binding_for(noisy_parametric_qaoa)
        _assert_bind_matches_substitute(
            noisy_parametric_qaoa, binding, backend, True, device="fake_gpu"
        )

    @pytest.mark.parametrize("backend", ["tn", "density_matrix", "trajectories"])
    def test_hf_ansatz(self, backend):
        parametric = hf_circuit(4, seed=11, parametric=True)
        binding = _binding_for(parametric)
        _assert_bind_matches_substitute(parametric, binding, backend, True)

    @pytest.mark.parametrize("family", ["brickwork", "qaoa_like", "ghz_ladder"])
    def test_random_workload_families(self, family):
        workload = next(iter(generate_workloads(families=family, cases=1, seed=17)))
        rng = np.random.default_rng(stable_seed(workload.seed, "bind"))
        parametric, binding = parametrize_circuit(workload.noisy_circuit(), rng)
        if parametric is None:
            pytest.skip(f"{family} has no parametrizable gate")
        for backend in ("tn", "density_matrix"):
            _assert_bind_matches_substitute(parametric, binding, backend, True)

    def test_successive_bindings_are_independent(self, noisy_parametric_qaoa):
        with Session(seed=5) as session:
            executable = session.compile(
                noisy_parametric_qaoa, backend="tn", seed=SEED
            )
            values = [
                executable.bind(_binding_for(noisy_parametric_qaoa, offset)).run().value
                for offset in (0.0, 0.5, 0.0)
            ]
        assert values[0] == values[2]
        assert values[0] != values[1]


class TestTemplateReuse:
    """A bound run re-prepares from the compiled plan, reusing its one-time work."""

    def test_approximation_bind_pays_no_svd_or_recording(
        self, noisy_parametric_qaoa, monkeypatch
    ):
        binding = _binding_for(noisy_parametric_qaoa)
        calls = {"decompose_noise": 0, "record": 0, "network": 0}
        decompose, record = approximation.decompose_noise, ContractionPlan.record
        build = circuit_to_tn.operator_amplitude_network

        def counting_decompose(*args, **kwargs):
            calls["decompose_noise"] += 1
            return decompose(*args, **kwargs)

        def counting_record(*args, **kwargs):
            calls["record"] += 1
            return record(*args, **kwargs)

        def counting_build(*args, **kwargs):
            calls["network"] += 1
            return build(*args, **kwargs)

        with Session(seed=5) as session:
            executable = session.compile(noisy_parametric_qaoa, backend="approximation")
            monkeypatch.setattr(approximation, "decompose_noise", counting_decompose)
            monkeypatch.setattr(ContractionPlan, "record", staticmethod(counting_record))
            monkeypatch.setattr(circuit_to_tn, "operator_amplitude_network", counting_build)
            executable.bind(binding).run()
        assert calls == {"decompose_noise": 0, "record": 0, "network": 0}

    def test_trajectory_tn_bind_builds_no_network_and_no_kernel(
        self, noisy_parametric_qaoa, monkeypatch
    ):
        # A bound traj_tn run overwrites the parametric gate tensors of the
        # compiled template and reuses its specialization's kernels.
        binding = _binding_for(noisy_parametric_qaoa)
        calls = {"network": 0, "kernel": 0}
        build, kernel = circuit_to_tn.operator_amplitude_network, plan_module._kernel

        def counting_build(*args, **kwargs):
            calls["network"] += 1
            return build(*args, **kwargs)

        def counting_kernel(*args, **kwargs):
            calls["kernel"] += 1
            return kernel(*args, **kwargs)

        options = dict(backend="trajectories_tn", samples=SAMPLES, seed=SEED, workers=1)
        with Session(seed=5) as session:
            executable = session.compile(noisy_parametric_qaoa, **options)
            monkeypatch.setattr(circuit_to_tn, "operator_amplitude_network", counting_build)
            monkeypatch.setattr(plan_module, "_kernel", counting_kernel)
            value = executable.bind(binding).run().value
        assert calls == {"network": 0, "kernel": 0}
        monkeypatch.undo()
        with Session(plan_cache_size=0) as independent:
            assert value == independent.run(substitute(noisy_parametric_qaoa, binding), **options).value

    def test_approximation_compile_records_one_plan(
        self, noisy_parametric_qaoa, monkeypatch
    ):
        # Every term replays one network, so compiling records one schedule.
        calls = []
        record = ContractionPlan.record

        def counting_record(*args, **kwargs):
            calls.append(args)
            return record(*args, **kwargs)

        monkeypatch.setattr(ContractionPlan, "record", staticmethod(counting_record))
        with Session(seed=5) as session:
            executable = session.compile(noisy_parametric_qaoa, backend="approximation")
            assert executable.describe()["plan"]["plan"]["num_steps"] > 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "backend", ["tn", "trajectories_tn", "trajectories", "approximation"]
    )
    def test_run_of_substituted_circuit_hits_compiled_plan(
        self, noisy_parametric_qaoa, backend
    ):
        bound = substitute(noisy_parametric_qaoa, _binding_for(noisy_parametric_qaoa))
        options = dict(backend=backend, samples=SAMPLES, seed=SEED, workers=1)
        with Session(seed=5) as session:
            session.compile(noisy_parametric_qaoa, **options)
            result = session.run(bound, **options)
            stats = session.cache_stats()
        assert (stats["misses"], stats["hits"]) == (1, 1)
        with Session(plan_cache_size=0) as independent:
            reference = independent.run(bound, **options)
        assert result.value == reference.value
        assert result.standard_error == reference.standard_error

    def test_template_shares_value_independent_parts(self, noisy_parametric_qaoa):
        first = substitute(noisy_parametric_qaoa, _binding_for(noisy_parametric_qaoa))
        second = substitute(
            noisy_parametric_qaoa, _binding_for(noisy_parametric_qaoa, offset=0.4)
        )

        simulator = TNSimulator()
        template = simulator.prepare(first)
        prepared = simulator.prepare(second, template=template)
        assert prepared.plan is template.plan
        assert prepared.execute() == simulator.fidelity(second)

        algorithm = ApproximateNoisySimulator(level=1)
        template = algorithm.prepare(first)
        prepared = algorithm.prepare(second, template=template)
        assert prepared.network.plan is template.network.plan
        assert prepared.decompositions is template.decompositions
        assert prepared.factors is template.factors
        assert (
            algorithm.fidelity(second, prepared=prepared).value
            == algorithm.fidelity(second).value
        )

        engine = BatchedTrajectoryEngine("tn")
        template = engine.prepare(first)
        prepared = engine.prepare(second, template=template)
        assert prepared.network.plan is template.network.plan
        assert prepared.q_dists is template.q_dists
        assert prepared.kraus_factors(None) is template.kraus_factors(None)
        fresh = engine.prepare(second)
        assert len(prepared.network.tensors) == len(fresh.network.tensors)
        for rebound, built in zip(prepared.network.tensors, fresh.network.tensors):
            assert np.array_equal(rebound, built)
        assert (
            engine.estimate_fidelity(second, SAMPLES, rng=SEED, context=prepared).estimate
            == engine.estimate_fidelity(second, SAMPLES, rng=SEED).estimate
        )


class TestPlanCacheFragmentation:
    def test_n_binds_cost_one_plan_search(self, noisy_parametric_qaoa):
        n = 4
        with Session() as session:
            executable = session.compile(noisy_parametric_qaoa, backend="tn")
            for offset in range(n):
                executable.bind(_binding_for(noisy_parametric_qaoa, 0.1 * offset)).run()
            stats = session.cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == n

    def test_plan_key_excludes_parameter_values(self, noisy_parametric_qaoa):
        with Session() as session:
            executable = session.compile(noisy_parametric_qaoa, backend="tn")
            one = executable.bind(_binding_for(noisy_parametric_qaoa, 0.0))
            two = executable.bind(_binding_for(noisy_parametric_qaoa, 0.9))
            assert one.plan_key == two.plan_key == executable.plan_key
            # ...but the *result* provenance still separates the bindings.
            assert one.config_hash != two.config_hash

    def test_plan_key_includes_parameter_names_and_arity(self):
        def pcircuit(name):
            circuit = Circuit(1)
            circuit.append(ParametricGate("rx", (Parameter(name),)), (0,))
            return circuit

        task = SimulationTask()
        key_a = plan_cache_key("tn", pcircuit("a"), task)
        key_b = plan_cache_key("tn", pcircuit("b"), task)
        assert key_a != key_b

        two_params = Circuit(1)
        two_params.append(
            ParametricGate("rx", (Parameter("a") + Parameter("b"),)), (0,)
        )
        assert plan_cache_key("tn", two_params, task) != key_a

        # Bound values and shift offsets stay out of the key.
        bound = Circuit(1)
        bound.append(
            ParametricGate("rx", (Parameter("a"),)).bind({"a": 0.4}).shifted(0, 0.1),
            (0,),
        )
        assert plan_cache_key("tn", bound, task) == key_a

    def test_bind_survives_cache_disabled_session(self, noisy_parametric_qaoa):
        binding = _binding_for(noisy_parametric_qaoa)
        with Session(plan_cache_size=0) as session:
            executable = session.compile(noisy_parametric_qaoa, backend="tn", seed=SEED)
            bound_value = executable.bind(binding).run().value
        with Session(plan_cache_size=0) as reference_session:
            reference = reference_session.run(
                substitute(noisy_parametric_qaoa, binding), backend="tn", seed=SEED
            ).value
        assert bound_value == reference

    def test_bind_after_close_raises(self, noisy_parametric_qaoa):
        with Session() as session:
            executable = session.compile(noisy_parametric_qaoa, backend="tn")
        with pytest.raises(ValidationError, match="closed"):
            executable.bind(_binding_for(noisy_parametric_qaoa))


class TestBindingValidation:
    def test_run_before_bind_raises(self, noisy_parametric_qaoa):
        with Session() as session:
            executable = session.compile(noisy_parametric_qaoa, backend="tn")
            with pytest.raises(UnboundParameterError):
                executable.run()

    def test_missing_parameter_raises(self, noisy_parametric_qaoa):
        with Session() as session:
            executable = session.compile(noisy_parametric_qaoa, backend="tn")
            binding = _binding_for(noisy_parametric_qaoa)
            binding.pop(sorted(binding)[0])
            with pytest.raises(UnboundParameterError, match="missing"):
                executable.bind(binding)

    def test_unknown_parameter_raises(self, noisy_parametric_qaoa):
        with Session() as session:
            executable = session.compile(noisy_parametric_qaoa, backend="tn")
            binding = _binding_for(noisy_parametric_qaoa)
            binding["not_a_parameter"] = 1.0
            with pytest.raises(ValidationError, match="unknown"):
                executable.bind(binding)

    def test_ideal_output_state_requires_substitution(self, noisy_parametric_qaoa):
        # The ideal output state depends on the bound values, so compiling a
        # free parametric circuit against it is rejected up front.
        with Session() as session:
            with pytest.raises(ValidationError, match="output_state"):
                session.compile(
                    noisy_parametric_qaoa, backend="tn", output_state="ideal"
                )

    def test_describe_reports_free_and_bound_parameters(self, noisy_parametric_qaoa):
        binding = _binding_for(noisy_parametric_qaoa)
        with Session() as session:
            executable = session.compile(noisy_parametric_qaoa, backend="tn")
            free = executable.describe()["free_parameters"]
            assert set(free) == set(binding)
            bound = executable.bind(binding)
            assert bound.describe()["bound_params"] == binding
            assert bound.bound_params == binding


class TestOptimizerLoop:
    def test_qaoa_iterations_hit_the_plan_cache(self):
        """A small gradient-ascent loop: one compile, every step a cache hit."""
        parametric = qaoa_circuit(4, seed=7, native_gates=False, parametric=True)
        params = _binding_for(parametric)
        with Session(seed=3) as session:
            executable = session.compile(parametric, backend="tn")
            trace = [executable.bind(params).run().value]
            for _ in range(3):
                grad = executable.gradient(params)
                params = {
                    name: value + 0.1 * grad[name] for name, value in params.items()
                }
                trace.append(executable.bind(params).run().value)
            stats = session.cache_stats()
        # Exact gradients on a smooth objective with a small step: fidelity
        # must improve over the loop (monotonically-ish: final > initial).
        assert trace[-1] > trace[0]
        # One plan search; each of the four bind() calls is a hit (tn
        # gradients replay the compiled plan without a lookup).
        assert stats["misses"] == 1
        assert stats["hits"] == 4
