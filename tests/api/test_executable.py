"""Compile/execute split: Executable semantics, plan cache, provenance."""

import dataclasses
import pickle
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import (
    Executable,
    Session,
    SimulationResult,
    apply_noise,
    plan_cache_key,
    simulate,
)
from repro.backends import SimulationTask, get_backend
from repro.backends import engine as engine_module
from repro.backends.engine import PASS_BLOCKS, RNG_BLOCK
from repro.circuits.library import ghz_circuit, qaoa_circuit
from repro.tensornetwork.circuit_to_tn import KrausRowNetwork
from repro.tensornetwork.plan import ContractionPlan
from repro.utils.validation import ValidationError


@pytest.fixture(scope="module")
def noisy_circuit():
    ideal = qaoa_circuit(4, seed=7, native_gates=False)
    return apply_noise(
        ideal, {"channel": "depolarizing", "parameter": 0.01, "count": 3, "seed": 2}
    )


class TestExecutable:
    def test_compile_returns_executable_and_runs_bit_identically(self, noisy_circuit):
        with Session() as session:
            executable = session.compile(noisy_circuit, backend="tn")
            assert isinstance(executable, Executable)
            assert executable.backend == "tn"
            first = executable.run()
            second = executable.run()
            direct = session.run(noisy_circuit, backend="tn")
        assert first.value == second.value == direct.value
        assert first.config_hash == direct.config_hash

    @pytest.mark.parametrize("backend", ["tn", "approximation", "density_matrix"])
    def test_cached_path_matches_uncached_path(self, noisy_circuit, backend):
        # plan_cache_size=0 forces a fresh compile per call: the reference
        # "uncached" path the cached values must match bit-for-bit.
        with Session(plan_cache_size=0) as cold:
            uncached = cold.run(noisy_circuit, backend=backend)
        with Session() as warm:
            executable = warm.compile(noisy_circuit, backend=backend)
            cached = [executable.run() for _ in range(2)]
        assert [r.value for r in cached] == [uncached.value] * 2

    def test_stochastic_runs_replay_compiled_seed(self, noisy_circuit):
        with Session(seed=3) as session:
            executable = session.compile(
                noisy_circuit, backend="trajectories", samples=64, workers=1
            )
            first = executable.run()
            second = executable.run()
            overridden = executable.run(seed=first.seed + 1)
        assert first.seed == second.seed is not None
        assert first.value == second.value
        assert overridden.seed == first.seed + 1
        assert overridden.value != first.value
        assert overridden.config_hash != first.config_hash

    def test_run_override_matches_session_run(self, noisy_circuit):
        with Session() as session:
            executable = session.compile(
                noisy_circuit, backend="trajectories", samples=32, seed=1, workers=1
            )
            via_override = executable.run(num_samples=128, seed=9)
            via_session = session.run(
                noisy_circuit, backend="trajectories", samples=128, seed=9, workers=1
            )
        assert via_override.value == via_session.value
        assert via_override.config_hash == via_session.config_hash

    def test_submit_matches_run(self, noisy_circuit):
        with Session() as session:
            executable = session.compile(
                noisy_circuit, backend="trajectories", samples=100, seed=5, workers=1
            )
            blocking = executable.run()
            async_result = executable.submit().result()
        assert blocking.value == async_result.value

    def test_describe_reports_plan_cost_and_provenance(self, noisy_circuit):
        with Session() as session:
            executable = session.compile(noisy_circuit, backend="tn")
            info = executable.describe()
        assert info["backend"] == "tn"
        assert info["cache_hit"] is False
        assert info["config_hash"] == executable.config_hash
        assert info["plan_key"] == executable.plan_key
        assert info["plan"]["num_steps"] > 0
        assert info["plan"]["peak_intermediate_entries"] > 0

    def test_executable_outlives_nothing_after_close(self, noisy_circuit):
        session = Session()
        executable = session.compile(noisy_circuit, backend="tn")
        session.close()
        with pytest.raises(ValidationError, match="session is closed"):
            executable.run()
        with pytest.raises(ValidationError, match="session is closed"):
            executable.submit()

    def test_invalid_run_override_rejected(self, noisy_circuit):
        with Session() as session:
            executable = session.compile(noisy_circuit, backend="trajectories", workers=1)
            with pytest.raises(ValidationError, match="num_samples"):
                executable.run(num_samples=0)

    def test_samples_for_precision_shares_the_compiled_plan(self, noisy_circuit):
        with Session() as session:
            executable = session.compile(
                noisy_circuit, backend="trajectories_tn", workers=1
            )
            samples = executable.samples_for_precision(5e-3, pilot_samples=64, seed=1)
            legacy = session.samples_for_precision(
                noisy_circuit, 5e-3, backend="trajectories_tn",
                pilot_samples=64, seed=1,
            )
            stats = session.cache_stats()
        assert samples == legacy > 1
        # one compile here, one inside the session helper: the second hits
        assert stats["hits"] >= 1

    def test_samples_for_precision_rejects_deterministic_executable(self, noisy_circuit):
        with Session() as session:
            executable = session.compile(noisy_circuit, backend="tn")
            with pytest.raises(ValidationError, match="not stochastic"):
                executable.samples_for_precision(1e-3)


class TestPlanCache:
    def test_transparent_cache_hit_on_repeated_run(self, noisy_circuit):
        with Session() as session:
            first = session.run(noisy_circuit, backend="tn")
            second = session.run(noisy_circuit, backend="tn")
            stats = session.cache_stats()
        assert first.cache_hit is False
        assert second.cache_hit is True
        assert second.value == first.value
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_same_structure_different_seed_shares_a_plan(self, noisy_circuit):
        # The noise structure is pinned (the circuit carries its channels), so
        # trajectory tasks differing only in the sampling seed must share one
        # compiled plan while keeping distinct config hashes.
        with Session() as session:
            first = session.compile(
                noisy_circuit, backend="trajectories_tn", samples=50, seed=1, workers=1
            )
            second = session.compile(
                noisy_circuit, backend="trajectories_tn", samples=99, seed=2, workers=1
            )
        assert first.plan_key == second.plan_key
        assert first.config_hash != second.config_hash
        assert first.cache_hit is False and second.cache_hit is True

    def test_unpinned_noise_seed_does_not_share_a_plan(self):
        # Without a pinned injection seed the noise lands at different places
        # per submission: genuinely different structure, different plans.
        ideal = qaoa_circuit(4, seed=7, native_gates=False)
        noise = {"channel": "depolarizing", "parameter": 0.05, "count": 3}
        with Session(seed=11) as session:
            first = session.compile(ideal, noise=dict(noise), backend="tn")
            second = session.compile(ideal, noise=dict(noise), backend="tn")
        assert first.plan_key != second.plan_key
        assert second.cache_hit is False

    def test_level_and_samples_do_not_fragment_the_cache(self, noisy_circuit):
        with Session() as session:
            keys = {
                session.compile(
                    noisy_circuit, backend="approximation", level=level
                ).plan_key
                for level in (0, 1, 2)
            }
            stats = session.cache_stats()
        assert len(keys) == 1
        assert stats["misses"] == 1 and stats["hits"] == 2

    def test_lru_eviction_order(self):
        circuits = [ghz_circuit(n) for n in (2, 3, 4)]
        with Session(plan_cache_size=2) as session:
            for circuit in circuits:
                session.compile(circuit, backend="tn")
            stats = session.cache_stats()
            assert stats == {"hits": 0, "misses": 3, "coalesced": 0,
                             "evictions": 1, "size": 2, "capacity": 2,
                             "inflight": 0}
            # ghz_2 (the oldest) was evicted; ghz_3 and ghz_4 still hit.
            assert session.compile(circuits[1], backend="tn").cache_hit
            assert session.compile(circuits[2], backend="tn").cache_hit
            assert not session.compile(circuits[0], backend="tn").cache_hit
            # recompiling ghz_2 evicted the least-recently-used entry, which
            # after the touch order ghz_3 -> ghz_4 -> ghz_2 is ghz_3.
            assert not session.compile(circuits[1], backend="tn").cache_hit

    def test_zero_capacity_disables_caching(self, noisy_circuit):
        with Session(plan_cache_size=0) as session:
            session.run(noisy_circuit, backend="tn")
            session.run(noisy_circuit, backend="tn")
            stats = session.cache_stats()
        assert stats["hits"] == 0 and stats["misses"] == 2 and stats["size"] == 0

    def test_cache_stats_thread_safe_under_concurrent_submit(self, noisy_circuit):
        calls = 24
        with Session(max_parallel=4) as session:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(
                        lambda: session.submit(
                            noisy_circuit, backend="tn"
                        ).result()
                    )
                    for _ in range(calls)
                ]
                results = [future.result() for future in futures]
            stats = session.cache_stats()
        assert len({result.value for result in results}) == 1
        # every submit performs exactly one lookup, and racing compiles of
        # the same key deduplicate to a single in-flight plan search: the
        # counters split the dispatches into exactly one miss (the owner),
        # coalesced waiters, and plain cache hits
        assert stats["hits"] + stats["misses"] + stats["coalesced"] == calls
        assert stats["misses"] == 1
        assert stats["inflight"] == 0
        assert stats["size"] <= stats["capacity"]

    def test_plan_cache_key_excludes_per_call_knobs(self, noisy_circuit):
        base = plan_cache_key("tn", noisy_circuit, SimulationTask(seed=1))
        assert base == plan_cache_key(
            "tn", noisy_circuit,
            SimulationTask(seed=9, num_samples=5, level=4, workers=1, keep_samples=True),
        )
        assert base != plan_cache_key(
            "tn", noisy_circuit, SimulationTask(seed=1, max_bond_dim=8)
        )
        assert base != plan_cache_key(
            "tn", noisy_circuit, SimulationTask(seed=1), {"max_intermediate_size": 2**20}
        )

    def test_plan_cache_key_ignores_the_worker_regime(self, noisy_circuit):
        # A trajectory plan is one prepared context, replayed in-process or
        # shipped to pool workers, so neither the count nor the regime keys it.
        keys = {
            plan_cache_key("trajectories_tn", noisy_circuit, SimulationTask(workers=workers))
            for workers in (None, 1, 2, 8)
        }
        assert len(keys) == 1

    def test_pooled_and_in_process_compiles_share_one_plan(self, noisy_circuit):
        with Session() as session:
            compiled = [
                session.compile(
                    noisy_circuit, backend="trajectories_tn", samples=32, seed=1, workers=workers
                )
                for workers in (2, 1, 3, None)
            ]
            assert [executable.cache_hit for executable in compiled] == [False, True, True, True]
            assert len({executable.plan_key for executable in compiled}) == 1
            assert compiled[0].describe()["plan"] is not None
            assert session.cache_stats()["misses"] == 1
            assert len({executable.run().value for executable in compiled}) == 1

    def test_pooled_run_replays_the_shipped_context(self, noisy_circuit, monkeypatch):
        # Each payload goes through pickle as a process pool ships it; the
        # workers replay the compiled context and prepare nothing.
        class PicklingExecutor:
            payloads = 0

            def map(self, fn, payloads):
                results = []
                for payload in payloads:
                    PicklingExecutor.payloads += 1
                    results.append(fn(pickle.loads(pickle.dumps(payload))))
                return results

        num_samples = PASS_BLOCKS * RNG_BLOCK + 1  # two passes
        task = SimulationTask(num_samples=num_samples, seed=1, workers=2)
        with Session() as session:
            pooled = session.compile(
                noisy_circuit,
                backend="trajectories_tn",
                task=dataclasses.replace(task, executor=PicklingExecutor()),
            )
            serial = session.compile(
                noisy_circuit, backend="trajectories_tn", task=dataclasses.replace(task, workers=1)
            )
            prepared = []

            def spy(name, original):
                def counted(*args, **kwargs):
                    prepared.append(name)
                    return original(*args, **kwargs)

                return counted

            context_class = engine_module._TrajectoryContext
            build, record = KrausRowNetwork.build.__func__, ContractionPlan.record.__func__
            monkeypatch.setattr(KrausRowNetwork, "build", classmethod(spy("build", build)))
            monkeypatch.setattr(ContractionPlan, "record", classmethod(spy("record", record)))
            monkeypatch.setattr(context_class, "__init__", spy("context", context_class.__init__))
            result = pooled.run()
            assert prepared == [] and PicklingExecutor.payloads == 2
            assert result.value == serial.run().value


class TestOneShotBilling:
    def test_one_shot_billing_includes_compile_time_on_miss(self, noisy_circuit, monkeypatch):
        from repro.api.executable import one_shot_result

        # A plan search of a fixed minimum cost, so the lookup below is
        # cheaper than the miss by construction, not by a wall-clock race.
        backend_class = type(get_backend("tn"))
        plan_search = backend_class._compile

        def slow_compile(self, *args, **kwargs):
            time.sleep(0.05)
            return plan_search(self, *args, **kwargs)

        monkeypatch.setattr(backend_class, "_compile", slow_compile)
        with Session() as session:
            executable = session.compile(noisy_circuit, backend="tn")
            assert executable.compile_seconds > 0.0
            billed = one_shot_result(executable)
            assert billed.elapsed_seconds >= executable.compile_seconds
            hit = session.compile(noisy_circuit, backend="tn")
            # a hit reports its measured lookup cost, far below the plan search
            assert 0.0 < hit.compile_seconds < executable.compile_seconds
            served = one_shot_result(hit)
            assert served.cache_hit and served.value == billed.value


class TestResultProvenance:
    def test_from_dict_round_trips_to_dict(self, noisy_circuit):
        import json

        result = simulate(noisy_circuit, backend="approximation", level=1)
        payload = json.loads(json.dumps(result.to_dict()))
        restored = SimulationResult.from_dict(payload)
        assert restored == result
        assert restored.to_dict() == result.to_dict()

    def test_from_dict_defaults_and_validation(self):
        minimal = SimulationResult.from_dict({"backend": "tn", "value": 0.5})
        assert minimal.cache_hit is False and minimal.standard_error == 0.0
        with pytest.raises(ValueError, match="backend"):
            SimulationResult.from_dict({"value": 0.5})

    def test_cache_hit_provenance_field(self, noisy_circuit):
        with Session() as session:
            miss = session.run(noisy_circuit, backend="tn")
            hit = session.run(noisy_circuit, backend="tn")
        assert miss.cache_hit is False and hit.cache_hit is True
        assert miss.to_dict()["cache_hit"] is False
        assert hit.to_dict()["cache_hit"] is True
        assert SimulationResult.from_dict(hit.to_dict()).cache_hit is True
