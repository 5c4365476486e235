"""The front memo: a repeated compile skips noise binding and the pass pipeline.

A memo hit must be indistinguishable from a cold compile (the oracle below
compares it with a ``plan_cache_size=0`` session bit for bit), must never
share an entry between configurations that differ in anything the front half
reads, and must live and die with the plan entry it resolved to.
"""

import numpy as np
import pytest

import repro.api.session as session_module
from repro.api import Session
from repro.circuits.circuit import Circuit
from repro.circuits.library import ghz_circuit, qaoa_circuit
from repro.verify import generate_workloads

PINNED = {"channel": "depolarizing", "parameter": 0.01, "count": 2, "seed": 3}


@pytest.fixture
def calls(monkeypatch):
    """Counts of the front-half seams (noise binding, pass pipeline) per test."""
    counts = {"apply_noise": 0, "run_passes": 0}

    def counting(name):
        original = getattr(session_module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(session_module, name, wrapper)

    counting("apply_noise")
    counting("run_passes")
    return counts


def _front_hit(calls, compile_once):
    """Compile once; True when neither noise binding nor the passes ran."""
    before = dict(calls)
    executable = compile_once()
    return calls == before, executable


class TestOracle:
    """A memo hit equals a cold compile bit for bit."""

    @pytest.mark.parametrize("passes", [True, False], ids=["passes", "no-passes"])
    @pytest.mark.parametrize(
        "backend, options",
        [
            ("tn", {"output_state": "ideal"}),
            ("approximation", {"level": 1}),
            ("approximation", {"level": 2}),
            ("density_matrix", {}),
            ("trajectories_tn", {"samples": 200}),
        ],
        ids=["tn-ideal", "approximation", "approximation-level2", "density_matrix", "trajectories_tn"],
    )
    def test_hit_matches_cold_compile(self, calls, backend, options, passes):
        workloads = generate_workloads(cases=6, seed=7)
        with Session() as hot, Session(plan_cache_size=0) as cold:
            for workload in workloads:
                def compile_once(session):
                    return session.compile(
                        workload.circuit, backend, noise=workload.noise,
                        passes=passes, seed=11, **options,
                    )

                hot_miss = compile_once(hot)
                hit, memo = _front_hit(calls, lambda: compile_once(hot))
                assert hit and memo.cache_hit, workload.describe()
                reference = compile_once(cold)
                assert memo.circuit.fingerprint() == reference.circuit.fingerprint()
                assert memo.describe()["passes"]["stats"] == reference.describe()["passes"]["stats"]
                assert memo.describe()["passes"]["config"] == reference.describe()["passes"]["config"]
                assert memo.describe()["passes"]["seconds"] == 0.0
                assert memo.config_hash == reference.config_hash == hot_miss.config_hash
                assert memo.plan_key == reference.plan_key == hot_miss.plan_key
                assert memo.run().value == reference.run().value

    def test_auto_backend_and_submit_hit_the_memo(self, calls):
        circuit = qaoa_circuit(4, seed=7, native_gates=False)
        with Session() as session:
            first = session.submit(circuit, noise=PINNED).result()
            before = dict(calls)
            again = session.submit(circuit, noise=PINNED).result()
            assert calls == before
        assert again.backend == first.backend
        assert again.cache_hit and again.value == first.value


class TestCollisions:
    """Configurations that differ in what the front half reads never share an entry."""

    def test_each_variant_gets_its_own_entry(self, calls):
        circuit = qaoa_circuit(4, seed=7, native_gates=False)
        rng = np.random.default_rng(0)
        dense = [rng.normal(size=16) + 1j * rng.normal(size=16) for _ in range(2)]
        dense = [state / np.linalg.norm(state) for state in dense]
        base = {"backend": "tn", "noise": PINNED}
        variants = {
            "base": {},
            "noise seed": {"noise": {**PINNED, "seed": 4}},
            "channel": {"noise": {**PINNED, "channel": "amplitude_damping"}},
            "parameter": {"noise": {**PINNED, "parameter": 0.02}},
            "count": {"noise": {**PINNED, "count": 3}},
            "task seed instead of noise seed": {
                "noise": {k: v for k, v in PINNED.items() if k != "seed"}, "seed": 9,
            },
            "passes": {"passes": {"fuse_gates": False}},
            "no passes": {"passes": False},
            "input state": {"input_state": "0101"},
            "ideal output": {"output_state": "ideal"},
            "dense output a": {"output_state": dense[0]},
            "dense output b": {"output_state": dense[1]},
            "backend options": {"backend_options": {"max_intermediate_size": 2**20}},
            "other backend": {"backend": "density_matrix"},
            "noiseless": {"backend": "mps", "noise": None},
            "bond ceiling": {"backend": "mps", "noise": None, "max_bond_dim": 4},
            "trajectories": {"backend": "trajectories_tn", "workers": 1, "samples": 8, "seed": 1},
        }
        with Session() as session:
            def compile_variant(name):
                return session.compile(circuit, **{**base, **variants[name]})

            for name in variants:
                hit, _ = _front_hit(calls, lambda: compile_variant(name))
                assert not hit, f"{name} shared another configuration's entry"
            for name in variants:
                hit, executable = _front_hit(calls, lambda: compile_variant(name))
                assert hit and executable.cache_hit, f"{name} lost its entry"

    def test_worker_counts_share_one_entry(self, calls):
        # The front half reads nothing of the worker regime: a pooled and an
        # in-process compile of one configuration share its entry.
        circuit = qaoa_circuit(4, seed=7, native_gates=False)
        with Session() as session:
            for index, workers in enumerate((2, 1, None, 3)):
                hit, executable = _front_hit(calls, lambda: session.compile(
                    circuit, "trajectories_tn", noise=PINNED, samples=8, seed=1, workers=workers
                ))
                assert hit == executable.cache_hit == (index > 0), workers

    def test_dense_output_states_score_against_their_own_state(self):
        circuit = ghz_circuit(2)
        plus = np.full(4, 0.5, dtype=complex)
        with Session() as session:
            ghz = session.run(circuit, "tn", output_state="ideal").value
            uniform = session.run(circuit, "tn", output_state=plus).value
            assert session.run(circuit, "tn", output_state="ideal").value == ghz
            assert session.run(circuit, "tn", output_state=plus).value == uniform
        assert ghz == pytest.approx(1.0) and uniform == pytest.approx(0.5)


class TestLifetime:
    def test_unpinned_noise_bypasses_the_memo(self, calls):
        # One gate and one noise: every injection seed places the noise at
        # the same site, so pinned and unpinned compiles share one plan.  The
        # unpinned ones draw a fresh seed per call and must not record fronts
        # on that plan, or they would push the pinned front out of it.
        circuit = Circuit(1).h(0)
        pinned = {"channel": "depolarizing", "parameter": 0.01, "count": 1, "seed": 5}
        unpinned = {key: value for key, value in pinned.items() if key != "seed"}
        with Session() as session:
            plan_key = session.compile(circuit, "tn", noise=pinned).plan_key
            for _ in range(40):
                assert session.compile(circuit, "tn", noise=unpinned).plan_key == plan_key
            assert calls["apply_noise"] == 41
            hit, executable = _front_hit(
                calls, lambda: session.compile(circuit, "tn", noise=pinned)
            )
            assert hit and executable.cache_hit
            assert len(session._fronts) == 1

    def test_fronts_per_plan_are_bounded(self):
        # A task seed pins the injection, so each of these compiles is a new
        # front; with one gate they all resolve to the same plan.
        circuit = Circuit(1).h(0)
        unpinned = {"channel": "depolarizing", "parameter": 0.01, "count": 1}
        with Session() as session:
            keys = {
                session.compile(circuit, "tn", noise=unpinned, seed=seed).plan_key
                for seed in range(3 * Session._FRONTS_PER_PLAN)
            }
            assert len(keys) == 1
            assert len(session._fronts) == Session._FRONTS_PER_PLAN

    def test_evicting_a_plan_drops_its_fronts(self, calls):
        with Session(plan_cache_size=1) as session:
            session.compile(ghz_circuit(3), "tn", noise=PINNED)
            hit, _ = _front_hit(calls, lambda: session.compile(ghz_circuit(3), "tn", noise=PINNED))
            assert hit
            session.compile(ghz_circuit(4), "tn", noise=PINNED)  # evicts ghz_3's plan
            assert session.cache_stats()["evictions"] == 1
            assert len(session._fronts) == 1
            hit, executable = _front_hit(
                calls, lambda: session.compile(ghz_circuit(3), "tn", noise=PINNED)
            )
            assert not hit and not executable.cache_hit

    def test_disabled_cache_never_memoizes(self, calls):
        with Session(plan_cache_size=0) as session:
            for _ in range(3):
                session.compile(ghz_circuit(3), "tn", noise=PINNED)
            assert calls == {"apply_noise": 3, "run_passes": 3}
            assert session._fronts == {} and session.cache_stats()["size"] == 0

    def test_mutating_an_executable_circuit_does_not_reach_later_hits(self):
        circuit = ghz_circuit(3)
        with Session() as session:
            first = session.compile(circuit, "tn", noise=PINNED)
            fingerprint = first.circuit.fingerprint()
            value = first.run().value
            first.circuit.x(0)
            hit = session.compile(circuit, "tn", noise=PINNED)
            assert hit.circuit.fingerprint() == fingerprint
            hit.circuit.x(0)
            again = session.compile(circuit, "tn", noise=PINNED)
            assert again.cache_hit and again.circuit.fingerprint() == fingerprint
            assert again.run().value == value

    def test_mutating_the_input_circuit_does_not_reach_later_hits(self):
        # Noiseless with passes off: the optimized circuit *is* the input, so
        # the memo must hold its own copy.
        circuit = ghz_circuit(3)
        with Session() as session:
            first = session.compile(circuit, "tn", passes=False)
            circuit.x(0)
            hit = session.compile(ghz_circuit(3), "tn", passes=False)
            assert hit.circuit.fingerprint() == ghz_circuit(3).fingerprint()
            assert hit.run().value == first.run().value


class TestSeams:
    def test_passes_run_once_on_a_miss_and_never_on_a_hit(self, calls):
        circuit = qaoa_circuit(4, seed=7, native_gates=False)
        with Session() as session:
            session.compile(circuit, "tn", noise=PINNED)
            assert calls == {"apply_noise": 1, "run_passes": 1}
            for _ in range(3):
                session.compile(circuit, "tn", noise=PINNED)
            assert calls == {"apply_noise": 1, "run_passes": 1}
            stats = session.cache_stats()
        assert stats["hits"] == 3 and stats["misses"] == 1
