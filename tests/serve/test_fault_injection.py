"""Fault injection: crashed/hung workers, broken pools, poisoned compiles.

The hardening contract: any single worker failure yields a *structured*
error response (correct status, ``retryable`` flag, no traceback, no hang),
the server stays live, and an immediate retry succeeds.  Pool breakage
additionally triggers automatic pool recovery; compile failures must never
poison the coalescing map.
"""

import asyncio
import os
import threading

import pytest

from repro.backends import get_backend
from repro.backends.engine import PASS_BLOCKS, RNG_BLOCK
from repro.serve import (
    FaultInjector,
    ReproServer,
    ServeClient,
    crash,
    hang,
)

pytestmark = pytest.mark.serve

OK_REQUEST = {"circuit": "ghz_8", "backend": "statevector"}


def _die() -> None:  # must be module-level: it is pickled into pool workers
    os._exit(1)


class TestInjectedCrashes:
    def test_execute_crash_is_structured_and_retry_succeeds(self, run_async):
        injector = FaultInjector()
        injector.inject("execute", crash("worker segfault (injected)"))

        async def scenario():
            server = ReproServer(seed=0, max_inflight=2, fault_injector=injector)
            client = ServeClient(server)
            try:
                failed = await client.request(**OK_REQUEST)
                retry = await client.request(**OK_REQUEST)
                stats = await client.stats()
            finally:
                await server.aclose()
            return failed, retry, stats

        failed, retry, stats = run_async(scenario())
        assert failed["status"] == "worker_failed"
        assert failed["retryable"] is True
        assert failed["error"]["kind"] == "worker_crash"
        assert "segfault" in failed["error"]["message"]
        assert retry["status"] == "ok"
        assert stats["server"]["by_status"] == {
            "ok": 1, "invalid": 0, "overloaded": 0, "timeout": 0,
            "worker_failed": 1, "error": 0,
        }
        assert stats["admission"]["active"] == 0

    def test_compile_crash_then_retry(self, run_async):
        injector = FaultInjector()
        injector.inject("compile", crash("compile blew up"))

        async def scenario():
            server = ReproServer(seed=0, max_inflight=2, fault_injector=injector)
            client = ServeClient(server)
            try:
                failed = await client.request(**OK_REQUEST)
                retry = await client.request(**OK_REQUEST)
                stats = await client.stats()
            finally:
                await server.aclose()
            return failed, retry, stats

        failed, retry, stats = run_async(scenario())
        assert failed["status"] == "worker_failed"
        assert retry["status"] == "ok"
        assert stats["plan_cache"]["inflight"] == 0

    def test_generic_exception_reports_phase(self, run_async):
        injector = FaultInjector()

        def boom(**context):
            raise ArithmeticError("numerical meltdown")

        injector.inject("execute", boom)

        async def scenario():
            server = ReproServer(seed=0, max_inflight=2, fault_injector=injector)
            client = ServeClient(server)
            try:
                failed = await client.request(**OK_REQUEST)
                retry = await client.request(**OK_REQUEST)
            finally:
                await server.aclose()
            return failed, retry

        failed, retry = run_async(scenario())
        assert failed["status"] == "error"
        assert failed["retryable"] is False
        assert failed["error"]["kind"] == "execution_error"
        assert "ArithmeticError" in failed["error"]["message"]
        assert retry["status"] == "ok"


class TestPoisonedCoalescing:
    def test_compile_exception_does_not_poison_the_coalescing_map(
        self, run_async, monkeypatch
    ):
        """A failing in-flight compile fans its error out and frees the key.

        The first plan search raises (patched at the backend seam — inside
        ``Session.compile``, exactly where the dedup registry lives); any
        request coalesced onto it fails with the same structured error, and
        the key is released: later requests compile again and succeed.
        """
        backend_cls = type(get_backend("statevector"))
        original = backend_cls.compile
        lock = threading.Lock()
        calls = {"n": 0}

        def compile_once_broken(self, circuit, task):
            with lock:
                calls["n"] += 1
                first = calls["n"] == 1
            if first:
                raise RuntimeError("injected plan-search failure")
            return original(self, circuit, task)

        monkeypatch.setattr(backend_cls, "compile", compile_once_broken)

        async def scenario():
            server = ReproServer(seed=0, max_inflight=4, queue_limit=32)
            client = ServeClient(server)
            try:
                burst = await asyncio.gather(
                    *(client.request(tenant=f"t{i}", **OK_REQUEST) for i in range(6))
                )
                retry = await client.request(**OK_REQUEST)
                stats = await client.stats()
            finally:
                await server.aclose()
            return burst, retry, stats

        burst, retry, stats = run_async(scenario())
        statuses = [response["status"] for response in burst]
        errors = [r for r in burst if r["status"] == "error"]
        assert errors, f"the injected failure never surfaced: {statuses}"
        assert all(r["error"]["kind"] == "compile_error" for r in errors)
        assert all(status in ("ok", "error") for status in statuses)
        # The key was never poisoned: the post-burst retry compiles cleanly.
        assert retry["status"] == "ok"
        assert stats["plan_cache"]["inflight"] == 0
        assert stats["plan_cache"]["misses"] >= 1


class TestBrokenProcessPool:
    @pytest.mark.slow
    def test_killed_pool_worker_structured_error_pool_recovers(self, run_async):
        """Kill a real pool worker mid-service: 503, reset, retry succeeds."""
        request = {
            "circuit": "qaoa_5",
            "backend": "trajectories",
            "noise": {"channel": "depolarizing", "parameter": 0.02,
                      "count": 3, "seed": 11},
            # Two passes: a one-pass estimate runs in-process, off the pool.
            "samples": PASS_BLOCKS * RNG_BLOCK + 1,
        }

        async def scenario():
            server = ReproServer(seed=0, workers=2, max_inflight=2)
            client = ServeClient(server)
            try:
                warmup = await client.request(**request)
                # Break the shared pool for real: a worker process exits hard.
                pool = server.session._shared_pool()
                assert pool is not None
                with pytest.raises(Exception):
                    pool.submit(_die).result(timeout=30)
                failed = await client.request(**request)
                retry = await client.request(**request)
                stats = await client.stats()
            finally:
                await server.aclose()
            return warmup, failed, retry, stats

        warmup, failed, retry, stats = run_async(scenario())
        assert warmup["status"] == "ok"
        assert failed["status"] == "worker_failed", failed
        assert failed["retryable"] is True
        assert failed["error"]["kind"] == "pool_broken"
        assert retry["status"] == "ok"
        assert stats["server"]["pool_resets"] >= 1


class TestHungWorker:
    def test_hung_worker_times_out_and_server_stays_live(self, run_async, poll_until):
        injector = FaultInjector()
        injector.inject("execute", hang(0.4))

        async def scenario():
            server = ReproServer(seed=0, max_inflight=1, queue_limit=0,
                                 fault_injector=injector)
            client = ServeClient(server)
            try:
                hung = await client.request(timeout=0.05, **OK_REQUEST)
                # The hung thread still owns the admission slot (it is
                # genuinely running); wait for it to drain, then serve again.
                drained = await poll_until(
                    lambda: server.stats()["admission"]["active"] == 0,
                    timeout=5.0,
                )
                after = await client.request(**OK_REQUEST)
                stats = await client.stats()
            finally:
                await server.aclose()
            return hung, drained, after, stats

        hung, drained, after, stats = run_async(scenario())
        assert hung["status"] == "timeout"
        assert hung["retryable"] is True
        assert hung["error"]["kind"] == "deadline_exceeded"
        assert drained, "hung worker never released its admission slot"
        assert after["status"] == "ok"
        assert stats["admission"]["completed_total"] >= 1
        assert stats["admission"]["active"] == 0
