"""The BLAS thread pin: one thread inside replay loops, the caller's count after."""

import sys
import threading

import numpy as np
import pytest

from repro.backends import engine as engine_module
from repro.backends.engine import BatchedTrajectoryEngine
from repro.circuits.library import random_circuit
from repro.noise import NoiseModel, depolarizing_channel
from repro.tensornetwork import ContractionPlan, circuit_amplitude_network
from repro.tensornetwork import plan as plan_module
from repro.utils import blas
from repro.utils.blas import blas_num_threads, single_blas_thread

pytestmark = pytest.mark.skipif(
    blas_num_threads() is None, reason="numpy does not link its bundled OpenBLAS"
)


@pytest.fixture
def two_threads():
    """Start from two BLAS threads (where the host allows it); restore after."""
    original = blas_num_threads()
    blas._OPENBLAS[0](2)
    yield blas_num_threads()
    blas._OPENBLAS[0](original)


@pytest.fixture(scope="module")
def noisy_circuit():
    return NoiseModel(depolarizing_channel(0.1), seed=4).insert_random(random_circuit(3, 15, rng=4), 4)


@pytest.mark.parametrize(
    "backend, module, name",
    [("statevector", engine_module, "_apply_gate_tensor"), ("tn", plan_module, "_replay")],
    ids=["statevector", "tn"],
)
def test_a_pass_runs_on_one_thread_and_the_count_is_restored(
    two_threads, noisy_circuit, backend, module, name, monkeypatch
):
    seen = []
    original = getattr(module, name)

    def spy(*args):
        seen.append(blas_num_threads())
        return original(*args)

    monkeypatch.setattr(module, name, spy)
    BatchedTrajectoryEngine(backend).estimate_fidelity(noisy_circuit, 300, rng=1)
    assert seen and set(seen) == {1}
    assert blas_num_threads() == two_threads


def test_an_estimate_that_raises_restores_the_count(two_threads, noisy_circuit, monkeypatch):
    def explode(*args, **kwargs):
        assert blas_num_threads() == 1
        raise RuntimeError("pass failed")

    monkeypatch.setattr(engine_module, "_born_cdfs", explode)
    with pytest.raises(RuntimeError, match="pass failed"):
        BatchedTrajectoryEngine("statevector").estimate_fidelity(noisy_circuit, 300, rng=1)
    assert blas_num_threads() == two_threads


def test_concurrent_holders_restore_once_the_last_leaves(two_threads):
    entered, release = threading.Event(), threading.Event()

    def hold():
        with single_blas_thread():
            entered.set()
            release.wait(timeout=10)

    holder = threading.Thread(target=hold)
    with single_blas_thread():
        holder.start()
        assert entered.wait(timeout=10)
    # The first holder left while the second still holds the pin.
    assert blas_num_threads() == 1
    release.set()
    holder.join(timeout=10)
    assert blas_num_threads() == two_threads


def test_many_threads_never_lose_the_pin(two_threads):
    # More holders than cores, switching often: a lost update to the holder
    # count would leave the pin released inside a body, or never restored.
    seen, errors = [], []

    def churn():
        try:
            for _ in range(200):
                with single_blas_thread():
                    seen.append(blas_num_threads())
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(thread.is_alive() for thread in threads)
    assert len(seen) == 8 * 200 and set(seen) == {1}
    assert blas_num_threads() == two_threads


def test_nested_holders_share_one_pin(two_threads):
    with single_blas_thread():
        with single_blas_thread():
            assert blas_num_threads() == 1
        # The inner holder left; the outer one still holds the pin.
        assert blas_num_threads() == 1
    assert blas_num_threads() == two_threads


def test_a_body_that_raises_restores_the_count(two_threads):
    with pytest.raises(ValueError, match="body failed"):
        with single_blas_thread():
            assert blas_num_threads() == 1
            raise ValueError("body failed")
    assert blas_num_threads() == two_threads
    with single_blas_thread():  # the holder count went back to zero
        assert blas_num_threads() == 1
    assert blas_num_threads() == two_threads


def _amplitude_plan():
    network = circuit_amplitude_network(random_circuit(4, 12, rng=3), "0000", "0110")
    return ContractionPlan.record(network), list(network.tensors)


def _replay_thread_counts(monkeypatch):
    seen = []
    replay = plan_module._replay

    def spy(*args, **kwargs):
        seen.append(blas_num_threads())
        return replay(*args, **kwargs)

    monkeypatch.setattr(plan_module, "_replay", spy)
    return seen


def test_a_single_contraction_keeps_its_blas_threads(two_threads, monkeypatch):
    plan, tensors = _amplitude_plan()
    seen = _replay_thread_counts(monkeypatch)
    plan.execute(tensors)
    plan.environments(tensors, range(plan.num_inputs))
    assert seen and set(seen) == {two_threads}


def test_row_batched_replay_runs_on_one_thread(two_threads, monkeypatch):
    plan, tensors = _amplitude_plan()
    positions = [0, 3, 5]
    specialized = plan.specialize(tensors, positions)
    factors = [np.stack([tensors[position]] * 2) for position in positions]
    rows = np.array([[0, 1, 0], [1, 1, 1]])
    seen = _replay_thread_counts(monkeypatch)
    values = specialized.execute_rows(factors, rows)
    assert seen and set(seen) == {1}
    assert blas_num_threads() == two_threads
    assert np.allclose(values, plan.execute(tensors), rtol=1e-12, atol=0)


class _FakeOpenBLAS:
    """A stand-in ``(set, get)`` pair that records every set call."""

    def __init__(self, count):
        self.count, self.sets = count, []

    def set(self, count):
        self.sets.append(count)
        self.count = count

    def get(self):
        return self.count


@pytest.mark.parametrize("count, sets", [(4, [1, 4]), (1, [])], ids=["four", "one"])
def test_the_count_is_set_only_when_it_is_not_one(monkeypatch, count, sets):
    fake = _FakeOpenBLAS(count)
    monkeypatch.setattr(blas, "_OPENBLAS", (fake.set, fake.get))
    with single_blas_thread():
        assert blas_num_threads() == 1
        with single_blas_thread():
            pass
    assert fake.sets == sets and blas_num_threads() == count


def test_without_openblas_the_manager_does_nothing(two_threads, monkeypatch):
    real_get = blas._OPENBLAS[1]
    monkeypatch.setattr(blas, "_OPENBLAS", None)
    assert blas_num_threads() is None
    ran = []
    with single_blas_thread():
        ran.append(real_get())
    assert ran == [two_threads] and real_get() == two_threads
