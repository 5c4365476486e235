"""Batched trajectory engine vs a per-sample Python loop.

Records the speedup of :class:`repro.backends.BatchedTrajectoryEngine` over
the per-sample reference loop on the Table III workload (1000 statevector
trajectories of QAOA_9 with 8 depolarizing noises at p = 0.001, i.e. four RNG
blocks), plus the cached-plan TN trajectory path at a reduced sample count.
Both paths draw identical Kraus choices for the same seed, so the estimates
are compared as well as the runtimes.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import run_once, write_report
from benchmarks.reference_loops import reference_statevector_loop, reference_tn_loop
from repro.backends import BatchedTrajectoryEngine
from repro.circuits.library import qaoa_circuit
from repro.noise import NoiseModel, depolarizing_channel

NOISE_PROBABILITY = 0.001
NUM_NOISES = 8
NUM_QUBITS = 9
SV_SAMPLES = 1000
TN_SAMPLES = 100

_results: dict = {}


def _workload():
    ideal = qaoa_circuit(NUM_QUBITS, seed=3, native_gates=False)
    return NoiseModel(depolarizing_channel(NOISE_PROBABILITY), seed=5).insert_random(
        ideal, NUM_NOISES
    )


@pytest.mark.parametrize(
    "label,engine_backend,loop,samples",
    [
        ("statevector", "statevector", reference_statevector_loop, SV_SAMPLES),
        ("tn", "tn", reference_tn_loop, TN_SAMPLES),
    ],
)
def test_engine_speedup(benchmark, label, engine_backend, loop, samples):
    circuit = _workload()
    engine = BatchedTrajectoryEngine(engine_backend)
    engine.estimate_fidelity(circuit, 8, rng=0)  # warm the caches

    def run():
        start = time.perf_counter()
        loop_estimate = float(np.mean(loop(circuit, samples, 2)))
        loop_seconds = time.perf_counter() - start
        start = time.perf_counter()
        engine_estimate = engine.estimate_fidelity(circuit, samples, rng=2).estimate
        engine_seconds = time.perf_counter() - start
        return loop_estimate, loop_seconds, engine_estimate, engine_seconds

    loop_estimate, loop_seconds, engine_estimate, engine_seconds = run_once(benchmark, run)
    _results[label] = {
        "samples": samples,
        "loop_seconds": loop_seconds,
        "engine_seconds": engine_seconds,
        "speedup": loop_seconds / engine_seconds,
        "loop_estimate": loop_estimate,
        "engine_estimate": engine_estimate,
    }
    # Identical Kraus draws for the same seed: estimates agree to fp noise.
    assert engine_estimate == pytest.approx(loop_estimate, rel=1e-9, abs=1e-12)
    # The acceptance target is >=5x for the statevector path on this machine
    # class; assert a conservative floor so CI noise cannot flake the suite.
    assert _results[label]["speedup"] >= 3.0


def test_engine_speedup_report(benchmark):
    if not _results:
        pytest.skip("run with --benchmark-only to populate the table")
    lines = [
        "Batched trajectory engine vs per-sample loop "
        f"(QAOA_{NUM_QUBITS}, {NUM_NOISES} noises, p={NOISE_PROBABILITY}):",
    ]
    for label, data in _results.items():
        lines.append(
            f"  {label:<12} {data['samples']:>5} samples: loop {data['loop_seconds']:.3f} s, "
            f"engine {data['engine_seconds']:.3f} s  ->  {data['speedup']:.1f}x"
        )
    run_once(benchmark, write_report, "engine_speedup", "\n".join(lines), data=_results)
