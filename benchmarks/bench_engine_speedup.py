"""Batched trajectory engine vs a per-sample Python loop.

Records the speedup of :class:`repro.backends.BatchedTrajectoryEngine` over
the per-sample reference loop on the Table III workload (1000 statevector
trajectories of QAOA_9 with 8 depolarizing noises at p = 0.001, i.e. four RNG
blocks), the same cell at p = 0.1 (where nearly every Kraus history is
distinct, so grouping samples by history saves the least), plus the
cached-plan TN trajectory path at a reduced sample count.  Both paths draw
identical Kraus choices for the same seed, so the estimates are compared as
well as the runtimes.  The recorded headline is the aggregate speedup (total
loop time over total engine time), which ``benchmarks/check_regression.py``
gates (floor in :data:`repro.dist.trajectory.METRIC_FLOORS`).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import run_once, write_report
from benchmarks.reference_loops import reference_statevector_loop, reference_tn_loop
from repro.analysis import format_table
from repro.backends import BatchedTrajectoryEngine
from repro.circuits.library import qaoa_circuit
from repro.noise import NoiseModel, depolarizing_channel

NUM_NOISES = 8
NUM_QUBITS = 9
SV_SAMPLES = 1000
TN_SAMPLES = 100

#: Timed engine repeats per row (the fastest is reported); the slow
#: per-sample loop runs once.
REPEAT = 3

#: (label, engine backend, reference loop, samples, noise probability).
ROWS = [
    ("statevector", "statevector", reference_statevector_loop, SV_SAMPLES, 0.001),
    ("tn", "tn", reference_tn_loop, TN_SAMPLES, 0.001),
    ("statevector_p0.1", "statevector", reference_statevector_loop, SV_SAMPLES, 0.1),
]

_results: dict = {}


def _workload(probability):
    ideal = qaoa_circuit(NUM_QUBITS, seed=3, native_gates=False)
    return NoiseModel(depolarizing_channel(probability), seed=5).insert_random(
        ideal, NUM_NOISES
    )


@pytest.mark.parametrize(
    "label,engine_backend,loop,samples,probability", ROWS, ids=[row[0] for row in ROWS]
)
def test_engine_speedup(benchmark, label, engine_backend, loop, samples, probability):
    circuit = _workload(probability)
    engine = BatchedTrajectoryEngine(engine_backend)
    engine.estimate_fidelity(circuit, 8, rng=0)  # warm the caches

    def run():
        start = time.perf_counter()
        loop_estimate = float(np.mean(loop(circuit, samples, 2)))
        loop_seconds = time.perf_counter() - start
        engine_seconds = float("inf")
        for _ in range(REPEAT):
            start = time.perf_counter()
            engine_estimate = engine.estimate_fidelity(circuit, samples, rng=2).estimate
            engine_seconds = min(engine_seconds, time.perf_counter() - start)
        return loop_estimate, loop_seconds, engine_estimate, engine_seconds

    loop_estimate, loop_seconds, engine_estimate, engine_seconds = run_once(benchmark, run)
    _results[label] = {
        "samples": samples,
        "probability": probability,
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
    if len(_results) < len(ROWS):
        pytest.skip("run the engine rows first to populate the table")
    headers = ["Path", "Samples", "p", "Loop (s)", "Engine (s)", "Speedup"]
    rows, records = [], []
    for label, *_ in ROWS:
        data = _results[label]
        rows.append([
            label,
            data["samples"],
            data["probability"],
            data["loop_seconds"],
            data["engine_seconds"],
            f"{data['speedup']:.1f}x",
        ])
        records.append({"method": label, **data})
    total_loop = sum(data["loop_seconds"] for data in _results.values())
    total_engine = sum(data["engine_seconds"] for data in _results.values())
    aggregate = total_loop / total_engine
    rows.append(["aggregate", None, None, total_loop, total_engine, f"{aggregate:.1f}x"])
    records.append({
        "method": "aggregate",
        "loop_seconds": total_loop,
        "engine_seconds": total_engine,
        "speedup": aggregate,
        "repeat": REPEAT,
    })
    table = format_table(
        headers,
        rows,
        title=(
            f"Batched trajectory engine vs per-sample loop (QAOA_{NUM_QUBITS}, "
            f"{NUM_NOISES} depolarizing noises), engine fastest of {REPEAT}"
        ),
    )
    run_once(benchmark, write_report, "engine_speedup", table, data=records)
