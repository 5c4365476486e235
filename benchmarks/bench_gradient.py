"""The ``tn`` environment-sweep gradient vs a parameter-shift loop.

``Executable.gradient`` on ``tn`` differentiates the compiled contraction
plan directly: one forward replay keeps the operands on the paths to the
parametric gate nodes, and one reverse sweep turns them into those nodes'
environments, so every gate occurrence's ``∂F/∂θ`` costs one replay in
total.  Parameter shift pays two replays per occurrence.  This benchmark
times both on the ``vqe_gradient`` cell: parametric ``qaoa_9`` (as
``benchmarks/specs/table3.yaml`` builds it) with 8 depolarizing noises at
p=0.001 placed with noise seed 5, compiled once on ``tn``, at ``POINTS``
seeded parameter points.

The reference is :func:`benchmarks.reference_loops.reference_shift_gradient`
(two ``backend.run`` calls on the compiled plan per occurrence; 42 on this
cell).  The two gradients must agree within 1e-10 per parameter.  The
recorded headline is the aggregate speedup (total loop time over total
``Executable.gradient`` time), which ``benchmarks/check_regression.py``
gates (floor in :data:`repro.dist.trajectory.METRIC_FLOORS`).
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
import pytest

from benchmarks.conftest import run_once, write_report
from benchmarks.reference_loops import reference_shift_gradient
from repro.analysis import format_table
from repro.api import Session
from repro.backends import get_backend
from repro.circuits.library import benchmark_circuit
from repro.circuits.parameters import circuit_parameters, substitute

NOISE = {"channel": "depolarizing", "parameter": 0.001, "count": 8, "seed": 5}

#: Seeded parameter points (rows of the report).
POINTS = 3

#: Timed repeats per point and path; the median of each is reported.
REPEAT = 5

_results: dict = {}


def _measure(point: int) -> dict:
    circuit = benchmark_circuit("qaoa_9", seed=3, native_gates=False, parametric=True)
    with Session(seed=1) as session:
        executable = session.compile(circuit, "tn", noise=NOISE)
        draw = np.random.default_rng([point, 5])
        params = {
            name: float(draw.uniform(-math.pi, math.pi))
            for name in sorted(circuit_parameters(executable.circuit))
        }
        backend = get_backend("tn")
        plan = backend.compile(substitute(executable.circuit, params), executable.task)
        swept = executable.gradient(params)  # warm
        shifted = reference_shift_gradient(backend, executable.circuit, executable.task, plan, params)
        sweep_times, loop_times = [], []
        for _ in range(REPEAT):
            start = time.perf_counter()
            executable.gradient(params)
            sweep_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            reference_shift_gradient(backend, executable.circuit, executable.task, plan, params)
            loop_times.append(time.perf_counter() - start)
    sweep_seconds = statistics.median(sweep_times)
    loop_seconds = statistics.median(loop_times)
    return {
        "loop_seconds": loop_seconds,
        "gradient_seconds": sweep_seconds,
        "speedup": loop_seconds / sweep_seconds,
        "max_deviation": max(abs(swept[name] - shifted[name]) for name in params),
        "parameters": len(params),
        "device": "cpu",
    }


@pytest.mark.parametrize("point", range(POINTS), ids=[f"point{p}" for p in range(POINTS)])
def test_gradient_point(benchmark, point):
    """Time both gradients at one point; they must agree within 1e-10."""
    outcome = run_once(benchmark, _measure, point)
    _results[point] = outcome
    assert outcome["max_deviation"] <= 1e-10, outcome


def test_gradient_report(benchmark):
    """Aggregate report; check_regression.py gates its speedup."""
    if len(_results) < POINTS:
        pytest.skip("run the gradient points first to populate the table")
    headers = ["Point", "Shift loop (s)", "Executable.gradient (s)", "Speedup", "Max |Δ|"]
    rows, records = [], []
    for point in range(POINTS):
        data = _results[point]
        rows.append([
            f"point{point}",
            data["loop_seconds"],
            data["gradient_seconds"],
            f"{data['speedup']:.1f}x",
            f"{data['max_deviation']:.1e}",
        ])
        records.append({"method": f"point{point}", **data})
    total_loop = sum(data["loop_seconds"] for data in _results.values())
    total_sweep = sum(data["gradient_seconds"] for data in _results.values())
    aggregate = total_loop / total_sweep
    rows.append(["aggregate", total_loop, total_sweep, f"{aggregate:.1f}x", None])
    records.append({
        "method": "aggregate",
        "loop_seconds": total_loop,
        "gradient_seconds": total_sweep,
        "speedup": aggregate,
        "repeat": REPEAT,
        "device": "cpu",
    })
    table = format_table(
        headers,
        rows,
        title=(
            f"tn gradient: environment sweep vs parameter-shift loop (parametric qaoa_9, "
            f"{NOISE['count']} depolarizing noises), median of {REPEAT}"
        ),
    )
    run_once(benchmark, write_report, "gradient", table, data=records)
