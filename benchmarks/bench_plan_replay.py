"""Kernel-table plan replay vs a per-step ``np.tensordot`` replay.

A :class:`~repro.tensornetwork.plan.ContractionPlan` replays from its kernel
table: every step's transpose orders, 2-D shapes and result shape are derived
once from the input shapes, so a step is one ``dot`` between precomputed
reshapes — numpy's own ``tensordot`` decomposition without its per-call
axis validation and shape arithmetic.  On small tensors that arithmetic is
most of a step's cost.  This microbench times both on two ``tn`` cells of
``qaoa_9`` (as ``benchmarks/specs/table3.yaml`` builds it) with 8
depolarizing noises at p=0.001 placed with noise seed 5:

* **vqe** — the parametric circuit (the ``vqe_gradient`` cell) bound at a
  seeded point; environments of its parametric gate nodes (what
  ``Executable.gradient`` asks for);
* **table3** — the literal circuit (Table III's exact ``tn`` cell);
  environments of every input.

For each cell, :meth:`~repro.tensornetwork.plan.ContractionPlan.execute` is
timed against :func:`benchmarks.reference_loops.tensordot_execute` and
:meth:`~repro.tensornetwork.plan.ContractionPlan.environments` against
:func:`benchmarks.reference_loops.tensordot_environments`; values and every
environment must be equal (``==``).  The plan is replayed once before timing,
so the one-time table derivation is not in the timed loop.  The recorded
headline is the aggregate speedup (total reference time over total
kernel-table time), which ``benchmarks/check_regression.py`` gates (floor in
:data:`repro.dist.trajectory.METRIC_FLOORS`).
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
import pytest

from benchmarks.conftest import run_once, write_report
from benchmarks.reference_loops import tensordot_environments, tensordot_execute
from repro.analysis import format_table
from repro.api import Session
from repro.backends import get_backend
from repro.circuits.library import benchmark_circuit
from repro.circuits.parameters import circuit_parameters, substitute

NOISE = {"channel": "depolarizing", "parameter": 0.001, "count": 8, "seed": 5}

#: Replays per timed sample, and samples per path (the median is reported).
REPLAYS = 50
REPEAT = 5

_results: dict = {}


def _prepared(parametric: bool):
    """``(prepared fidelity, environment positions)`` of one cell on ``tn``."""
    circuit = benchmark_circuit("qaoa_9", seed=3, native_gates=False, parametric=parametric)
    with Session(seed=1) as session:
        executable = session.compile(circuit, "tn", noise=NOISE)
    bound = executable.circuit
    if parametric:
        draw = np.random.default_rng([0, 5])
        names = sorted(circuit_parameters(bound))
        bound = substitute(bound, {name: float(draw.uniform(-math.pi, math.pi)) for name in names})
    prepared = get_backend("tn").compile(bound, executable.task)
    if parametric:
        positions = sorted(node for nodes in prepared.gate_nodes.values() for node in nodes)
    else:
        positions = list(range(prepared.plan.num_inputs))
    return prepared, positions


CELLS = (("vqe", True), ("table3", False))


def _median_seconds(call) -> float:
    samples = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        for _ in range(REPLAYS):
            call()
        samples.append((time.perf_counter() - start) / REPLAYS)
    return statistics.median(samples)


def _measure(parametric: bool) -> dict:
    prepared, positions = _prepared(parametric)
    plan, tensors = prepared.plan, list(prepared.tensors)
    value, environments = plan.environments(tensors, positions)
    expected, expected_environments = tensordot_environments(plan, tensors, positions)
    equal = (
        plan.execute(tensors) == tensordot_execute(plan, tensors) == value == expected
        and all(np.array_equal(environments[p], expected_environments[p]) for p in positions)
    )
    timings = {
        "execute": (
            _median_seconds(lambda: tensordot_execute(plan, tensors)),
            _median_seconds(lambda: plan.execute(tensors)),
        ),
        "environments": (
            _median_seconds(lambda: tensordot_environments(plan, tensors, positions)),
            _median_seconds(lambda: plan.environments(tensors, positions)),
        ),
    }
    return {
        "steps": plan.num_steps,
        "positions": len(positions),
        "equal": equal,
        "timings": timings,
    }


@pytest.mark.parametrize("cell", CELLS, ids=[cell[0] for cell in CELLS])
def test_plan_replay_cell(benchmark, cell):
    """Time both replays on one cell; values and environments must be ``==``."""
    label, parametric = cell
    outcome = run_once(benchmark, _measure, parametric)
    _results[label] = outcome
    assert outcome["equal"], f"{label}: kernel-table replay differs from the tensordot replay"


def test_plan_replay_report(benchmark):
    """Aggregate report; check_regression.py gates its speedup."""
    if len(_results) < len(CELLS):
        pytest.skip("run the plan-replay cells first to populate the table")
    headers = ["Cell", "Replay", "Steps", "tensordot (ms)", "Kernel table (ms)", "Speedup"]
    rows, records = [], []
    total_reference = total_kernel = 0.0
    for label, _ in CELLS:
        data = _results[label]
        for replay, (reference, kernel) in data["timings"].items():
            total_reference += reference
            total_kernel += kernel
            rows.append([
                label, replay, data["steps"], reference * 1e3, kernel * 1e3, f"{reference / kernel:.1f}x",
            ])
            records.append({
                "method": f"{label}_{replay}",
                "steps": data["steps"],
                "positions": data["positions"] if replay == "environments" else None,
                "reference_seconds": reference,
                "kernel_seconds": kernel,
                "speedup": reference / kernel,
                "equal": data["equal"],
            })
    aggregate = total_reference / total_kernel
    rows.append(["aggregate", None, None, total_reference * 1e3, total_kernel * 1e3, f"{aggregate:.1f}x"])
    records.append({
        "method": "aggregate",
        "reference_seconds": total_reference,
        "kernel_seconds": total_kernel,
        "speedup": aggregate,
        "replays": REPLAYS,
        "repeat": REPEAT,
    })
    table = format_table(
        headers,
        rows,
        title=(
            f"Plan replay (qaoa_9, {NOISE['count']} depolarizing noises, tn): kernel table vs "
            f"per-step tensordot, median of {REPEAT} x {REPLAYS} replays"
        ),
    )
    run_once(benchmark, write_report, "plan_replay", table, data=records)
    assert total_kernel < total_reference, "kernel-table replay is not faster than tensordot"
