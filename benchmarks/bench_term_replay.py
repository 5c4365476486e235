"""Batched index-row replay vs one replay per row on the Table III cell.

Algorithm 1's terms, path truncation's paths and ``trajectories_tn``'s
samples are integer index rows replayed through one specialized plan by
:meth:`~repro.tensornetwork.plan.SpecializedPlan.execute_rows`, which walks
the residual contraction steps once for a whole batch of rows.  This
microbench times that batched pass against the per-row loop it replaced
(``benchmarks/reference_loops.py``'s ``tensordot_row_loop``: one replay
per row, one ``np.tensordot`` per residual step, as the per-row
:meth:`~repro.tensornetwork.plan.SpecializedPlan.execute` ran when the
baseline was recorded; it calls no library replay, so library speedups of
the per-row path do not move the ratio) on ``qaoa_9`` built as
``benchmarks/specs/table3.yaml`` builds it, with 8 depolarizing noises at
p=0.001:

* **ours_l1** — the 1 + 3·8 level-1 rows of the one amplitude network a
  term replays;
* **ours_l2** — the 1 + 3·8 + 9·28 level-2 rows;
* **traj_tn** — 2000 sampled Kraus rows of the trajectory plan, replayed
  in blocks of :data:`~repro.backends.engine.RNG_BLOCK` rows as the engine
  replays them.

Both evaluators must agree within 1e-12 relative (the batched pass sums in a
different order, nothing else).  The recorded headline is the aggregate
speedup, which ``benchmarks/check_regression.py`` gates (floor 5x in
:data:`repro.dist.trajectory.METRIC_FLOORS`).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import run_once, write_report
from benchmarks.reference_loops import tensordot_row_loop, tensordot_specialize
from repro.analysis import format_table
from repro.api import apply_noise
from repro.backends.engine import RNG_BLOCK, BatchedTrajectoryEngine
from repro.circuits.library import benchmark_circuit
from repro.core import ApproximateNoisySimulator
from repro.core.approximation import level_rows
from tests.core.reference import rows_close

_CIRCUIT = apply_noise(
    benchmark_circuit("qaoa_9", seed=3, native_gates=False),
    {"channel": "depolarizing", "parameter": 0.001, "count": 8, "seed": 5},
)

#: Timed repeats per evaluator; the fastest one is reported.
REPEAT = 3

#: Sampled trajectory rows (the Table III sample count).
TRAJ_SAMPLES = 2000

_results: dict = {}


# A case is ``(specialized plan, stacked candidates, rows, reference residual)``;
# the reference residual is the same plan specialized by tensordot_specialize.


def _reference(network):
    """``network``'s specialization, recomputed by tensordot_specialize."""
    return tensordot_specialize(network.plan, network.tensors, network.noise_nodes)


def _algorithm1_cases(level: int):
    prepared = ApproximateNoisySimulator().prepare(_CIRCUIT)
    rows = level_rows(prepared.decompositions, level)
    network = prepared.network
    return [(network.specialized, prepared.factors, rows, _reference(network))]


def _traj_cases():
    context = BatchedTrajectoryEngine("tn").prepare(_CIRCUIT)
    factors = context.kraus_factors(None)
    network = context.network
    reference = _reference(network)
    rng = np.random.default_rng(11)
    rows = np.stack(
        [rng.integers(0, len(candidates), size=TRAJ_SAMPLES) for candidates in factors], axis=1
    )
    return [
        (network.specialized, factors, rows[start : start + RNG_BLOCK], reference)
        for start in range(0, TRAJ_SAMPLES, RNG_BLOCK)
    ]


METHODS = (
    ("ours_l1", lambda: _algorithm1_cases(1)),
    ("ours_l2", lambda: _algorithm1_cases(2)),
    ("traj_tn", _traj_cases),
)


def _batched(plan, factors, rows, reference):
    return plan.execute_rows(factors, rows)


def _per_row(plan, factors, rows, reference):
    return tensordot_row_loop(reference, plan.variable_positions, factors, rows)


def _fastest(evaluate, cases) -> tuple:
    best, values = float("inf"), None
    for _ in range(REPEAT):
        start = time.perf_counter()
        values = [evaluate(*case) for case in cases]
        best = min(best, time.perf_counter() - start)
    return best, values


def _measure(build) -> dict:
    cases = build()
    batched_seconds, batched = _fastest(_batched, cases)
    sequential_seconds, sequential = _fastest(_per_row, cases)
    return {
        "rows": sum(len(case[2]) for case in cases),
        "sequential_seconds": sequential_seconds,
        "batched_seconds": batched_seconds,
        "speedup": sequential_seconds / batched_seconds,
        "agree": all(rows_close(b, s) for b, s in zip(batched, sequential)),
    }


@pytest.mark.parametrize("method", METHODS, ids=[m[0] for m in METHODS])
def test_term_replay_method(benchmark, method):
    """Time one row set both ways; the batched values must agree within 1e-12."""
    label, build = method
    outcome = run_once(benchmark, _measure, build)
    _results[label] = outcome
    assert outcome["agree"], f"{label}: batched rows differ from the per-row replay"


def test_term_replay_report(benchmark):
    """Aggregate report; check_regression.py gates its speedup (floor 5x)."""
    if len(_results) < len(METHODS):
        pytest.skip("run the method cells first to populate the table")
    headers = ["Method", "Rows", "Per-row (s)", "Batched (s)", "Speedup", "Agree 1e-12"]
    rows, records = [], []
    for label, _ in METHODS:
        data = _results[label]
        rows.append([
            label,
            data["rows"],
            data["sequential_seconds"],
            data["batched_seconds"],
            f"{data['speedup']:.1f}x",
            data["agree"],
        ])
        records.append({"method": label, **data})
    total_sequential = sum(r["sequential_seconds"] for r in _results.values())
    total_batched = sum(r["batched_seconds"] for r in _results.values())
    aggregate = total_sequential / total_batched
    rows.append(["aggregate", None, total_sequential, total_batched, f"{aggregate:.1f}x", True])
    records.append({
        "method": "aggregate",
        "sequential_seconds": total_sequential,
        "batched_seconds": total_batched,
        "speedup": aggregate,
        "repeat": REPEAT,
        "workload": _CIRCUIT.name,
    })
    table = format_table(
        headers,
        rows,
        title=(
            f"Index-row replay ({_CIRCUIT.name}, 8 depolarizing noises at p=0.001): "
            f"batched execute_rows vs one tensordot replay per row, fastest of {REPEAT}"
        ),
    )
    run_once(benchmark, write_report, "term_replay", table, data=records)
    assert total_batched < total_sequential, "batched replay is not faster than per-row replay"
