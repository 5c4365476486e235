"""Compile-once vs recompile-per-call on the Table III workload.

The service-layer claim behind the compile/execute split: a repeated
configuration — the shape of sweeps, matched-precision pilots, conformance
fuzzing and hot-path serving — should pay the one-time work (noise binding,
contraction-plan search, trajectory-context preparation, noise SVD
decompositions) once, not per request.

This microbench takes the largest Table III instance (``qaoa_9`` with 8
depolarizing noises at p=0.001, from ``benchmarks/specs/table3.yaml``) and
times every method both ways:

* **recompile-per-call** — a ``Session(plan_cache_size=0)``, so each
  ``run()`` redoes the full compile;
* **compile-once** — one ``Session.compile()`` → ``Executable``, then
  repeated ``Executable.run()``.

Values must be bit-identical between the two paths (same seeds, same
contraction order — caching moves work, never results), and the cached path
must be strictly faster; the recorded headline is the aggregate speedup
across methods, which the repeated-execution claim requires to be ≥ 2x.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from benchmarks.conftest import run_once, write_report
from repro.analysis import format_table
from repro.api import Session
from repro.sweeps import CircuitCache, load_spec

SPEC = load_spec(Path(__file__).resolve().parent / "specs" / "table3.yaml")
#: The largest Table III instance: qaoa_9, 8 depolarizing noises, p=0.001.
_CELL = [cell for cell in SPEC.cells() if cell.circuit.label == "qaoa_9"][0]
_CIRCUIT = CircuitCache(SPEC).circuit(_CELL)

#: Executions per timing loop (each method runs REPEAT times on both paths).
REPEAT = 5

#: (label, backend, run kwargs) — the Table III methods on this workload:
#: the paper's level-1 approximation, both trajectory implementations at a
#: pilot-scale sample count, and the TN-based exact method as the
#: deterministic baseline.
METHODS = (
    ("ours", "approximation", {"level": 1}),
    ("traj_tn", "trajectories_tn", {"samples": 64, "seed": 9, "workers": 1}),
    ("traj_mm", "trajectories", {"samples": 64, "seed": 9, "workers": 1}),
    ("tn_exact", "tn", {}),
)

_results: dict = {}


def _measure(backend: str, kwargs: dict) -> dict:
    with Session(plan_cache_size=0) as cold:
        start = time.perf_counter()
        uncached_values = [
            cold.run(_CIRCUIT, backend=backend, **kwargs).value for _ in range(REPEAT)
        ]
        uncached = (time.perf_counter() - start) / REPEAT
    with Session() as warm:
        compile_start = time.perf_counter()
        executable = warm.compile(_CIRCUIT, backend=backend, **kwargs)
        compile_seconds = time.perf_counter() - compile_start
        start = time.perf_counter()
        cached_values = [executable.run().value for _ in range(REPEAT)]
        cached = (time.perf_counter() - start) / REPEAT
    return {
        "uncached_per_call": uncached,
        "cached_per_call": cached,
        "compile_seconds": compile_seconds,
        "speedup": uncached / cached,
        "identical": uncached_values == cached_values,
        "value": cached_values[0],
        "device": "cpu",
    }


@pytest.mark.parametrize("method", METHODS, ids=[m[0] for m in METHODS])
def test_compile_amortization_method(benchmark, method):
    """Time one method both ways; cached and uncached values must be bit-equal."""
    label, backend, kwargs = method
    outcome = run_once(benchmark, _measure, backend, kwargs)
    _results[label] = outcome
    assert outcome["identical"], f"{label}: cached path changed the value"


def test_compile_amortization_report(benchmark):
    """Aggregate report + the repeated-execution gate (cached must be faster)."""
    if len(_results) < len(METHODS):
        pytest.skip("run the method cells first to populate the table")
    headers = ["Method", "Recompile/call (s)", "Compiled/call (s)", "Compile once (s)",
               "Speedup", "Bit-identical"]
    rows = []
    records = []
    for label, _, _ in METHODS:
        data = _results[label]
        rows.append([
            label,
            data["uncached_per_call"],
            data["cached_per_call"],
            data["compile_seconds"],
            f"{data['speedup']:.1f}x",
            data["identical"],
        ])
        records.append({"method": label, **{k: v for k, v in data.items()}})
    total_uncached = sum(r["uncached_per_call"] for r in _results.values())
    total_cached = sum(r["cached_per_call"] for r in _results.values())
    aggregate = total_uncached / total_cached
    rows.append(["aggregate", total_uncached, total_cached, None, f"{aggregate:.1f}x", True])
    records.append({
        "method": "aggregate",
        "uncached_per_call": total_uncached,
        "cached_per_call": total_cached,
        "speedup": aggregate,
        "repeat": REPEAT,
        "workload": _CELL.cell_id,
        "device": "cpu",
    })
    table = format_table(
        headers,
        rows,
        title=(
            f"Compile amortization (Table III workload {_CELL.circuit.label}, "
            f"{SPEC.noises[0].count} noises): per-call cost over {REPEAT} repeats"
        ),
    )
    run_once(benchmark, write_report, "compile_amortization", table, data=records)

    # CI gate: serving from a compiled Executable must beat per-call
    # recompilation outright, and the amortization claim is a >=2x aggregate
    # win (asserted with headroom for noisy shared runners).
    assert total_cached < total_uncached, "cached path is not faster than recompiling"
    assert aggregate >= 1.5, f"aggregate speedup collapsed to {aggregate:.2f}x"
    # The statevector-trajectory method has almost no plan-search cost, so its
    # win comes from the optimizing passes running once at compile instead of
    # on every recompile — the pass pipeline's headline.
    assert _results["traj_mm"]["speedup"] > 1.0, (
        f"traj_mm cached path not faster ({_results['traj_mm']['speedup']:.2f}x)"
    )
