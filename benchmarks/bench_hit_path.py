"""A plan-cache hit through ``Session.run`` vs the compiled ``Executable.run``.

The session's plan cache memoizes the whole compile of a repeated
configuration — noise binding, ``output_state`` resolution, the optimizing
passes and the backend's plan search — so a hit through the convenience
wrapper :meth:`repro.api.Session.run` should cost little more than executing
an already compiled :class:`~repro.api.Executable`.  This microbench times
both on the Table III cell: ``qaoa_9`` as ``benchmarks/specs/table3.yaml``
builds it, with its pinned 8-noise depolarizing mapping (p=0.001) passed as
``noise=`` on every call, for

* **tn_exact** — the exact TN backend;
* **ours_l1** — the level-1 approximation;
* **traj_tn** — TN trajectories at 64 samples, in-process (``workers=1``).

Each method takes the median of ``REPEAT`` interleaved timings of both
paths, and the two values must be equal (``==``).  The recorded headline is
the aggregate ``Executable.run / Session.run`` time ratio, which
``benchmarks/check_regression.py`` gates (floor 0.67 in
:data:`repro.dist.trajectory.METRIC_FLOORS`: a hit costs at most 1.5x the
execution it serves).
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import pytest

from benchmarks.conftest import run_once, write_report
from repro.analysis import format_table
from repro.api import Session
from repro.sweeps import CircuitCache, load_spec

SPEC = load_spec(Path(__file__).resolve().parent / "specs" / "table3.yaml")
_CELL = [cell for cell in SPEC.cells() if cell.circuit.label == "qaoa_9"][0]
_CIRCUIT = CircuitCache(SPEC).ideal(_CELL)
_NOISE = {
    "channel": _CELL.noise.channel,
    "parameter": _CELL.noise.parameter,
    "count": _CELL.noise.count,
    "seed": _CELL.noise.seed,
}

#: Interleaved timings per path and method; the median of each is reported.
REPEAT = 15

METHODS = (
    ("tn_exact", "tn", {}),
    ("ours_l1", "approximation", {"level": 1}),
    ("traj_tn", "trajectories_tn", {"samples": 64, "seed": 9, "workers": 1}),
)

_results: dict = {}


def _timed(call) -> tuple:
    start = time.perf_counter()
    value = call().value
    return time.perf_counter() - start, value


def _measure(backend: str, kwargs: dict) -> dict:
    with Session() as session:
        def session_run():
            return session.run(_CIRCUIT, backend, noise=_NOISE, **kwargs)

        executable = session.compile(_CIRCUIT, backend, noise=_NOISE, **kwargs)
        executable.run()
        session_run()  # warm: every timed Session.run below is a hit
        executed, served, values = [], [], set()
        for _ in range(REPEAT):
            seconds, value = _timed(executable.run)
            executed.append(seconds)
            values.add(value)
            seconds, value = _timed(session_run)
            served.append(seconds)
            values.add(value)
        stats = session.cache_stats()
    execute_seconds = statistics.median(executed)
    session_seconds = statistics.median(served)
    return {
        "execute_seconds": execute_seconds,
        "session_seconds": session_seconds,
        "speedup": execute_seconds / session_seconds,
        "identical": len(values) == 1,
        "all_hits": stats["misses"] == 1,
        "value": values.pop(),
        "device": "cpu",
    }


@pytest.mark.parametrize("method", METHODS, ids=[m[0] for m in METHODS])
def test_hit_path_method(benchmark, method):
    """Time one method both ways; a hit must return the executable's value."""
    label, backend, kwargs = method
    outcome = run_once(benchmark, _measure, backend, kwargs)
    _results[label] = outcome
    assert outcome["identical"], f"{label}: Session.run hit changed the value"
    assert outcome["all_hits"], f"{label}: a timed Session.run missed the plan cache"


def test_hit_path_report(benchmark):
    """Aggregate report; check_regression.py gates its ratio (floor 0.67)."""
    if len(_results) < len(METHODS):
        pytest.skip("run the method cells first to populate the table")
    headers = ["Method", "Executable.run (s)", "Session.run hit (s)", "Ratio", "Equal"]
    rows, records = [], []
    for label, _, _ in METHODS:
        data = _results[label]
        rows.append([
            label,
            data["execute_seconds"],
            data["session_seconds"],
            f"{data['speedup']:.2f}x",
            data["identical"],
        ])
        records.append({"method": label, **data})
    total_execute = sum(r["execute_seconds"] for r in _results.values())
    total_session = sum(r["session_seconds"] for r in _results.values())
    aggregate = total_execute / total_session
    rows.append(["aggregate", total_execute, total_session, f"{aggregate:.2f}x", True])
    records.append({
        "method": "aggregate",
        "execute_seconds": total_execute,
        "session_seconds": total_session,
        "speedup": aggregate,
        "repeat": REPEAT,
        "workload": _CELL.cell_id,
        "device": "cpu",
    })
    table = format_table(
        headers,
        rows,
        title=(
            f"Hit path (Table III workload {_CELL.circuit.label}, {_NOISE['count']} "
            f"pinned noises): median of {REPEAT}, Executable.run / Session.run hit"
        ),
    )
    run_once(benchmark, write_report, "hit_path", table, data=records)
    assert aggregate >= 0.67, f"a Session.run hit costs {1 / aggregate:.2f}x execution"
