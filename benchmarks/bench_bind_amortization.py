"""Bind-without-recompile vs compile-per-iteration on a noisy parametric QAOA.

The optimizer-loop claim behind ``Executable.bind``: a variational iteration
should pay for *execution only*.  All structure-dependent work — optimizing
passes, noise binding and SVD decompositions, the contraction-plan search,
trajectory-context preparation — depends on the circuit's structural
fingerprint, not on the bound angles, so ``Session.compile()`` does it once
and every ``bind(params).run()`` merely swaps tensor values into the
recorded plan.

This microbench takes a 12-qubit noisy QAOA ansatz (16 depolarizing noises
at p=0.001, symbolic ``gamma0``/``beta0`` angles) and walks REPEAT distinct
bindings — the shape of an optimizer trace — both ways:

* **compile-per-iteration** — a ``Session(plan_cache_size=0)`` running the
  substituted circuit, so each iteration redoes the full compile;
* **bind** — one ``Session.compile()`` on the parametric circuit, then
  ``bind(params_i).run()`` per iteration.

Values must be bit-identical between the two paths (same binding, same
seeds; binding moves work, never results).  The recorded headline is the
aggregate speedup across methods, which the parametric-serving claim
requires to be >= 5x — also enforced against the checked-in baseline by
``benchmarks/check_regression.py`` in CI.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import run_once, write_report
from repro.analysis import format_table
from repro.api import Session, apply_noise
from repro.circuits.library import qaoa_circuit
from repro.circuits.parameters import circuit_parameters, substitute

#: Noisy parametric workload: large enough that the plan search dominates a
#: recompile, small enough for the CI smoke budget.
_CIRCUIT = apply_noise(
    qaoa_circuit(12, seed=7, native_gates=False, parametric=True),
    {"channel": "depolarizing", "parameter": 0.001, "count": 16, "seed": 3},
)
_NAMES = sorted(circuit_parameters(_CIRCUIT))

#: Optimizer iterations per timing loop (each with a distinct binding).
REPEAT = 5

#: (label, backend, run kwargs) — the deterministic TN contraction that an
#: exact-objective optimizer drives, and the TN trajectory method at a
#: pilot-scale sample count (a per-iteration gradient-evaluation budget).
METHODS = (
    ("tn_exact", "tn", {}),
    ("traj_tn", "trajectories_tn", {"samples": 8, "seed": 9, "workers": 1}),
)

_results: dict = {}


def _binding(iteration: int) -> dict:
    """A deterministic optimizer-like trace: every iteration a fresh point."""
    return {
        name: 0.3 + 0.07 * iteration + 0.05 * index
        for index, name in enumerate(_NAMES)
    }


def _measure(backend: str, kwargs: dict) -> dict:
    with Session(plan_cache_size=0) as cold:
        start = time.perf_counter()
        recompiled_values = [
            cold.run(
                substitute(_CIRCUIT, _binding(i)), backend=backend, **kwargs
            ).value
            for i in range(REPEAT)
        ]
        recompiled = (time.perf_counter() - start) / REPEAT
    with Session() as warm:
        compile_start = time.perf_counter()
        executable = warm.compile(_CIRCUIT, backend=backend, **kwargs)
        compile_seconds = time.perf_counter() - compile_start
        start = time.perf_counter()
        bound_values = [
            executable.bind(_binding(i)).run().value for i in range(REPEAT)
        ]
        bound = (time.perf_counter() - start) / REPEAT
        stats = warm.cache_stats()
    return {
        "recompile_per_iteration": recompiled,
        "bound_per_iteration": bound,
        "compile_seconds": compile_seconds,
        "speedup": recompiled / bound,
        "identical": recompiled_values == bound_values,
        "plan_searches": stats["misses"],
        "value": bound_values[0],
        "device": "cpu",
    }


@pytest.mark.parametrize("method", METHODS, ids=[m[0] for m in METHODS])
def test_bind_amortization_method(benchmark, method):
    """Time one method both ways; bound and recompiled values must be bit-equal."""
    label, backend, kwargs = method
    outcome = run_once(benchmark, _measure, backend, kwargs)
    _results[label] = outcome
    assert outcome["identical"], f"{label}: binding changed the value"
    assert outcome["plan_searches"] == 1, (
        f"{label}: expected one plan search for the whole loop, "
        f"got {outcome['plan_searches']}"
    )


def test_bind_amortization_report(benchmark):
    """Aggregate report + the optimizer-iteration gate (>= 5x aggregate)."""
    if len(_results) < len(METHODS):
        pytest.skip("run the method cells first to populate the table")
    headers = ["Method", "Recompile/iter (s)", "Bound/iter (s)", "Compile once (s)",
               "Speedup", "Bit-identical"]
    rows = []
    records = []
    for label, _, _ in METHODS:
        data = _results[label]
        rows.append([
            label,
            data["recompile_per_iteration"],
            data["bound_per_iteration"],
            data["compile_seconds"],
            f"{data['speedup']:.1f}x",
            data["identical"],
        ])
        records.append({"method": label, **{k: v for k, v in data.items()}})
    total_recompiled = sum(r["recompile_per_iteration"] for r in _results.values())
    total_bound = sum(r["bound_per_iteration"] for r in _results.values())
    aggregate = total_recompiled / total_bound
    rows.append(["aggregate", total_recompiled, total_bound, None, f"{aggregate:.1f}x", True])
    records.append({
        "method": "aggregate",
        "recompile_per_iteration": total_recompiled,
        "bound_per_iteration": total_bound,
        "speedup": aggregate,
        "repeat": REPEAT,
        "workload": _CIRCUIT.name,
        "device": "cpu",
    })
    table = format_table(
        headers,
        rows,
        title=(
            f"Bind amortization (noisy parametric {_CIRCUIT.name}, 16 noises): "
            f"per-iteration cost over {REPEAT} distinct bindings"
        ),
    )
    run_once(benchmark, write_report, "bind_amortization", table, data=records)

    # CI gate: an optimizer iteration served via bind() must beat
    # compile-per-iteration by >= 5x in aggregate (the parametric-executable
    # headline; asserted with headroom for noisy shared runners, and also
    # enforced against the checked-in baseline by check_regression.py).
    assert total_bound < total_recompiled, "bound path is not faster than recompiling"
    assert aggregate >= 5.0, f"aggregate bind speedup collapsed to {aggregate:.2f}x"
