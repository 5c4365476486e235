"""The four workloads and the run flow they share.

Each in-process workload is a class with ``setup`` (repeated
``common.SETUP_REPEATS`` times; the last state is measured), ``unit`` (one
closed-loop unit of work, checked for correctness), ``summarize`` (unit
results -> ``op_p50_ms``, ``ops_per_s`` and a report) and ``close``.
``serve_hot`` drives a server process and lives in ``serve_hot.py``.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List

from common import (
    ANCHORS,
    SETUP_REPEATS,
    WORK_DIR,
    Outcome,
    check_anchors,
    derive_seed,
    geomean,
    median,
    rng,
    self_peak_rss_mb,
    stochastic_ok,
    timing,
)

#: Depolarizing noise of the Table III cell: 8 channels at p = 0.001.
DEPOLARIZING = {"channel": "depolarizing", "parameter": 0.001, "count": 8}
#: Noise placement of the workloads whose seed varies other inputs (the
#: placement moves costs by up to 50%; see ``Table3``).
PINNED_NOISE_SEED = 5


def qaoa9(parametric: bool = False):
    """``qaoa_9`` exactly as ``benchmarks/specs/table3.yaml`` builds it."""
    from repro.circuits.library import benchmark_circuit

    return benchmark_circuit("qaoa_9", seed=3, native_gates=False, parametric=parametric)


# ----------------------------------------------------------------------
# table3_qaoa9
# ----------------------------------------------------------------------
class Table3:
    """Five compiled executables of the Table III cell, replayed round-robin.

    Where the 8 noises sit changes each method's cost by up to 50%, so a run
    cycles over ``PLACEMENTS`` placements drawn from the workload seed.
    """

    #: (metric name, backend, compile options, warm-up run options)
    METHODS = (
        ("tn_exact_ms", "tn", {}, {}),
        ("ours_l1_ms", "approximation", {"level": 1}, {}),
        ("ours_l2_ms", "approximation", {"level": 2}, {}),
        ("traj_tn_ms", "trajectories_tn", {"samples": 2000, "workers": 1}, {"num_samples": 256}),
        ("traj_mm_ms", "trajectories", {"samples": 2000, "workers": 1}, {"num_samples": 256}),
    )
    PLACEMENTS = 4
    #: Exact TN replays are sub-millisecond: they are timed in blocks of this many.
    TN_BLOCK = 32

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.noises = [{**DEPOLARIZING, "seed": derive_seed(seed, "table3", "noise", k)}
                       for k in range(self.PLACEMENTS)]

    def setup(self, outcome: Outcome) -> Dict[str, Any]:
        from repro.api import Session

        circuit = qaoa9()
        session = Session(seed=derive_seed(self.seed, "table3", "session"))
        placements = []
        for noise in self.noises:
            reference = session.run(circuit, "density_matrix", noise=noise).value
            executables = []
            for name, backend, options, warm in self.METHODS:
                executable = session.compile(circuit, backend, noise=noise, **options)
                # Untimed first run: the tn plan returns its recorded value on
                # the first call, and every method's lazy state is built here.
                executable.run(**warm)
                executables.append((name, executable))
            placements.append((reference, executables))
        return {"session": session, "placements": placements}

    def unit(self, state, outcome: Outcome) -> Dict[str, Any]:
        """One Table III row per placement."""
        samples = {name: [] for name, *_ in self.METHODS}
        ops = 0
        for reference, executables in state["placements"]:
            for name, executable in executables:
                reps = self.TN_BLOCK if name == "tn_exact_ms" else 1
                start = time.perf_counter()
                for _ in range(reps):
                    result = executable.run()
                samples[name].append((time.perf_counter() - start) * 1e3 / reps)
                ops += reps
                error = abs(result.value - reference)
                if name == "tn_exact_ms":
                    ok = error <= 1e-10
                elif name.startswith("ours"):
                    ok = error <= result.error_bound + 1e-12  # the bound is 0 at full level
                else:
                    ok = stochastic_ok(result.value, result.standard_error, result.num_samples, reference)
                outcome.check(ok, f"{name}: value {result.value!r} vs reference {reference!r}", reps)
        return {"ops": ops, "samples": samples, "hits": 0, "compiles": 0}

    def summarize(self, units, elapsed):
        series = {name: [s for u in units for s in u["samples"][name]] for name, *_ in self.METHODS}
        medians = [median(values) for values in series.values()]
        report = {
            "methods": {name: timing(values) for name, values in series.items()},
            "rows": len(units) * self.PLACEMENTS,
            "op_p50_ms": "geometric mean of the five per-method medians",
            "ops_per_s": "Table III rows per second, from the per-method medians",
        }
        return geomean(medians), 1e3 / sum(medians), report

    def executables(self, state):
        return [executable for _, executables in state["placements"] for _, executable in executables]

    def close(self, state) -> None:
        state["session"].close()


# ----------------------------------------------------------------------
# sweep_cold
# ----------------------------------------------------------------------
class SweepCold:
    """``run_sweep`` over a 96-cell grid; every cell is a plan-cache miss."""

    CIRCUITS = ("hf_4", "hf_6", "qaoa_4", "qaoa_6", "qaoa_9", "inst_2x2_6", "inst_2x3_6", "brickwork_8")
    #: Placements are pinned: they move cell costs and the peak intermediate
    #: size.  The pass seed still drives every cell's sampling seed.
    NOISES = (
        {"channel": "superconducting", "count": 2, "seed": PINNED_NOISE_SEED},
        {"channel": "superconducting", "count": 8, "seed": PINNED_NOISE_SEED},
        {**DEPOLARIZING, "seed": PINNED_NOISE_SEED},
    )
    BACKENDS = ("tn", "approximation", "trajectories_tn", "density_matrix")
    SAMPLES = 256

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.path = WORK_DIR / "sweep_cold.jsonl"

    def grid(self, spec_seed: int, circuits=CIRCUITS) -> Dict[str, Any]:
        return {
            "name": "sweep_cold",
            "seed": spec_seed,
            # Fidelity with the ideal output keeps values near 1, where the
            # trajectory check is tight.
            "output_state": "ideal",
            "grid": {
                "circuit": [{"name": name, "seed": 3, "native_gates": False} for name in circuits],
                "noise": [dict(noise) for noise in self.NOISES],
                "backend": list(self.BACKENDS),
                "level": [1],
                "samples": [self.SAMPLES],
            },
        }

    def setup(self, outcome: Outcome) -> Dict[str, Any]:
        from repro.sweeps import run_sweep

        # One small untimed sweep loads everything the cells import lazily.
        warm = run_sweep(self.grid(derive_seed(self.seed, "warm"), ("hf_4",)),
                         out_path=self.path, resume=False)
        self.check_records(warm.records, outcome, count=False)
        return {"passes": 0, "fixed_seed": None}

    def before_traced(self, state) -> None:
        # Traced passes repeat one grid so their counts must repeat exactly.
        state["fixed_seed"] = derive_seed(self.seed, "traced")

    def unit(self, state, outcome: Outcome) -> Dict[str, Any]:
        from repro.sweeps import run_sweep

        spec_seed = state["fixed_seed"]
        if spec_seed is None:
            spec_seed = derive_seed(self.seed, "pass", state["passes"])
        state["passes"] += 1
        spec = self.grid(spec_seed)
        marks = [time.perf_counter_ns()]
        result = run_sweep(spec, out_path=self.path, resume=False,
                           progress=lambda message: marks.append(time.perf_counter_ns()))
        self.check_records(result.records, outcome)
        cache = result.plan_cache
        return {
            "ops": len(result.records),
            "samples": {"cell": [(b - a) / 1e6 for a, b in zip(marks, marks[1:])]},
            "seconds": (marks[-1] - marks[0]) / 1e9,
            "hits": cache["hits"] + cache["coalesced"],
            "compiles": cache["hits"] + cache["coalesced"] + cache["misses"],
            "windows": list(zip(marks, marks[1:])),
        }

    def check_records(self, records, outcome: Outcome, count: bool = True) -> None:
        """Within each (circuit, noise) row, every method agrees with the DM value."""
        rows: Dict[tuple, Dict[str, dict]] = defaultdict(dict)
        for record in records:
            rows[(record["circuit"], record["noise"])][record["backend"]] = record
        for row, by_backend in rows.items():
            for backend, record in by_backend.items():
                what = f"{record['cell_id']}: {record.get('status')} {record.get('value')!r}"
                ok = record["status"] == "ok" and by_backend.get("density_matrix", {}).get("status") == "ok"
                if ok:
                    exact = by_backend["density_matrix"]["value"]
                    value = record["value"]
                    if backend in ("tn", "density_matrix"):
                        ok = abs(value - exact) <= 1e-9
                    elif backend == "approximation":
                        ok = abs(value - exact) <= record["metadata"]["error_bound"] + 1e-12
                    else:
                        ok = stochastic_ok(value, record["standard_error"], record["num_samples"], exact)
                if count:
                    outcome.check(ok, what)
                elif not ok:
                    outcome.problems.append(f"warm-up {what}")

    def summarize(self, units, elapsed):
        cells = [s for u in units for s in u["samples"]["cell"]]
        seconds = sum(u["seconds"] for u in units)
        report = {
            "cell_latency": timing(cells),
            "passes": len(units),
            "sweep_cells_per_s": len(cells) / seconds,
        }
        return median(cells), len(cells) / seconds, report

    def close(self, state) -> None:
        self.path.unlink(missing_ok=True)


# ----------------------------------------------------------------------
# vqe_gradient
# ----------------------------------------------------------------------
class VqeGradient:
    """Gradient ascent on parametric ``qaoa_9`` through one compiled ``tn`` plan."""

    LEARNING_RATE = 1.0
    FD_STEP = 1e-4

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.noise = {**DEPOLARIZING, "seed": PINNED_NOISE_SEED}

    def setup(self, outcome: Outcome) -> Dict[str, Any]:
        from repro.api import Session
        from repro.circuits.parameters import circuit_parameters

        session = Session(seed=derive_seed(self.seed, "vqe", "session"), max_parallel=2)
        executable = session.compile(qaoa9(parametric=True), "tn", noise=self.noise)
        draw = rng(self.seed, "vqe", "start")
        start = {name: draw.uniform(-math.pi, math.pi)
                 for name in sorted(circuit_parameters(executable.circuit))}
        gradient = executable.gradient(start)  # also starts the dispatch pool
        for name in start:
            plus = executable.bind({**start, name: start[name] + self.FD_STEP}).run().value
            minus = executable.bind({**start, name: start[name] - self.FD_STEP}).run().value
            fd = (plus - minus) / (2 * self.FD_STEP)
            if not abs(gradient[name] - fd) <= 1e-7 + 1e-5 * abs(fd):
                outcome.problems.append(f"gradient[{name}]={gradient[name]!r} vs finite difference {fd!r}")
        return {"session": session, "executable": executable, "start": start,
                "params": dict(start), "first_gradient": gradient}

    def unit(self, state, outcome: Outcome) -> Dict[str, Any]:
        executable, params = state["executable"], state["params"]
        before = state["session"].cache_stats()
        begin = time.perf_counter()
        gradient = executable.gradient(params)
        value = executable.bind(params).run().value
        elapsed_ms = (time.perf_counter() - begin) * 1e3
        after = state["session"].cache_stats()
        ok = all(math.isfinite(g) for g in gradient.values()) and 0.0 <= value <= 1.0 + 1e-12
        if params == state["start"]:
            ok = ok and gradient == state["first_gradient"]
        outcome.check(ok, f"iteration at {params}: value {value!r}, gradient {gradient}")
        state["params"] = {name: params[name] + self.LEARNING_RATE * gradient[name] for name in params}
        hits = sum(after[k] - before[k] for k in ("hits", "coalesced"))
        return {"ops": 1, "samples": {"iteration": [elapsed_ms]}, "hits": hits,
                "compiles": hits + after["misses"] - before["misses"]}

    def summarize(self, units, elapsed):
        iterations = [s for u in units for s in u["samples"]["iteration"]]
        report = {"grad_iter": timing(iterations), "iterations": len(iterations)}
        return median(iterations), len(iterations) / elapsed, report

    def executables(self, state):
        return [state["executable"]]

    def close(self, state) -> None:
        state["session"].close()


# ----------------------------------------------------------------------
# The shared run flow
# ----------------------------------------------------------------------
def timed_units(unit, seconds: float):
    """Closed loop: run whole units until ``seconds`` have passed (at least one)."""
    start = time.perf_counter()
    units: List[Dict[str, Any]] = []
    while True:
        units.append(unit())
        if time.perf_counter() - start >= seconds:
            return units, time.perf_counter() - start


def hit_ratio(units) -> float:
    compiles = sum(u["compiles"] for u in units)
    return sum(u["hits"] for u in units) / compiles if compiles else 0.0


def execute(name: str, seed: int, seconds: float, trace: bool, import_s: float, root: Path) -> Outcome:
    if name == "serve_hot":
        import serve_hot

        return serve_hot.run(seed, seconds, trace, import_s, root)
    workload = {"table3_qaoa9": Table3, "sweep_cold": SweepCold, "vqe_gradient": VqeGradient}[name](seed)
    outcome = Outcome()
    durations, state = [], None
    try:
        for _ in range(SETUP_REPEATS):
            if state is not None:
                workload.close(state)
            begin = time.perf_counter()
            state = workload.setup(outcome)
            durations.append(time.perf_counter() - begin)
        unit = lambda: workload.unit(state, outcome)  # noqa: E731
        setup = {"import_s": import_s, "repeats_s": durations}
        if not trace:
            units, elapsed = timed_units(unit, seconds)
            op_p50_ms, ops_per_s, report = workload.summarize(units, elapsed)
            outcome.metrics = {
                "setup_s": import_s + median(durations),
                "peak_rss_mb": self_peak_rss_mb(),
                "op_p50_ms": op_p50_ms,
                "ops_per_s": ops_per_s,
            }
            outcome.report.update(report, setup=setup, measured_s=elapsed)
            return outcome
        outcome.metrics, report = traced_run(workload, state, unit, seconds, outcome, name, seed, root)
        outcome.report.update(report, setup=setup)
        return outcome
    finally:
        if state is not None:
            workload.close(state)


def traced_run(workload, state, unit, seconds, outcome, name, seed, root):
    """Half the time untraced, half traced; the difference is the overhead."""
    from tracer import Tracer, anchor_counts, layer_metrics, peak_entries, span_table

    untraced, elapsed = timed_units(unit, seconds / 2)
    base_p50 = workload.summarize(untraced, elapsed)[0]
    if hasattr(workload, "before_traced"):
        workload.before_traced(state)
    tracer, anchors = Tracer(), []

    def traced_unit():
        mark = len(tracer.spans)
        result = unit()
        anchors.append(anchor_counts(tracer.spans[mark:], result["ops"], hit_ratio([result])))
        return result

    tracer.install()
    try:
        traced, elapsed = timed_units(traced_unit, seconds / 2)
    finally:
        tracer.uninstall()
    traced_p50 = workload.summarize(traced, elapsed)[0]
    metrics = layer_metrics(
        tracer.spans,
        ops=sum(u["ops"] for u in traced),
        hit_ratio=hit_ratio(traced),
        cell_windows=[w for u in traced for w in u.get("windows", ())],
    )
    if hasattr(workload, "executables"):
        # Compiled during set-up, before the tracer was installed.
        metrics["tn.peak_entries"] = float(max(
            peak_entries(executable.describe()["plan"]) for executable in workload.executables(state)
        ))
    metrics["failed_frac"] = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    metrics["trace.overhead_frac"] = traced_p50 / base_p50 - 1.0
    anchored = check_anchors(anchors, outcome, name, seed, root)
    report = {
        "spans": span_table(tracer.spans),
        "anchors": {key: anchored[key] for key in ANCHORS},
        "untraced_op_p50_ms": base_p50,
        "traced_op_p50_ms": traced_p50,
        "traced_units": len(traced),
    }
    return metrics, report
