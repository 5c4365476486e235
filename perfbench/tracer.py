"""Span recorder for the traced run, installed from outside the program.

:func:`install` wraps the public entry points of each ``repro`` module with
span recorders.  Functions that a module imports by name (``run_passes``,
``apply_noise``, ``plan_cache_key`` and ``substitute`` in ``repro.api``,
``decompose_noise`` in ``repro.core.approximation``) are wrapped where they
are called, by replacing the caller module's attribute.  Nothing under
``src/`` changes.

A span is ``(name, start_ns, end_ns, self_ns, extra)``.  Its self time is its
duration minus the spans it called on the same thread.  Spans stay in
memory; :meth:`Tracer.dump` writes them out.  :func:`layer_metrics` turns a
span list into the per-layer metrics named in ``common.LAYER_UNITS``.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import threading
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

Span = Tuple[str, int, int, int, Any]


def peak_entries(info: Any) -> int:
    """Largest ``peak_intermediate_entries`` anywhere in a describe() tree."""
    if isinstance(info, dict):
        own = info.get("peak_intermediate_entries", 0)
        return max([int(own or 0), *(peak_entries(value) for value in info.values())])
    return 0


def _num_terms(args, result) -> Any:
    return (getattr(result, "metadata", None) or {}).get("num_terms")


def _plan_steps(args, result) -> int:
    return args[0].num_steps


def _residual_steps(args, result) -> int:
    return args[0].num_residual_steps


#: (module, attribute path, span name, kind, extra) for every wrapped entry point.
TARGETS: Sequence[Tuple[str, str, str, str, Callable | None]] = (
    ("repro.serve.protocol", "ServeRequest.from_payload", "serve.parse", "classmethod", None),
    ("repro.serve.server", "ReproServer.handle", "serve.handle", "async", None),
    ("repro.api.session", "Session.compile", "api.compile", "method", "peak"),
    ("repro.api.session", "apply_noise", "api.noise_bind", "function", None),
    ("repro.api.session", "plan_cache_key", "api.key", "function", None),
    ("repro.api.session", "run_passes", "passes.run", "function", None),
    ("repro.api.session", "substitute", "params.substitute", "function", None),
    ("repro.api.executable", "substitute", "params.substitute", "function", None),
    ("repro.api.executable", "Executable.run", "api.run", "method", None),
    ("repro.api.executable", "Executable.bind", "api.bind", "method", None),
    ("repro.api.executable", "Executable.submit", "api.submit", "method", None),
    ("repro.api.executable", "Executable.gradient", "api.gradient", "method", None),
    ("repro.backends.base", "SimulationBackend.compile", "backends.plan_search", "method", None),
    ("repro.backends.base", "SimulationBackend.run", "backends.run", "method", _num_terms),
    ("repro.backends.base", "SimulationBackend.check_supported", "backends.check", "method", None),
    ("repro.backends.engine", "BatchedTrajectoryEngine.prepare", "engine.prepare", "method", None),
    ("repro.backends.engine", "BatchedTrajectoryEngine.estimate_fidelity", "engine.estimate", "method", None),
    ("repro.core.approximation", "decompose_noise", "core.svd", "function", None),
    ("repro.core.approximation", "ApproximateNoisySimulator.prepare", "core.prepare", "method", None),
    ("repro.core.approximation", "ApproximateNoisySimulator.fidelity", "core.fidelity", "method", None),
    ("repro.tensornetwork.plan", "ContractionPlan.record", "tn.record", "classmethod", None),
    ("repro.tensornetwork.plan", "ContractionPlan.specialize", "tn.specialize", "method", None),
    ("repro.tensornetwork.plan", "ContractionPlan.execute", "tn.replay", "method", _plan_steps),
    ("repro.tensornetwork.plan", "SpecializedPlan.execute", "tn.replay", "method", _residual_steps),
    ("repro.simulators.density_matrix", "DensityMatrixSimulator.run", "sim.dm", "method", None),
    ("repro.simulators.statevector", "StatevectorSimulator.run", "sim.sv", "method", None),
    ("repro.sweeps.records", "SweepRecords.append", "sweeps.append", "method", None),
    ("repro.sweeps.runner", "CircuitCache.ideal", "sweeps.circuit", "method", None),
)


class Tracer:
    """In-memory span recorder; :meth:`install` patches, :meth:`uninstall` restores."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []
        self._seen_plans: set = set()

    # ------------------------------------------------------------------
    def _extra_peak(self, args, result) -> Any:
        """Peak intermediate entries of a compiled plan, once per plan key."""
        key = getattr(result, "plan_key", None)
        if key is None or key in self._seen_plans:
            return None
        self._seen_plans.add(key)
        return peak_entries(result.describe().get("plan"))

    def wrap(self, name: str, fn: Callable, extra: Callable | None = None) -> Callable:
        spans, local, clock = self.spans, self._local, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                children = stack.pop()
                if stack:
                    stack[-1] += end - start
                spans.append((name, start, end, end - start - children, None))
                raise
            end = clock()
            children = stack.pop()
            if stack:
                stack[-1] += end - start
            spans.append(
                (name, start, end, end - start - children,
                 extra(args, result) if extra is not None else None)
            )
            return result

        return wrapper

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        """Coroutine spans interleave on the event loop: no parent stack."""
        spans, clock = self.spans, time.perf_counter_ns

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = clock()
                spans.append((name, start, end, end - start, None))

        return wrapper

    def install(self) -> "Tracer":
        for module_name, path, name, kind, extra in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr] if owner_name else getattr(module, attr)
            if extra == "peak":
                extra = self._extra_peak
            if kind == "classmethod":
                patched = classmethod(self.wrap(name, original.__func__, extra))
            elif kind == "async":
                patched = self.wrap_async(name, original)
            else:
                patched = self.wrap(name, original, extra)
            setattr(owner, attr, patched)
            self._undo.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": list(self.spans)}, handle)


def load_spans(path) -> List[Span]:
    with open(path) as handle:
        return [tuple(span) for span in json.load(handle)["spans"]]


# ----------------------------------------------------------------------
# Span lists -> per-layer metrics
# ----------------------------------------------------------------------
def _by_name(spans: Sequence[Span]) -> Dict[str, List[Span]]:
    groups: Dict[str, List[Span]] = {}
    for span in spans:
        groups.setdefault(span[0], []).append(span)
    return groups


def _durations_ms(spans: Sequence[Span]) -> List[float]:
    return [(end - start) / 1e6 for _, start, end, _, _ in spans]


def _median_ms(spans: Sequence[Span]) -> float:
    values = _durations_ms(spans)
    return statistics.median(values) if values else 0.0


def _total_ms(spans: Sequence[Span]) -> float:
    return sum(_durations_ms(spans))


def span_table(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, median and total duration, median self time."""
    table = {}
    for name, group in sorted(_by_name(spans).items()):
        table[name] = {
            "calls": len(group),
            "p50_ms": round(_median_ms(group), 6),
            "self_p50_ms": round(statistics.median(s[3] for s in group) / 1e6, 6),
            "total_ms": round(_total_ms(group), 3),
        }
    return table


def anchor_counts(spans: Sequence[Span], ops: int, hit_ratio: float) -> Dict[str, float]:
    """The exact-count metrics of one unit of work (see ``common.ANCHORS``)."""
    groups = _by_name(spans)
    runs = len(groups.get("backends.run", ()))
    replays = groups.get("tn.replay", ())
    terms = [span[4] for span in groups.get("backends.run", ()) if span[4] is not None]
    return {
        "core.terms_per_run": sum(terms) / len(terms) if terms else 0.0,
        "tn.replays_per_run": len(replays) / runs if runs else 0.0,
        "tn.tensordots_per_run": sum(span[4] for span in replays) / runs if runs else 0.0,
        "passes.calls_per_op": len(groups.get("passes.run", ())) / ops if ops else 0.0,
        "backends.check_calls_per_op": len(groups.get("backends.check", ())) / ops if ops else 0.0,
        "api.plan_hit_ratio": hit_ratio,
    }


def layer_metrics(
    spans: Sequence[Span],
    *,
    ops: int,
    hit_ratio: float,
    client_p50_ms: float = 0.0,
    shed_frac: float = 0.0,
    cell_windows: Sequence[Tuple[int, int]] = (),
) -> Dict[str, float]:
    """Every per-layer metric except ``failed_frac`` and ``trace.overhead_frac``.

    A layer the workload never reaches reports 0.  ``cell_windows`` are the
    ``(start_ns, end_ns)`` intervals of sweep cells, for ``sweeps.cell_self_ms``.
    """
    groups = _by_name(spans)

    def med(name: str) -> float:
        return _median_ms(groups.get(name, ()))

    handles = groups.get("serve.handle", ())
    wait_ms = 0.0
    if handles:
        busy = sum(_total_ms(groups.get(name, ())) for name in ("serve.parse", "api.compile", "api.run"))
        wait_ms = (_total_ms(handles) - busy) / len(handles)
    gradients = len(groups.get("api.gradient", ()))
    cell_self: List[float] = []
    if cell_windows:
        inner = sorted(
            (span[1], span[2] - span[1])
            for name in ("api.compile", "api.run")
            for span in groups.get(name, ())
        )
        for start, end in cell_windows:
            work = sum(duration for begin, duration in inner if start <= begin < end)
            cell_self.append((end - start - work) / 1e6)
    peaks = [span[4] for span in groups.get("api.compile", ()) if span[4]]
    metrics = {
        "serve.parse_ms": med("serve.parse"),
        "serve.handle_ms": med("serve.handle"),
        "serve.http_ms": client_p50_ms - med("serve.handle") if handles else 0.0,
        "serve.wait_ms": wait_ms,
        "serve.shed_frac": shed_frac,
        "api.compile_ms": med("api.compile"),
        "api.noise_bind_ms": med("api.noise_bind"),
        "api.key_ms": med("api.key"),
        "api.run_ms": med("api.run"),
        "api.bind_ms": med("api.bind"),
        "api.shift_runs_per_iter": len(groups.get("api.submit", ())) / gradients if gradients else 0.0,
        "passes.run_ms": med("passes.run"),
        "params.substitute_ms": med("params.substitute"),
        "backends.plan_search_ms": med("backends.plan_search"),
        "backends.run_ms": med("backends.run"),
        "engine.estimate_ms": med("engine.estimate"),
        "engine.prepare_ms": med("engine.prepare"),
        "core.svd_ms": med("core.svd"),
        "core.prepare_ms": med("core.prepare"),
        "core.fidelity_ms": med("core.fidelity"),
        "tn.record_ms": med("tn.record"),
        "tn.specialize_ms": med("tn.specialize"),
        "tn.replay_us": med("tn.replay") * 1e3,
        "tn.peak_entries": float(max(peaks)) if peaks else 0.0,
        "sim.dm_ms": med("sim.dm"),
        "sim.sv_ms": med("sim.sv"),
        "sweeps.append_ms": med("sweeps.append"),
        "sweeps.circuit_ms": med("sweeps.circuit"),
        "sweeps.cell_self_ms": statistics.median(cell_self) if cell_self else 0.0,
    }
    metrics.update(anchor_counts(spans, ops, hit_ratio))
    return metrics
