"""Continuous perf trajectory: append-only history + regression gate.

Every benchmark run records machine-readable reports (``pytest benchmarks/
--json OUT`` writes ``OUT/BENCH_<name>.json``).  This module folds those
reports into a checked-in, append-only trajectory file —
``benchmarks/trajectory.jsonl``, one JSON row per **bench x metric x
commit** — and gates fresh runs against the *last recorded* point of every
tracked metric, so a speed win recorded once stays protected forever instead
of eroding one noisy run at a time.

Row schema::

    {"bench": "compile_amortization", "metric": "aggregate_speedup",
     "value": 2.49, "direction": "higher", "commit": "1669452",
     "recorded_at": "2026-08-07T02:29:21", "source": "baseline"}

Metrics are extracted by :func:`metrics_from_report`:

* any speedup-style report (``data`` rows with a ``method == "aggregate"``
  entry) yields ``aggregate_speedup`` — machine-relative ratios, so they
  transfer across runners;
* the serving-throughput report yields one ``req_per_s_c<N>`` metric per
  concurrency level — machine-absolute, so the gate's tolerance for them is
  much looser (see :data:`METRIC_RULES`).

The gate (:func:`check`, driven by ``benchmarks/check_regression.py`` in CI)
fails when a fresh value falls beyond the metric's tolerated slack of the
last recorded value — for *every* bench x metric present in the trajectory,
and also when a tracked report is missing from the fresh run entirely (a
deleted benchmark must be retired from the trajectory deliberately, not
silently).
"""

from __future__ import annotations

import json
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Tuple

from repro.utils.validation import ValidationError

__all__ = [
    "METRIC_RULES",
    "MetricRule",
    "TrajectoryError",
    "append_run",
    "check",
    "latest",
    "load_trajectory",
    "metrics_from_report",
]


class TrajectoryError(ValidationError):
    """Raised for malformed trajectory files or rows."""


@dataclass(frozen=True)
class MetricRule:
    """How one metric is gated against its last recorded value.

    ``direction`` — ``"higher"`` (bigger is better) or ``"lower"``.
    ``ratio`` — tolerated slack: a higher-is-better fresh value must reach
    ``ratio * last`` (and ``floor``, when set); a lower-is-better value must
    stay under ``last / ratio``.  The slack absorbs shared-runner noise: CI
    machines are slow and loud, so the gate catches *regressions*, not
    jitter.
    """

    direction: str = "higher"
    ratio: float = 0.6
    floor: float | None = None


#: Gate rules by metric name prefix (first match wins).  Speedup ratios are
#: machine-relative and fairly tight; req/s is machine-absolute, so its band
#: must span the spread between a dev box and a loaded CI runner.
METRIC_RULES: Tuple[Tuple[str, MetricRule], ...] = (
    ("aggregate_speedup", MetricRule(direction="higher", ratio=0.6)),
    ("req_per_s", MetricRule(direction="higher", ratio=0.2)),
)

#: Absolute floors for specific bench/metric pairs: the core claims ("serving
#: a compiled plan beats recompiling", "bind beats compile-per-iteration
#: >= 5x", "batched row replay beats one replay per row >= 5x", "a
#: Session.run cache hit costs at most 1.5x the execution it serves", "the
#: trajectory engine, evolving each distinct Kraus history once, beats the
#: per-sample loop >= 25x", "the tn environment-sweep gradient beats the
#: parameter-shift loop >= 4x", "kernel-table plan replay beats a per-step
#: tensordot replay >= 2x") must hold outright, not merely relative to
#: history.
METRIC_FLOORS: Mapping[Tuple[str, str], float] = {
    ("compile_amortization", "aggregate_speedup"): 1.5,
    ("bind_amortization", "aggregate_speedup"): 5.0,
    ("term_replay", "aggregate_speedup"): 5.0,
    ("hit_path", "aggregate_speedup"): 0.67,
    ("engine_speedup", "aggregate_speedup"): 25.0,
    ("gradient", "aggregate_speedup"): 4.0,
    ("plan_replay", "aggregate_speedup"): 2.0,
}


def rule_for(bench: str, metric: str) -> MetricRule:
    """The gate rule applying to one bench x metric pair."""
    for prefix, rule in METRIC_RULES:
        if metric.startswith(prefix):
            floor = METRIC_FLOORS.get((bench, metric))
            if floor is not None:
                return MetricRule(direction=rule.direction, ratio=rule.ratio, floor=floor)
            return rule
    return MetricRule()


def metrics_from_report(report: Mapping[str, Any]) -> Dict[str, float]:
    """Extract the tracked metrics of one ``BENCH_*.json`` report payload."""
    metrics: Dict[str, float] = {}
    data = report.get("data")
    if isinstance(data, list):
        for row in data:
            if isinstance(row, dict) and row.get("method") == "aggregate":
                value = row.get("speedup")
                if value is not None:
                    metrics["aggregate_speedup"] = float(value)
    if isinstance(data, dict):
        for level in data.get("levels") or []:
            if isinstance(level, dict) and level.get("req_per_s") is not None:
                metrics[f"req_per_s_c{level.get('clients')}"] = float(level["req_per_s"])
    return metrics


def _reports_in(directory: Path) -> Dict[str, Dict[str, Any]]:
    reports = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        name = path.stem[len("BENCH_"):]
        try:
            reports[name] = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise TrajectoryError(f"{path}: invalid JSON benchmark report: {exc}") from exc
    return reports


def load_trajectory(path: str | Path) -> List[Dict[str, Any]]:
    """Read the trajectory rows (append order preserved)."""
    path = Path(path)
    if not path.exists():
        return []
    rows = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TrajectoryError(f"{path}:{number}: invalid trajectory row: {exc}") from exc
        for key in ("bench", "metric", "value"):
            if key not in row:
                raise TrajectoryError(f"{path}:{number}: trajectory row missing {key!r}")
        rows.append(row)
    return rows


def latest(rows: Iterable[Mapping[str, Any]]) -> Dict[Tuple[str, str], Dict[str, Any]]:
    """Last recorded row per (bench, metric) — what fresh runs gate against."""
    last: Dict[Tuple[str, str], Dict[str, Any]] = {}
    for row in rows:
        last[(row["bench"], row["metric"])] = dict(row)
    return last


def git_commit() -> str:
    """Short commit id of the working tree, or ``"unknown"`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


def append_run(
    trajectory_path: str | Path,
    fresh_dir: str | Path,
    commit: str | None = None,
    source: str = "local",
) -> List[Dict[str, Any]]:
    """Fold a fresh benchmark directory into the trajectory (append-only).

    One row per bench x metric found under ``fresh_dir``; rows whose
    (bench, metric, commit) triple is already recorded are skipped, so
    re-recording the same commit is a no-op (idempotent).  Returns the rows
    actually appended.
    """
    trajectory_path = Path(trajectory_path)
    fresh_dir = Path(fresh_dir)
    commit = commit or git_commit()
    existing = {
        (row["bench"], row["metric"], row.get("commit"))
        for row in load_trajectory(trajectory_path)
    }
    appended: List[Dict[str, Any]] = []
    for bench, report in sorted(_reports_in(fresh_dir).items()):
        recorded_at = report.get("recorded_at") or time.strftime("%Y-%m-%dT%H:%M:%S")
        for metric, value in sorted(metrics_from_report(report).items()):
            if (bench, metric, commit) in existing:
                continue
            appended.append(
                {
                    "bench": bench,
                    "metric": metric,
                    "value": value,
                    "direction": rule_for(bench, metric).direction,
                    "commit": commit,
                    "recorded_at": recorded_at,
                    "source": source,
                }
            )
    if appended:
        trajectory_path.parent.mkdir(parents=True, exist_ok=True)
        with trajectory_path.open("a") as handle:
            for row in appended:
                handle.write(json.dumps(row, sort_keys=True) + "\n")
    return appended


@dataclass
class GateOutcome:
    """One gated bench x metric comparison."""

    bench: str
    metric: str
    fresh: float | None
    last: float
    threshold: float
    ok: bool
    detail: str


def check(
    trajectory_path: str | Path,
    fresh_dir: str | Path,
) -> List[GateOutcome]:
    """Gate every recorded bench x metric against the fresh reports.

    A missing fresh report, a report that lost a tracked metric, or a value
    beyond the metric's tolerated slack all produce a failing outcome; the
    caller (``benchmarks/check_regression.py``) turns any failure into a
    nonzero exit.
    """
    rows = load_trajectory(trajectory_path)
    if not rows:
        raise TrajectoryError(
            f"no trajectory recorded at {trajectory_path}; seed it with "
            "benchmarks/check_regression.py --record"
        )
    reports = _reports_in(Path(fresh_dir))
    fresh_metrics = {name: metrics_from_report(report) for name, report in reports.items()}
    outcomes: List[GateOutcome] = []
    for (bench, metric), row in sorted(latest(rows).items()):
        last_value = float(row["value"])
        rule = rule_for(bench, metric)
        if rule.direction == "higher":
            threshold = rule.ratio * last_value
            if rule.floor is not None:
                threshold = max(threshold, rule.floor)
        else:
            threshold = last_value / rule.ratio
        if bench not in fresh_metrics:
            outcomes.append(GateOutcome(
                bench, metric, None, last_value, threshold, False,
                f"missing fresh report BENCH_{bench}.json",
            ))
            continue
        fresh_value = fresh_metrics[bench].get(metric)
        if fresh_value is None:
            outcomes.append(GateOutcome(
                bench, metric, None, last_value, threshold, False,
                "fresh report no longer carries this metric",
            ))
            continue
        if rule.direction == "higher":
            ok = fresh_value >= threshold
            comparison = ">="
        else:
            ok = fresh_value <= threshold
            comparison = "<="
        outcomes.append(GateOutcome(
            bench, metric, fresh_value, last_value, threshold, ok,
            f"fresh {fresh_value:.4g} {comparison} threshold {threshold:.4g} "
            f"(last recorded {last_value:.4g} @ {row.get('commit', '?')})",
        ))
    return outcomes
