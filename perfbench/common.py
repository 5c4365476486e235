"""Shared pieces of the benchmark: metric names, statistics, correctness rules,
count anchors and provenance.  A workload run returns an :class:`Outcome`,
which ``run.py`` prints.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence

#: Scratch directory (inside the checkout) for temporary files and anchors.
WORK_DIR = Path(".perfbench_work")

#: Names and units of the end-to-end metrics every workload reports.
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
}

#: Names and units of the per-layer metrics of the traced run.
LAYER_UNITS = {
    "serve.parse_ms": "ms",
    "serve.handle_ms": "ms",
    "serve.http_ms": "ms",
    "serve.wait_ms": "ms",
    "serve.shed_frac": "ratio",
    "api.compile_ms": "ms",
    "api.noise_bind_ms": "ms",
    "api.key_ms": "ms",
    "api.plan_hit_ratio": "ratio",
    "api.run_ms": "ms",
    "api.bind_ms": "ms",
    "api.shift_runs_per_iter": "count",
    "passes.run_ms": "ms",
    "passes.calls_per_op": "count",
    "params.substitute_ms": "ms",
    "backends.plan_search_ms": "ms",
    "backends.run_ms": "ms",
    "backends.check_calls_per_op": "count",
    "engine.estimate_ms": "ms",
    "engine.prepare_ms": "ms",
    "core.svd_ms": "ms",
    "core.prepare_ms": "ms",
    "core.fidelity_ms": "ms",
    "core.terms_per_run": "count",
    "tn.record_ms": "ms",
    "tn.specialize_ms": "ms",
    "tn.replays_per_run": "count",
    "tn.replay_us": "us",
    "tn.tensordots_per_run": "count",
    "tn.peak_entries": "count",
    "sim.dm_ms": "ms",
    "sim.sv_ms": "ms",
    "sweeps.append_ms": "ms",
    "sweeps.circuit_ms": "ms",
    "sweeps.cell_self_ms": "ms",
    "failed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

#: Per-layer counts that must repeat exactly for one seed and one program.
ANCHORS = (
    "core.terms_per_run",
    "tn.replays_per_run",
    "tn.tensordots_per_run",
    "passes.calls_per_op",
    "backends.check_calls_per_op",
    "api.plan_hit_ratio",
)

#: Repetitions of the set-up phase; ``setup_s`` reports their median.
SETUP_REPEATS = 3


@dataclass
class Outcome:
    """What one workload run produced."""

    attempted: int = 0
    failed: int = 0
    #: End-to-end metrics (untraced run) or per-layer metrics (traced run).
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Everything else worth printing: per-method times, tails, sample counts.
    report: Dict[str, Any] = field(default_factory=dict)
    #: Human-readable descriptions of failed checks (first few are printed).
    problems: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str, count: int = 1) -> None:
        """Count ``count`` attempted ops; all of them failed unless ``ok``."""
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.problems) < 20:
                self.problems.append(what)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> Dict[str, Any] | None:
    """Highest percentile with at least ten samples beyond it (None if too few)."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return {
        "value": ordered[n - 11],
        "percentile": round(100.0 * (n - 10) / n, 2),
        "samples": n,
    }


def timing(values_ms: Sequence[float]) -> Dict[str, Any]:
    """Median, tail and sample count of a latency series in ms."""
    return {"p50_ms": median(values_ms), "samples": len(values_ms), "tail": tail(values_ms)}


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def stochastic_ok(value: float, stderr: float, samples: int, reference: float) -> bool:
    """A trajectory estimate within 4 standard errors of the exact value, plus slack.

    The estimate's distribution has a heavy tail: error trajectories are rare,
    so a run may draw too few of them (or none, when the reported standard
    error is 0) and 4 standard errors then undercover.  The slack lets error
    trajectories of total probability ``20 / samples`` go missing, each
    moving the estimate by up to the value's own scale.  On 100 noise
    placements of the Table III cell the largest miss was 0.47% of the value
    at 11 standard errors; the slack there is 1%.
    """
    slack = 4.0 * stderr + 20.0 * max(abs(value), abs(reference)) / samples
    return abs(value - reference) <= slack


def derive_seed(seed: int, *parts: object) -> int:
    """A stable 31-bit seed derived from the workload seed and labels."""
    text = "\x1f".join(str(part) for part in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def rng(seed: int, *parts: object) -> random.Random:
    return random.Random(derive_seed(seed, *parts))


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of another live process."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def source_digest(root: Path) -> str:
    """Content hash of the program (``src/``) and this benchmark; keys the count anchors."""
    digest = hashlib.sha256()
    paths = [*(root / "src").rglob("*.py"), *Path(__file__).resolve().parent.glob("*.py")]
    for path in sorted(paths):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root: Path) -> str:
    """The checked-out commit when ``.git`` is present, else ``"unknown"``."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance(root: Path, workload: str, seed: int) -> Dict[str, Any]:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "commit": git_commit(root),
        "source_digest": source_digest(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "device": "cpu",
        "platform": sys.platform,
    }


def check_anchors(anchors: List[Dict[str, float]], outcome: Outcome, workload: str,
                  seed: int, root: Path) -> Dict[str, float]:
    """Exact counts must agree across units of this run and across runs of the seed."""
    first = anchors[0]
    for index, counts in enumerate(anchors[1:], start=1):
        if counts != first:
            outcome.problems.append(f"count anchors differ in unit {index}: {counts} != {first}")
    path = WORK_DIR / f"anchors-{workload}-{seed}-{source_digest(root)}.json"
    if path.exists():
        recorded = json.loads(path.read_text())
        if recorded != first:
            outcome.problems.append(f"count anchors {first} != earlier run's {recorded}")
    else:
        path.write_text(json.dumps(first, sort_keys=True))
    return first
