"""Conformance execution: workloads × oracles through one shared session.

:class:`ConformanceRunner` is what ``repro verify`` drives: generate the
seeded workloads, evaluate every applicable oracle, shrink each failure to a
minimal reproducing circuit and write a replayable artifact.  The report it
returns is the machine- and human-readable outcome CI gates on.

:func:`conformance_spec` renders the same workload families as a declarative
:mod:`repro.sweeps` grid, so a conformance run can also be expressed,
resumed and reported as just another sweep spec
(``examples/specs/conformance.yaml`` in the repository is one).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.analysis import format_table
from repro.api import PassConfig, Session
from repro.utils.validation import ValidationError
from repro.verify.corpus import save_artifact
from repro.verify.generators import Workload, generate_workloads, resolve_families
from repro.verify.oracles import DEFAULT_ORACLES, Oracle, Violation
from repro.verify.shrink import shrink_circuit

__all__ = ["ConformanceReport", "ConformanceRunner", "conformance_spec", "run_conformance"]


@dataclass
class ConformanceReport:
    """Outcome of one conformance run."""

    cases: int
    checks: int = 0
    skipped: int = 0
    violations: List[Violation] = field(default_factory=list)
    artifacts: List[Path] = field(default_factory=list)
    shrunk: Dict[int, Any] = field(default_factory=dict)
    checks_per_oracle: Dict[str, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    #: Session plan-cache counters: oracles re-running one circuit across
    #: backends/worker counts hit compiled plans instead of re-deriving them.
    plan_cache: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when no oracle reported a violation."""
        return not self.violations

    def summary_table(self) -> str:
        """Per-oracle checks/violations table for the CLI."""
        rows = []
        for name in sorted(self.checks_per_oracle):
            failures = sum(1 for violation in self.violations if violation.oracle == name)
            rows.append([name, self.checks_per_oracle[name], failures])
        rows.append(["total", self.checks, len(self.violations)])
        title = f"Conformance: {self.cases} cases, {self.elapsed_seconds:.1f}s"
        if self.plan_cache:
            title += (
                f" (plan cache: {self.plan_cache['hits']} hits / "
                f"{self.plan_cache['misses']} misses)"
            )
        return format_table(["Oracle", "Checks", "Violations"], rows, title=title)


class ConformanceRunner:
    """Run the differential conformance harness (see module docs).

    Parameters
    ----------
    families / cases / seed / samples / level:
        Forwarded to :func:`repro.verify.generate_workloads`.
    oracles:
        Oracle instances to evaluate (default: one of each in
        :func:`~repro.verify.oracles.DEFAULT_ORACLES`).
    workers:
        Size of the session's shared process pool; also the alternate worker
        count the determinism oracle exercises.  Minimum 2 so the seeded RNG
        blocks are actually split across processes at least once.
    artifact_dir:
        Where failure artifacts are written (created on first failure only).
    shrink:
        Minimise failing circuits before writing artifacts (on by default;
        ``max_shrink_checks`` bounds the per-failure simulation budget).
    passes:
        Optimizing-pass configuration for the shared session (anything
        :meth:`repro.api.PassConfig.resolve` accepts).  ``repro verify`` runs
        with passes on by default and with ``--no-passes`` in CI, so the
        oracles certify both the optimized and the raw pipeline.
    """

    def __init__(
        self,
        families: str | Sequence[str] = "all",
        cases: int = 50,
        seed: int = 7,
        samples: int = 320,
        level: int = 1,
        oracles: Sequence[Oracle] | None = None,
        workers: int = 2,
        artifact_dir: str | Path = "verify_artifacts",
        shrink: bool = True,
        max_shrink_checks: int = 400,
        passes: Any = True,
    ) -> None:
        if workers < 2:
            raise ValidationError("conformance runs need workers >= 2")
        self.families = resolve_families(families)
        self.cases = int(cases)
        self.seed = int(seed)
        self.samples = int(samples)
        self.level = int(level)
        self.oracles = list(oracles) if oracles is not None else DEFAULT_ORACLES()
        self.workers = int(workers)
        self.artifact_dir = Path(artifact_dir)
        self.shrink = shrink
        self.max_shrink_checks = int(max_shrink_checks)
        self.passes = passes

    # ------------------------------------------------------------------
    def run(self, progress: Callable[[str], None] | None = None) -> ConformanceReport:
        """Generate the workloads and evaluate every applicable oracle."""
        note = progress or (lambda message: None)
        start = time.perf_counter()
        workloads = generate_workloads(
            self.families, self.cases, self.seed, samples=self.samples, level=self.level
        )
        report = ConformanceReport(cases=len(workloads))
        with Session(workers=self.workers, seed=self.seed, passes=self.passes) as session:
            for workload in workloads:
                note(f"[{workload.index + 1}/{len(workloads)}] {workload.describe()}")
                for oracle in self.oracles:
                    if not oracle.applies(workload):
                        report.skipped += 1
                        continue
                    report.checks += 1
                    report.checks_per_oracle[oracle.name] = (
                        report.checks_per_oracle.get(oracle.name, 0) + 1
                    )
                    for violation in oracle.check(workload, session):
                        self._record(violation, oracle, session, report, note)
            report.plan_cache = session.cache_stats()
        report.elapsed_seconds = time.perf_counter() - start
        return report

    def _record(
        self,
        violation: Violation,
        oracle: Oracle,
        session: Session,
        report: ConformanceReport,
        note: Callable[[str], None],
    ) -> None:
        note(f"  VIOLATION {violation.summary()}")
        index = len(report.violations)
        report.violations.append(violation)
        shrunk = None
        if self.shrink and oracle.shrinkable:
            shrunk, checks = shrink_circuit(
                violation.circuit,
                lambda candidate: oracle.violates(candidate, violation.details, session),
                max_checks=self.max_shrink_checks,
            )
            report.shrunk[index] = shrunk
            note(
                f"  shrunk {len(violation.circuit)} -> {len(shrunk)} instructions "
                f"({shrunk.gate_count()} gates, {checks} checks)"
            )
        path = save_artifact(
            violation,
            self.artifact_dir,
            shrunk_circuit=shrunk,
            passes=PassConfig.resolve(self.passes).to_dict(),
        )
        report.artifacts.append(path)
        note(f"  artifact: {path}")


def run_conformance(
    families: str | Sequence[str] = "all",
    cases: int = 50,
    seed: int = 7,
    progress: Callable[[str], None] | None = None,
    **kwargs: Any,
) -> ConformanceReport:
    """One-call convenience wrapper around :class:`ConformanceRunner`."""
    runner = ConformanceRunner(families=families, cases=cases, seed=seed, **kwargs)
    return runner.run(progress=progress)


#: (channel, parameter, count) noise rows :func:`conformance_spec` grids over.
_SPEC_NOISES: Tuple[Tuple[str, float, int], ...] = (
    ("none", 0.0, 0),
    ("depolarizing", 0.01, 4),
    ("amplitude_damping", 0.005, 3),
)


def conformance_spec(
    families: str | Sequence[str] = "all",
    seed: int = 7,
    num_qubits: int = 4,
    backends: Sequence[str] = ("density_matrix", "tn", "tdd", "approximation"),
    samples: int = 320,
) -> Dict[str, Any]:
    """Render the conformance families as a declarative sweep-spec dict.

    The returned mapping loads with :func:`repro.sweeps.load_spec`, so a
    cross-backend conformance grid can be run, resumed and reported by the
    ordinary sweep machinery::

        >>> from repro.sweeps import load_spec
        >>> from repro.verify import conformance_spec
        >>> spec = load_spec(conformance_spec(families="brickwork,clifford_t"))
        >>> spec.reference, len(spec.cells())
        ('density_matrix', 24)
    """
    from repro.circuits.library import _FAMILY_PREFIXES

    names = resolve_families(families)
    prefix = {family: benchmark for benchmark, family in _FAMILY_PREFIXES.items()}
    width = {"deep_narrow": min(num_qubits, 3), "wide_shallow": max(num_qubits, 6)}
    return {
        "name": "conformance",
        "description": "cross-backend conformance grid over the verify families",
        "seed": seed,
        "reference": "density_matrix",
        "grid": {
            "circuit": [
                {"name": f"{prefix[family]}_{width.get(family, num_qubits)}", "family": family}
                for family in names
            ],
            "noise": [
                {"channel": channel, "parameter": parameter, "count": count}
                for channel, parameter, count in _SPEC_NOISES
            ],
            "backend": list(backends),
            "samples": samples,
        },
    }
