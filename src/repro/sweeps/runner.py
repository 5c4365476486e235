"""Sweep execution: compiled-plan reuse and cell dispatch.

:class:`SweepRunner` walks the cell list of a :class:`~repro.sweeps.spec.SweepSpec`,
compiling every cell through one shared :class:`repro.api.Session`
(:meth:`~repro.api.Session.compile` → :class:`~repro.api.Executable`) with a
:class:`~repro.backends.SimulationTask` built from the cell's parameters:

* the one-time work of a (circuit, noise, backend) configuration — noise
  binding, contraction-plan search, trajectory-context preparation, noise
  SVD decompositions, ideal output states — lives in the session's plan
  cache, whose key excludes seeds, sample counts and approximation levels:
  a grid of L levels × S sample counts per row compiles once, not L×S times
  (ideal circuit construction itself is memoised per spec label);
* the stochastic backends share the session's
  :class:`~concurrent.futures.ProcessPoolExecutor` across all cells instead
  of spawning a fresh pool per cell;
* results stream to a resumable JSONL file (:mod:`repro.sweeps.records`):
  re-running an interrupted sweep executes only the missing cells and the
  surviving records are byte-identical apart from wall-clock timings.

Every stochastic cell runs on the engine's seeded RNG blocks, so a sweep's
values are deterministic for a fixed spec seed regardless of the
``--workers`` setting used to produce them.

A runner given ``shard=ShardSpec(k, n)`` executes only the cells the
deterministic partitioner (:mod:`repro.dist.partition`) assigns to shard
``k/n``, stamping the shard into the file header and every record; N such
workers cover the grid exactly once and their outputs merge back into the
single-process result (:mod:`repro.dist.merge`).  ``crash_after=N`` is the
fault-injection hook behind the crash-safety guarantee: the runner dies via
``os._exit`` mid-write after N cells, leaving a torn-tail record file for
resume/re-dispatch to recover.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro.api import Session, apply_noise
from repro.api.executable import one_shot_result
from repro.backends import BackendUnsupportedError, get_backend
from repro.circuits.circuit import Circuit
from repro.sweeps.records import SweepRecords, cell_record, load_records
from repro.sweeps.spec import SweepCell, SweepSpec, stable_seed
from repro.tensornetwork import ContractionMemoryError
from repro.utils.validation import ValidationError

__all__ = ["CRASH_EXIT_CODE", "CircuitCache", "SweepResult", "SweepRunner", "run_sweep"]

#: Exit status of a worker killed by the ``crash_after`` fault-injection hook
#: (distinct from argparse's 2 and pytest's 1, so drills can assert on it).
CRASH_EXIT_CODE = 32


class CircuitCache:
    """Caches ideal and noisy circuits per spec.

    Keys are the stable axis labels, so all cells of a (circuit, noise) row —
    every backend, level and sample count — share one constructed instance.
    The injection seed is the noise entry's own seed when given, else derived
    from the spec seed and the row labels, so the injected positions do not
    depend on which backend asks first.

    The runner itself now routes noise binding and ideal output states
    through :meth:`repro.api.Session.compile` (whose plan cache shares that
    work by content, not by label) and uses only :meth:`ideal`; :meth:`circuit`
    remains for callers that build the same noisy instances outside a
    session, e.g. the benchmark harnesses comparing against externally
    computed references.
    """

    def __init__(self, spec: SweepSpec):
        self.spec = spec
        self._ideal: Dict[str, Circuit] = {}
        self._noisy: Dict[Tuple[str, str], Circuit] = {}

    def ideal(self, cell: SweepCell) -> Circuit:
        label = cell.circuit.label
        if label not in self._ideal:
            self._ideal[label] = cell.circuit.build(self.spec.seed, self.spec.base_dir)
        return self._ideal[label]

    def circuit(self, cell: SweepCell) -> Circuit:
        """The (possibly noisy) circuit this cell simulates."""
        key = (cell.circuit.label, cell.noise.label)
        if key not in self._noisy:
            ideal = self.ideal(cell)
            if cell.noise.is_noiseless:
                self._noisy[key] = ideal
            else:
                seed = cell.noise.seed
                if seed is None:
                    seed = stable_seed(self.spec.seed, "noise", *key)
                self._noisy[key] = apply_noise(
                    ideal,
                    {
                        "channel": cell.noise.channel,
                        "parameter": cell.noise.parameter,
                        "count": cell.noise.count,
                        "seed": seed,
                    },
                )
        return self._noisy[key]


@dataclass
class SweepResult:
    """Outcome of one :meth:`SweepRunner.run` call."""

    spec: SweepSpec
    path: Path
    records: List[Dict[str, Any]] = field(default_factory=list)
    executed: int = 0
    skipped: int = 0
    elapsed_seconds: float = 0.0
    #: Session plan-cache counters (hits/misses/evictions) of this run.
    plan_cache: Dict[str, int] = field(default_factory=dict)
    #: ``"K/N"`` when this run executed one shard of a partition, else None.
    shard: str | None = None

    def by_cell(self) -> Dict[str, Dict[str, Any]]:
        return {record["cell_id"]: record for record in self.records}


class SweepRunner:
    """Execute a sweep spec, streaming results to a resumable JSONL file.

    Parameters
    ----------
    spec:
        The parsed sweep specification.
    out_path:
        JSONL output file (``sweep_results/<name>.jsonl`` by default).
    workers:
        Process count for the stochastic backends' shared pool.  Values are
        identical for every setting (the engine's seeded RNG blocks);
        defaults to the spec's ``workers`` entry, else 1.
    resume:
        Re-use final records already present in ``out_path`` (default).
        ``resume=False`` truncates and starts over.
    max_cells:
        Execute at most this many *pending* cells, then stop (useful for
        smoke runs; the JSONL stays resumable).
    shard:
        A :class:`repro.dist.partition.ShardSpec` (or its ``"K/N"`` string
        form): execute only the cells the deterministic partitioner assigns
        to this shard, and stamp the shard into the header and every record.
    crash_after:
        Fault injection for the crash-safety drills: after this many executed
        cells, flush a torn partial record and die via ``os._exit``
        (:data:`CRASH_EXIT_CODE`) — exactly what a worker killed mid-cell
        looks like to resume and merge.
    """

    def __init__(
        self,
        spec: SweepSpec,
        out_path: str | Path | None = None,
        workers: int | None = None,
        resume: bool = True,
        max_cells: int | None = None,
        shard=None,
        crash_after: int | None = None,
    ):
        from repro.dist.partition import ShardSpec

        self.spec = spec
        self.out_path = Path(
            out_path if out_path is not None else Path("sweep_results") / f"{spec.name}.jsonl"
        )
        self.workers = workers if workers is not None else (spec.workers or 1)
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")
        self.resume = resume
        self.max_cells = max_cells
        if shard is not None and not isinstance(shard, ShardSpec):
            shard = ShardSpec.parse(shard)
        self.shard = shard
        if crash_after is not None and crash_after < 0:
            raise ValidationError("crash_after must be >= 0")
        self.crash_after = crash_after

    # ------------------------------------------------------------------
    def cells(self) -> List[SweepCell]:
        """The cells this runner owns: the full grid, or its shard's slice."""
        if self.shard is None:
            return self.spec.cells()
        from repro.dist.partition import shard_cells

        return shard_cells(self.spec, self.shard)

    def run(self, progress: Callable[[str], None] | None = None) -> SweepResult:
        """Run all pending cells; returns the merged (previous + new) records."""
        start = time.perf_counter()
        note = progress or (lambda message: None)
        cells = self.cells()
        shard_label = str(self.shard) if self.shard is not None else None
        cache = CircuitCache(self.spec)
        result = SweepResult(self.spec, self.out_path, shard=shard_label)
        # The session owns the shared process pool for the stochastic cells;
        # it is created lazily on first use, so a fully-resumed re-run never
        # pays the pool start-up cost.
        with Session(workers=self.workers, passes=self.spec.passes) as session:
            with SweepRecords.open_for(
                self.spec, self.out_path, resume=self.resume, shard=shard_label
            ) as records:
                pending = [cell for cell in cells if cell.cell_id not in records.completed]
                result.skipped = len(cells) - len(pending)
                if result.skipped:
                    note(f"resuming: {result.skipped}/{len(cells)} cells already recorded")
                if self.max_cells is not None:
                    pending = pending[: self.max_cells]
                for index, cell in enumerate(pending, start=1):
                    if self.crash_after is not None and result.executed >= self.crash_after:
                        records.tear()
                        os._exit(CRASH_EXIT_CODE)
                    record = self._run_cell(cell, cache, session)
                    if shard_label is not None:
                        record["shard"] = shard_label
                    records.append(record)
                    result.executed += 1
                    note(self._progress_line(index, len(pending), record))
            result.plan_cache = session.cache_stats()
        # Re-read the file so the returned records are exactly what resumes see.
        _, by_cell = load_records(self.out_path)
        result.records = [
            by_cell[cell.cell_id] for cell in cells if cell.cell_id in by_cell
        ]
        result.elapsed_seconds = time.perf_counter() - start
        return result

    # ------------------------------------------------------------------
    def _noise_mapping(self, cell: SweepCell) -> Dict[str, Any] | None:
        """The ``noise=`` argument binding this cell's noise inside compile().

        The injection seed is pinned (the entry's own, else derived from the
        spec seed and the row labels exactly as :class:`CircuitCache` pins
        it), so every backend/level/samples cell of a row compiles the same
        noisy structure — and therefore shares one cached plan.
        """
        if cell.noise.is_noiseless:
            return None
        seed = cell.noise.seed
        if seed is None:
            seed = stable_seed(self.spec.seed, "noise", cell.circuit.label, cell.noise.label)
        return {
            "channel": cell.noise.channel,
            "parameter": cell.noise.parameter,
            "count": cell.noise.count,
            "seed": seed,
        }

    def _run_cell(self, cell: SweepCell, cache: CircuitCache, session: Session) -> Dict[str, Any]:
        try:
            stochastic = get_backend(cell.backend.name).capabilities.stochastic
            task = cell.task(
                workers=self.workers if stochastic else None,
                output_state="ideal" if self.spec.output_state == "ideal" else None,
            )
            executable = session.compile(
                cache.ideal(cell),
                backend=cell.backend.name,
                noise=self._noise_mapping(cell),
                backend_options=cell.backend.options,
                task=task,
            )
            if cell.params:
                # All bindings of a row share the parent's cached plan: the
                # params axis costs one plan search, then one bind per cell.
                executable = executable.bind(dict(cell.params))
            # One-shot semantics for the record: a cache miss bills its
            # compile time into elapsed_seconds (what this cell actually
            # cost), a hit records the pure serving cost.
            outcome = one_shot_result(executable)
        except BackendUnsupportedError as exc:
            return cell_record(cell, "unsupported", error=str(exc))
        except (MemoryError, ContractionMemoryError) as exc:
            return cell_record(cell, "memory_out", error=str(exc))
        except Exception as exc:  # noqa: BLE001 - recorded and retried on resume
            return cell_record(cell, "failed", error=f"{type(exc).__name__}: {exc}")
        return cell_record(cell, "ok", result=outcome)

    @staticmethod
    def _progress_line(index: int, total: int, record: Dict[str, Any]) -> str:
        status = record["status"]
        if status == "ok":
            detail = (
                f"F={record['value']:.6f}  ({record['elapsed_seconds']:.2f}s)"
            )
        else:
            detail = status.upper()
        return f"[{index}/{total}] {record['cell_id']}: {detail}"


def run_sweep(
    spec: SweepSpec | dict | str | Path,
    out_path: str | Path | None = None,
    workers: int | None = None,
    resume: bool = True,
    max_cells: int | None = None,
    shard=None,
    progress: Callable[[str], None] | None = None,
) -> SweepResult:
    """One-call convenience wrapper: load (if needed), run, return the result."""
    from repro.sweeps.spec import load_spec

    if not isinstance(spec, SweepSpec):
        spec = load_spec(spec)
    runner = SweepRunner(
        spec,
        out_path=out_path,
        workers=workers,
        resume=resume,
        max_cells=max_cells,
        shard=shard,
    )
    return runner.run(progress=progress)
