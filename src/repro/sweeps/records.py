"""Resumable JSONL record streams for sweep runs.

A sweep's output file is a stream of one JSON object per line:

* line 1 is a ``header`` record carrying the spec (and its content hash, so
  a resumed run refuses to append to records produced by a *different* spec);
* every further line is a ``cell`` record with the cell's deterministic
  parameters and its outcome.

Records are appended and flushed cell by cell, so an interrupted run keeps
everything it already computed; :func:`load_records` returns the last record
per cell id, which is exactly the resume state.

A worker killed mid-write (power loss, ``kill -9``, the distributed
coordinator's crash-injection drill) leaves a *torn* final line: a trailing
chunk without a terminating newline and/or that is not valid JSON.  Torn
tails are deliberate partial state, not corruption: :func:`scan_records`
detects them, :func:`load_records` drops them (the cell simply re-runs on
resume), and :meth:`SweepRecords.open_for` truncates the file back to the
last complete record before appending, so a resumed stream never embeds
garbage mid-file.  Invalid JSON anywhere *before* the final line still
raises — that is real corruption, not a crash artifact.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Dict, List, Mapping, Tuple

from repro.utils.validation import ValidationError

__all__ = [
    "RecordError",
    "RecordScan",
    "SweepRecords",
    "cell_record",
    "load_records",
    "scan_records",
]

#: Cell statuses that are final (a resumed run does not re-execute them).
#: ``failed`` — an unexpected exception — is retried on resume.
FINAL_STATUSES = ("ok", "memory_out", "unsupported")


class RecordError(ValidationError):
    """Raised for malformed or mismatched sweep record files."""


def cell_record(cell, status: str, result=None, error: str | None = None) -> Dict[str, Any]:
    """Build the JSON payload for one executed cell.

    Everything except ``elapsed_seconds`` (and the ``shard`` dispatch
    provenance a ``--shard K/N`` worker stamps on afterwards) is
    deterministic for a fixed spec seed, which is what the resume tests —
    and the distributed merge's bit-identity guarantee — assert.
    """
    record: Dict[str, Any] = {"kind": "cell", "cell_id": cell.cell_id}
    record.update(cell.record_params())
    record["status"] = status
    if result is not None:
        record["value"] = result.value
        record["standard_error"] = result.standard_error
        record["elapsed_seconds"] = result.elapsed_seconds
        record["num_samples"] = result.num_samples
        record["num_contractions"] = result.num_contractions
        # "workers" is runtime configuration, not an outcome: dropping it keeps
        # records identical across --workers settings.
        record["metadata"] = {
            key: value for key, value in dict(result.metadata or {}).items()
            if key != "workers"
        }
    if error is not None:
        record["error"] = error
    return record


@dataclass
class _Header:
    spec: Mapping[str, Any]
    spec_hash: str


def _parse_chunk(chunk: bytes, path: Path, number: int) -> Dict[str, Any]:
    try:
        record = json.loads(chunk.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise RecordError(f"{path}:{number}: invalid JSON record: {exc}") from exc
    if not isinstance(record, dict) or "kind" not in record:
        raise RecordError(f"{path}:{number}: not a sweep record (missing 'kind')")
    return record


@dataclass
class RecordScan:
    """Everything :func:`scan_records` learns about one JSONL file.

    ``torn_offset`` is the byte offset of a torn trailing line (a crashed
    worker's partial final write), or ``None`` when the file ends cleanly;
    truncating the file to that offset restores a valid append point.
    """

    path: Path
    header: Dict[str, Any]
    cells: Dict[str, Dict[str, Any]]
    torn_offset: int | None = None
    torn_line: str | None = None


def scan_records(path: str | Path) -> RecordScan:
    """Read a sweep JSONL file, tolerating (and reporting) a torn final line.

    The append-and-flush writer terminates every record with a newline, so a
    trailing chunk *without* one — or whose bytes are not a complete JSON
    record — can only be the partial last write of a worker that died
    mid-cell.  That chunk is dropped (its cell re-runs on resume) and
    reported via ``torn_offset``/``torn_line``.  A malformed line anywhere
    before the tail still raises :class:`RecordError`: suffix loss is the
    only corruption a crash can produce, so mid-file damage is a real error.
    """
    path = Path(path)
    if not path.exists():
        raise RecordError(f"sweep record file not found: {path}")
    raw = path.read_bytes()
    header: Dict[str, Any] | None = None
    cells: Dict[str, Dict[str, Any]] = {}
    torn_offset: int | None = None
    torn_line: str | None = None
    offset = 0
    number = 0
    while offset < len(raw):
        number += 1
        newline = raw.find(b"\n", offset)
        end = len(raw) if newline < 0 else newline
        chunk = raw[offset:end].strip()
        next_offset = end + (0 if newline < 0 else 1)
        is_tail = newline < 0 or not raw[next_offset:].strip()
        if chunk:
            record: Dict[str, Any] | None
            if newline < 0:
                # No terminating newline: a partial final write, even if the
                # bytes happen to parse — appending after it would glue two
                # records onto one line.
                record = None
            else:
                try:
                    record = _parse_chunk(chunk, path, number)
                except RecordError:
                    if not is_tail:
                        raise
                    record = None
            if record is None:
                torn_offset = offset
                torn_line = chunk.decode("utf-8", errors="replace")
                break
            if record["kind"] == "header":
                if header is None:
                    header = record
            elif record["kind"] == "cell":
                cells[record["cell_id"]] = record
        offset = next_offset
    if header is None:
        raise RecordError(f"{path} has no header record (not a sweep output file?)")
    return RecordScan(path, header, cells, torn_offset=torn_offset, torn_line=torn_line)


def load_records(path: str | Path) -> Tuple[Dict[str, Any], Dict[str, Dict[str, Any]]]:
    """Read a sweep JSONL file into ``(header, {cell_id: last record})``.

    A torn final line (crashed worker) is silently dropped — see
    :func:`scan_records` for the scan that reports it.
    """
    scan = scan_records(path)
    return scan.header, scan.cells


class SweepRecords:
    """Append-only JSONL writer with resume support.

    ``open_for(spec, path, resume=True)`` either creates the file with a
    header or validates the existing header's spec hash and reopens the
    stream for appending.
    """

    def __init__(self, path: Path, handle: IO[str], completed: Dict[str, Dict[str, Any]]):
        self.path = path
        self._handle = handle
        #: Final records from a previous run, keyed by cell id.
        self.completed = completed

    @classmethod
    def open_for(
        cls,
        spec,
        path: str | Path,
        resume: bool = True,
        shard: str | None = None,
    ) -> "SweepRecords":
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        completed: Dict[str, Dict[str, Any]] = {}
        if path.exists() and resume:
            scan = scan_records(path)
            header = scan.header
            if header.get("spec_hash") != spec.spec_hash():
                raise RecordError(
                    f"{path} was produced by a different spec "
                    f"(hash {header.get('spec_hash')} != {spec.spec_hash()}); "
                    "use a fresh output file or pass --fresh to overwrite"
                )
            if header.get("shard") != shard:
                # A shard file resumed under a different K/N would silently
                # execute (and record) another shard's cells into it.
                raise RecordError(
                    f"{path} belongs to shard {header.get('shard') or 'none'} "
                    f"(this run is shard {shard or 'none'}); "
                    "use a fresh output file per shard"
                )
            if scan.torn_offset is not None:
                # Crash artifact: cut the partial final write so the stream
                # stays one valid record per line; its cell re-runs below.
                os.truncate(path, scan.torn_offset)
            completed = {
                cell_id: record
                for cell_id, record in scan.cells.items()
                if record.get("status") in FINAL_STATUSES
            }
            handle = path.open("a")
        else:
            handle = path.open("w")
            header = {
                "kind": "header",
                "name": spec.name,
                "spec_hash": spec.spec_hash(),
                "spec": spec.to_dict(),
            }
            if shard is not None:
                header["shard"] = shard
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            handle.flush()
        return cls(path, handle, completed)

    def append(self, record: Mapping[str, Any]) -> None:
        """Write one record and flush, so interruption never loses a finished cell."""
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def tear(self) -> None:
        """Fault injection: flush a partial record with no terminating newline.

        Reproduces exactly what a worker killed mid-cell leaves behind; the
        crash drills (``--crash-after``, the CI sharded smoke) call this just
        before ``os._exit`` so resume and merge face a genuinely torn tail.
        """
        self._handle.write('{"kind": "cell", "cell_id": "torn-mid-write')
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "SweepRecords":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
