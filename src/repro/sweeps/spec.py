"""Declarative sweep specifications: the grid a sweep runs over.

A sweep spec is a plain dict (or a YAML/JSON file holding one) naming a grid
over circuit families, noise models, registered backends, approximation
levels and sample counts.  :func:`load_spec` parses and validates it into a
:class:`SweepSpec`, and :meth:`SweepSpec.cells` expands the grid into the
deterministic list of :class:`SweepCell` instances the runner executes::

    >>> from repro.sweeps import load_spec
    >>> spec = load_spec({
    ...     "name": "demo",
    ...     "grid": {"circuit": "ghz_2", "backend": "statevector"},
    ... })
    >>> [cell.cell_id for cell in spec.cells()]
    ['ghz_2/noiseless/statevector/level=1/samples=1000']

Every grid axis accepts either a scalar or a list; cells are the Cartesian
product in the fixed order circuit x noise x backend x level x samples, so
the cell sequence (and with it the JSONL record order) is reproducible.
Per-cell seeds are derived from the spec's base ``seed`` and the cell's
identity (not its position), so adding a grid point never changes the seeds
of existing cells.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.api.noise import validated_noise
from repro.backends import SimulationTask, resolve_backends
from repro.backends.registry import check_adapter_options
from repro.circuits.circuit import Circuit
from repro.circuits.library import benchmark_circuit
from repro.circuits.qasm import from_qasm
from repro.utils.seeds import stable_seed
from repro.utils.validation import ValidationError

__all__ = [
    "BackendSpec",
    "CircuitSpec",
    "NoiseSpec",
    "SweepCell",
    "SweepSpec",
    "load_spec",
    "stable_seed",
]

_OUTPUT_STATES = ("zero", "ideal")


def _require_mapping(value: Any, what: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ValidationError(f"{what} must be a mapping, got {type(value).__name__}")
    return value


def _check_keys(mapping: Mapping, allowed: Sequence[str], what: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ValidationError(
            f"unknown {what} key(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _as_list(value: Any) -> List:
    if value is None:
        return []
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


@dataclass(frozen=True)
class CircuitSpec:
    """One entry of the ``circuit`` axis: a benchmark name or a QASM file.

    ``name`` resolves through :func:`repro.circuits.library.benchmark_circuit`
    (``qaoa_N``, ``hf_N``, ``inst_RxC_D``, ``ghz_N``, ``qft_N``); ``qasm``
    loads an OpenQASM 2.0 file (path relative to the spec file).  ``family``
    is a free-form reporting tag (e.g. the "Type" column of Table II).
    """

    name: str | None = None
    qasm: str | None = None
    seed: int | None = None
    native_gates: bool = True
    family: str | None = None
    parametric: bool = False

    @classmethod
    def parse(cls, entry: Any) -> "CircuitSpec":
        if isinstance(entry, str):
            if entry.endswith(".qasm"):
                return cls(qasm=entry)
            return cls(name=entry)
        entry = _require_mapping(entry, "circuit entry")
        _check_keys(
            entry,
            ("name", "qasm", "seed", "native_gates", "family", "parametric"),
            "circuit",
        )
        spec = cls(
            name=entry.get("name"),
            qasm=entry.get("qasm"),
            seed=None if entry.get("seed") is None else int(entry["seed"]),
            native_gates=bool(entry.get("native_gates", True)),
            family=entry.get("family"),
            parametric=bool(entry.get("parametric", False)),
        )
        if (spec.name is None) == (spec.qasm is None):
            raise ValidationError("a circuit entry needs exactly one of 'name' or 'qasm'")
        if spec.parametric and spec.qasm is not None:
            # QASM files carry their own symbols (rz(2.0*gamma0) parses to a
            # parametric gate); the flag only drives the library builders.
            raise ValidationError(
                "'parametric' applies to named benchmark circuits only; QASM "
                "files are parametric when they contain symbolic parameters"
            )
        return spec

    @property
    def label(self) -> str:
        """Stable reporting/cell-id label (no '/' so cell ids stay parseable)."""
        if self.name is not None:
            return self.name
        return Path(self.qasm).stem

    def build(self, default_seed: int, base_dir: Path | None = None) -> Circuit:
        """Construct the ideal circuit this entry names."""
        if self.qasm is not None:
            path = Path(self.qasm)
            if not path.is_absolute() and base_dir is not None:
                path = base_dir / path
            if not path.exists():
                raise ValidationError(f"QASM file not found: {path}")
            circuit = from_qasm(path.read_text())
            circuit.name = self.label
            return circuit
        seed = default_seed if self.seed is None else self.seed
        return benchmark_circuit(
            self.name,
            seed=seed,
            native_gates=self.native_gates,
            parametric=self.parametric,
        )


@dataclass(frozen=True)
class NoiseSpec:
    """One entry of the ``noise`` axis: which channel to inject, how often.

    ``count`` noises are appended after randomly chosen gates (the paper's
    fault model, :meth:`repro.noise.NoiseModel.insert_random`); ``seed``
    fixes the injection points so every backend of a row sees the *same*
    noisy circuit (defaults to a seed derived from the spec seed).  An entry
    is checked as a session ``noise=`` mapping
    (:func:`repro.api.noise.validated_noise`); the channel ``"none"`` (the
    default) marks a noiseless row and needs no ``count``.
    """

    channel: str = "none"
    parameter: float = 0.001
    count: int = 0
    seed: int | None = None

    @classmethod
    def parse(cls, entry: Any) -> "NoiseSpec":
        if isinstance(entry, str):
            entry = {"channel": entry}
        entry = _require_mapping(entry, "noise entry")
        channel = entry.get("channel", "none")
        if channel == "none":
            # A noiseless row needs no count; its other keys are checked all the same.
            entry = {**entry, "channel": "depolarizing", "count": entry.get("count", 0)}
        checked = validated_noise(entry)
        return cls(channel, checked.parameter, checked.count, checked.seed)

    @property
    def is_noiseless(self) -> bool:
        return self.channel == "none" or self.count == 0

    @property
    def label(self) -> str:
        if self.is_noiseless:
            return "noiseless"
        if self.channel == "superconducting":
            return f"superconducting-x{self.count}"
        return f"{self.channel}-p{self.parameter:g}-x{self.count}"


@dataclass(frozen=True)
class BackendSpec:
    """One entry of the ``backend`` axis: a registry name plus adapter options.

    ``options`` are forwarded to :func:`repro.backends.get_backend` (e.g. the
    scaled-down ``max_qubits`` / ``max_nodes`` memory budgets of Table II);
    ``label`` overrides the reporting name (e.g. ``MM`` for
    ``density_matrix``).
    """

    name: str
    label: str = ""
    options: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def parse(cls, entry: Any) -> "BackendSpec":
        if isinstance(entry, str):
            entry = {"name": entry}
        entry = _require_mapping(entry, "backend entry")
        _check_keys(entry, ("name", "label", "options"), "backend")
        if "name" not in entry:
            raise ValidationError("a backend entry needs a 'name'")
        # Canonicalise through the registry so aliases resolve and unknown
        # names or options fail at parse time, not mid-sweep.
        canonical = resolve_backends(str(entry["name"]))[0]
        options = dict(_require_mapping(entry.get("options", {}), "backend options"))
        check_adapter_options(canonical, options)
        return cls(name=canonical, label=str(entry.get("label") or canonical), options=options)


def _params_label(params: Tuple[Tuple[str, float], ...]) -> str:
    """Stable reporting label of one ``params`` axis entry (sorted by name)."""
    return ",".join(f"{name}={value:g}" for name, value in params)


@dataclass(frozen=True)
class SweepCell:
    """One grid point: (circuit, noise, backend, level, samples) plus its seed.

    ``seed`` is derived from the spec seed and the cell's identity via
    :func:`stable_seed`; it drives the stochastic backends through
    :meth:`task`.  ``params`` is one binding of the ``params`` grid axis (a
    sorted name/value tuple; empty for non-parametric sweeps): the runner
    compiles the parametric circuit once per row and serves each binding via
    :meth:`repro.api.Executable.bind` — one plan search for the whole axis.
    """

    circuit: CircuitSpec
    noise: NoiseSpec
    backend: BackendSpec
    level: int
    samples: int
    seed: int
    params: Tuple[Tuple[str, float], ...] = ()

    @property
    def cell_id(self) -> str:
        """Stable identifier used as the JSONL resume key."""
        base = (
            f"{self.circuit.label}/{self.noise.label}/{self.backend.label}"
            f"/level={self.level}/samples={self.samples}"
        )
        if self.params:
            # Appended only for parametric cells, so pre-existing sweep files
            # (whose ids never mentioned params) keep resuming cleanly.
            base += f"/params={_params_label(self.params)}"
        return base

    def task(
        self,
        workers: int | None = None,
        output_state: Any = None,
        executor: Any = None,
    ) -> SimulationTask:
        """Build the :class:`~repro.backends.SimulationTask` for this cell.

        ``workers``/``executor`` configure the batched trajectory engine
        through the task's typed fields, so one process pool is shared across
        all cells of a sweep (the session layer injects its own pool when
        ``executor`` is left unset).  The backend's adapter options are not
        task fields: they reach the adapter constructor (``backend_options``
        at the dispatch site).
        """
        return SimulationTask(
            level=self.level,
            num_samples=self.samples,
            seed=self.seed,
            workers=workers,
            output_state=output_state,
            executor=executor,
        )

    def record_params(self) -> Dict[str, Any]:
        """The deterministic cell parameters stored in each JSONL record."""
        record = {
            "circuit": self.circuit.label,
            "family": self.circuit.family,
            "noise": self.noise.label,
            "backend": self.backend.name,
            "backend_label": self.backend.label,
            "level": self.level,
            "samples": self.samples,
            "seed": self.seed,
        }
        if self.params:
            record["params"] = dict(self.params)
        return record


@dataclass(frozen=True)
class SweepSpec:
    """A validated sweep specification (see :func:`load_spec`)."""

    name: str
    description: str = ""
    seed: int = 7
    reference: str | None = None
    output_state: str = "zero"
    workers: int | None = None
    passes: bool = True
    circuits: Tuple[CircuitSpec, ...] = ()
    noises: Tuple[NoiseSpec, ...] = (NoiseSpec(),)
    backends: Tuple[BackendSpec, ...] = ()
    levels: Tuple[int, ...] = (1,)
    samples: Tuple[int, ...] = (1000,)
    #: Entries of the ``params`` axis: one sorted name/value binding per
    #: entry.  The default single empty binding keeps non-parametric grids
    #: identical to the pre-params expansion.
    params: Tuple[Tuple[Tuple[str, float], ...], ...] = ((),)
    base_dir: Path | None = None

    def cells(self) -> List[SweepCell]:
        """Expand the grid into its deterministic cell list."""
        cells = []
        for circuit, noise, backend, level, num_samples, params in itertools.product(
            self.circuits, self.noises, self.backends, self.levels, self.samples,
            self.params,
        ):
            cell = SweepCell(
                circuit, noise, backend, level, num_samples, seed=0, params=params
            )
            cells.append(
                dataclasses.replace(
                    cell, seed=stable_seed(self.seed, "cell", cell.cell_id)
                )
            )
        return cells

    def to_dict(self) -> Dict[str, Any]:
        """Canonical plain-dict form (what the JSONL header stores and hashes)."""
        payload: Dict[str, Any] = {
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "reference": self.reference,
            "output_state": self.output_state,
        }
        if not self.passes:
            # Emitted only when disabled so pre-existing spec hashes (which
            # never mentioned passes) remain stable for resumed JSONL files.
            payload["passes"] = False
        payload["grid"] = {
            "circuit": [
                {
                    "name": c.name,
                    "qasm": c.qasm,
                    "seed": c.seed,
                    "native_gates": c.native_gates,
                    "family": c.family,
                    # Emitted only when set, keeping pre-params spec hashes
                    # (which never mentioned the key) stable on resume.
                    **({"parametric": True} if c.parametric else {}),
                }
                for c in self.circuits
            ],
            "noise": [
                {
                    "channel": n.channel,
                    "parameter": n.parameter,
                    "count": n.count,
                    "seed": n.seed,
                }
                for n in self.noises
            ],
            "backend": [
                {"name": b.name, "label": b.label, "options": dict(b.options)}
                for b in self.backends
            ],
            "level": list(self.levels),
            "samples": list(self.samples),
        }
        if self.params != ((),):
            # Emitted only for parametric grids, so pre-params spec hashes
            # (which never mentioned the axis) remain stable for resumes.
            payload["grid"]["params"] = [dict(binding) for binding in self.params]
        return payload

    def spec_hash(self) -> str:
        """Content hash used to guard resumed JSONL files against spec drift."""
        payload = json.dumps(self.to_dict(), sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


_SPEC_KEYS = (
    "name",
    "description",
    "seed",
    "reference",
    "output_state",
    "workers",
    "passes",
    "grid",
)
_GRID_KEYS = ("circuit", "noise", "backend", "level", "samples", "params")


def _parse_spec(data: Mapping, base_dir: Path | None) -> SweepSpec:
    data = _require_mapping(data, "sweep spec")
    _check_keys(data, _SPEC_KEYS, "sweep spec")
    if not data.get("name"):
        raise ValidationError("a sweep spec needs a non-empty 'name'")
    grid = _require_mapping(data.get("grid", {}), "'grid'")
    _check_keys(grid, _GRID_KEYS, "grid")

    circuits = tuple(CircuitSpec.parse(e) for e in _as_list(grid.get("circuit")))
    if not circuits:
        raise ValidationError("the grid needs at least one 'circuit' entry")
    backends = tuple(BackendSpec.parse(e) for e in _as_list(grid.get("backend")))
    if not backends:
        raise ValidationError("the grid needs at least one 'backend' entry")
    noise_entries = _as_list(grid.get("noise"))
    noises = tuple(NoiseSpec.parse(e) for e in noise_entries) or (NoiseSpec(),)
    levels = tuple(int(level) for level in _as_list(grid.get("level"))) or (1,)
    samples = tuple(int(count) for count in _as_list(grid.get("samples"))) or (1000,)
    if any(level < 0 for level in levels):
        raise ValidationError("levels must be non-negative")
    if any(count <= 0 for count in samples):
        raise ValidationError("sample counts must be positive")

    params_entries = _as_list(grid.get("params"))
    params: Tuple[Tuple[Tuple[str, float], ...], ...] = ((),)
    if params_entries:
        bindings = []
        for entry in params_entries:
            entry = _require_mapping(entry, "params entry")
            if not entry:
                raise ValidationError(
                    "a params entry must bind at least one parameter "
                    "(omit the axis for non-parametric sweeps)"
                )
            bindings.append(
                tuple(sorted((str(name), float(value)) for name, value in entry.items()))
            )
        params = tuple(bindings)
        # QASM entries may carry symbols that only surface at load time, so
        # the axis is rejected here only when no entry could be parametric.
        if not any(c.parametric or c.qasm is not None for c in circuits):
            raise ValidationError(
                "a 'params' axis needs at least one parametric circuit entry "
                "(set parametric: true on a named benchmark, or load a QASM "
                "file with symbolic parameters)"
            )

    # Axis labels are the cell-id / cache / resume keys, so duplicates would
    # silently alias distinct grid points onto one record.
    for axis, entries in (
        ("backend", [b.label for b in backends]),
        ("circuit", [c.label for c in circuits]),
        ("noise", [n.label for n in noises]),
        ("params", [_params_label(binding) for binding in params if binding]),
    ):
        duplicates = sorted({label for label in entries if entries.count(label) > 1})
        if duplicates:
            raise ValidationError(
                f"{axis} labels must be unique within a sweep "
                f"(duplicated: {', '.join(duplicates)})"
            )

    reference = data.get("reference")
    if reference is not None:
        reference = resolve_backends(str(reference))[0]
    output_state = str(data.get("output_state", "zero"))
    if output_state not in _OUTPUT_STATES:
        raise ValidationError(
            f"output_state must be one of {', '.join(_OUTPUT_STATES)}, got {output_state!r}"
        )
    if output_state == "ideal" and any(c.parametric for c in circuits):
        # The ideal output state depends on the parameter values, so a
        # value-free compile cannot produce it; fail at parse time instead of
        # per cell.
        raise ValidationError(
            "output_state: ideal is incompatible with parametric circuit "
            "entries (the ideal state depends on the bound parameter values)"
        )

    return SweepSpec(
        name=str(data["name"]),
        description=str(data.get("description", "")),
        seed=int(data.get("seed", 7)),
        reference=reference,
        output_state=output_state,
        workers=None if data.get("workers") is None else int(data["workers"]),
        passes=bool(data.get("passes", True)),
        circuits=circuits,
        noises=noises,
        backends=backends,
        levels=levels,
        samples=samples,
        params=params,
        base_dir=base_dir,
    )


def _load_file(path: Path) -> Mapping:
    text = path.read_text()
    if path.suffix in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError as exc:  # pragma: no cover - yaml is normally available
            raise ValidationError(
                f"PyYAML is not installed; convert {path.name} to JSON or install pyyaml"
            ) from exc
        try:
            return yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ValidationError(f"invalid YAML in {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON in {path}: {exc}") from exc


def load_spec(source: Mapping | str | Path) -> SweepSpec:
    """Parse a sweep spec from a dict or a YAML/JSON file path.

    Raises :class:`~repro.utils.validation.ValidationError` on unknown keys,
    unknown backends/channels, empty axes, or malformed files, so errors
    surface before any simulation starts.
    """
    if isinstance(source, Mapping):
        return _parse_spec(source, base_dir=None)
    path = Path(source)
    if not path.exists():
        raise ValidationError(f"sweep spec file not found: {path}")
    data = _load_file(path)
    if data is None:
        raise ValidationError(f"sweep spec file {path} is empty")
    return _parse_spec(data, base_dir=path.resolve().parent)
