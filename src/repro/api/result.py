"""The unified result schema every `repro.api` entry point returns.

:class:`SimulationResult` is a strict superset of the backend layer's
:class:`~repro.backends.BackendResult`: the same outcome fields (value,
standard error, timings, counters, metadata) plus the provenance the service
layers need — the resolved backend name, the resolved RNG seed, the paper's
Theorem-1 error bound (when the approximation backend ran) and a content hash
of the task configuration.  CLI tables, sweep JSONL records and ``BENCH_*``
perf records all serialize this one schema via :meth:`SimulationResult.to_dict`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping

import numpy as np

from repro.backends.base import BackendResult, SimulationTask

__all__ = ["SimulationResult", "task_config_hash"]


def _state_token(value: Any) -> Any:
    """JSON-stable token for a task field (dense states hash, not dump)."""
    if isinstance(value, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()[:12]
        return f"ndarray[{value.shape}]:{digest}"
    if isinstance(value, (list, tuple)):
        return [_state_token(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _state_token(val) for key, val in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def structural_config_payload(
    backend: str,
    task: SimulationTask,
    backend_options: Mapping[str, Any] | None = None,
) -> Dict[str, Any]:
    """The JSON-stable payload of a task's *structural* configuration.

    The fields every configuration identity shares: backend name and
    construction options (the only way to configure an adapter), boundary
    states and bond-dimension ceiling.  Both
    :func:`task_config_hash` (which adds the per-call fields) and
    :func:`repro.api.executable.plan_cache_key` (which adds the circuit
    fingerprint) extend this one builder, so a new task field cannot be
    added to one hash and silently forgotten in the other.
    """
    payload = {
        "backend": backend,
        "backend_options": {
            str(key): _state_token(value)
            for key, value in dict(backend_options or {}).items()
        },
        "input_state": _state_token(task.input_state),
        "output_state": _state_token(task.output_state),
        "max_bond_dim": task.max_bond_dim,
    }
    return payload


def hash_payload(payload: Mapping[str, Any]) -> str:
    """16-hex content hash of a JSON-stable payload (shared hash spelling)."""
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
    return digest.hexdigest()[:16]


def task_config_hash(
    backend: str,
    task: SimulationTask,
    backend_options: Mapping[str, Any] | None = None,
    bound_params: Mapping[str, float] | None = None,
) -> str:
    """Content hash of one task configuration (the provenance key).

    Covers the backend name, its construction options and every *semantic*
    task field.  ``workers`` and the executor handle are excluded: the
    engine's seeded RNG blocks give identical values for every setting.

    ``bound_params`` is the parameter binding of a
    :meth:`repro.api.Executable.bind` executable; it enters the payload only
    when given (``None`` for ordinary tasks), so every hash minted before
    parametric circuits existed is unchanged while two bindings of one
    parametric executable hash differently.

    >>> from repro.backends import SimulationTask
    >>> a = task_config_hash("tn", SimulationTask(seed=7, workers=1))
    >>> a == task_config_hash("tn", SimulationTask(seed=7, workers=8))
    True
    >>> a == task_config_hash("tn", SimulationTask(seed=7, workers=None))
    True
    >>> a == task_config_hash("tn", SimulationTask(seed=8, workers=1))
    False
    >>> b = task_config_hash("tn", SimulationTask(seed=7, workers=1),
    ...                      bound_params={"gamma0": 0.5})
    >>> b != a
    True
    """
    payload = structural_config_payload(backend, task, backend_options)
    payload.update(
        {
            "num_samples": task.num_samples,
            "level": task.level,
            "seed": task.seed,
            "keep_samples": task.keep_samples,
        }
    )
    if bound_params is not None:
        payload["bound_params"] = {
            str(name): float(value) for name, value in dict(bound_params).items()
        }
    return hash_payload(payload)


@dataclass(frozen=True)
class SimulationResult:
    """Uniform outcome of one simulation dispatched through :mod:`repro.api`."""

    #: Canonical name of the backend that produced the value.
    backend: str
    #: The fidelity value (estimate for stochastic backends).
    value: float
    #: Statistical standard error (0 for deterministic backends).
    standard_error: float = 0.0
    #: Theorem-1 a-priori bound on the approximation error (None when the
    #: backend provides no such guarantee).
    error_bound: float | None = None
    #: Wall-clock time of the run.
    elapsed_seconds: float = 0.0
    #: Monte-Carlo samples drawn (None for deterministic backends).
    num_samples: int | None = None
    #: Tensor-network contractions performed (None when not applicable).
    num_contractions: int | None = None
    #: The RNG seed that actually drove the run (resolved by the session, so
    #: a recorded result can always be reproduced).
    seed: int | None = None
    #: Content hash of the task configuration (see :func:`task_config_hash`).
    config_hash: str = ""
    #: True when the one-time work behind this result (plan search, noise
    #: binding, transpilation) was reused from a compiled
    #: :class:`~repro.api.Executable` rather than performed for this call.
    cache_hit: bool = False
    #: Backend-specific extras (level, bond dimensions, …).
    metadata: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def from_backend_result(
        cls,
        result: BackendResult,
        *,
        seed: int | None = None,
        config_hash: str = "",
        cache_hit: bool = False,
    ) -> "SimulationResult":
        """Lift a backend-layer result into the unified schema."""
        metadata = dict(result.metadata or {})
        error_bound = metadata.get("error_bound")
        return cls(
            backend=result.backend,
            value=result.value,
            standard_error=result.standard_error,
            error_bound=None if error_bound is None else float(error_bound),
            elapsed_seconds=result.elapsed_seconds,
            num_samples=result.num_samples,
            num_contractions=result.num_contractions,
            seed=seed,
            config_hash=config_hash,
            cache_hit=cache_hit,
            metadata=metadata,
        )

    # Same normal-approximation interval as the backend layer (duck-typed on
    # value/standard_error), shared rather than re-implemented.
    confidence_interval = BackendResult.confidence_interval

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable view (the schema CLI/sweep/bench records share)."""
        return {
            "backend": self.backend,
            "value": self.value,
            "standard_error": self.standard_error,
            "error_bound": self.error_bound,
            "elapsed_seconds": self.elapsed_seconds,
            "num_samples": self.num_samples,
            "num_contractions": self.num_contractions,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "cache_hit": self.cache_hit,
            "metadata": {str(key): _state_token(value) for key, value in self.metadata.items()},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SimulationResult":
        """Rehydrate a result from its :meth:`to_dict` payload (the inverse).

        Cached or served results stored as JSON come back as full
        :class:`SimulationResult` objects; unknown keys are ignored so newer
        payloads load under older schemas.  Dense-state metadata values were
        reduced to hash tokens by :meth:`to_dict` and stay tokens — the
        round trip is exact on the serialised view:

        >>> result = SimulationResult(backend="tn", value=0.5, seed=7)
        >>> SimulationResult.from_dict(result.to_dict()) == result
        True
        """
        if "backend" not in payload or "value" not in payload:
            raise ValueError("a SimulationResult payload needs 'backend' and 'value'")
        error_bound = payload.get("error_bound")
        num_samples = payload.get("num_samples")
        num_contractions = payload.get("num_contractions")
        seed = payload.get("seed")
        # Records written while results carried an execution device hold
        # "device": "cpu"; like any unknown key, it is read and dropped.
        return cls(
            backend=str(payload["backend"]),
            value=float(payload["value"]),
            standard_error=float(payload.get("standard_error", 0.0)),
            error_bound=None if error_bound is None else float(error_bound),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
            num_samples=None if num_samples is None else int(num_samples),
            num_contractions=None if num_contractions is None else int(num_contractions),
            seed=None if seed is None else int(seed),
            config_hash=str(payload.get("config_hash", "")),
            cache_hit=bool(payload.get("cache_hit", False)),
            metadata=dict(payload.get("metadata", {})),
        )
