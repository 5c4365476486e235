"""Core types of the unified backend layer.

Every simulator in the library is wrapped by a :class:`SimulationBackend`
adapter exposing one uniform contract::

    result = backend.run(circuit, SimulationTask(num_samples=1000, seed=7))
    result.value, result.standard_error, result.elapsed_seconds

A backend declares *capability flags* (:class:`BackendCapabilities`) so call
sites — the CLI ``compare`` command, the benchmark harness, the
cross-simulator tests — can resolve the set of applicable backends for a
circuit instead of hand-wiring method lists and adapter lambdas.
"""

from __future__ import annotations

import dataclasses
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, ClassVar, List, Mapping, Sequence

from repro.circuits.circuit import Circuit
from repro.circuits.parameters import UnboundParameterError, circuit_parameters, is_parametric
from repro.circuits.passes import PassProfile
from repro.tensornetwork.circuit_to_tn import resolve_product_state
from repro.utils.validation import ValidationError

__all__ = [
    "BackendCapabilities",
    "BackendResult",
    "BackendUnsupportedError",
    "SimulationBackend",
    "SimulationTask",
]


class BackendUnsupportedError(ValidationError):
    """Raised when a backend cannot simulate the requested circuit/task."""


@dataclass(frozen=True)
class BackendCapabilities:
    """Static capability flags of a registered backend."""

    #: Can simulate circuits containing noise channels.
    noisy: bool
    #: Returns the exact value (up to floating point), not an approximation.
    exact: bool
    #: The result is a Monte-Carlo estimate with a statistical standard error.
    stochastic: bool = False
    #: Hard qubit-count ceiling (None = no intrinsic limit).
    max_qubits: int | None = None
    #: Input/output states must be product states (bitstrings or factor lists).
    needs_product_state: bool = False


@dataclass(frozen=True)
class SimulationTask:
    """What to compute: fidelity ``⟨v| E_N(|ψ⟩⟨ψ|) |v⟩`` plus method knobs.

    Example — a seeded 4-worker Monte-Carlo estimate::

        >>> from repro.backends import SimulationTask
        >>> task = SimulationTask(num_samples=1000, seed=7, workers=4)
        >>> task.num_samples, task.seed
        (1000, 7)

    ``input_state`` / ``output_state`` default to ``|0…0⟩``.  The remaining
    fields are method parameters that individual backends are free to ignore:
    ``num_samples``/``seed``/``workers``/``keep_samples`` drive the stochastic
    backends, ``level`` drives the paper's approximation algorithm and
    ``max_bond_dim`` the MPS/MPDO truncation.  ``executor`` optionally hands
    the stochastic backends an already-running
    :class:`~concurrent.futures.ProcessPoolExecutor` (owned by the caller —
    typically a :class:`repro.api.Session` — and never shut down by the
    backend), so batches of tasks share one pool.  Adapter configuration
    (memory budgets) is not a task field: it is fixed when the adapter is
    constructed (``get_backend(name, **options)``).
    """

    input_state: Any = None
    output_state: Any = None
    num_samples: int = 1000
    level: int = 1
    seed: int | None = None
    workers: int | None = None
    keep_samples: bool = False
    max_bond_dim: int | None = None
    executor: Any = None


@dataclass(frozen=True)
class BackendResult:
    """Uniform outcome of one backend run."""

    #: Name of the backend that produced the value.
    backend: str
    #: The fidelity value (estimate for stochastic backends).
    value: float
    #: Statistical standard error (0 for deterministic backends).
    standard_error: float = 0.0
    #: Wall-clock time of the run.
    elapsed_seconds: float = 0.0
    #: Tensor-network contractions performed (None when not applicable).
    num_contractions: int | None = None
    #: Monte-Carlo samples drawn (None for deterministic backends).
    num_samples: int | None = None
    #: Backend-specific extras (error bounds, bond dimensions, …).
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def confidence_interval(self, z: float = 2.576) -> tuple:
        """Normal-approximation confidence interval (99% by default).

        >>> result = BackendResult(backend="tn", value=0.5, standard_error=0.01)
        >>> tuple(round(bound, 3) for bound in result.confidence_interval(z=2.0))
        (0.48, 0.52)
        """
        return (self.value - z * self.standard_error, self.value + z * self.standard_error)


class SimulationBackend(ABC):
    """Uniform interface over all simulators (registered via ``@register_backend``)."""

    #: Registry name; set by the :func:`repro.backends.registry.register_backend` decorator.
    name: ClassVar[str] = "unregistered"
    #: Capability flags; set by the decorator.
    capabilities: ClassVar[BackendCapabilities]

    #: Qubit ceiling set by an adapter's ``max_qubits`` constructor option.
    _max_qubits: int | None = None

    # ------------------------------------------------------------------
    def max_qubits(self) -> int | None:
        """Effective qubit ceiling: the constructor's, else the class default."""
        return self._max_qubits if self._max_qubits is not None else self.capabilities.max_qubits

    def supports(self, circuit: Circuit, task: SimulationTask | None = None) -> str | None:
        """Return None when this backend can run ``circuit``, else the reason it cannot.

        A ``needs_product_state`` backend rejects tasks whose boundary states
        are dense vectors.
        """
        if not self.capabilities.noisy and not circuit.is_noiseless():
            return f"{self.name} cannot simulate noise channels"
        ceiling = self.max_qubits()
        if ceiling is not None and circuit.num_qubits > ceiling:
            return f"{self.name} is limited to {ceiling} qubits (circuit has {circuit.num_qubits})"
        if self.capabilities.needs_product_state and task is not None:
            for state in (task.input_state, task.output_state):
                if state is None or isinstance(state, str):
                    continue
                try:
                    resolved = resolve_product_state(state, circuit.num_qubits)
                except ValidationError as exc:
                    return f"{self.name}: invalid state ({exc})"
                if not isinstance(resolved, list):
                    return f"{self.name} needs product input/output states"
        return self._extra_supports(circuit)

    def _extra_supports(self, circuit: Circuit) -> str | None:
        """Hook for adapter-specific structural constraints (e.g. 1-qubit noise only)."""
        return None

    def pass_profile(self) -> PassProfile:
        """Which compile-time optimizations preserve this backend's semantics.

        The session layer intersects this profile with the caller's
        :class:`~repro.circuits.passes.PassConfig` before running the
        optimizing pipeline (see :mod:`repro.circuits.passes`).  By default
        ``merge_channels`` stays off because composing adjacent noise
        channels changes the noise count that Algorithm 1's level budget and
        the trajectory sampler's RNG stream are indexed by; the exact
        superoperator adapters override this to opt in.
        """
        return PassProfile()

    def check_supported(self, circuit: Circuit, task: SimulationTask | None = None) -> None:
        """Raise :class:`BackendUnsupportedError` when ``circuit`` is out of scope."""
        reason = self.supports(circuit, task)
        if reason is not None:
            raise BackendUnsupportedError(reason)

    # ------------------------------------------------------------------
    # Compile / execute split
    # ------------------------------------------------------------------
    def compile(self, circuit: Circuit, task: SimulationTask | None = None) -> Any:
        """Precompute this backend's reusable one-time work for ``circuit``.

        Returns an opaque plan handle to pass back through ``run(plan=...)``,
        or ``None`` when the backend has no per-circuit work worth caching.
        A plan depends only on the circuit's structure and the task's
        *structural* fields (boundary states, bond-dimension ceiling) — never on
        ``seed``, ``num_samples`` or ``workers`` — so the session layer may
        share one plan between runs that differ only in those per-call knobs
        (see :meth:`repro.api.Session.compile`).
        """
        task = SimulationTask() if task is None else task
        self.check_supported(circuit, task)
        return self._compile(circuit, task)

    def _compile(self, circuit: Circuit, task: SimulationTask, template: Any = None) -> Any:
        """Backend-specific plan construction (default: nothing to precompute).

        ``template`` is a plan compiled from another binding of the same
        parametric structure: its value-independent parts (recorded
        schedules, noise decompositions, sampling distributions) are reused
        and only the tensors are rebuilt from ``circuit``.
        """
        return None

    # ------------------------------------------------------------------
    @abstractmethod
    def _execute(self, circuit: Circuit, task: SimulationTask, plan: Any) -> BackendResult:
        """Backend-specific execution of ``plan`` (what :meth:`_compile` returned)."""

    def run(
        self,
        circuit: Circuit,
        task: SimulationTask | None = None,
        plan: Any = None,
    ) -> BackendResult:
        """Simulate ``circuit`` under ``task`` and return a :class:`BackendResult`.

        Times the execution and stamps the backend name onto the result.
        ``plan`` optionally supplies the precompiled one-time work from
        :meth:`compile` (for the same circuit/task structure); without one,
        the circuit is validated against the backend's capabilities and the
        plan is built here first, so a one-shot run and a compiled run
        execute the same code.  A passed plan skips the validation:
        :meth:`compile` already checked the same structure, and
        :meth:`supports` reads only the structure and the task's fixed
        fields.  A parametric circuit's plan was compiled
        from some binding of its structure, so it serves as the template of
        a re-preparation on this circuit's bound values.

        Example — exact fidelity of a noiseless GHZ state with ``|00⟩``::

            >>> from repro.backends import get_backend
            >>> from repro.circuits.library import ghz_circuit
            >>> result = get_backend("statevector").run(ghz_circuit(2))
            >>> round(result.value, 6)
            0.5
        """
        task = SimulationTask() if task is None else task
        # compile() accepts circuits with free parameters (planning happens on
        # a placeholder binding), but execution needs every angle concrete.
        free = sorted(circuit_parameters(circuit))
        if free:
            raise UnboundParameterError(
                f"circuit has unbound parameters {free}; bind them "
                "(Executable.bind / substitute) before execution"
            )
        if plan is None:
            self.check_supported(circuit, task)
        start = time.perf_counter()
        if plan is None or is_parametric(circuit):
            plan = self._compile(circuit, task, template=plan)
        result = self._execute(circuit, task, plan)
        elapsed = time.perf_counter() - start
        if result.elapsed_seconds == 0.0:
            result = dataclasses.replace(result, elapsed_seconds=elapsed)
        return result

    def angle_derivatives(
        self, circuit: Circuit, task: SimulationTask, plan: Any, indices: Sequence[int]
    ) -> List[float] | None:
        """Exact ``∂value/∂θ`` of the single-angle gate at each instruction index, or None.

        ``circuit`` is a bound parametric circuit and ``plan`` the one
        :meth:`compile` built for its structure.  A backend that can
        differentiate its compiled plan directly overrides this; the default
        ``None`` makes :meth:`repro.api.Executable.gradient` fall back to
        parameter-shift evaluations.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"
