"""Compiled simulations: the execute half of the compile/execute split.

:meth:`repro.api.Session.compile` performs every piece of one-time work a
simulation needs — noise binding, backend and capability resolution, seed
resolution, boundary-state materialisation and the backend's own plan
construction (contraction-schedule recording, trajectory-context
preparation, SVD decompositions) — and returns an :class:`Executable`: an
immutable handle whose :meth:`Executable.run` / :meth:`Executable.submit`
pay only the pure execution cost.  ``run()``/``submit()``/``simulate()`` on
the session are thin wrappers over compile-then-execute with a transparent
bounded LRU plan cache, so hot-path serving of a repeated configuration
skips the one-time work automatically.

:func:`plan_cache_key` is the cache identity: it covers everything a
backend's plan can depend on (the exact circuit structure, the backend and
its options, the boundary states) and deliberately *excludes* the per-call
knobs (``seed``, ``num_samples``, ``keep_samples``, ``workers``/``executor``
and the approximation ``level``), so e.g. two trajectory tasks that differ
only in their sampling seed share one compiled plan.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from concurrent.futures import Future
from typing import Any, Dict, Mapping

from repro.api.result import (
    SimulationResult,
    hash_payload,
    structural_config_payload,
    task_config_hash,
)
from repro.backends.base import SimulationBackend, SimulationTask
from repro.backends.engine import WorkerPoolError
from repro.circuits.circuit import Circuit
from repro.circuits.parameters import (
    GATE_GENERATORS,
    UnboundParameterError,
    circuit_parameters,
    normalize_binding,
    substitute,
)
from repro.utils.validation import ValidationError

__all__ = ["BoundExecutable", "Executable", "PARAMETER_SHIFT_GATES", "plan_cache_key"]

#: Gates :meth:`Executable.gradient` differentiates: the keys of
#: :data:`~repro.circuits.parameters.GATE_GENERATORS`, whose matrices are
#: exactly ``exp(−iθG)``.  On ``tn`` the generator gives ``dU/dθ = −i·G·U``
#: for the environment sweep; elsewhere each ``G`` has two eigenvalues a gap
#: of 1 apart, so the two-term rule ``∂θ f = [f(θ+π/2) − f(θ−π/2)] / 2`` is
#: exact.  ``givens``/``crz``/``fsim``/``u3`` have three or more distinct
#: generator eigenvalues (or several angles with coupled generators) and are
#: excluded — shifting them needs a multi-term rule this helper does not
#: implement.
PARAMETER_SHIFT_GATES = frozenset(GATE_GENERATORS)


def plan_cache_key(
    backend: str,
    circuit: Circuit,
    task: SimulationTask,
    backend_options: Mapping[str, Any] | None = None,
) -> str:
    """Identity of a compiled plan: structure in, per-call knobs out.

    Two configurations share a plan iff they agree on the backend (name and
    construction options), the exact circuit structure (gate and Kraus tensor
    bytes, see :meth:`repro.circuits.Circuit.fingerprint`), the boundary
    states and the bond-dimension ceiling.  The session keys on the circuit
    *after* the optimizing pass pipeline has run, so no separate pass-config
    token is needed: pass-on and pass-off compiles either produce the same
    optimized circuit (and correctly share a plan) or different fingerprints.  ``seed``, ``num_samples``,
    ``keep_samples`` and the approximation ``level`` never change what a
    backend precomputes, so they are excluded — a sweep over seeds, sample
    counts or levels compiles once.  The execution plumbing (``workers``,
    the executor handle) never enters the key either: a trajectory plan is
    one prepared context, replayed in-process or shipped to pool workers.

    >>> from repro.backends import SimulationTask
    >>> from repro.circuits.library import ghz_circuit
    >>> key = plan_cache_key("tn", ghz_circuit(2), SimulationTask(seed=1))
    >>> key == plan_cache_key(
    ...     "tn", ghz_circuit(2), SimulationTask(seed=2, num_samples=9, level=3)
    ... )
    True
    >>> key == plan_cache_key("tn", ghz_circuit(3), SimulationTask(seed=1))
    False
    >>> key == plan_cache_key("tdd", ghz_circuit(2), SimulationTask(seed=1))
    False

    Parametric circuits key on the :meth:`~repro.circuits.Circuit.\
structural_fingerprint` — parameter *names*, expression coefficients and
    gate structure enter the key, bound *values* and parameter-shift offsets
    do not — so N bindings of one parametric circuit share a single plan
    (for literal circuits the structural fingerprint equals the exact one,
    leaving every pre-existing key unchanged).
    """
    payload = structural_config_payload(backend, task, backend_options)
    payload["circuit"] = circuit.structural_fingerprint()
    return hash_payload(payload)


def one_shot_result(executable: "Executable") -> SimulationResult:
    """Execute a freshly compiled executable as a one-shot dispatch.

    When the plan was compiled for this very call (cache miss), the compile
    time is billed into the result's ``elapsed_seconds`` — that is the cost
    the caller actually paid — so one-shot timings (sweep records, CLI
    tables, verify reports) stay comparable with records produced before the
    compile/execute split.  On a cache hit the result is the pure execution
    cost, exactly like :meth:`Executable.run`.
    """
    result = executable.run()
    if not executable.cache_hit and executable.compile_seconds > 0.0:
        result = dataclasses.replace(
            result,
            elapsed_seconds=result.elapsed_seconds + executable.compile_seconds,
        )
    return result


class Executable:
    """An immutable compiled simulation, ready for repeated hot-path execution.

    Produced by :meth:`repro.api.Session.compile`; holds the fully resolved
    circuit (noise bound, boundary states materialised), the resolved backend
    adapter, the resolved task and the backend's precompiled plan.  Each
    :meth:`run`/:meth:`submit` call pays only the pure execution cost;
    ``num_samples`` and ``seed`` may be overridden per call (they are
    per-call knobs the plan does not depend on), everything else is fixed at
    compile time — including the noise *placement*, which was bound using the
    compile-time seed.

    The handle stays valid until its session closes; afterwards
    :meth:`run`/:meth:`submit` raise a
    :class:`~repro.utils.validation.ValidationError`.
    """

    __slots__ = (
        "_session",
        "_backend",
        "_circuit",
        "_task",
        "_backend_options",
        "_config_hash",
        "_plan",
        "_plan_key",
        "_cache_hit",
        "_compile_seconds",
        "_pass_info",
        "_coalesced",
        "_lock",
        "_executions",
    )

    def __init__(
        self,
        session,
        backend: SimulationBackend,
        circuit: Circuit,
        task: SimulationTask,
        backend_options: Mapping[str, Any] | None,
        config_hash: str,
        plan: Any,
        plan_key: str,
        cache_hit: bool,
        compile_seconds: float,
        pass_info: Mapping[str, Any] | None = None,
        coalesced: bool = False,
    ) -> None:
        self._session = session
        self._backend = backend
        self._circuit = circuit
        self._task = task
        self._backend_options = dict(backend_options or {})
        self._config_hash = config_hash
        self._plan = plan
        self._plan_key = plan_key
        self._cache_hit = cache_hit
        self._compile_seconds = compile_seconds
        self._pass_info = dict(pass_info) if pass_info is not None else None
        self._coalesced = coalesced
        self._lock = threading.Lock()
        self._executions = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """Canonical name of the resolved backend."""
        return self._backend.name

    @property
    def circuit(self) -> Circuit:
        """The fully resolved (noise-bound) circuit this executable runs."""
        return self._circuit

    @property
    def task(self) -> SimulationTask:
        """The resolved task (frozen; per-call overrides never mutate it)."""
        return self._task

    @property
    def config_hash(self) -> str:
        """Provenance hash of the compiled configuration (seed included)."""
        return self._config_hash

    @property
    def plan_key(self) -> str:
        """Session plan-cache key (seed/samples/level excluded)."""
        return self._plan_key

    @property
    def cache_hit(self) -> bool:
        """True when compilation reused a plan from the session cache."""
        return self._cache_hit

    @property
    def compile_seconds(self) -> float:
        """Wall-clock cost of the plan search; on a cache hit, of the lookup.

        A hit reports what finding the cached plan cost (the session's front
        and plan lookups).  For a coalesced compile this is the time spent
        waiting on the concurrent owner's plan search, not a second search.
        """
        return self._compile_seconds

    @property
    def coalesced(self) -> bool:
        """True when this compile shared a concurrent in-flight plan search.

        A coalesced compile found the same ``plan_key`` already being
        compiled by another thread and waited for that single search instead
        of starting its own; it also reports ``cache_hit=True`` because the
        one-time work was not repeated for this call.
        """
        return self._coalesced

    def describe(self) -> Dict[str, Any]:
        """Plan cost, cache provenance and pass report of this configuration.

        The ``"passes"`` entry reports the optimizing pipeline's outcome:
        ``{"config": {...}, "stats": {...}, "seconds": float}``, where
        ``stats`` holds the counters of
        :class:`repro.circuits.passes.PassStats` (``gates_fused``,
        ``channels_folded``, ``sites_pruned`` and the before/after gate and
        noise counts) and is ``None`` when every pass was disabled.  The
        pipeline's wall-clock cost is reported here, *not* in
        ``compile_seconds``; it is ``0.0`` when the session's front memo
        served the optimized circuit and the pipeline did not run.
        """
        plan_info = None
        describe = getattr(self._plan, "describe", None)
        if callable(describe):
            plan_info = describe()
        elif self._plan is not None:
            plan_info = type(self._plan).__name__
        return {
            "backend": self._backend.name,
            "circuit": self._circuit.summary(),
            "config_hash": self._config_hash,
            "plan_key": self._plan_key,
            "cache_hit": self._cache_hit,
            "coalesced": self._coalesced,
            "compile_seconds": self._compile_seconds,
            "executions": self._executions,
            "seed": self._task.seed,
            "num_samples": self._task.num_samples,
            "level": self._task.level,
            "plan": plan_info,
            "passes": dict(self._pass_info) if self._pass_info is not None else None,
            "bound_params": self.bound_params,
            "free_parameters": sorted(circuit_parameters(self._circuit)),
        }

    @property
    def bound_params(self) -> Dict[str, float] | None:
        """The parameter binding of a :meth:`bind` result (None otherwise)."""
        return None

    # ------------------------------------------------------------------
    # Parameter binding
    # ------------------------------------------------------------------
    def _check_binding(self, params: Mapping) -> Dict[str, float]:
        """Validate ``params`` against this executable's free parameters."""
        normalized = normalize_binding(params)
        free = circuit_parameters(self._circuit)
        missing = sorted(free - frozenset(normalized))
        if missing:
            raise UnboundParameterError(
                f"bind() is missing values for parameters {missing}"
            )
        unknown = sorted(frozenset(normalized) - free)
        if unknown:
            raise ValidationError(
                f"bind() got unknown parameters {unknown} "
                f"(this executable's parameters: {sorted(free)})"
            )
        return normalized

    def _rebind(self, bound_circuit: Circuit, bound_params: Dict[str, float]) -> "BoundExecutable":
        """Plan lookup + :class:`BoundExecutable` construction (no plan search).

        With the plan cache enabled this goes through the session's
        :meth:`~repro.api.Session._finish_compile`: the bound circuit's
        structural fingerprint equals the parent's, so the lookup is a cache
        *hit* that reuses the one plan recorded at compile time (a re-record
        happens only if the plan was evicted in between).  With caching
        disabled (``plan_cache_size=0``) the parent's plan is reused
        directly — it is value-independent by construction — without
        touching the cache counters.
        """
        config_hash = task_config_hash(
            self._backend.name, self._task, self._backend_options,
            bound_params=bound_params,
        )
        if self._session._plan_capacity > 0:
            inner = self._session._finish_compile(
                self._backend, bound_circuit, self._task, self._backend_options,
                config_hash, self._pass_info,
            )
            plan = inner._plan
            plan_key = inner._plan_key
            cache_hit = inner._cache_hit
            compile_seconds = inner._compile_seconds
            coalesced = inner._coalesced
        else:
            plan, plan_key = self._plan, self._plan_key
            cache_hit, compile_seconds, coalesced = True, 0.0, False
        return BoundExecutable(
            session=self._session,
            backend=self._backend,
            circuit=bound_circuit,
            task=self._task,
            backend_options=self._backend_options,
            config_hash=config_hash,
            plan=plan,
            plan_key=plan_key,
            cache_hit=cache_hit,
            compile_seconds=compile_seconds,
            pass_info=self._pass_info,
            coalesced=coalesced,
            parent=self,
            bound_params=bound_params,
        )

    def bind(self, params: Mapping) -> "BoundExecutable":
        """Bind every free parameter; return a runnable :class:`BoundExecutable`.

        This is the cheap half of the compile/bind split: all
        structure-dependent work (passes, noise binding, the backend's plan
        search) happened once at :meth:`~repro.api.Session.compile` time, and
        binding only substitutes tensor *values* into the optimized circuit —
        an optimizer iteration costs one execute and zero plan searches.
        ``params`` maps parameter names (or :class:`~repro.circuits.\
parameters.Parameter` objects) to floats and must cover the free parameters
        exactly: missing names raise
        :class:`~repro.circuits.parameters.UnboundParameterError`, unknown
        names raise :class:`~repro.utils.validation.ValidationError`.  Raises
        after the owning session closes, like :meth:`run` does.
        """
        self._session._check_open()
        normalized = self._check_binding(params)
        bound_circuit = substitute(self._circuit, normalized)
        return self._rebind(bound_circuit, normalized)

    # ------------------------------------------------------------------
    # Gradients
    # ------------------------------------------------------------------
    def _shift_occurrences(self):
        """Every (instruction index, slot, expression) a gradient must shift.

        Validates eligibility: a free parameter reaching a gate outside
        :data:`PARAMETER_SHIFT_GATES` has no exact two-term shift rule.
        """
        occurrences = []
        for index, inst in enumerate(self._circuit):
            operation = inst.operation
            if not getattr(operation, "is_parametric_gate", False):
                continue
            for slot, expr in enumerate(operation.expressions):
                if not (expr.parameters & operation.free_parameters):
                    continue
                if operation.name not in PARAMETER_SHIFT_GATES:
                    raise ValidationError(
                        f"gate {operation.name!r} has no exact two-term "
                        f"parameter-shift rule (supported: "
                        f"{sorted(PARAMETER_SHIFT_GATES)})"
                    )
                occurrences.append((index, slot, expr))
        return occurrences

    @staticmethod
    def _shifted_circuit(bound_circuit: Circuit, index: int, slot: int, delta: float) -> Circuit:
        """Copy of ``bound_circuit`` with one gate occurrence's angle shifted."""
        shifted = Circuit(bound_circuit.num_qubits, name=bound_circuit.name)
        for i, inst in enumerate(bound_circuit):
            operation = inst.operation
            if i == index:
                operation = operation.shifted(slot, delta)
            shifted.append(operation, inst.qubits)
        return shifted

    def gradient(
        self, params: Mapping, observable: Any = None
    ) -> Dict[str, float]:
        """Gradient of the figure of merit at ``params``.

        Every gate occurrence whose angle depends on a free parameter gets a
        partial derivative ``∂θ f``, and the chain rule over the linear angle
        expression accumulates ``coeff · ∂θ f`` into each parameter's entry.

        With ``observable=None`` the differentiated objective is the
        compiled task's own figure of merit, ``bind(p).run().value`` with the
        compiled seed.  A backend that differentiates its compiled plan
        (:meth:`~repro.backends.base.SimulationBackend.angle_derivatives`;
        ``tn`` does, from one forward and one reverse replay) supplies exact
        derivatives, which agree with parameter shift to rounding (≤1e-10),
        not bit for bit.  Every other backend applies the exact two-term rule
        ``∂θ f = [f(θ+π/2) − f(θ−π/2)] / 2`` through each occurrence's
        post-evaluation angle offset
        (:meth:`~repro.circuits.parameters.ParametricGate.shifted`).  Offsets
        are excluded from the structural fingerprint, so all ``2K`` shifted
        evaluations replay the one compiled plan (cache hits, no plan
        searches), submitted concurrently via :meth:`submit`.  With an
        observable (anything :meth:`repro.simulators.TNSimulator.expectation`
        accepts) the objective is that operator's expectation on the bound
        circuit's output state, differentiated by parameter shift; this path
        contracts per evaluation rather than replaying the compiled plan.

        Returns ``{parameter name: partial derivative}`` over the free
        parameters.
        """
        self._session._check_open()
        normalized = self._check_binding(params)
        occurrences = self._shift_occurrences()
        bound_circuit = substitute(self._circuit, normalized)

        partials = None
        if observable is None:
            partials = self._backend.angle_derivatives(
                bound_circuit, self._task, self._plan, [index for index, _, _ in occurrences]
            )
        if partials is None:
            evaluations = self._shifted_evaluations(bound_circuit, normalized, occurrences, observable)
            partials = [
                (evaluations[2 * k] - evaluations[2 * k + 1]) / 2.0
                for k in range(len(occurrences))
            ]

        grad = {name: 0.0 for name in sorted(circuit_parameters(self._circuit))}
        for (_, _, expr), partial in zip(occurrences, partials):
            for name, coeff in expr.terms:
                if name in grad:
                    grad[name] += coeff * partial
        return grad

    def _shifted_evaluations(self, bound_circuit, normalized, occurrences, observable) -> list:
        """``[f(θ+π/2), f(θ−π/2)]`` per occurrence, flattened in occurrence order."""
        shifted = [
            self._shifted_circuit(bound_circuit, index, slot, sign * math.pi / 2.0)
            for index, slot, _ in occurrences
            for sign in (1.0, -1.0)
        ]
        if observable is None:
            futures = [self._rebind(circuit, normalized).submit() for circuit in shifted]
            return [future.result().value for future in futures]
        from repro.simulators import TNSimulator

        simulator = TNSimulator()
        return [
            float(simulator.expectation(circuit, observable, input_state=self._task.input_state))
            for circuit in shifted
        ]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _resolve_call(self, num_samples: int | None, seed: int | None):
        """Per-call task + provenance; counts the execution for cache_hit."""
        self._session._check_open()
        free = sorted(circuit_parameters(self._circuit))
        if free:
            raise UnboundParameterError(
                f"executable has unbound parameters {free}; call "
                "bind({name: value, ...}) and run the bound executable"
            )
        task = self._task
        if num_samples is not None:
            if num_samples <= 0:
                raise ValidationError("num_samples must be positive")
            task = dataclasses.replace(task, num_samples=int(num_samples))
        if seed is not None:
            task = dataclasses.replace(task, seed=int(seed))
        if task is self._task:
            config_hash = self._config_hash
        else:
            config_hash = task_config_hash(
                self._backend.name, task, self._backend_options,
                bound_params=self.bound_params,
            )
        with self._lock:
            reused = self._cache_hit or self._executions > 0
            self._executions += 1
        return task, config_hash, reused

    def run(
        self, *, num_samples: int | None = None, seed: int | None = None
    ) -> SimulationResult:
        """Execute the compiled simulation, blocking until the result.

        ``num_samples``/``seed`` override the compiled task's sampling budget
        and RNG seed for this call only (stochastic backends); with no
        overrides, every ``run()`` replays the exact compiled configuration —
        same seed, bit-identical value.
        """
        task, config_hash, reused = self._resolve_call(num_samples, seed)
        return self._execute(task, config_hash, reused)

    def _execute(self, task, config_hash, reused) -> SimulationResult:
        """Backend dispatch shared by run()/submit(), with pool recovery.

        A :class:`~repro.backends.WorkerPoolError` means the session's shared
        process pool lost a worker and is permanently broken; the session's
        pool is reset *before* re-raising, so the caller's retry — through
        this same executable, whose task holds an indirect pool handle —
        runs against a fresh pool.
        """
        try:
            outcome = self._backend.run(self._circuit, task, plan=self._plan)
        except WorkerPoolError:
            self._session.reset_pool()
            raise
        return SimulationResult.from_backend_result(
            outcome,
            seed=task.seed,
            config_hash=config_hash,
            cache_hit=reused,
        )

    def submit(
        self, *, num_samples: int | None = None, seed: int | None = None
    ) -> "Future[SimulationResult]":
        """Non-blocking :meth:`run`: dispatch on the session's thread pool."""
        task, config_hash, reused = self._resolve_call(num_samples, seed)

        def execute() -> SimulationResult:
            return self._execute(task, config_hash, reused)

        return self._session._dispatch_pool().submit(execute)

    # ------------------------------------------------------------------
    def samples_for_precision(
        self,
        target_standard_error: float,
        *,
        pilot_samples: int = 64,
        seed: int | None = None,
        max_samples: int = 1_000_000,
    ) -> int:
        """Trajectory count reaching ``target_standard_error``, via a pilot run.

        The pilot executes through this same executable (no recompilation),
        so the pilot and the final matched-precision run share one compiled
        plan; the post-pilot math is
        :func:`repro.simulators.trajectories.required_samples`.
        """
        from repro.simulators.trajectories import required_samples

        if target_standard_error <= 0:
            raise ValidationError("target_standard_error must be positive")
        if not self._backend.capabilities.stochastic:
            raise ValidationError(
                f"backend {self._backend.name!r} is not stochastic; "
                "samples_for_precision applies to the trajectory backends only"
            )
        pilot = self.run(num_samples=pilot_samples, seed=seed)
        return required_samples(
            pilot.value,
            pilot.standard_error,
            pilot_samples,
            target_standard_error,
            max_samples=max_samples,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Executable backend={self._backend.name!r} "
            f"config_hash={self._config_hash!r} cache_hit={self._cache_hit}>"
        )


class BoundExecutable(Executable):
    """A parametric executable with every parameter bound to a value.

    Produced by :meth:`Executable.bind`; behaves exactly like an
    :class:`Executable` (same ``run``/``submit``/``describe`` surface) whose
    circuit has the binding substituted in, and shares the parent's compiled
    plan — binding never repeats the structure-dependent work.  The binding
    is reported in ``describe()["bound_params"]`` and folded into
    :attr:`config_hash`, so two bindings of one structure are
    provenance-distinct while sharing one plan-cache entry.

    :meth:`bind` on a bound executable delegates to the *parent* parametric
    executable, so an optimizer loop can re-bind from whichever handle it
    holds.
    """

    __slots__ = ("_parent", "_bound_params")

    def __init__(self, *, parent: Executable, bound_params: Mapping[str, float], **kwargs) -> None:
        super().__init__(**kwargs)
        self._parent = parent
        self._bound_params = {
            str(name): float(value) for name, value in dict(bound_params).items()
        }

    @property
    def bound_params(self) -> Dict[str, float]:
        """The full parameter binding this executable runs under."""
        return dict(self._bound_params)

    @property
    def parent(self) -> Executable:
        """The parametric executable this binding came from."""
        return self._parent

    def bind(self, params: Mapping) -> "BoundExecutable":
        """Re-bind from the parent parametric executable (optimizer loops)."""
        return self._parent.bind(params)

    def gradient(self, params: Mapping, observable: Any = None) -> Dict[str, float]:
        """Gradient via the parent (see :meth:`Executable.gradient`)."""
        return self._parent.gradient(params, observable)

    def expectation(self, observable: Any) -> float:
        """Expectation of ``observable`` on this binding's output state.

        Contracts via :meth:`repro.simulators.TNSimulator.expectation`
        (lightcone-pruned per Pauli term); unlike :meth:`run` this does not
        replay the compiled plan, so it is the right tool for occasional
        energy readouts, not the hot loop.
        """
        from repro.simulators import TNSimulator

        self._session._check_open()
        return float(
            TNSimulator().expectation(
                self._circuit, observable, input_state=self._task.input_state
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = ",".join(sorted(self._bound_params))
        return (
            f"<BoundExecutable backend={self._backend.name!r} "
            f"params=[{names}] config_hash={self._config_hash!r}>"
        )
