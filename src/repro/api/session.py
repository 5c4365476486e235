"""The session layer: one typed entry point for every simulation.

:class:`Session` is the front door the CLI, the sweep subsystem, the
benchmark harness and the examples all share.  It

* resolves backends through the registry (names, aliases, or ``"auto"``) and
  checks their capability flags against the circuit *before* dispatch;
* owns the shared :class:`~concurrent.futures.ProcessPoolExecutor` the
  batched trajectory engine distributes over, so many tasks amortise one
  pool start-up;
* resolves RNG seeds eagerly (session seed → per-submission derived seed) so
  every result carries the seed that actually drove it;
* splits every dispatch into **compile** (noise binding, backend resolution,
  boundary-state materialisation, the backend's plan search) and **execute**:
  :meth:`Session.compile` returns an immutable
  :class:`~repro.api.Executable` whose ``run()``/``submit()`` pay only the
  execution cost, and a bounded LRU plan cache keyed by
  :func:`~repro.api.executable.plan_cache_key` makes the blocking
  :meth:`Session.run` and non-blocking :meth:`Session.submit` wrappers hit
  compiled plans transparently on repeated configurations
  (:meth:`Session.cache_stats` exposes the hit/miss/eviction counters);
* memoizes the *front half* of compile (noise binding, ``output_state``
  resolution, the pass pipeline) beside the plan it resolved to, so a
  repeated configuration with pinned noise goes straight to its cached plan
  and a :meth:`Session.run` hit costs little more than
  :meth:`Executable.run <repro.api.Executable.run>`;
* returns one unified :class:`~repro.api.SimulationResult` from every path.

Example — one blocking call and a two-backend async batch::

    >>> from repro.api import Session
    >>> from repro.circuits.library import ghz_circuit
    >>> with Session(seed=7) as session:
    ...     blocking = session.run(ghz_circuit(2), backend="tn")
    ...     futures = [session.submit(ghz_circuit(2), backend=name)
    ...                for name in ("statevector", "tn")]
    ...     batch = [future.result() for future in futures]
    >>> round(blocking.value, 6)
    0.5
    >>> [round(result.value, 6) for result in batch]
    [0.5, 0.5]

:func:`simulate` wraps a one-shot session for the common single-call case::

    >>> from repro.api import simulate
    >>> result = simulate(ghz_circuit(2), noise={"channel": "depolarizing",
    ...                                          "parameter": 0.01, "count": 2,
    ...                                          "seed": 1}, backend="tn")
    >>> result.backend, result.value < 1.0
    ('tn', True)
"""

from __future__ import annotations

import collections
import dataclasses
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Dict, Mapping, NamedTuple

import numpy as np

from repro.api.executable import Executable, one_shot_result, plan_cache_key
from repro.api.noise import NoiseSpec, apply_noise, canonical_noise
from repro.api.result import (
    SimulationResult,
    hash_payload,
    structural_config_payload,
    task_config_hash,
)
from repro.backends.base import SimulationBackend, SimulationTask
from repro.backends.registry import get_backend
from repro.circuits.circuit import Circuit
from repro.circuits.parameters import circuit_parameters, substitute
from repro.circuits.passes import PassConfig, run_passes
from repro.utils.seeds import stable_seed
from repro.utils.validation import ValidationError

__all__ = ["Session", "ideal_output_state", "simulate"]

#: Preference order of the ``backend="auto"`` resolution: the first backend
#: whose capability flags accept the circuit wins (exact backends first).
_AUTO_PREFERENCE = ("statevector", "tn")


def ideal_output_state(circuit: Circuit) -> np.ndarray:
    """Dense ideal output state ``U|0…0⟩`` of ``circuit`` with noise stripped.

    This is what ``output_state="ideal"`` resolves to: the fidelity then
    measures how much of the intended computation survives the noise.
    """
    from repro.simulators import StatevectorSimulator

    ideal = circuit.without_noise() if circuit.noise_count() else circuit
    return StatevectorSimulator().run(ideal)


class _Front(NamedTuple):
    """The memoized front half of one compile: all a repeat needs from it."""

    #: The optimized circuit (the memo's own copy; executables get copies).
    circuit: Circuit
    pass_info: Mapping[str, Any]
    output_state: Any
    #: The resolved backend name (what ``"auto"`` picked).
    backend: str
    plan_key: str


class _PlanEntry:
    """One plan-cache slot: a compiled plan and the fronts that resolved to it."""

    __slots__ = ("plan", "fronts")

    def __init__(self, plan: Any) -> None:
        self.plan = plan
        self.fronts: Dict[str, _Front] = {}


class _PoolHandle:
    """Stable executor handle resolving to the session's *current* pool.

    Compiled tasks carry this handle instead of the raw
    :class:`~concurrent.futures.ProcessPoolExecutor`, so when a broken pool
    is discarded (:meth:`Session.reset_pool`) every existing
    :class:`~repro.api.Executable` transparently picks up the replacement on
    its next run — pool recovery never invalidates compiled plans.  When the
    session has no usable pool (pool-less environments), ``map`` degrades to
    the serial built-in, which is bit-identical because the engine's block
    seeding makes values independent of the work distribution.
    """

    __slots__ = ("_session",)

    def __init__(self, session: "Session") -> None:
        self._session = session

    def map(self, fn, *iterables):
        pool = self._session._shared_pool()
        if pool is None:
            return map(fn, *iterables)
        return pool.map(fn, *iterables)


class Session:
    """Shared-resource facade over the backend registry (see module docs).

    Parameters
    ----------
    workers:
        Default process count for the stochastic backends *and* the size of
        the session's shared process pool.  ``None`` and ``1`` run
        trajectories in-process, ``k > 1`` on the shared pool; the engine's
        seeded RNG blocks make the values identical for every setting.
    max_parallel:
        Concurrent :meth:`submit` dispatches (default: CPU count, capped at 8).
    seed:
        Base seed for tasks that do not carry their own: submission ``i``
        of a stochastic task derives the stable seed ``(seed, i)``, so a
        session's batch is reproducible end-to-end.
    plan_cache_size:
        Capacity of the session's LRU cache of compiled backend plans
        (default 32 configurations; ``0`` disables plan caching, which is
        what the compile-amortisation benchmarks use as their uncached
        baseline).  :meth:`cache_stats` reports hits/misses/evictions.
    passes:
        Default optimizing-pass configuration applied during
        :meth:`compile` (``True`` = all passes, ``False`` = none, or a
        mapping / :class:`~repro.circuits.passes.PassConfig` of individual
        toggles; see :mod:`repro.circuits.passes`).  Overridable per call
        via the ``passes=`` argument of :meth:`compile`/:meth:`run`/
        :meth:`submit`.
    """

    def __init__(
        self,
        workers: int | None = None,
        max_parallel: int | None = None,
        seed: int | None = None,
        plan_cache_size: int = 32,
        passes: Any = True,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValidationError("workers must be >= 1")
        if max_parallel is not None and max_parallel < 1:
            raise ValidationError("max_parallel must be >= 1")
        if plan_cache_size < 0:
            raise ValidationError("plan_cache_size must be >= 0")
        self.workers = workers
        self.seed = seed
        self.passes = PassConfig.resolve(passes)
        self._max_parallel = max_parallel or min(8, os.cpu_count() or 2)
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        self._pool_failed = False
        self._dispatcher: ThreadPoolExecutor | None = None
        self._submissions = 0
        self._closed = False
        # Ideal output states keyed by the *ideal* circuit's fingerprint, so a
        # batch of output_state="ideal" tasks over equivalent circuits (e.g. a
        # sweep re-binding the same noise per cell) simulates |v> once.
        # LRU-bounded so a long-lived service session streaming distinct
        # circuits cannot accumulate 2**n-sized states without limit.
        self._ideal_outputs: "collections.OrderedDict" = collections.OrderedDict()
        # Compiled backend plans keyed by plan_cache_key (LRU, bounded).  Each
        # entry also holds the memoized fronts (noise binding, ideal output,
        # passes) that resolved to its plan; _fronts maps a front key to that
        # plan key, and a front leaves the index when its plan is evicted.
        self._plan_capacity = int(plan_cache_size)
        self._plans: "collections.OrderedDict[str, _PlanEntry]" = collections.OrderedDict()
        self._fronts: Dict[str, str] = {}
        self._plan_hits = 0
        self._plan_misses = 0
        self._plan_evictions = 0
        self._plan_coalesced = 0
        # In-flight compiles keyed by plan_cache_key: concurrent compiles of
        # one key deduplicate to a single plan search whose result (or error)
        # fans out to every waiter through the stored Future.
        self._inflight: Dict[str, Future] = {}
        self._pool_handle = _PoolHandle(self)
        self._pool_resets = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the session's pools and drop its caches; further dispatches raise.

        Compiled :class:`~repro.api.Executable` handles created by this
        session become unusable: their ``run()``/``submit()`` raise a
        :class:`~repro.utils.validation.ValidationError`.
        """
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
            dispatcher, self._dispatcher = self._dispatcher, None
            self._plans.clear()
            self._fronts.clear()
            self._ideal_outputs.clear()
        if dispatcher is not None:
            dispatcher.shutdown(wait=True)
        if pool is not None:
            pool.shutdown(wait=True)

    def _check_open(self) -> None:
        if self._closed:
            raise ValidationError(
                "session is closed (compiled executables die with their session)"
            )

    # ------------------------------------------------------------------
    # Shared executors
    # ------------------------------------------------------------------
    def _shared_pool(self) -> ProcessPoolExecutor | None:
        """Lazily-created process pool (None when workers<=1 or unavailable)."""
        if self.workers is None or self.workers <= 1:
            return None
        with self._lock:
            if self._pool is None and not self._pool_failed and not self._closed:
                try:
                    self._pool = ProcessPoolExecutor(max_workers=self.workers)
                except (OSError, ValueError):  # pragma: no cover - pool-less envs
                    self._pool_failed = True
            return self._pool

    def reset_pool(self) -> bool:
        """Discard the session's process pool; the next pooled run recreates it.

        The recovery half of worker-pool fault tolerance: a
        :class:`~repro.backends.WorkerPoolError` means a worker process died
        and the ``ProcessPoolExecutor`` is permanently broken.  Dropping it
        here (the broken pool is shut down without waiting) lets every
        compiled :class:`~repro.api.Executable` retry against a fresh pool —
        their tasks hold an indirect handle, never the raw pool.  Returns
        True when there was a pool to discard.
        """
        with self._lock:
            pool, self._pool = self._pool, None
            self._pool_failed = False
            if pool is not None:
                self._pool_resets += 1
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        return pool is not None

    def _dispatch_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._dispatcher is None:
                self._dispatcher = ThreadPoolExecutor(
                    max_workers=self._max_parallel,
                    thread_name_prefix="repro-session",
                )
            return self._dispatcher

    # ------------------------------------------------------------------
    # Backend / task resolution
    # ------------------------------------------------------------------
    def backend(self, name: str = "auto", circuit: Circuit | None = None, **options) -> SimulationBackend:
        """Resolve ``name`` (a registry name, alias, or ``"auto"``) to an adapter."""
        if name == "auto":
            if circuit is None:
                raise ValidationError("backend='auto' needs a circuit to inspect")
            for candidate in _AUTO_PREFERENCE:
                backend = get_backend(candidate, **options)
                if backend.supports(circuit) is None:
                    return backend
            raise ValidationError(
                f"no auto backend accepts this circuit "
                f"({circuit.num_qubits} qubits, {circuit.noise_count()} noises)"
            )
        return get_backend(name, **options)

    def _build_task(
        self,
        *,
        task: SimulationTask | None,
        level: int | None,
        samples: int | None,
        seed: int | None,
        workers: int | None,
        input_state: Any,
        output_state: Any,
        keep_samples: bool,
        max_bond_dim: int | None,
    ) -> SimulationTask:
        if task is not None:
            overrides = {
                "level": level, "samples": samples, "seed": seed,
                "input_state": input_state, "max_bond_dim": max_bond_dim,
            }
            conflicting = sorted(key for key, value in overrides.items() if value is not None)
            if conflicting or keep_samples:
                raise ValidationError(
                    "pass either a prepared task or per-field arguments, not both "
                    f"(got task plus {', '.join(conflicting) or 'keep_samples'})"
                )
            built = task
            if workers is not None:
                built = dataclasses.replace(built, workers=workers)
            if output_state is not None:
                built = dataclasses.replace(built, output_state=output_state)
        else:
            if samples is not None and samples <= 0:
                raise ValidationError("samples must be positive")
            if level is not None and level < 0:
                raise ValidationError("level must be non-negative")
            built = SimulationTask(
                input_state=input_state,
                output_state=output_state,
                num_samples=1000 if samples is None else int(samples),
                level=1 if level is None else int(level),
                seed=seed,
                workers=workers,
                keep_samples=keep_samples,
                max_bond_dim=max_bond_dim,
            )
        if built.workers is not None and built.workers < 1:
            raise ValidationError("workers must be >= 1")
        return built

    def _prepare(
        self,
        circuit: Circuit,
        backend_name: str,
        noise: Any,
        backend_options: Mapping[str, Any] | None,
        task: SimulationTask,
        passes: Any = None,
    ):
        """Resolve everything up front so submit() fails fast and runs pure.

        Returns ``(backend, circuit, task, config_hash, pass_info, lookup)``;
        ``lookup`` holds the keyword arguments :meth:`_finish_compile` needs
        to find (or record) this configuration's front.  The front half —
        noise binding, ``output_state="ideal"`` and the pass pipeline — is
        memoized beside the plan it resolved to (see :meth:`_front_key`), so
        a repeated configuration skips straight to its cached plan.  Backend,
        workers and seed are still resolved per call, and capability
        checking and the config hash still run.
        """
        self._check_open()
        with self._lock:
            index = self._submissions
            self._submissions += 1

        def submission_seed() -> int:
            """One seed per submission: session-derived, else freshly drawn."""
            if self.seed is not None:
                return stable_seed(self.seed, "task", index)
            return int(np.random.default_rng().integers(2**63))

        # Noise injection consumes the task seed as its fallback; resolve it
        # *before* applying noise so the recorded seed is the one that placed
        # the noises and a replay with result.seed reproduces the run.  A seed
        # drawn here differs on every call, so that compile bypasses the memo
        # (it could never repeat, and would only flush entries that can).
        spec = canonical_noise(noise)
        memoize = self._plan_capacity > 0
        if spec is not None and spec.seed is None:
            if task.seed is None:
                task = dataclasses.replace(task, seed=submission_seed())
                memoize = False
            spec = spec._replace(seed=task.seed)
        pass_config = self.passes if passes is None else PassConfig.resolve(passes)
        options = dict(backend_options or {})
        front = front_key = None
        if memoize:
            start = time.perf_counter()
            front_key = self._front_key(
                circuit, backend_name, spec, backend_options, task, pass_config
            )
            with self._lock:
                entry = self._plans.get(self._fronts.get(front_key))
                if entry is not None:
                    front = entry.fronts.get(front_key)
            lookup_seconds = time.perf_counter() - start
        if front is None:
            circuit = apply_noise(circuit, noise, seed=task.seed)
            if isinstance(task.output_state, str) and task.output_state == "ideal":
                if circuit_parameters(circuit):
                    raise ValidationError(
                        "output_state='ideal' depends on the parameter values; "
                        "substitute() the binding into the circuit first (or pass "
                        "an explicit output state) instead of compiling unbound"
                    )
                task = dataclasses.replace(task, output_state=self._ideal_output(circuit))
            backend = self.backend(backend_name, circuit, **options)
            # The optimizing passes run on the fully resolved circuit (noise
            # bound, boundaries known) and before capability checking, so the
            # backend validates what it will actually execute.
            circuit, pass_info = self._optimize(circuit, pass_config, backend, task)
            lookup = {"front_key": front_key}
        else:
            circuit = front.circuit
            task = dataclasses.replace(task, output_state=front.output_state)
            backend = get_backend(front.backend, **options)
            # The pipeline did not run for this call: its report is the
            # memoized one, at zero cost.
            pass_info = {**front.pass_info, "seconds": 0.0}
            lookup = {"plan_key": front.plan_key, "lookup_seconds": lookup_seconds}
        stochastic = backend.capabilities.stochastic
        if stochastic:
            if task.workers is None and self.workers is not None:
                task = dataclasses.replace(task, workers=self.workers)
            if task.seed is None:
                task = dataclasses.replace(task, seed=submission_seed())
            if (
                task.executor is None
                and task.workers is not None
                and task.workers > 1
            ):
                if self._shared_pool() is not None:
                    # The indirect handle, not the raw pool: reset_pool() then
                    # transparently re-routes every compiled executable.
                    task = dataclasses.replace(task, executor=self._pool_handle)
        backend.check_supported(circuit, task)
        config_hash = task_config_hash(backend.name, task, backend_options)
        return backend, circuit, task, config_hash, pass_info, lookup

    def _front_key(
        self,
        circuit: Circuit,
        backend_name: str,
        spec: NoiseSpec | None,
        backend_options: Mapping[str, Any] | None,
        task: SimulationTask,
        pass_config: PassConfig,
    ) -> str:
        """Identity of a compile's front half, from its *unresolved* inputs.

        Covers everything the front half and the resolutions after it read:
        the input circuit's fingerprint, the canonical noise spec with its
        resolved injection seed, the requested backend (``"auto"`` stays
        ``"auto"``) and its options, the boundary states as passed
        (``"ideal"`` is the string), the bond ceiling and the pass config.
        Built on the payload
        :func:`~repro.api.result.task_config_hash` and
        :func:`~repro.api.executable.plan_cache_key` share.
        """
        payload = structural_config_payload(backend_name, task, backend_options)
        payload.update(
            circuit=circuit.fingerprint(),
            noise=spec,
            passes=pass_config.to_dict(),
        )
        return hash_payload(payload)

    def _optimize(self, circuit: Circuit, config: PassConfig, backend, task):
        """Run the optimizing pass pipeline; returns (circuit, pass report).

        The pipeline intersects the caller's config with the backend's
        :meth:`~repro.backends.SimulationBackend.pass_profile`; its wall-clock
        cost is reported separately from the backend's plan search
        (``describe()["passes"]["seconds"]`` vs ``compile_seconds``).
        """
        if not config.enabled():
            return circuit, {"config": config.to_dict(), "stats": None, "seconds": 0.0}
        n = circuit.num_qubits
        input_state = "0" * n if task.input_state is None else task.input_state
        output_state = "0" * n if task.output_state is None else task.output_state
        start = time.perf_counter()
        optimized, stats = run_passes(
            circuit,
            config,
            backend.pass_profile(),
            input_state=input_state,
            output_state=output_state,
        )
        seconds = time.perf_counter() - start
        return optimized, {
            "config": config.to_dict(),
            "stats": stats.to_dict(),
            "seconds": seconds,
        }

    #: Distinct circuits whose ideal output states a session keeps cached.
    _IDEAL_CACHE_SIZE = 8

    def _ideal_output(self, circuit: Circuit) -> np.ndarray:
        """Session-cached :func:`ideal_output_state` (one |v> per ideal circuit).

        Keyed by the noise-stripped circuit's content fingerprint, so
        equivalent circuits — e.g. a sweep re-binding the same noise model
        per cell, or the same circuit under different noise seeds — share one
        dense simulation.
        """
        ideal = circuit.without_noise() if circuit.noise_count() else circuit
        key = ideal.fingerprint()
        with self._lock:
            if key in self._ideal_outputs:
                self._ideal_outputs.move_to_end(key)
                return self._ideal_outputs[key]
        state = ideal_output_state(circuit)
        with self._lock:
            self._ideal_outputs[key] = state
            self._ideal_outputs.move_to_end(key)
            while len(self._ideal_outputs) > self._IDEAL_CACHE_SIZE:
                self._ideal_outputs.popitem(last=False)
        return state

    # ------------------------------------------------------------------
    # Compile / execute
    # ------------------------------------------------------------------
    def compile(
        self,
        circuit: Circuit,
        backend: str = "auto",
        *,
        noise: Any = None,
        task: SimulationTask | None = None,
        backend_options: Mapping[str, Any] | None = None,
        level: int | None = None,
        samples: int | None = None,
        seed: int | None = None,
        workers: int | None = None,
        input_state: Any = None,
        output_state: Any = None,
        keep_samples: bool = False,
        max_bond_dim: int | None = None,
        passes: Any = None,
    ) -> Executable:
        """Perform all one-time work now; return an :class:`~repro.api.Executable`.

        Compilation binds the noise (using the resolved seed, so the noisy
        structure is fixed from here on), resolves the backend and checks its
        capabilities, materialises boundary states (``output_state="ideal"``
        becomes the dense ideal output), runs the optimizing pass pipeline
        (superoperator gate fusion, deterministic noise folding, boundary
        pruning — see :mod:`repro.circuits.passes`; ``passes=`` overrides
        the session default, and the report lands in
        ``Executable.describe()["passes"]``), resolves the RNG seed, and
        performs the backend's own plan search (contraction-schedule
        recording, trajectory-context preparation, noise SVD decompositions)
        — reusing a previously compiled plan from the session's LRU cache
        when an equivalent configuration was compiled before (see
        :func:`~repro.api.executable.plan_cache_key`; ``seed``, ``samples``,
        ``level`` and ``workers`` do not fragment the cache, and the key
        covers the *optimized* circuit, so pass-on and pass-off compiles of
        one circuit never collide).

        A repeat of the same inputs (circuit, pinned noise, backend and
        options, boundary states, passes) skips the noise binding, ``"ideal"`` resolution and pass pipeline too: the
        memoized front maps them straight to the optimized circuit and its
        cached plan, bit-identical to compiling from cold.  The returned
        ``compile_seconds`` is the plan search on a miss and the measured
        lookup cost on a hit.

        The returned handle executes any number of times at pure execution
        cost::

            executable = session.compile(circuit, backend="tn")
            results = [executable.run() for _ in range(1000)]   # no re-planning

        One caveat: a noise mapping without a pinned ``"seed"`` (and no task
        ``seed`` to fall back on) draws a fresh injection seed per call,
        which is a *genuinely different* noisy structure every time, so such
        a compile bypasses the front memo — pin the noise seed (or pre-bind
        the noise into the circuit) when the same structure should be served
        repeatedly.  A malformed noise mapping raises
        :class:`~repro.utils.validation.ValidationError`.
        """
        built = self._build_task(
            task=task, level=level, samples=samples, seed=seed, workers=workers,
            input_state=input_state, output_state=output_state,
            keep_samples=keep_samples, max_bond_dim=max_bond_dim,
        )
        resolved, circuit, built, config_hash, pass_info, lookup = self._prepare(
            circuit, backend, noise, backend_options, built, passes
        )
        return self._finish_compile(
            resolved, circuit, built, backend_options, config_hash, pass_info, **lookup
        )

    def _finish_compile(
        self,
        resolved: SimulationBackend,
        circuit: Circuit,
        built: SimulationTask,
        backend_options: Mapping[str, Any] | None,
        config_hash: str,
        pass_info: Mapping[str, Any] | None = None,
        *,
        plan_key: str | None = None,
        front_key: str | None = None,
        lookup_seconds: float = 0.0,
    ) -> Executable:
        """Plan-cache lookup, in-flight deduplication, backend plan search.

        ``plan_key`` comes from a memoized front (the optimized circuit is
        then not fingerprinted again) and ``lookup_seconds`` is what finding
        that front cost; ``front_key`` names a front computed for this call,
        which is recorded on the plan entry the call resolves to.

        Concurrent compiles of one ``plan_cache_key`` deduplicate: the first
        caller (the *owner*) performs the backend's plan search outside the
        lock while every concurrent caller of the same key waits on the
        owner's Future — one miss total, the waiters count as ``coalesced``.
        An owner that fails fans the exception out to its waiters and removes
        the in-flight entry, so a failed compile never poisons the key: the
        next caller simply compiles again.
        """
        start = time.perf_counter()
        key = plan_key or plan_cache_key(resolved.name, circuit, built, backend_options)
        owner_future: Future | None = None
        wait_future: Future | None = None
        cache_hit = False
        coalesced = False
        plan = None
        with self._lock:
            if key in self._plans:
                self._plans.move_to_end(key)
                plan = self._plans[key].plan
                self._plan_hits += 1
                cache_hit = True
            elif self._plan_capacity > 0 and key in self._inflight:
                wait_future = self._inflight[key]
                self._plan_coalesced += 1
                coalesced = True
            else:
                self._plan_misses += 1
                if self._plan_capacity > 0:
                    owner_future = Future()
                    self._inflight[key] = owner_future
        # A hit reports what finding the plan cost (front and plan lookups).
        compile_seconds = lookup_seconds + time.perf_counter() - start
        if wait_future is not None:
            # Coalesced: block until the owner's plan search resolves.  The
            # wait is this caller's compile share; an owner failure re-raises
            # here, exactly as if this caller had compiled itself.
            start = time.perf_counter()
            plan = wait_future.result()
            compile_seconds = time.perf_counter() - start
            cache_hit = True
        elif not cache_hit:
            # The backend's plan search runs outside the lock, so distinct
            # keys never block each other.  A circuit with free parameters is
            # planned from a placeholder binding (all zeros): every run of
            # a parametric circuit re-prepares this plan as the template of
            # its bound values (SimulationBackend.run), so any binding
            # records an equally good plan.
            plan_circuit = circuit
            free = circuit_parameters(circuit)
            if free:
                plan_circuit = substitute(circuit, dict.fromkeys(free, 0.0))
            start = time.perf_counter()
            try:
                plan = resolved.compile(plan_circuit, built)
            except BaseException as exc:
                if owner_future is not None:
                    with self._lock:
                        self._inflight.pop(key, None)
                    owner_future.set_exception(exc)
                raise
            compile_seconds = time.perf_counter() - start
            if self._plan_capacity > 0:
                with self._lock:
                    if not self._closed:
                        self._plans[key] = _PlanEntry(plan)
                        while len(self._plans) > self._plan_capacity:
                            _, evicted = self._plans.popitem(last=False)
                            for evicted_front in evicted.fronts:
                                self._fronts.pop(evicted_front, None)
                            self._plan_evictions += 1
                    self._inflight.pop(key, None)
                if owner_future is not None:
                    owner_future.set_result(plan)
        if front_key is not None:
            self._remember_front(front_key, key, _Front(
                circuit.copy(), pass_info, built.output_state, resolved.name, key
            ))
        return Executable(
            session=self,
            backend=resolved,
            # Every executable owns its circuit: mutating one never reaches
            # the memo or another executable.
            circuit=circuit.copy(),
            task=built,
            backend_options=backend_options,
            config_hash=config_hash,
            plan=plan,
            plan_key=key,
            cache_hit=cache_hit,
            compile_seconds=compile_seconds,
            pass_info=pass_info,
            coalesced=coalesced,
        )

    #: Fronts one plan entry keeps (distinct front keys rarely share a plan;
    #: the bound stops a pathological stream of them from growing one entry).
    _FRONTS_PER_PLAN = 8

    def _remember_front(self, front_key: str, plan_key: str, front: _Front) -> None:
        """Record ``front`` beside its plan entry (dropped if the plan is gone)."""
        with self._lock:
            entry = self._plans.get(plan_key)
            if entry is None:
                return
            entry.fronts[front_key] = front
            self._fronts[front_key] = plan_key
            while len(entry.fronts) > self._FRONTS_PER_PLAN:
                oldest = next(iter(entry.fronts))
                del entry.fronts[oldest]
                self._fronts.pop(oldest, None)

    def cache_stats(self) -> Dict[str, int]:
        """Plan-cache counters: hits, misses, coalesced, evictions, size, capacity.

        ``hits + misses + coalesced`` equals the number of :meth:`compile`
        calls (every ``run()``/``submit()``/``simulate()`` performs exactly
        one): a ``coalesced`` compile found the same key already being
        compiled by a concurrent caller and shared that single in-flight
        plan search — K identical concurrent compiles cost exactly one miss.
        ``inflight`` is the number of plan searches currently running.
        """
        with self._lock:
            return {
                "hits": self._plan_hits,
                "misses": self._plan_misses,
                "coalesced": self._plan_coalesced,
                "evictions": self._plan_evictions,
                "size": len(self._plans),
                "capacity": self._plan_capacity,
                "inflight": len(self._inflight),
            }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        circuit: Circuit,
        backend: str = "auto",
        *,
        noise: Any = None,
        task: SimulationTask | None = None,
        backend_options: Mapping[str, Any] | None = None,
        level: int | None = None,
        samples: int | None = None,
        seed: int | None = None,
        workers: int | None = None,
        input_state: Any = None,
        output_state: Any = None,
        keep_samples: bool = False,
        max_bond_dim: int | None = None,
        passes: Any = None,
    ) -> SimulationResult:
        """Simulate ``circuit`` on ``backend``, blocking until the result.

        A thin wrapper over :meth:`compile` + :meth:`Executable.run`: the
        one-time work hits the session's plan cache transparently, so
        repeated calls with an equivalent configuration pay only execution
        (``result.cache_hit`` records which happened; on a miss the result's
        ``elapsed_seconds`` includes the compile time this one-shot call
        actually paid, keeping timings comparable with pre-compiled-plan
        records).  Either pass a prepared
        :class:`~repro.backends.SimulationTask` via ``task`` or the
        individual method knobs (``level``, ``samples``, ``seed``, …) — not
        both.  ``output_state="ideal"`` scores against the circuit's own
        ideal output ``U|0…0⟩``.
        """
        return one_shot_result(
            self.compile(
                circuit,
                backend,
                noise=noise,
                task=task,
                backend_options=backend_options,
                level=level,
                samples=samples,
                seed=seed,
                workers=workers,
                input_state=input_state,
                output_state=output_state,
                keep_samples=keep_samples,
                max_bond_dim=max_bond_dim,
                passes=passes,
            )
        )

    def submit(
        self,
        circuit: Circuit,
        backend: str = "auto",
        *,
        noise: Any = None,
        task: SimulationTask | None = None,
        backend_options: Mapping[str, Any] | None = None,
        level: int | None = None,
        samples: int | None = None,
        seed: int | None = None,
        workers: int | None = None,
        input_state: Any = None,
        output_state: Any = None,
        keep_samples: bool = False,
        max_bond_dim: int | None = None,
        passes: Any = None,
    ) -> "Future[SimulationResult]":
        """Non-blocking :meth:`run`: dispatch now, read the result later.

        Resolution — backend lookup, capability checking, noise binding and
        seed resolution — happens *before* this method returns (invalid
        submissions raise immediately, and seeds depend only on submission
        order), so for identical seeds a ``submit()`` batch is
        value-identical to sequential ``run()`` calls.  The backend's plan
        search and the execution both run on the dispatch pool (hitting the
        session's plan cache there), so a batch of heavy submissions does
        not serialize its compile work in the caller thread; to compile
        eagerly instead, use :meth:`compile` + :meth:`Executable.submit`.
        """
        built = self._build_task(
            task=task, level=level, samples=samples, seed=seed, workers=workers,
            input_state=input_state, output_state=output_state,
            keep_samples=keep_samples, max_bond_dim=max_bond_dim,
        )
        resolved, circuit, built, config_hash, pass_info, lookup = self._prepare(
            circuit, backend, noise, backend_options, built, passes
        )

        def execute() -> SimulationResult:
            return one_shot_result(
                self._finish_compile(
                    resolved, circuit, built, backend_options, config_hash, pass_info,
                    **lookup,
                )
            )

        return self._dispatch_pool().submit(execute)

    # ------------------------------------------------------------------
    # Method-specific helpers
    # ------------------------------------------------------------------
    def samples_for_precision(
        self,
        circuit: Circuit,
        target_standard_error: float,
        backend: str = "trajectories",
        *,
        pilot_samples: int = 64,
        seed: int | None = None,
        max_samples: int = 1_000_000,
        input_state: Any = None,
        output_state: Any = None,
    ) -> int:
        """Trajectory count for ``backend`` to reach ``target_standard_error``.

        Compiles one :class:`~repro.api.Executable` and runs the short pilot
        through it (:meth:`Executable.samples_for_precision`), so a caller
        that compiles the same configuration for the final matched-precision
        run shares the pilot's plan via the session cache; raises
        :class:`~repro.utils.validation.ValidationError` for non-stochastic
        backends.
        """
        self._check_open()
        resolved = self.backend(backend, circuit)
        if not resolved.capabilities.stochastic:
            raise ValidationError(
                f"backend {resolved.name!r} is not stochastic; "
                "samples_for_precision applies to the trajectory backends only"
            )
        executable = self.compile(
            circuit,
            backend,
            samples=pilot_samples,
            seed=seed,
            input_state=input_state,
            output_state=output_state,
        )
        return executable.samples_for_precision(
            target_standard_error,
            pilot_samples=pilot_samples,
            seed=seed,
            max_samples=max_samples,
        )


def simulate(
    circuit: Circuit,
    *,
    noise: Any = None,
    backend: str = "auto",
    level: int | None = None,
    samples: int | None = None,
    seed: int | None = None,
    workers: int | None = None,
    input_state: Any = None,
    output_state: Any = None,
    keep_samples: bool = False,
    max_bond_dim: int | None = None,
    backend_options: Mapping[str, Any] | None = None,
    passes: Any = True,
) -> SimulationResult:
    """One-call convenience: run ``circuit`` through a one-shot :class:`Session`.

    >>> from repro.api import simulate
    >>> from repro.circuits.library import ghz_circuit
    >>> round(simulate(ghz_circuit(2), backend="tn").value, 6)
    0.5
    """
    with Session(workers=workers) as session:
        return session.run(
            circuit,
            backend,
            noise=noise,
            level=level,
            samples=samples,
            seed=seed,
            input_state=input_state,
            output_state=output_state,
            keep_samples=keep_samples,
            max_bond_dim=max_bond_dim,
            backend_options=backend_options,
            passes=passes,
        )
