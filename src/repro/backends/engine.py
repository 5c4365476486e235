"""Batched parallel trajectory execution engine.

Replaces the per-sample Python loop of the quantum-trajectories method with
two batched hot paths:

* **statevector** — the trajectories of up to :data:`PASS_BLOCKS` RNG
  blocks are evolved in one grouped pass as a ``(G, 2**n)`` array holding a
  single state per *distinct Kraus history* so far (at the paper's noise
  rates almost all trajectories share a history, so G stays far below the
  sample count), plus a sample → group index.  Gates are applied with one
  einsum-style ``tensordot`` per gate over the G states; at a channel the
  exact Born probabilities are computed once per group, every trajectory
  draws from its group's cdf with its own uniform, and the groups split by
  (group, branch).  G is capped by ``max_batch_entries`` (states × ``2**n``
  entries): a split that yields more groups continues depth-first on runs
  of at most the cap, each with its own samples.  The final overlaps are
  gathered back to the samples.
* **tn** — the amplitude network of a trajectory has the same topology for
  every sample (only the sampled Kraus tensor *values* change), so the node /
  edge construction and the greedy contraction-ordering work are done once on
  a template; every distinct trajectory of a block is an index row of drawn
  Kraus operators, all of them replay it in one batched pass through
  :meth:`repro.tensornetwork.plan.SpecializedPlan.execute_rows`
  (state-independent Kraus sampling with importance weights), and samples
  gather their row's amplitude.

Grouping never changes which Kraus operators a sample draws: the per-sample
values (to fp rounding), the estimator and its standard error are those of a
one-state-per-sample evolution, and only the wall time falls.

Samples are split into fixed-size blocks of :data:`RNG_BLOCK` trajectories
and block ``b`` draws one uniform per (sample, channel), sample-major, from
the independent stream ``default_rng([seed, b])``.  Results therefore depend
only on the seed, never on the worker count: ``workers=None`` and
``workers=1`` run the blocks in-process, ``workers=k > 1`` on a
``concurrent.futures`` process pool, all with identical values.  (numpy's
``default_rng([s, 0])`` is the same stream as ``default_rng(s)``, so block 0
is the plain seeded stream.)  A grouped statevector pass concatenates its
blocks' uniforms and hands the values back per block, so the streaming
estimator merges them in block order whatever the pass layout.

Both hot paths dispatch their dense math through an
:class:`repro.xp.ArrayNamespace` (``device=`` on the constructor).  Gate and
Kraus tensors are transferred once per prepared context and cached per
namespace; the capped group-state buffer comes from the namespace
``workspace`` cache; sampling decisions (Born probabilities, cdfs, choices)
run on the host from small transferred weight vectors, so the same uniforms
produce the same trajectories on every device.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.circuits.circuit import Circuit
from repro.simulators.statevector import apply_matrix
from repro.tensornetwork.circuit_to_tn import (
    KrausRowNetwork,
    StateLike,
    dense_product_state,
    operator_tensor,
)
from repro.utils.validation import ValidationError
from repro.xp import declare_seam, get_namespace
from repro.xp import host as np

declare_seam(__name__, mode="dispatch")

__all__ = ["BatchedTrajectoryEngine", "RNG_BLOCK", "WorkerPoolError", "apply_matrix_batched"]


class WorkerPoolError(RuntimeError):
    """A caller-owned process pool broke mid-run (a worker process died).

    Raised instead of silently degrading to serial execution when the pool
    was supplied by the caller: a long-lived owner (e.g. a
    :class:`repro.api.Session` serving traffic) must learn that its pool is
    broken — a ``ProcessPoolExecutor`` never recovers once flagged — so it
    can tear the pool down, recreate it, and retry.  Self-created per-call
    pools keep the historical serial fallback, which is bit-identical
    because block seeding makes values independent of the distribution.
    """

#: Trajectories per RNG block.  Fixed — not a tuning knob — so that results
#: are reproducible across worker counts.
RNG_BLOCK = 256

#: RNG blocks per grouped statevector pass.  Fixed like :data:`RNG_BLOCK`,
#: though values never depend on it: a pass holds one uniform per (sample,
#: channel) of up to ``PASS_BLOCKS * RNG_BLOCK`` samples, so million-sample
#: runs stream through bounded host memory.
PASS_BLOCKS = 64


def _apply_gate_tensor(tensor, gate_tensor, qubits: Sequence[int], num_qubits: int, xp):
    """Apply a reshaped gate tensor to a batched state, returning a lazy transpose view."""
    qubits = [int(q) for q in qubits]
    k = len(qubits)
    axes = [q + 1 for q in qubits]
    contracted = xp.tensordot(gate_tensor, tensor, axes=(list(range(k, 2 * k)), axes))
    order = list(axes) + [ax for ax in range(num_qubits + 1) if ax not in axes]
    return xp.transpose(contracted, np.argsort(order))


def apply_matrix_batched(
    states, matrix, qubits: Sequence[int], num_qubits: int, xp=None
):
    """Apply ``matrix`` to the given qubits of every state in a ``(batch, 2**n)`` array.

    The batched analogue of :func:`repro.simulators.statevector.apply_matrix`:
    one ``tensordot`` contracts the gate's input axes with the qubit axes of
    the whole batch at once.  ``matrix`` is host data; ``states`` must already
    live on ``xp``'s device (default: host numpy).
    """
    if xp is None:
        xp = get_namespace("cpu")
    matrix = np.asarray(matrix, dtype=complex)
    k = len(qubits)
    if matrix.shape != (2**k, 2**k):
        raise ValidationError(f"matrix shape {matrix.shape} does not match {k} qubits")
    batch = states.shape[0]
    gate_tensor = xp.asarray(matrix.reshape([2] * (2 * k)))
    tensor = xp.reshape(xp.asarray(states, dtype=xp.complex_dtype), [batch] + [2] * num_qubits)
    return xp.reshape(
        _apply_gate_tensor(tensor, gate_tensor, qubits, num_qubits, xp), (batch, -1)
    )


def _kraus_branches(tensor, kraus_tensors, qubits: Sequence[int], xp):
    """All K branches ``E_k|ψ_g⟩`` of the group states from one ``tensordot``.

    ``kraus_tensors`` stacks a channel's Kraus operators on a leading axis.
    The raw (un-transposed, hence contiguous) result's axes are: branch, the
    k gate-output axes, then groups, then the spectator qubits.
    """
    k = len(qubits)
    axes = [int(q) + 1 for q in qubits]
    return xp.tensordot(kraus_tensors, tensor, axes=(list(range(k + 1, 2 * k + 1)), axes))


def _born_cdfs(raw, num_gate_qubits: int, xp) -> np.ndarray:
    """Per group, the host cdf over branches of the exact Born probabilities.

    The (groups, K) weights ``‖E_k|ψ_g⟩‖²`` come from a single float-view
    einsum pass over :func:`_kraus_branches`' raw output, with no conjugate
    temporaries; only these small vectors cross back to the host.
    """
    num_branches = raw.shape[0]
    rows = raw.shape[num_gate_qubits + 1]
    floats = xp.view_real(xp.reshape(raw, (num_branches, 2**num_gate_qubits, rows, -1)))
    probabilities = xp.to_host(xp.einsum("basd,basd->sb", floats, floats))
    totals = probabilities.sum(axis=1)
    if np.any(totals <= 0):
        raise ValidationError("trajectory collapsed to zero norm (invalid channel?)")
    probabilities = probabilities / totals[:, None]
    cdf = np.cumsum(probabilities, axis=1)
    return cdf / cdf[:, -1:]


def _select_branches(raw, keys: np.ndarray, qubits: Sequence[int], num_qubits: int, cap: int, xp):
    """The normalised new group states ``keys`` (``parent * K + branch``) of ``raw``.

    Selection gathers only each new group's branch through a lazy transpose
    view, so no branch is materialised in full, into the first rows of one
    ``(cap, 2**n)`` workspace buffer (keyed by the cap, never by the group
    count, so every channel and run of an estimate reuses one allocation).
    Overwriting it is safe: every read of the previous states happened in
    :func:`_kraus_branches`.  State tensors stay on the device.
    """
    parents, branches = np.divmod(keys, raw.shape[0])
    axes = [int(q) + 1 for q in qubits]
    order = axes + [ax for ax in range(num_qubits + 1) if ax not in axes]
    flat = xp.transpose(raw, [0] + [1 + ax for ax in np.argsort(order)])
    chosen = xp.workspace((cap, 2**num_qubits), tag="kraus_chosen")[: keys.size]
    chosen[:] = flat[branches, parents].reshape(keys.size, -1)
    floats = xp.view_real(chosen)
    norms = xp.sqrt(xp.einsum("bd,bd->b", floats, floats))
    chosen = xp.idivide(chosen, xp.reshape(norms, (keys.size, 1)))
    return xp.reshape(chosen, (keys.size,) + (2,) * num_qubits)


def _searchsorted_rows(cdf_rows: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Per-row ``searchsorted(cdf, u, side="right")`` for a (batch, K) cdf array."""
    return np.minimum(
        (cdf_rows <= uniforms[:, None]).sum(axis=1), cdf_rows.shape[1] - 1
    )


def _regroup(group: np.ndarray, choice: np.ndarray, num_branches: int):
    """Split sample groups by their drawn branch; returns ``(keys, group)``.

    Samples share a group while their Kraus histories agree.  Each new group
    is keyed ``parent * num_branches + branch`` (``keys`` is sorted) and the
    returned ``group`` maps every sample to its new group's position.  The
    1-D key keeps this a cheap 1-D ``np.unique`` per channel, where grouping
    whole history rows (``np.unique(..., axis=0)``) costs ~20x more.
    """
    return np.unique(group * num_branches + choice, return_inverse=True)


@dataclass
class _StreamStats:
    """Streaming mean/variance accumulator (Chan's parallel merge).

    Keeps the estimate and ``ddof=1`` standard error exact without retaining
    the per-sample values, so million-sample runs do not hold a
    million-element array unless the caller asks for the samples.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def merge_values(self, values: np.ndarray) -> None:
        if values.size == 0:
            return
        chunk_count = int(values.size)
        chunk_mean = float(values.mean())
        chunk_m2 = float(((values - chunk_mean) ** 2).sum())
        if self.count == 0:
            self.count, self.mean, self.m2 = chunk_count, chunk_mean, chunk_m2
            return
        total = self.count + chunk_count
        delta = chunk_mean - self.mean
        self.mean += delta * chunk_count / total
        self.m2 += chunk_m2 + delta * delta * self.count * chunk_count / total
        self.count = total

    @property
    def standard_error(self) -> float:
        if self.count <= 1:
            return float("inf")
        return float(np.sqrt(self.m2 / (self.count - 1)) / np.sqrt(self.count))


class _TrajectoryContext:
    """Per-process prepared state: everything that is constant across samples.

    ``template`` is a context prepared from another binding of the same
    parametric structure.  Its value-independent parts are shared: the
    boundary states, the recorded contraction plan (the greedy
    ordering inspects tensor sizes, never entries), the Kraus sampling
    distributions and stacked Kraus candidates (noise channels carry no
    parameters).  No network is built for a rebind
    (:meth:`KrausRowNetwork.rebind`).
    """

    def __init__(
        self,
        engine: "BatchedTrajectoryEngine",
        circuit: Circuit,
        input_state: StateLike,
        output_state: StateLike,
        template: "_TrajectoryContext | None" = None,
    ) -> None:
        self.circuit = circuit
        self.num_qubits = circuit.num_qubits
        self.num_channels = circuit.noise_count()
        #: Per-namespace cache of device-resident operator tensors (see
        #: :meth:`device_tensors`); reusable across devices.
        self._device_cache = {}
        #: Per-namespace stacked Kraus candidates (see :meth:`kraus_factors`),
        #: shared with every rebind of this structure.
        self._kraus_cache = {} if template is None else template._kraus_cache
        if engine.backend != "statevector":
            # Batched rows agree with a per-sample replay to within a few
            # ulps, not bit for bit.
            if template is None:
                self.network = KrausRowNetwork.build(
                    circuit,
                    input_state,
                    output_state,
                    max_intermediate_size=engine.max_intermediate_size,
                )
                self._derive_kraus_distributions()
            else:
                self.network = template.network.rebind(circuit)
                self.q_dists, self.q_cdfs = template.q_dists, template.q_cdfs
        elif template is None:
            self.psi0 = dense_product_state(input_state, self.num_qubits)
            self.v = dense_product_state(output_state, self.num_qubits)
        else:
            self.psi0, self.v = template.psi0, template.v

    def _derive_kraus_distributions(self) -> None:
        # State-independent sampling distributions q_k = tr(E_k† E_k)/d and
        # their cdfs (normalised exactly as np.random.Generator.choice does).
        self.q_dists: List[np.ndarray] = []
        self.q_cdfs: List[np.ndarray] = []
        for inst in self.circuit.noise_instructions:
            weights = np.array(
                [np.real(np.trace(op.conj().T @ op)) for op in inst.operation.kraus_operators]
            )
            weights = weights / weights.sum()
            cdf = weights.cumsum()
            cdf = cdf / cdf[-1]
            self.q_dists.append(weights)
            self.q_cdfs.append(cdf)

    # -- device residency ------------------------------------------------
    def kraus_factors(self, xp):
        """Per channel, its Kraus operators as node tensors stacked on a leading axis.

        These are the candidates a sample's index row picks from, on ``xp``'s
        device (host if None); built once per namespace and cached, like
        :meth:`device_tensors`.
        """
        key = None if xp is None else xp.name
        cached = self._kraus_cache.get(key)
        if cached is None:
            to_device = np.asarray if xp is None else xp.asarray
            cached = tuple(
                to_device(
                    np.stack([operator_tensor(op, inst.qubits) for op in inst.operation.kraus_operators])
                )
                for inst in self.circuit.noise_instructions
            )
            self._kraus_cache[key] = cached
        return cached

    def device_tensors(self, xp):
        """Return ``(psi0, v_conj, op_tensors)`` resident on ``xp``'s device.

        Transferred once per namespace and cached: per-slab replays then touch
        the host only for the small Born-weight vectors.  ``op_tensors`` holds
        one reshaped gate tensor per gate instruction and the
        :meth:`kraus_factors` stack (one leading branch axis) per noise
        instruction, in circuit order.
        """
        cached = self._device_cache.get(xp.name)
        if cached is None:
            kraus = iter(self.kraus_factors(xp))
            op_tensors = [
                xp.asarray(operator_tensor(inst.operation.matrix, inst.qubits))
                if inst.is_gate
                else next(kraus)
                for inst in self.circuit
            ]
            cached = (xp.asarray(self.psi0), xp.asarray(self.v.conj()), op_tensors)
            self._device_cache[xp.name] = cached
        return cached


class BatchedTrajectoryEngine:
    """Batched, optionally multi-process quantum-trajectories estimator."""

    def __init__(
        self,
        backend: str = "statevector",
        max_intermediate_size: int | None = 2**26,
        max_batch_entries: int = 2**15,
        device: str | None = None,
    ) -> None:
        if backend not in ("statevector", "tn"):
            raise ValidationError(f"unknown trajectory backend {backend!r}")
        self.backend = backend
        #: Execution device for the batched hot paths (None = host).  Resolved
        #: eagerly so an unavailable device fails at construction, not mid-run.
        self.device = device
        self._xp = get_namespace(device or "cpu")
        self.max_intermediate_size = max_intermediate_size
        #: Cap on ``states × 2**n`` entries of a batched statevector array: a
        #: grouped pass holds at most :meth:`_slab_size` group states
        #: (distinct Kraus histories) at a time, whatever its sample count.
        #: The default (512 KB arrays, ≤64 histories at 9 qubits) amortises
        #: the per-op numpy overhead while keeping a single-qubit Kraus
        #: stack's product at 2**18 multiply-adds, below the size where
        #: OpenBLAS starts a second thread (2**19 at twice the cap).  On a
        #: 2-vCPU host that thread bought no wall time, and when both
        #: threads shared one core it stalled a qaoa_9 p=0.1 estimate ~15x.
        self.max_batch_entries = int(max_batch_entries)

    # ------------------------------------------------------------------
    def prepare(
        self,
        circuit: Circuit,
        input_state: StateLike = None,
        output_state: StateLike = None,
        template: "_TrajectoryContext | None" = None,
    ) -> "_TrajectoryContext":
        """Precompute the sample-independent state of a trajectory estimate.

        For the statevector engine this resolves the dense boundary states;
        for the TN engine it prepares the circuit's
        :class:`~repro.tensornetwork.circuit_to_tn.KrausRowNetwork` (the
        amplitude network and its recorded, specialized plan) and derives the
        state-independent Kraus sampling distributions.  The returned context
        can be passed back to :meth:`estimate_fidelity` (``context=...``) any
        number of times — values are identical to an uncontexted call, the
        one-time work is just not repeated.  ``template`` is a context
        prepared from another binding of the same parametric structure,
        whose plan and sampling distributions are reused.
        """
        n = circuit.num_qubits
        input_state = "0" * n if input_state is None else input_state
        output_state = "0" * n if output_state is None else output_state
        return _TrajectoryContext(self, circuit, input_state, output_state, template)

    def estimate_fidelity(
        self,
        circuit: Circuit,
        num_samples: int,
        input_state: StateLike = None,
        output_state: StateLike = None,
        rng: np.random.Generator | int | None = None,
        keep_samples: bool = False,
        workers: int | None = None,
        executor=None,
        context: "_TrajectoryContext | None" = None,
    ):
        """Estimate ``⟨v| E_N(|ψ⟩⟨ψ|) |v⟩`` from ``num_samples`` trajectories.

        Returns a :class:`repro.simulators.trajectories.TrajectoryResult`.
        Given the same integer seed the estimate is identical for every
        ``workers`` setting (``None`` and ``1`` run in-process, ``k > 1`` on
        a process pool).  ``executor`` optionally supplies an already-running
        :class:`~concurrent.futures.ProcessPoolExecutor` (it is *not* shut
        down here), so callers running many estimates — e.g. a
        :class:`repro.sweeps.SweepRunner` grid — pay the pool start-up cost
        once instead of per call.  ``context`` optionally supplies the
        prepared per-circuit state from :meth:`prepare` (it must have been
        prepared from the same engine configuration, circuit and boundary
        states); the multi-process path ignores it, since each worker process
        prepares its own.

        Example (noiseless GHZ, so the estimate is exact)::

            >>> from repro.backends.engine import BatchedTrajectoryEngine
            >>> from repro.circuits.library import ghz_circuit
            >>> engine = BatchedTrajectoryEngine("statevector")
            >>> result = engine.estimate_fidelity(ghz_circuit(2), 100, rng=7, workers=1)
            >>> round(result.estimate, 6)
            0.5
        """
        from repro.simulators.trajectories import TrajectoryResult

        if num_samples <= 0:
            raise ValidationError("num_samples must be positive")
        if self.backend == "statevector" and circuit.num_qubits > 22:
            raise MemoryError("statevector trajectory backend limited to 22 qubits")
        n = circuit.num_qubits
        input_state = "0" * n if input_state is None else input_state
        output_state = "0" * n if output_state is None else output_state

        stats = _StreamStats()
        kept: List[np.ndarray] = []

        def absorb(values: np.ndarray) -> None:
            stats.merge_values(values)
            if keep_samples:
                kept.append(values)

        noisy = circuit.noise_count() > 0
        pooled = noisy and workers is not None and workers > 1
        if context is None and not pooled:
            # (The pool path prepares one context inside each worker process.)
            context = _TrajectoryContext(self, circuit, input_state, output_state)
        if not noisy:
            # Deterministic evolution: every trajectory yields the same value,
            # so compute one and broadcast (no RNG is consumed).
            value = self._run_uniforms(context, np.empty((1, 0)))[0]
            absorb(np.full(num_samples, value))
        else:
            seed = self._resolve_seed(rng)
            blocks = self._blocks(num_samples)
            if pooled:
                block_values = self._run_pool(
                    circuit, input_state, output_state, seed, blocks, workers, executor
                )
            else:
                block_values = self._run_blocks(context, seed, blocks)
            for values in block_values:
                absorb(values)

        estimate = float(stats.mean)
        samples = tuple(np.concatenate(kept)) if keep_samples else None
        return TrajectoryResult(estimate, stats.standard_error, num_samples, samples)

    # ------------------------------------------------------------------
    # Scheduling helpers
    # ------------------------------------------------------------------
    def _slab_size(self, num_qubits: int) -> int:
        # Group states per batched statevector array: the cap on G within a
        # grouped pass.  A floor of 4 keeps some batching for wide circuits,
        # but Kraus sampling holds all K branches of up to the cap of group
        # states at once, so above 2**20 amplitudes per state the floor drops
        # to 1 to keep the peak memory profile of the per-sample loop (~6
        # state-sized arrays, not 6×cap) plus one pending parent state per
        # split channel (see :meth:`_run_statevector`).
        dim = 2**num_qubits
        floor = 4 if dim <= 2**20 else 1
        return max(floor, self.max_batch_entries // dim)

    @staticmethod
    def _resolve_seed(rng) -> int:
        if rng is None:
            return int(np.random.default_rng().integers(2**63))
        if isinstance(rng, (int, np.integer)):
            return int(rng)
        return int(np.random.default_rng(rng).integers(2**63))

    @staticmethod
    def _blocks(num_samples: int) -> List[Tuple[int, int]]:
        """Fixed-size (block_index, block_samples) partition of the sample count."""
        blocks = []
        start = 0
        index = 0
        while start < num_samples:
            blocks.append((index, min(RNG_BLOCK, num_samples - start)))
            start += RNG_BLOCK
            index += 1
        return blocks

    def _run_blocks(
        self, context: _TrajectoryContext, seed: int, blocks: Sequence[Tuple[int, int]]
    ):
        """Yield the values of each ``(block_index, block_samples)`` block, in order.

        Block ``b`` draws its uniforms from ``default_rng([seed, b])``.  The
        statevector path evolves up to :data:`PASS_BLOCKS` blocks as one
        grouped pass (each distinct Kraus history of the pass once); the tn
        path replays block by block.  Either way the values come back per
        block, so they never depend on how the blocks were batched.
        """
        step = PASS_BLOCKS if self.backend == "statevector" else 1
        for start in range(0, len(blocks), step):
            chunk = blocks[start : start + step]
            uniforms = np.concatenate(
                [
                    np.random.default_rng([seed, block_index]).random(
                        (block_samples, context.num_channels)
                    )
                    for block_index, block_samples in chunk
                ]
            )
            values = self._run_uniforms(context, uniforms)
            stop = 0
            for _, block_samples in chunk:
                stop += block_samples
                yield values[stop - block_samples : stop]

    def _run_pool(
        self,
        circuit: Circuit,
        input_state: StateLike,
        output_state: StateLike,
        seed: int,
        blocks: List[Tuple[int, int]],
        workers: int,
        executor=None,
    ):
        """Deal the blocks round-robin over a process pool, one block group per worker.

        Block seeding makes the values independent of the distribution, so a
        pool failure (restricted environments) degrades to serial execution
        with identical results.  A caller-supplied ``executor`` is reused and
        left running; otherwise a pool is created and torn down per call.
        """
        groups: List[List[Tuple[int, int]]] = [[] for _ in range(min(workers, len(blocks)))]
        for position, block in enumerate(blocks):
            groups[position % len(groups)].append(block)
        payloads = [
            (
                self.backend,
                self.max_intermediate_size,
                self.max_batch_entries,
                circuit,
                input_state,
                output_state,
                seed,
                group,
                self.device,
            )
            for group in groups
            if group
        ]
        if executor is not None:
            try:
                group_results = list(executor.map(_pool_worker, payloads))
            except BrokenProcessPool as exc:
                # The owner's pool is permanently broken; surface a typed
                # error so the owner can reset it (see Session.reset_pool).
                raise WorkerPoolError(
                    "shared trajectory process pool broke mid-run (a worker "
                    "process died); reset the pool and retry"
                ) from exc
        else:
            try:
                pool = ProcessPoolExecutor(max_workers=len(payloads))
            except (OSError, ValueError):  # pragma: no cover - pool-less environments
                pool = None
            if pool is None:
                group_results = [_pool_worker(payload) for payload in payloads]
            else:
                # Worker exceptions (contraction budget, invalid channels, …)
                # propagate as-is: only pool *creation* falls back to serial.
                with pool:
                    try:
                        group_results = list(pool.map(_pool_worker, payloads))
                    except BrokenProcessPool:  # pragma: no cover - crashed workers
                        group_results = [_pool_worker(payload) for payload in payloads]
        # Re-emit in block order regardless of which worker ran which group.
        by_block = {}
        for payload, results in zip(payloads, group_results):
            for (block_index, _), values in zip(payload[7], results):
                by_block[block_index] = values
        for block_index in sorted(by_block):
            yield by_block[block_index]

    # ------------------------------------------------------------------
    # Batched execution
    # ------------------------------------------------------------------
    def _run_uniforms(self, context: _TrajectoryContext, uniforms: np.ndarray) -> np.ndarray:
        if self.backend == "statevector":
            return self._run_statevector(context, uniforms)
        return self._run_tn(context, uniforms)

    def _run_statevector(self, context: _TrajectoryContext, uniforms: np.ndarray) -> np.ndarray:
        """Evolve one grouped pass: each distinct Kraus history of ``uniforms`` once.

        The pass starts from a single ψ₀ row and keeps one state per distinct
        Kraus history so far plus a sample → group index.  When a channel
        splits a run into more groups than the cap ``c = _slab_size(n)``, the
        run goes on as runs of at most ``c`` groups in sorted-key order, each
        with its own samples: the first at once, the others depth-first from
        a stack.  Pending runs hold their split's parent rows (≤ ``c`` states,
        shared by the split's runs), never a state per sample, and derive
        their branches again on resume; their sample index arrays partition
        the pass.  Depth-first order leaves at most one split pending per
        channel, so the states held at once are bounded by
        ``(num_channels + 1) × c`` rows plus the ``K × c``-row branch tensor
        of the channel at hand: a per-channel multiple of the capped buffer,
        independent of the sample count.
        """
        num_samples = uniforms.shape[0]
        n = context.num_qubits
        if context.num_channels == 0:
            # Only reached via the noiseless short-circuit in estimate_fidelity.
            state = context.psi0.copy()
            for inst in context.circuit:
                state = apply_matrix(state, inst.operation.matrix, inst.qubits, n)
            value = float(abs(np.vdot(context.v, state)) ** 2)
            return np.full(num_samples, value)

        xp = self._xp
        psi0, v_conj, op_tensors = context.device_tensors(xp)
        instructions = context.circuit.instructions
        cap = self._slab_size(n)
        values = np.empty(num_samples)
        # A run is (position, channel, tensor, keys, samples, group): ``tensor``
        # holds its group states before instruction ``position`` (a single psi0
        # row at the start) and ``group`` maps each of its ``samples`` to a
        # row.  A pending run instead holds the parent rows of the channel at
        # ``position`` and the sorted ``keys`` of its groups there.  Between
        # gates the states live as a (groups, 2, …, 2) tensor whose axes may be
        # a lazy transpose view: the next tensordot reorders internally anyway,
        # so forcing contiguity per gate would only add a full copy.
        # Contiguity is restored at sampling points.
        runs = [
            (
                0,
                0,
                xp.reshape(psi0, [1] + [2] * n),
                None,
                np.arange(num_samples),
                np.zeros(num_samples, dtype=np.intp),
            )
        ]
        while runs:
            position, channel, tensor, keys, samples, group = runs.pop()
            if keys is not None:
                inst = instructions[position]
                raw = _kraus_branches(tensor, op_tensors[position], inst.qubits, xp)
                tensor = _select_branches(raw, keys, inst.qubits, n, cap, xp)
                position, channel = position + 1, channel + 1
            for position in range(position, len(instructions)):
                inst = instructions[position]
                if inst.is_gate:
                    tensor = _apply_gate_tensor(tensor, op_tensors[position], inst.qubits, n, xp)
                    continue
                num_branches = op_tensors[position].shape[0]
                raw = _kraus_branches(tensor, op_tensors[position], inst.qubits, xp)
                cdf = _born_cdfs(raw, len(inst.qubits), xp)
                choice = _searchsorted_rows(cdf[group], uniforms[samples, channel])
                keys, group = _regroup(group, choice, num_branches)
                if keys.size > cap:
                    # Right after a channel the states live in the workspace
                    # buffer that the selection below overwrites, so pending
                    # runs keep a copy of them; otherwise the tensor is fresh.
                    parent = tensor
                    if position > 0 and instructions[position - 1].is_noise:
                        parent = xp.empty(tensor.shape)
                        xp.copyto(parent, tensor)
                    for start in range(cap * ((keys.size - 1) // cap), 0, -cap):
                        later = group >= start
                        pending = (keys[start:], samples[later], group[later] - start)
                        runs.append((position, channel, parent) + pending)
                        keys, samples, group = keys[:start], samples[~later], group[~later]
                tensor = _select_branches(raw, keys, inst.qubits, n, cap, xp)
                channel += 1
            states = xp.reshape(xp.ascontiguousarray(tensor), (tensor.shape[0], -1))
            values[samples] = (np.abs(xp.to_host(xp.matmul(states, v_conj))) ** 2)[group]
        return values

    def _run_tn(self, context: _TrajectoryContext, uniforms: np.ndarray) -> np.ndarray:
        num_samples = uniforms.shape[0]
        if context.num_channels == 0:
            # Only reached via the noiseless short-circuit in estimate_fidelity:
            # the specialization baked the deterministic amplitude.
            value = float(abs(context.network.specialized.execute([])) ** 2)
            return np.full(num_samples, value)

        # Draw all Kraus choices channel-by-channel (same uniforms as the
        # per-sample loop would consume), accumulate importance weights in
        # channel order, matching the loop's sequential division exactly, and
        # group the samples by their Kraus history as it grows.
        choices = np.empty((num_samples, context.num_channels), dtype=int)
        weights = np.ones(num_samples)
        group = np.zeros(num_samples, dtype=np.intp)
        for channel, cdf in enumerate(context.q_cdfs):
            choices[:, channel] = np.searchsorted(cdf, uniforms[:, channel], side="right")
            np.clip(choices[:, channel], 0, len(cdf) - 1, out=choices[:, channel])
            weights /= context.q_dists[channel][choices[:, channel]]
            keys, group = _regroup(group, choices[:, channel], len(cdf))
        # An index row (a drawn Kraus operator per channel) per distinct
        # history replays the specialized plan in one batched pass; samples
        # gather their group's amplitude (a group's samples all hold its row,
        # so the scatter below is order-free).  On a device the candidate
        # Kraus tensors and the baked intermediates are resident.
        rows = np.empty((keys.size, context.num_channels), dtype=int)
        rows[group] = choices
        dispatch = None if self._xp.device == "cpu" else self._xp
        amplitudes = context.network.specialized.execute_rows(
            context.kraus_factors(dispatch), rows, xp=dispatch
        )[group]
        # hypot then pow are the libm calls of Python's abs(amplitude) ** 2
        # (numpy's SIMD abs and square round differently in the last ulp), so
        # the weighting adds no rounding change to the batched replay's.
        return np.float_power(np.hypot(amplitudes.real, amplitudes.imag), 2) * weights


def _pool_worker(payload) -> List[np.ndarray]:
    """Process-pool entry point: run a group of RNG blocks and return their values."""
    (
        backend,
        max_intermediate_size,
        max_batch_entries,
        circuit,
        input_state,
        output_state,
        seed,
        group,
        device,
    ) = payload
    engine = BatchedTrajectoryEngine(
        backend=backend,
        max_intermediate_size=max_intermediate_size,
        max_batch_entries=max_batch_entries,
        device=device,
    )
    context = _TrajectoryContext(engine, circuit, input_state, output_state)
    return list(engine._run_blocks(context, seed, group))
