"""Batched parallel trajectory execution engine.

Replaces the per-sample Python loop of the quantum-trajectories method with
two batched hot paths:

* **statevector** — a slab of trajectories is evolved as one ``(G, 2**n)``
  array holding a single state per *distinct Kraus history* so far (at the
  paper's noise rates almost all trajectories share a history, so G stays
  far below the slab size), plus a sample → group index.  Gates are applied
  with one einsum-style ``tensordot`` per gate over the G states; at a
  channel the exact Born probabilities are computed once per group, every
  trajectory draws from its group's cdf with its own uniform, and the groups
  split by (group, branch).  The final overlaps are gathered back to the
  samples.
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
is the plain seeded stream.)

Both hot paths dispatch their dense math through an
:class:`repro.xp.ArrayNamespace` (``device=`` on the constructor).  Gate and
Kraus tensors are transferred once per prepared context and cached per
namespace; the slab-sized group-state buffer comes from the namespace
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
    StateLike,
    dense_product_state,
    instruction_node_positions,
    operator_amplitude_network,
)
from repro.tensornetwork.plan import ContractionPlan
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
    boundary states, the recorded :class:`ContractionPlan` (the greedy
    ordering inspects tensor sizes, never entries), the Kraus sampling
    distributions and stacked Kraus candidates (noise channels carry no
    parameters).  No network is built for a rebind: the template tensors
    are copied with every parametric gate node overwritten from ``circuit``,
    and only the specialization's static intermediates are recomputed.
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
            self._prepare_tn(engine, circuit, input_state, output_state, template)
        elif template is None:
            self.psi0 = dense_product_state(input_state, self.num_qubits)
            self.v = dense_product_state(output_state, self.num_qubits)
        else:
            self.psi0, self.v = template.psi0, template.v

    # -- TN template -----------------------------------------------------
    def _prepare_tn(
        self,
        engine: "BatchedTrajectoryEngine",
        circuit: Circuit,
        input_state: StateLike,
        output_state: StateLike,
        template: "_TrajectoryContext | None",
    ) -> None:
        if template is None:
            # Each noise enters the template as its first Kraus operator;
            # samples swap in the drawn one at the same node.
            operations = [
                (
                    inst.operation.matrix if inst.is_gate else inst.operation.kraus_operators[0],
                    inst.qubits,
                )
                for inst in circuit
            ]
            network = operator_amplitude_network(
                circuit.num_qubits,
                operations,
                input_state,
                output_state,
                name="trajectory_template",
                max_intermediate_size=engine.max_intermediate_size,
            )
            self.template_tensors = [node.tensor for node in network.nodes]
            positions = instruction_node_positions(circuit, input_state)
            #: Instruction index -> node of every parametric gate (the only
            #: tensors another binding of the structure changes).
            self.gate_nodes = {
                index: positions[index][0]
                for index, inst in enumerate(circuit)
                if getattr(inst.operation, "is_parametric_gate", False)
            }
            self.noise_nodes = tuple(
                nodes[0] for nodes, inst in zip(positions, circuit) if inst.is_noise
            )
            self.plan = ContractionPlan.record(network)
            self._derive_kraus_distributions()
        else:
            tensors = list(template.template_tensors)
            for index, node in template.gate_nodes.items():
                inst = circuit[index]
                tensors[node] = _node_tensor(inst.operation.matrix, inst.qubits)
            self.template_tensors = tensors
            self.gate_nodes, self.noise_nodes = template.gate_nodes, template.noise_nodes
            self.plan = template.plan
            self.q_dists, self.q_cdfs = template.q_dists, template.q_cdfs
        # Partial evaluation over the static tensors: the batched sample
        # replay touches only the contractions downstream of a sampled Kraus
        # tensor (the static prefix is paid once; values agree with a
        # per-sample replay to within a few ulps, not bit for bit).
        # Noiseless circuits take the single-replay short circuit instead.
        self.specialized = (
            self.plan.specialize(self.template_tensors, self.noise_nodes)
            if self.num_channels
            else None
        )

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
                    np.stack([_node_tensor(op, inst.qubits) for op in inst.operation.kraus_operators])
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
                xp.asarray(_node_tensor(inst.operation.matrix, inst.qubits))
                if inst.is_gate
                else next(kraus)
                for inst in self.circuit
            ]
            cached = (xp.asarray(self.psi0), xp.asarray(self.v.conj()), op_tensors)
            self._device_cache[xp.name] = cached
        return cached


def _node_tensor(matrix, qubits) -> np.ndarray:
    """A ``k``-qubit operator matrix as a ``[2] * 2k`` complex tensor."""
    return np.asarray(matrix, dtype=complex).reshape([2] * (2 * len(qubits)))


class BatchedTrajectoryEngine:
    """Batched, optionally multi-process quantum-trajectories estimator."""

    def __init__(
        self,
        backend: str = "statevector",
        max_intermediate_size: int | None = 2**26,
        max_batch_entries: int = 2**16,
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
        #: Cap on ``slab × 2**n`` entries (statevector path), where a slab of
        #: trajectories holds at most one group state per trajectory.  The
        #: default keeps each batched array around 1 MB, which measures faster
        #: than huge slabs (cache locality) while still amortising the per-op
        #: numpy overhead over ≤128 distinct histories at 9 qubits.
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
        for the TN engine it builds the template amplitude network, records
        its :class:`~repro.tensornetwork.plan.ContractionPlan` and derives the
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
                block_values = (
                    self._run_block(context, seed, block_index, block_samples)
                    for block_index, block_samples in blocks
                )
            for values in block_values:
                absorb(values)

        estimate = float(stats.mean)
        samples = tuple(np.concatenate(kept)) if keep_samples else None
        return TrajectoryResult(estimate, stats.standard_error, num_samples, samples)

    # ------------------------------------------------------------------
    # Scheduling helpers
    # ------------------------------------------------------------------
    def _slab_size(self, num_qubits: int) -> int:
        # Samples per statevector pass; the pass holds at most one group
        # state per sample.  A floor of 4 keeps some batching for wide
        # circuits, but Kraus sampling holds all K branches of up to a slab of
        # group states at once, so above 2**20 amplitudes per state the floor
        # drops to 1 to keep the peak memory profile of the per-sample loop
        # (~6 state-sized arrays, not 6×slab).
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

    def _run_block(
        self, context: _TrajectoryContext, seed: int, block_index: int, block_samples: int
    ) -> np.ndarray:
        generator = np.random.default_rng([seed, block_index])
        uniforms = generator.random((block_samples, context.num_channels))
        return self._run_uniforms(context, uniforms)

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
        """Distribute contiguous block groups over a process pool.

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
        values = np.empty(num_samples)
        slab = self._slab_size(n)
        for start in range(0, num_samples, slab):
            stop = min(start + slab, num_samples)
            # One state per distinct Kraus history so far (a single psi0 row
            # before the first channel); ``group`` maps each sample to its row.
            # Between gates the states live as a (groups, 2, …, 2) tensor whose
            # axes may be a lazy transpose view: the next tensordot reorders
            # internally anyway, so forcing contiguity per gate would only add
            # a full copy.  Contiguity is restored at sampling points.
            tensor = xp.reshape(psi0, [1] + [2] * n)
            group = np.zeros(stop - start, dtype=np.intp)
            channel = 0
            for position, inst in enumerate(context.circuit):
                if inst.is_gate:
                    tensor = _apply_gate_tensor(
                        tensor, op_tensors[position], inst.qubits, n, xp
                    )
                else:
                    tensor, group = self._sample_kraus(
                        tensor, group, op_tensors[position], inst, n,
                        uniforms[start:stop, channel], slab, xp,
                    )
                    channel += 1
            states = xp.reshape(xp.ascontiguousarray(tensor), (tensor.shape[0], -1))
            values[start:stop] = (np.abs(xp.to_host(xp.matmul(states, v_conj))) ** 2)[group]
        return values

    @staticmethod
    def _sample_kraus(tensor, group, kraus_tensors, inst, num_qubits, uniforms, slab, xp):
        """Draw one Kraus operator per trajectory with exact Born probabilities.

        ``tensor`` holds one state per group of trajectories that share their
        Kraus history so far, and ``group`` maps each trajectory to its row.
        All K branches come from one ``tensordot`` of the stacked Kraus
        operators over the groups, whose raw (un-transposed) output is
        contiguous, so the (groups, K) Born weights ``‖E_k|ψ_g⟩‖²`` come from
        a single float-view einsum pass with no conjugate temporaries.  Every
        trajectory then draws from its group's cdf row with its own uniform,
        the groups split by (group, branch), and only each new group's branch
        is copied back into standard axis order.  Only the small weight
        vectors cross back to the host for the sampling decision; state
        tensors stay on the device.  Returns the new ``(tensor, group)``.
        """
        qubits = [int(q) for q in inst.qubits]
        k = len(qubits)
        axes = [q + 1 for q in qubits]
        num_branches, rows = kraus_tensors.shape[0], tensor.shape[0]
        # Raw axes: branch, k gate-output axes, then groups, then spectators.
        raw = xp.tensordot(kraus_tensors, tensor, axes=(list(range(k + 1, 2 * k + 1)), axes))
        floats = xp.view_real(xp.reshape(raw, (num_branches, 2**k, rows, -1)))
        probabilities = xp.to_host(xp.einsum("basd,basd->sb", floats, floats))
        totals = probabilities.sum(axis=1)
        if np.any(totals <= 0):
            raise ValidationError("trajectory collapsed to zero norm (invalid channel?)")
        probabilities = probabilities / totals[:, None]
        cdf = np.cumsum(probabilities, axis=1)
        cdf = cdf / cdf[:, -1:]
        keys, group = _regroup(group, _searchsorted_rows(cdf[group], uniforms), num_branches)
        parents, branches = np.divmod(keys, num_branches)
        # Selection gathers only each new group's branch through a lazy
        # transpose view — no branch is materialised in full.
        order = list(axes) + [ax for ax in range(num_qubits + 1) if ax not in axes]
        flat = xp.transpose(raw, [0] + [1 + ax for ax in np.argsort(order)])
        # The result rows come from one slab-sized workspace buffer (keyed by
        # the slab, never by the group count, so every channel and slab of a
        # run reuses one allocation).  Overwriting it here is safe: all reads
        # of the previous state tensor happened in the tensordot above.
        chosen = xp.workspace((slab, 2**num_qubits), tag="kraus_chosen")[: keys.size]
        chosen[:] = flat[branches, parents].reshape(keys.size, -1)
        floats = xp.view_real(chosen)
        norms = xp.sqrt(xp.einsum("bd,bd->b", floats, floats))
        chosen = xp.idivide(chosen, xp.reshape(norms, (keys.size, 1)))
        return xp.reshape(chosen, (keys.size,) + (2,) * num_qubits), group

    def _run_tn(self, context: _TrajectoryContext, uniforms: np.ndarray) -> np.ndarray:
        num_samples = uniforms.shape[0]
        if context.num_channels == 0:
            # Only reached via the noiseless short-circuit in estimate_fidelity:
            # one replay gives the deterministic amplitude.
            value = float(abs(context.plan.execute(list(context.template_tensors))) ** 2)
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
        amplitudes = context.specialized.execute_rows(
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
    return [
        engine._run_block(context, seed, block_index, block_samples)
        for block_index, block_samples in group
    ]
