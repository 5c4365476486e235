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
  a template; every distinct Kraus history of a pass of up to
  :data:`PASS_BLOCKS` RNG blocks is an index row of drawn Kraus operators
  (state-independent Kraus sampling with importance weights), the pass's
  sorted rows replay it in one
  :meth:`repro.tensornetwork.plan.SpecializedPlan.execute_rows` call, and
  samples gather their row's amplitude.

Grouping never changes which Kraus operators a sample draws: the per-sample
values (to fp rounding), the estimator and its standard error are those of a
one-state-per-sample evolution, and only the wall time falls.

Samples are split into fixed-size blocks of :data:`RNG_BLOCK` trajectories
and block ``b`` draws one uniform per (sample, channel), sample-major, from
the independent stream ``default_rng([seed, b])``.  Pass ``p`` is blocks
``[p * PASS_BLOCKS, (p + 1) * PASS_BLOCKS)``: it concatenates its blocks'
uniforms, is simulated in one grouped call and hands the values back per
block, so the streaming estimator merges them in block order.  Results
therefore depend only on the seed, never on the worker count:
``workers=None`` and ``workers=1`` run the passes in-process,
``workers=k > 1`` deals whole passes of a multi-pass estimate over a
``concurrent.futures`` process pool, all with identical values.  Every
estimate replays one prepared context (:meth:`BatchedTrajectoryEngine.prepare`).
A pool worker receives only what a pass reads (the context's ``replay``)
and builds no network, plan or sampling distribution of its own.  (numpy's
``default_rng([s, 0])`` is the same stream as ``default_rng(s)``, so block 0
is the plain seeded stream.)

A pass runs on one BLAS thread (:func:`~repro.utils.blas.single_blas_thread`):
its stacked products are small enough that a second BLAS thread only
competes with the caller for a core.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import Circuit
from repro.tensornetwork.circuit_to_tn import (
    KrausRowNetwork,
    StateLike,
    dense_product_state,
    operator_tensor,
)
from repro.tensornetwork.plan import SpecializedPlan
from repro.utils.blas import single_blas_thread
from repro.utils.validation import ValidationError

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

#: RNG blocks per grouped pass.  Fixed like :data:`RNG_BLOCK`: statevector
#: values never depend on it, but a tn pass replays its distinct rows in
#: batches whose rounding can move a value in the last ulp, so tn values
#: depend on the pass (never on the worker, which runs whole passes).  A pass holds one
#: uniform per (sample, channel) of up to ``PASS_BLOCKS * RNG_BLOCK`` samples,
#: so million-sample runs stream through bounded host memory.
PASS_BLOCKS = 64


def _apply_gate_tensor(tensor, gate_tensor, qubits: Sequence[int], num_qubits: int):
    """Apply a reshaped gate tensor to a batched state, returning a lazy transpose view."""
    qubits = [int(q) for q in qubits]
    k = len(qubits)
    axes = [q + 1 for q in qubits]
    contracted = np.tensordot(gate_tensor, tensor, axes=(list(range(k, 2 * k)), axes))
    order = list(axes) + [ax for ax in range(num_qubits + 1) if ax not in axes]
    return np.transpose(contracted, np.argsort(order))


def apply_matrix_batched(states, matrix, qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    """Apply ``matrix`` to the given qubits of every state in a ``(batch, 2**n)`` array.

    The batched analogue of :func:`repro.simulators.statevector.apply_matrix`:
    one ``tensordot`` contracts the gate's input axes with the qubit axes of
    the whole batch at once.
    """
    matrix = np.asarray(matrix, dtype=complex)
    k = len(qubits)
    if matrix.shape != (2**k, 2**k):
        raise ValidationError(f"matrix shape {matrix.shape} does not match {k} qubits")
    batch = states.shape[0]
    tensor = np.asarray(states, dtype=complex).reshape([batch] + [2] * num_qubits)
    return _apply_gate_tensor(tensor, matrix.reshape([2] * (2 * k)), qubits, num_qubits).reshape(batch, -1)


def _kraus_branches(tensor, kraus_tensors, qubits: Sequence[int]):
    """All K branches ``E_k|ψ_g⟩`` of the group states from one ``tensordot``.

    ``kraus_tensors`` stacks a channel's Kraus operators on a leading axis.
    The raw (un-transposed, hence contiguous) result's axes are: branch, the
    k gate-output axes, then groups, then the spectator qubits.
    """
    k = len(qubits)
    axes = [int(q) + 1 for q in qubits]
    return np.tensordot(kraus_tensors, tensor, axes=(list(range(k + 1, 2 * k + 1)), axes))


def _born_cdfs(raw, num_gate_qubits: int) -> np.ndarray:
    """Per group, the cdf over branches of the exact Born probabilities.

    The (groups, K) weights ``‖E_k|ψ_g⟩‖²`` come from a single float-view
    einsum pass over :func:`_kraus_branches`' raw output, with no conjugate
    temporaries.
    """
    num_branches = raw.shape[0]
    rows = raw.shape[num_gate_qubits + 1]
    floats = raw.reshape(num_branches, 2**num_gate_qubits, rows, -1).view(np.float64)
    probabilities = np.einsum("basd,basd->sb", floats, floats)
    totals = probabilities.sum(axis=1)
    if np.any(totals <= 0):
        raise ValidationError("trajectory collapsed to zero norm (invalid channel?)")
    probabilities = probabilities / totals[:, None]
    cdf = np.cumsum(probabilities, axis=1)
    return cdf / cdf[:, -1:]


def _select_branches(raw, keys: np.ndarray, qubits: Sequence[int], num_qubits: int):
    """The normalised new group states ``keys`` (``parent * K + branch``) of ``raw``.

    Selection gathers only each new group's branch through a lazy transpose
    view, so no branch is materialised in full, into one fresh
    ``(groups, 2**n)`` array.
    """
    parents, branches = np.divmod(keys, raw.shape[0])
    axes = [int(q) + 1 for q in qubits]
    order = axes + [ax for ax in range(num_qubits + 1) if ax not in axes]
    flat = np.transpose(raw, [0] + [1 + ax for ax in np.argsort(order)])
    chosen = np.empty((keys.size, 2**num_qubits), dtype=complex)
    chosen[:] = flat[branches, parents].reshape(keys.size, -1)
    floats = chosen.view(np.float64)
    chosen /= np.sqrt(np.einsum("bd,bd->b", floats, floats)).reshape(keys.size, 1)
    return chosen.reshape((keys.size,) + (2,) * num_qubits)


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


class _StatevectorReplay:
    """What a statevector pass reads: per-instruction operators and dense boundaries.

    ``steps[i]`` is ``(qubits, tensor, is_gate)`` of instruction ``i``: a
    gate's reshaped matrix, or a channel's Kraus operators stacked on a
    leading branch axis.  The dense ``2**n`` boundary states are built from
    their descriptions once per process: the replay pickles as its
    constructor arguments, so a pool payload carries no dense state.
    """

    def __init__(
        self,
        steps: Sequence[Tuple[Tuple[int, ...], np.ndarray, bool]],
        input_state: StateLike,
        output_state: StateLike,
        num_qubits: int,
    ) -> None:
        self.steps = steps
        self.input_state, self.output_state = input_state, output_state
        self.num_qubits = num_qubits
        self.num_channels = sum(not is_gate for _, _, is_gate in steps)
        self.psi0 = dense_product_state(input_state, num_qubits)
        self.v_conj = dense_product_state(output_state, num_qubits).conj()

    def __reduce__(self):
        return type(self), (self.steps, self.input_state, self.output_state, self.num_qubits)


class _TnReplay(NamedTuple):
    """What a tn pass reads: the specialized plan, its Kraus candidates and sampling cdfs."""

    specialized: SpecializedPlan
    #: Per channel, its Kraus operators as node tensors stacked on a leading
    #: axis: the candidates a sample's index row picks from.
    kraus: Tuple[np.ndarray, ...]
    #: Per channel, the state-independent sampling distribution
    #: ``q_k = tr(E_k† E_k)/d`` and its cdf.
    q_dists: Tuple[np.ndarray, ...]
    q_cdfs: Tuple[np.ndarray, ...]

    @property
    def num_channels(self) -> int:
        return len(self.q_cdfs)


def _kraus_stack(inst) -> np.ndarray:
    """A channel's Kraus operators as node tensors stacked on a leading axis."""
    return np.stack([operator_tensor(op, inst.qubits) for op in inst.operation.kraus_operators])


def _tn_replay(specialized: SpecializedPlan, circuit: Circuit) -> _TnReplay:
    """The tn replay of ``circuit``'s channels over ``specialized``.

    The sampling cdfs are normalised exactly as ``np.random.Generator.choice``
    does.
    """
    kraus, q_dists, q_cdfs = [], [], []
    for inst in circuit.noise_instructions:
        kraus.append(_kraus_stack(inst))
        weights = np.array(
            [np.real(np.trace(op.conj().T @ op)) for op in inst.operation.kraus_operators]
        )
        weights = weights / weights.sum()
        cdf = weights.cumsum()
        q_dists.append(weights)
        q_cdfs.append(cdf / cdf[-1])
    return _TnReplay(specialized, tuple(kraus), tuple(q_dists), tuple(q_cdfs))


class _TrajectoryContext:
    """Prepared state: everything that is constant across samples.

    ``replay`` is all a pass reads, and all a pool worker receives.  The tn
    context also keeps its :class:`KrausRowNetwork` (template tensors and
    recorded plan), which only a rebind reads.

    ``template`` is a context prepared from another binding of the same
    parametric structure.  Its value-independent parts are shared: the
    recorded contraction plan (the greedy ordering inspects tensor sizes,
    never entries), the Kraus sampling distributions and stacked Kraus
    candidates (noise channels carry no parameters).  No network is built
    for a rebind (:meth:`KrausRowNetwork.rebind`).
    """

    def __init__(
        self,
        engine: "BatchedTrajectoryEngine",
        circuit: Circuit,
        input_state: StateLike,
        output_state: StateLike,
        template: "_TrajectoryContext | None" = None,
    ) -> None:
        if engine.backend == "statevector":
            steps = [
                (
                    tuple(inst.qubits),
                    operator_tensor(inst.operation.matrix, inst.qubits) if inst.is_gate else _kraus_stack(inst),
                    inst.is_gate,
                )
                for inst in circuit
            ]
            self.replay = _StatevectorReplay(steps, input_state, output_state, circuit.num_qubits)
        elif template is None:
            # Batched rows agree with a per-sample replay to within a few
            # ulps, not bit for bit.
            self.network = KrausRowNetwork.build(
                circuit,
                input_state,
                output_state,
                max_intermediate_size=engine.max_intermediate_size,
            )
            self.replay = _tn_replay(self.network.specialized, circuit)
        else:
            self.network = template.network.rebind(circuit)
            self.replay = template.replay._replace(specialized=self.network.specialized)


class BatchedTrajectoryEngine:
    """Batched, optionally multi-process quantum-trajectories estimator."""

    def __init__(
        self,
        backend: str = "statevector",
        max_intermediate_size: int | None = 2**26,
        max_batch_entries: int = 2**15,
    ) -> None:
        if backend not in ("statevector", "tn"):
            raise ValidationError(f"unknown trajectory backend {backend!r}")
        self.backend = backend
        self.max_intermediate_size = max_intermediate_size
        #: Cap on ``states × 2**n`` entries of a batched statevector array: a
        #: grouped pass holds at most :meth:`_slab_size` group states
        #: (distinct Kraus histories) at a time, whatever its sample count.
        #: The default (512 KB arrays, ≤64 histories at 9 qubits) amortises
        #: the per-op numpy overhead while keeping every array small.
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
        states).  A multi-pass estimate with ``workers > 1`` ships the
        context's replay to the pool; an estimate of one pass runs in-process.

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

        if context is None:
            context = _TrajectoryContext(self, circuit, input_state, output_state)
        replay = context.replay
        if not replay.num_channels:
            # Deterministic evolution: every trajectory yields the same value,
            # so compute one and broadcast (no RNG is consumed).
            value = self._run_uniforms(replay, np.empty((1, 0)))[0]
            absorb(np.full(num_samples, value))
        else:
            seed = self._resolve_seed(rng)
            passes = self._passes(num_samples)
            if workers is not None and workers > 1 and len(passes) > 1:
                block_values = self._run_pool(replay, seed, passes, workers, executor)
            else:
                block_values = self._run_blocks(replay, seed, passes)
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
    def _passes(num_samples: int) -> List[List[Tuple[int, int]]]:
        """The fixed-size ``(block_index, block_samples)`` blocks of the sample count, in passes.

        Pass ``p`` holds blocks ``[p * PASS_BLOCKS, (p + 1) * PASS_BLOCKS)``;
        only the last block and the last pass can be partial.
        """
        blocks = [
            (index, min(RNG_BLOCK, num_samples - start))
            for index, start in enumerate(range(0, num_samples, RNG_BLOCK))
        ]
        return [blocks[start : start + PASS_BLOCKS] for start in range(0, len(blocks), PASS_BLOCKS)]

    def _run_blocks(
        self,
        replay: _StatevectorReplay | _TnReplay,
        seed: int,
        passes: Sequence[Sequence[Tuple[int, int]]],
    ):
        """Yield the values of each block of ``passes``, in order.

        Block ``b`` draws its uniforms from ``default_rng([seed, b])``, and
        each pass is simulated in one grouped call that evolves (statevector)
        or replays (tn) each distinct Kraus history of the pass once.  The
        values come back per block.  Passes are run as given, never merged or
        re-sliced, so a block's values depend only on the seed and its pass.
        """
        for chunk in passes:
            uniforms = np.concatenate(
                [
                    np.random.default_rng([seed, block_index]).random(
                        (block_samples, replay.num_channels)
                    )
                    for block_index, block_samples in chunk
                ]
            )
            values = self._run_uniforms(replay, uniforms)
            stop = 0
            for _, block_samples in chunk:
                stop += block_samples
                yield values[stop - block_samples : stop]

    def _run_pool(
        self,
        replay: _StatevectorReplay | _TnReplay,
        seed: int,
        passes: List[List[Tuple[int, int]]],
        workers: int,
        executor=None,
    ):
        """Deal whole passes round-robin over a process pool, one list of passes per worker.

        A pass is the unit of work, so its blocks are simulated together
        whatever the worker count (an estimate of fewer than ``workers``
        passes uses fewer processes).  Every worker replays the pickled
        ``replay``.  Block seeding makes the values
        independent of the distribution, so a pool failure (restricted
        environments) degrades to serial execution with identical results.
        A caller-supplied ``executor`` is reused and left running; otherwise
        a pool is created and torn down per call.
        """
        groups = [passes[start :: workers] for start in range(min(workers, len(passes)))]
        payloads = [
            (self.backend, self.max_batch_entries, replay, seed, group)
            for group in groups
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
        for group, results in zip(groups, group_results):
            blocks = (block for chunk in group for block in chunk)
            for (block_index, _), values in zip(blocks, results):
                by_block[block_index] = values
        for block_index in sorted(by_block):
            yield by_block[block_index]

    # ------------------------------------------------------------------
    # Batched execution
    # ------------------------------------------------------------------
    def _run_uniforms(self, replay: _StatevectorReplay | _TnReplay, uniforms: np.ndarray) -> np.ndarray:
        """Simulate one pass, on one BLAS thread."""
        with single_blas_thread():
            if self.backend == "statevector":
                return self._run_statevector(replay, uniforms)
            return self._run_tn(replay, uniforms)

    def _run_statevector(self, replay: _StatevectorReplay, uniforms: np.ndarray) -> np.ndarray:
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
        of the channel at hand: a per-channel multiple of the cap,
        independent of the sample count.
        """
        num_samples = uniforms.shape[0]
        n = replay.num_qubits
        steps = replay.steps
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
                replay.psi0.reshape([1] + [2] * n),
                None,
                np.arange(num_samples),
                np.zeros(num_samples, dtype=np.intp),
            )
        ]
        while runs:
            position, channel, tensor, keys, samples, group = runs.pop()
            if keys is not None:
                qubits, kraus, _ = steps[position]
                tensor = _select_branches(_kraus_branches(tensor, kraus, qubits), keys, qubits, n)
                position, channel = position + 1, channel + 1
            for position in range(position, len(steps)):
                qubits, operator, is_gate = steps[position]
                if is_gate:
                    tensor = _apply_gate_tensor(tensor, operator, qubits, n)
                    continue
                raw = _kraus_branches(tensor, operator, qubits)
                cdf = _born_cdfs(raw, len(qubits))
                choice = _searchsorted_rows(cdf[group], uniforms[samples, channel])
                keys, group = _regroup(group, choice, operator.shape[0])
                if keys.size > cap:
                    # Pending runs keep this channel's parent rows, which no
                    # selection overwrites (each selects into a fresh array).
                    for start in range(cap * ((keys.size - 1) // cap), 0, -cap):
                        later = group >= start
                        pending = (keys[start:], samples[later], group[later] - start)
                        runs.append((position, channel, tensor) + pending)
                        keys, samples, group = keys[:start], samples[~later], group[~later]
                tensor = _select_branches(raw, keys, qubits, n)
                channel += 1
            states = np.ascontiguousarray(tensor).reshape(tensor.shape[0], -1)
            values[samples] = (np.abs(states @ replay.v_conj) ** 2)[group]
        return values

    def _run_tn(self, replay: _TnReplay, uniforms: np.ndarray) -> np.ndarray:
        num_samples = uniforms.shape[0]
        # Draw all Kraus choices channel-by-channel (same uniforms as the
        # per-sample loop would consume), accumulate importance weights in
        # channel order, matching the loop's sequential division exactly, and
        # group the samples by their Kraus history as it grows.  Without
        # channels every sample shares the one empty history, whose row
        # replays the amplitude the specialization baked.
        choices = np.empty((num_samples, replay.num_channels), dtype=int)
        weights = np.ones(num_samples)
        keys = np.zeros(1, dtype=np.intp)
        group = np.zeros(num_samples, dtype=np.intp)
        for channel, cdf in enumerate(replay.q_cdfs):
            choices[:, channel] = np.searchsorted(cdf, uniforms[:, channel], side="right")
            np.clip(choices[:, channel], 0, len(cdf) - 1, out=choices[:, channel])
            weights /= replay.q_dists[channel][choices[:, channel]]
            keys, group = _regroup(group, choices[:, channel], len(cdf))
        # An index row (a drawn Kraus operator per channel) per distinct
        # history replays the specialized plan; samples gather their group's
        # amplitude (a group's samples all hold its row, so the scatter below
        # is order-free).  The sorted rows replay in one call, which chunks
        # them by the plan's row rule.
        rows = np.empty((keys.size, replay.num_channels), dtype=int)
        rows[group] = choices
        amplitudes = replay.specialized.execute_rows(replay.kraus, rows)[group]
        # hypot then pow are the libm calls of Python's abs(amplitude) ** 2
        # (numpy's SIMD abs and square round differently in the last ulp), so
        # the weighting adds no rounding change to the batched replay's.
        return np.float_power(np.hypot(amplitudes.real, amplitudes.imag), 2) * weights


def _pool_worker(payload) -> List[np.ndarray]:
    """Process-pool entry point: run a shipped replay over a list of passes.

    Returns the values of every block of the passes, in order.
    """
    backend, max_batch_entries, replay, seed, passes = payload
    engine = BatchedTrajectoryEngine(backend, max_batch_entries=max_batch_entries)
    return list(engine._run_blocks(replay, seed, passes))
