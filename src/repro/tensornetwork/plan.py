"""Reusable contraction plans.

The greedy ordering heuristic decides which node pair to contract from tensor
*sizes* only, so two networks with the same topology and the same tensor
shapes contract in the same order regardless of the tensor values.  The
batched trajectory engine exploits this: every trajectory of a fixed circuit
produces the same network topology (only the sampled Kraus tensor values
change), so the ordering work and all node/edge bookkeeping can be paid once
and replayed per trajectory as a flat sequence of ``np.tensordot`` calls.

:meth:`ContractionPlan.record` contracts a template network while recording
each pairwise step (via the :attr:`TensorNetwork.observer` hook) as a *slot
program*: inputs occupy slots ``0..num_inputs-1``, step ``i`` writes its
result to slot ``num_inputs + i``, and each step names the two slots it
reads.  :meth:`ContractionPlan.execute` replays that program over a plain
list of tensors.

When only a known subset of inputs varies between replays (the sampled Kraus
tensors of a trajectory, the substituted SVD factors of an approximation
term), :meth:`ContractionPlan.specialize` partially evaluates the plan over
the static inputs once — every contraction whose operands are (transitively)
independent of the variable positions is computed at specialisation time —
leaving a :class:`SpecializedPlan` that replays only the residual,
variable-dependent steps.  :meth:`SpecializedPlan.execute` and
:meth:`ContractionPlan.execute` run the one slot-replay loop
(:func:`_replay`); the residual performs the *same* ``tensordot`` calls in
the *same* order as a full replay, so its value is bit-identical — a full
replay is simply a specialization with no baked steps.

A replay picks one candidate tensor per variable position, so it is an
integer *index row*: Algorithm 1's terms and path truncation's paths pick an
SVD term per noise, a ``trajectories_tn`` sample its drawn Kraus operator.
:meth:`SpecializedPlan.execute_rows` is the one evaluator for such rows: it
gathers every row's candidates into inputs with a leading row axis and walks
the residual steps once per chunk of rows.  Batched
contractions sum in a different order than per-row ``tensordot`` calls, so
row values agree with :meth:`SpecializedPlan.execute` to within a few ulps
(≤1e-15 relative on the tracked workloads), not bit for bit.

:meth:`ContractionPlan.environments` differentiates a plan: the same
forward loop keeps the operands a reverse sweep needs, and the sweep returns
the environment of each requested input — the tensor whose full
contraction with that input gives the value, i.e. the value's derivative
with respect to it.  The ``tn`` backend's gradients read the environments of
the parametric gate nodes.

Plans are recorded over whatever circuit the session hands the backend —
since the optimizing passes (:mod:`repro.circuits.passes`) run before plan
construction, a recorded schedule covers the *optimized* network (fewer
nodes after fusion/folding/pruning), and the plan-cache key is derived from
that circuit's fingerprint.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, List, Sequence, Tuple

from repro.tensornetwork.network import TensorNetwork
from repro.tensornetwork.node import Node
from repro.utils.validation import ValidationError
from repro.xp import declare_seam, get_namespace
from repro.xp import host as np

declare_seam(__name__, mode="dispatch")

__all__ = ["ContractionPlan", "ROW_BATCH_ENTRIES", "SpecializedPlan"]

#: Entry budget of one batched replay: :meth:`SpecializedPlan.execute_rows`
#: replays ``ROW_BATCH_ENTRIES // peak_intermediate_entries`` rows at a time,
#: so a chunk depends only on the plan (never on workers or device).
ROW_BATCH_ENTRIES = 2**20

#: One slot-program step: input slots ``a``/``b``, their contracted axes
#: (empty axes = outer product), and the output slot the result lands in.
_Step = Tuple[int, int, Tuple[int, ...], Tuple[int, ...], int]


class ContractionPlan:
    """A recorded pairwise contraction schedule, replayable on fresh tensors."""

    def __init__(
        self,
        steps: List[_Step],
        num_inputs: int,
        peak_intermediate_entries: int = 0,
    ) -> None:
        self.steps = steps
        #: Number of tensors the plan expects (the template's node count).
        self.num_inputs = num_inputs
        #: Entry count of the largest intermediate the schedule produces
        #: (recorded at planning time; the replay cost estimate).
        self.peak_intermediate_entries = peak_intermediate_entries

    @property
    def num_steps(self) -> int:
        """Number of pairwise contractions the plan replays."""
        return len(self.steps)

    def describe(self) -> dict:
        """Plan-cost summary (what :meth:`repro.api.Executable.describe` reports)."""
        return {
            "num_inputs": self.num_inputs,
            "num_steps": self.num_steps,
            "peak_intermediate_entries": self.peak_intermediate_entries,
        }

    # ------------------------------------------------------------------
    @classmethod
    def record(cls, network: TensorNetwork, strategy: str = "greedy") -> Tuple["ContractionPlan", complex]:
        """Contract ``network`` to a scalar, recording the schedule.

        Returns ``(plan, value)`` where ``value`` is the template's own
        contraction result.  The network is consumed (contraction is
        destructive), so callers must snapshot node tensors beforehand if they
        want to replay with partially swapped values.
        """
        num_inputs = network.num_nodes
        steps: List[_Step] = []
        peak = [0]
        slots: Dict[Node, int] = {node: slot for slot, node in enumerate(network.nodes)}

        def observer(net: TensorNetwork, node_a, node_b) -> None:
            if steps:
                # contract_pair appends every result last, so the previous
                # step's output is the newest node of the network.
                slots[net.nodes[-1]] = steps[-1][4]
            shared = []
            for edge in node_a.edges:
                if not edge.is_dangling and edge.other(node_a) is node_b and edge not in shared:
                    shared.append(edge)
            shared_dim = 1
            for edge in shared:
                shared_dim *= edge.dimension
            peak[0] = max(
                peak[0], (node_a.size // shared_dim) * (node_b.size // shared_dim)
            )
            steps.append(
                (
                    slots.pop(node_a),
                    slots.pop(node_b),
                    tuple(edge.axis_of(node_a) for edge in shared),
                    tuple(edge.axis_of(node_b) for edge in shared),
                    num_inputs + len(steps),
                )
            )

        network.observer = observer
        try:
            value = network.contract_to_scalar(strategy=strategy)
        finally:
            network.observer = None
        return cls(steps, num_inputs, peak_intermediate_entries=peak[0]), value

    # ------------------------------------------------------------------
    def _check_inputs(self, tensors: Sequence) -> None:
        if len(tensors) != self.num_inputs:
            raise ValidationError(
                f"plan expects {self.num_inputs} tensors, got {len(tensors)}"
            )

    def _result_slot(self) -> int:
        return self.num_inputs + len(self.steps) - 1 if self.steps else 0

    def execute(self, tensors: List[np.ndarray], xp=None) -> complex:
        """Replay the schedule over ``tensors`` and return the scalar result.

        ``tensors`` must match the template's node order and shapes; only the
        values may differ (device arrays of ``xp`` when a namespace is given).
        """
        self._check_inputs(tensors)
        buffer = list(tensors) + [None] * len(self.steps)
        return _replay(buffer, self.steps, self._result_slot(), xp)

    def environments(
        self, tensors: List[np.ndarray], positions: Sequence[int], xp=None
    ) -> Tuple[complex, Dict[int, np.ndarray]]:
        """Replay once; return the value and the environment of each input in ``positions``.

        The value is linear in every input tensor, so it equals the full
        contraction of input ``i`` with its environment ``E_i``, axis for axis:
        ``value == Σ E_i ⊙ tensors[i]`` (Liao et al., "Differentiable
        Programming Tensor Networks", arXiv:1903.09650).  ``E_i`` is therefore
        the derivative of the value with respect to input ``i``.

        One forward replay keeps the off-path operand of every step whose
        subtree holds a requested input.  One reverse sweep then pushes the
        root's unit environment down to the leaves: the environment of a
        step's operand is the step's environment contracted with the other
        operand over that operand's free axes, transposed back to the
        operand's axis order.  Each environment has its input's shape (a
        device array of ``xp`` when a namespace is given).
        """
        self._check_inputs(tensors)
        wanted = {int(position) for position in positions}
        unknown = sorted(position for position in wanted if not 0 <= position < self.num_inputs)
        if unknown:
            raise ValidationError(f"environment positions {unknown} out of range")
        on_path = set(wanted)
        keep = set()
        for slot_a, slot_b, _, _, out in self.steps:
            if slot_a in on_path or slot_b in on_path:
                on_path.add(out)
                if slot_a in on_path:
                    keep.add(slot_b)
                if slot_b in on_path:
                    keep.add(slot_a)
        buffer = list(tensors) + [None] * len(self.steps)
        result_slot = self._result_slot()
        value = _replay(buffer, self.steps, result_slot, xp, keep)
        ops = get_namespace("cpu") if xp is None else xp
        result = buffer[result_slot]
        envs = {result_slot: ops.full(result.shape, 1.0, dtype=ops.complex_dtype)}
        for slot_a, slot_b, axes_a, axes_b, out in reversed(self.steps):
            if out not in on_path:
                continue
            env = envs.pop(out)
            if slot_a in on_path:
                envs[slot_a] = _operand_environment(env, buffer[slot_b], axes_a, axes_b, True, xp)
            if slot_b in on_path:
                envs[slot_b] = _operand_environment(env, buffer[slot_a], axes_b, axes_a, False, xp)
            buffer[slot_a] = buffer[slot_b] = None
        return value, {position: envs[position] for position in sorted(wanted)}

    def specialize(
        self,
        tensors: Sequence[np.ndarray],
        variable_positions: Sequence[int],
    ) -> "SpecializedPlan":
        """Partially evaluate the plan over every input *not* in ``variable_positions``.

        ``tensors`` supplies the static input values (entries at variable
        positions are ignored); the returned :class:`SpecializedPlan` accepts
        fresh values for the variable positions per call and replays only the
        steps that depend on them.
        """
        self._check_inputs(tensors)
        variable = {int(position) for position in variable_positions}
        unknown = sorted(position for position in variable if not 0 <= position < self.num_inputs)
        if unknown:
            raise ValidationError(f"variable positions {unknown} out of range")
        total = self.num_inputs + len(self.steps)
        baked: List[np.ndarray | None] = [None] * total
        static = [True] * total
        for position in range(self.num_inputs):
            if position in variable:
                static[position] = False
            else:
                baked[position] = tensors[position]
        residual: List[_Step] = []
        for slot_a, slot_b, axes_a, axes_b, out in self.steps:
            if static[slot_a] and static[slot_b]:
                baked[out] = _contract_step(baked[slot_a], baked[slot_b], axes_a, axes_b, None)
            else:
                static[out] = False
                residual.append((slot_a, slot_b, axes_a, axes_b, out))
        return SpecializedPlan(
            baked,
            residual,
            sorted(variable),
            self._result_slot(),
            self.peak_intermediate_entries,
        )


class SpecializedPlan:
    """A partially evaluated :class:`ContractionPlan` (see :meth:`ContractionPlan.specialize`).

    Static intermediates are baked in; :meth:`execute` substitutes the
    variable inputs and replays only the residual steps, bit-identical to a
    full :meth:`ContractionPlan.execute` replay with the same inputs.
    :meth:`execute_rows` replays many index rows in one batched pass; its
    values agree with :meth:`execute` to within a few ulps.
    """

    __slots__ = (
        "_baked",
        "_residual",
        "variable_positions",
        "_result_slot",
        "peak_intermediate_entries",
        "_device_baked",
    )

    def __init__(
        self,
        baked: List[np.ndarray | None],
        residual: List[_Step],
        variable_positions: List[int],
        result_slot: int,
        peak_intermediate_entries: int,
    ) -> None:
        self._baked = baked
        self._residual = residual
        self.variable_positions = variable_positions
        self._result_slot = result_slot
        #: The recorded plan's largest intermediate (sizes row chunks).
        self.peak_intermediate_entries = peak_intermediate_entries
        #: Per-namespace device copies of the baked tensors, transferred once
        #: on the first device execute (callers keep their variable candidates
        #: device-resident too; see BatchedTrajectoryEngine._run_tn).
        self._device_baked: dict = {}

    def _baked_for(self, xp) -> List:
        if xp is None or xp.device == "cpu":
            return self._baked
        cached = self._device_baked.get(xp.name)
        if cached is None:
            cached = [
                None if tensor is None else xp.asarray(tensor)
                for tensor in self._baked
            ]
            self._device_baked[xp.name] = cached
        return cached

    @property
    def num_residual_steps(self) -> int:
        """Contractions actually replayed per call (the rest are baked)."""
        return len(self._residual)

    def execute(self, variables: Sequence[np.ndarray], xp=None) -> complex:
        """Return the scalar for the given variable-input values.

        ``variables[j]`` is the tensor for ``variable_positions[j]`` in this
        call (shapes must match the template's; device arrays of ``xp`` when
        a namespace is given — the baked static intermediates are transferred
        to that device once and cached).
        """
        if len(variables) != len(self.variable_positions):
            raise ValidationError(
                f"missing substitution: {len(self.variable_positions)} variables, got {len(variables)}"
            )
        buffer = list(self._baked_for(xp))
        for position, tensor in zip(self.variable_positions, variables):
            buffer[position] = tensor
        return _replay(buffer, self._residual, self._result_slot, xp)

    def execute_rows(self, factors: Sequence[Sequence[np.ndarray]], rows, xp=None) -> np.ndarray:
        """Replay the plan for every index row at once; return a complex array ``[K]``.

        ``factors[j]`` holds the candidate tensors of ``variable_positions[j]``
        and ``rows`` is an integer array of shape ``[K, len(factors)]``: row
        ``r`` substitutes ``factors[j][rows[r, j]]`` at every variable position.
        Rows are replayed in chunks of ``ROW_BATCH_ENTRIES //
        peak_intermediate_entries``; values agree with a per-row
        :meth:`execute` to within a few ulps.
        """
        rows = self._check_rows(factors, rows)
        values = np.empty(len(rows), dtype=complex)
        if not len(rows):
            return values
        ops = get_namespace("cpu") if xp is None else xp
        stacks = [ops.stack(list(candidates)) for candidates in factors]
        baked = self._baked_for(xp)
        chunk = max(1, ROW_BATCH_ENTRIES // max(1, self.peak_intermediate_entries))
        for start in range(0, len(rows), chunk):
            block = rows[start : start + chunk]
            values[start : start + len(block)] = self._replay_block(baked, stacks, block, ops)
        return values

    def _check_rows(self, factors: Sequence[Sequence], rows) -> np.ndarray:
        """``rows`` as an integer ``[K, len(variable_positions)]`` array of valid indices."""
        width = len(self.variable_positions)
        if len(factors) != width:
            raise ValidationError(
                f"missing substitution: {width} variables, got {len(factors)} factor lists"
            )
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != width:
            raise ValidationError(f"rows must have shape [K, {width}], got {list(rows.shape)}")
        if not np.issubdtype(rows.dtype, np.integer):
            raise ValidationError(f"rows must be integers, got dtype {rows.dtype}")
        counts = np.array([len(candidates) for candidates in factors], dtype=int)
        bad = np.argwhere((rows < 0) | (rows >= counts))
        if len(bad):
            row, column = bad[0].tolist()
            raise ValidationError(
                f"row {row} picks candidate {int(rows[row, column])} of variable {column}, "
                f"which has {counts[column]} candidates"
            )
        return rows.astype(np.intp, copy=False)

    def _replay_block(self, baked: List, stacks: List, rows: np.ndarray, ops) -> np.ndarray:
        """Run the residual steps for every row of ``rows`` at once; return the host values ``[K]``.

        A slot is either static (a baked tensor) or batched (a leading row axis
        ``K`` in front of the sequential step's axes), so every recorded
        ``axes_a``/``axes_b`` stays valid once shifted past the row axis.
        """
        buffer = list(baked)
        batched = [False] * len(buffer)
        for column, position in enumerate(self.variable_positions):
            buffer[position] = stacks[column][rows[:, column]]
            batched[position] = True
        for slot_a, slot_b, axes_a, axes_b, out in self._residual:
            tensor_a, tensor_b = buffer[slot_a], buffer[slot_b]
            if batched[slot_a] and batched[slot_b]:
                result = _batched_pair(tensor_a, tensor_b, axes_a, axes_b, ops)
            elif batched[slot_a]:
                shifted = [axis + 1 for axis in axes_a]
                result = ops.tensordot(tensor_a, tensor_b, axes=(shifted, list(axes_b)))
            else:
                shifted = [axis + 1 for axis in axes_b]
                result = ops.tensordot(tensor_a, tensor_b, axes=(list(axes_a), shifted))
                # tensordot leaves the row axis behind a's free axes; move it first.
                free_a = tensor_a.ndim - len(axes_a)
                order = [free_a] + list(range(free_a)) + list(range(free_a + 1, result.ndim))
                result = ops.transpose(result, order)
            buffer[out], batched[out] = result, True
            buffer[slot_a] = buffer[slot_b] = None
        result = buffer[self._result_slot]
        is_batched = batched[self._result_slot]
        if result is None or result.size != (len(rows) if is_batched else 1):
            raise ValidationError("plan did not reduce the network to a scalar")
        values = ops.to_host(result).reshape(-1)
        return values if is_batched else np.full(len(rows), values[0])


def _replay(
    buffer: List, steps: Sequence[_Step], result_slot: int, xp, keep: AbstractSet[int] = frozenset()
) -> complex:
    """Run ``steps`` over the slot ``buffer`` and return the scalar in ``result_slot``.

    Every slot is read by exactly one step, so operands are released as soon
    as they are consumed (the live set matches a destructive contraction's).
    Slots in ``keep`` stay in ``buffer`` for a later reverse sweep
    (:meth:`ContractionPlan.environments`).
    """
    for slot_a, slot_b, axes_a, axes_b, out in steps:
        buffer[out] = _contract_step(buffer[slot_a], buffer[slot_b], axes_a, axes_b, xp)
        if slot_a not in keep:
            buffer[slot_a] = None
        if slot_b not in keep:
            buffer[slot_b] = None
    result = buffer[result_slot]
    if result is None or result.size != 1:
        raise ValidationError("plan did not reduce the network to a scalar")
    if xp is None:
        return complex(result.reshape(()))
    return complex(xp.to_scalar(result))


def _operand_environment(env, other, axes_self, axes_other, first: bool, xp):
    """Environment of one operand of ``out = tensordot(a, b, (axes_a, axes_b))``.

    ``env`` is the environment of ``out``, whose axes are ``a``'s free axes
    then ``b``'s.  ``other`` is the operand not differentiated, ``axes_self``
    / ``axes_other`` the paired contracted axes of the operand and of
    ``other``; ``first`` says whether the operand is ``a``.  Contracting
    ``env`` with ``other`` over ``other``'s free axes leaves the operand's
    free axes, then its contracted axes in ``other``'s ascending order; the
    transpose restores the operand's own axis order.
    """
    contracted = set(axes_other)
    free_other = tuple(axis for axis in range(other.ndim) if axis not in contracted)
    num_free_self = env.ndim - len(free_other)
    if first:
        env_axes = tuple(range(num_free_self, env.ndim))
    else:
        env_axes = tuple(range(len(free_other)))
    grad = _contract_step(env, other, env_axes, free_other, xp)
    paired = dict(zip(axes_other, axes_self))
    contracted_self = set(axes_self)
    labels = [axis for axis in range(num_free_self + len(axes_self)) if axis not in contracted_self]
    labels += [paired[axis] for axis in sorted(axes_other)]
    order = [labels.index(axis) for axis in range(len(labels))]
    if order == list(range(len(order))):
        return grad
    ops = get_namespace("cpu") if xp is None else xp
    return ops.transpose(grad, order)


def _batched_pair(tensor_a, tensor_b, axes_a: Tuple[int, ...], axes_b: Tuple[int, ...], ops):
    """Contract two row-batched tensors row by row: one stacked ``matmul``.

    The result has the row axis, then ``a``'s free axes, then ``b``'s — the
    axis order of the sequential ``tensordot``.
    """
    num_rows = tensor_a.shape[0]
    free_a = [axis for axis in range(tensor_a.ndim - 1) if axis not in axes_a]
    free_b = [axis for axis in range(tensor_b.ndim - 1) if axis not in axes_b]
    shape_a = [tensor_a.shape[axis + 1] for axis in free_a]
    shape_b = [tensor_b.shape[axis + 1] for axis in free_b]
    shared = 1
    for axis in axes_a:
        shared *= tensor_a.shape[axis + 1]
    left = ops.transpose(tensor_a, [0] + [axis + 1 for axis in free_a + list(axes_a)])
    right = ops.transpose(tensor_b, [0] + [axis + 1 for axis in list(axes_b) + free_b])
    product = ops.matmul(
        ops.reshape(left, (num_rows, -1, shared)), ops.reshape(right, (num_rows, shared, -1))
    )
    return ops.reshape(product, [num_rows] + shape_a + shape_b)


def _contract_step(
    tensor_a: np.ndarray,
    tensor_b: np.ndarray,
    axes_a: Tuple[int, ...],
    axes_b: Tuple[int, ...],
    xp=None,
) -> np.ndarray:
    axes = (list(axes_a), list(axes_b)) if axes_a else 0
    if xp is None:
        return np.tensordot(tensor_a, tensor_b, axes=axes)
    return xp.tensordot(tensor_a, tensor_b, axes=axes)
