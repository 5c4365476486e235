"""Reusable contraction plans: the one way a network is contracted.

The ordering heuristics (:mod:`repro.tensornetwork.ordering`) decide which
tensor pair to contract from tensor *shapes* and index labels only, so two
networks with the same labels and the same tensor shapes contract in the
same order regardless of the tensor values.  Every evaluation in the library
exploits this: the ordering work and all label bookkeeping are paid once,
and the order is replayed on tensor values as a flat sequence of
precompiled ``dot`` kernels — for a one-off value
(:meth:`TensorNetwork.contract_to_scalar
<repro.tensornetwork.network.TensorNetwork.contract_to_scalar>`) as much as
for every trajectory of a fixed circuit (only the sampled Kraus tensor
values change).

:meth:`ContractionPlan.record` plans a network's contraction symbolically
and records it as a *slot program*: inputs occupy slots
``0..num_inputs-1``, step ``i`` writes its result to slot
``num_inputs + i``, and each step names the two slots it reads.  It
contracts nothing (an order over the entry budget raises
:class:`~repro.tensornetwork.network.ContractionMemoryError` before any
tensor is allocated).  :meth:`ContractionPlan.execute` replays the program
over a plain list of tensors.

A replay runs from the plan's *kernel table*, derived once from its input
shapes on the first replay and cached on the plan.  A step's kernel is
numpy's own ``tensordot`` decomposition, precomputed:
``dot(a.transpose(perm_a).reshape(shape_a), b.transpose(perm_b).reshape(shape_b)).reshape(shape_out)``
is what ``np.tensordot(a, b, (axes_a, axes_b))`` computes, so a replay is
bit-identical to a per-step ``tensordot`` replay while skipping
``tensordot``'s per-call axis validation and shape arithmetic (the whole
cost of a step on small tensors).  The same table carries each
specialization's row-batched kernels and the reverse sweep's environment
kernels, and one loop (:func:`_run`) executes every one of them.

When only a known subset of inputs varies between replays (the sampled Kraus
tensors of a trajectory, the substituted SVD factors of an approximation
term), :meth:`ContractionPlan.specialize` partially evaluates the plan over
the static inputs once — every contraction whose operands are (transitively)
independent of the variable positions is computed at specialisation time —
leaving a :class:`SpecializedPlan` that replays only the residual,
variable-dependent steps, from one list of row-batched kernels.

A replay picks one candidate tensor per variable position, so it is an
integer *index row*: Algorithm 1's terms and path truncation's paths pick an
SVD term per noise, a ``trajectories_tn`` sample its drawn Kraus operator.
:meth:`SpecializedPlan.execute_rows` is the one evaluator for such rows: it
gathers every row's candidates from their stacks into inputs with a leading
row axis and walks the residual steps once per chunk of rows.  A single
substitution (:meth:`SpecializedPlan.execute`) is a one-row batch: with one
row, each row kernel multiplies the same matrices as the sequential step, so
its value equals a full :meth:`ContractionPlan.execute` with the same inputs
bit for bit.  Batched contractions of many rows sum in a different order,
so their values agree with one-row replays to within a few ulps (≤1e-15
relative on the tracked workloads), not bit for bit.

:meth:`ContractionPlan.environments` differentiates a plan: the same
forward loop keeps the operands a reverse sweep needs, and the sweep returns
the environment of each requested input — the tensor whose full
contraction with that input gives the value, i.e. the value's derivative
with respect to it.  The ``tn`` backend's gradients read the environments of
the parametric gate tensors.

Plans are recorded over whatever circuit the session hands the backend —
since the optimizing passes (:mod:`repro.circuits.passes`) run before plan
construction, a recorded schedule covers the *optimized* network (fewer
tensors after fusion/folding/pruning), and the plan-cache key is derived from
that circuit's fingerprint.
"""

from __future__ import annotations

import math
from typing import AbstractSet, Dict, List, Sequence, Tuple

import numpy as np

from repro.tensornetwork.network import TensorNetwork
from repro.tensornetwork.ordering import plan_contraction
from repro.utils.blas import single_blas_thread
from repro.utils.validation import ValidationError

__all__ = ["ContractionPlan", "ROW_BATCH_ENTRIES", "SpecializedPlan", "row_chunk"]

#: Entry budget of one batched replay: :meth:`SpecializedPlan.execute_rows`
#: replays at most ``ROW_BATCH_ENTRIES // peak_intermediate_entries`` rows
#: at a time (see :func:`row_chunk`).
ROW_BATCH_ENTRIES = 2**20


def row_chunk(peak_intermediate_entries: int) -> int:
    """Rows per batched replay of a plan whose largest intermediate has this many entries.

    The chunk depends only on the plan, never on the caller or its workers,
    so a replay's rounding is the same wherever it runs.

    >>> row_chunk(16), row_chunk(2**14), row_chunk(2**30)
    (65536, 64, 1)
    """
    return max(1, ROW_BATCH_ENTRIES // max(1, peak_intermediate_entries))


#: One slot-program step: input slots ``a``/``b``, their contracted axes
#: (empty axes = outer product), and the output slot the result lands in.
_Step = Tuple[int, int, Tuple[int, ...], Tuple[int, ...], int]

#: One dot kernel (see :func:`_kernel`):
#: ``(perm_a, shape_a, perm_b, shape_b, shape_out, stacked, order)``.
_Kernel = tuple


class ContractionPlan:
    """A recorded pairwise contraction schedule, replayable on fresh tensors."""

    def __init__(
        self,
        steps: List[_Step],
        num_inputs: int,
        peak_intermediate_entries: int = 0,
    ) -> None:
        self.steps = steps
        #: Number of tensors the plan expects (the template's tensor count).
        self.num_inputs = num_inputs
        #: Entry count of the largest intermediate the schedule produces
        #: (recorded at planning time; the replay cost estimate).
        self.peak_intermediate_entries = peak_intermediate_entries
        #: The kernel table, derived on the first replay (see _kernel_table).
        self._table: _KernelTable | None = None

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
    def record(cls, network: TensorNetwork, strategy: str = "greedy") -> "ContractionPlan":
        """Plan the contraction of ``network`` to a scalar by ``strategy`` (greedy or sequential).

        The order comes from the network's shapes and labels alone
        (:func:`~repro.tensornetwork.ordering.plan_contraction`): nothing is
        contracted and the network is left untouched.  A caller that needs
        the value replays the plan over ``network.tensors``.  Raises
        :class:`~repro.tensornetwork.network.ContractionMemoryError` when a
        step would exceed ``network.max_intermediate_size``.
        """
        steps, peak = plan_contraction(network, strategy)
        return cls(steps, len(network.tensors), peak_intermediate_entries=peak)

    # ------------------------------------------------------------------
    def _check_inputs(self, tensors: Sequence) -> None:
        if len(tensors) != self.num_inputs:
            raise ValidationError(
                f"plan expects {self.num_inputs} tensors, got {len(tensors)}"
            )

    def _result_slot(self) -> int:
        return self.num_inputs + len(self.steps) - 1 if self.steps else 0

    def _kernel_table(self, tensors: Sequence) -> "_KernelTable":
        """The plan's kernel table, derived from ``tensors``' shapes on first use.

        Every replay passes tensors of the template's shapes, so the table is
        built once per plan (a plan-cache hit or another binding sharing the
        plan reuses it).  It is built whole before the one assignment, so two
        threads racing on a first replay both get a complete, equal table.
        """
        table = self._table
        if table is None:
            table = _KernelTable(self.steps, [tensor.shape for tensor in tensors])
            self._table = table
        return table

    def execute(self, tensors: List[np.ndarray]) -> complex:
        """Replay the schedule over ``tensors`` and return the scalar result.

        ``tensors`` must match the template's tensor order and shapes; only the
        values may differ.
        """
        self._check_inputs(tensors)
        table = self._kernel_table(tensors)
        buffer = list(tensors) + [None] * len(self.steps)
        return _scalar(_replay(buffer, table.forward, self._result_slot()))

    def environments(
        self, tensors: List[np.ndarray], positions: Sequence[int]
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
        operand's axis order (one precomputed kernel per operand, see
        :func:`_environment_kernel`).  Each environment has its input's shape.
        """
        self._check_inputs(tensors)
        wanted = {int(position) for position in positions}
        unknown = sorted(position for position in wanted if not 0 <= position < self.num_inputs)
        if unknown:
            raise ValidationError(f"environment positions {unknown} out of range")
        table = self._kernel_table(tensors)
        # A slot is on a path to a requested input exactly when it is not
        # static in the specialization over those inputs.
        _, _, static = table.specialization(frozenset(wanted))
        keep = {
            other
            for slot_a, slot_b, _, _, _ in self.steps
            for slot, other in ((slot_a, slot_b), (slot_b, slot_a))
            if not static[slot]
        }
        buffer = list(tensors) + [None] * len(self.steps)
        result = _replay(buffer, table.forward, self._result_slot(), keep=keep)
        envs = {self._result_slot(): np.full(result.shape, 1.0, dtype=complex)}
        for (slot_a, slot_b, _, _, out), (kernel_a, kernel_b) in zip(
            reversed(self.steps), reversed(table.reverse())
        ):
            if static[out]:
                continue
            env = envs.pop(out)
            if not static[slot_a]:
                envs[slot_a] = _apply(kernel_a, env, buffer[slot_b])
            if not static[slot_b]:
                envs[slot_b] = _apply(kernel_b, env, buffer[slot_a])
            buffer[slot_a] = buffer[slot_b] = None
        return _scalar(result), {position: envs[position] for position in sorted(wanted)}

    def specialize(
        self,
        tensors: Sequence[np.ndarray],
        variable_positions: Sequence[int],
    ) -> "SpecializedPlan":
        """Partially evaluate the plan over every input *not* in ``variable_positions``.

        ``tensors`` supplies the static input values (entries at variable
        positions are ignored, but their shapes are read); the returned
        :class:`SpecializedPlan` accepts fresh values for the variable
        positions per call and replays only the steps that depend on them.
        Only the static intermediates a residual step reads stay baked.  The
        split into baked and residual steps and the residual steps' row
        kernels are derived once per set of variable positions and cached on
        the kernel table, so specializing another binding only computes the
        baked values.
        """
        self._check_inputs(tensors)
        variable = {int(position) for position in variable_positions}
        unknown = sorted(position for position in variable if not 0 <= position < self.num_inputs)
        if unknown:
            raise ValidationError(f"variable positions {unknown} out of range")
        table = self._kernel_table(tensors)
        baked_steps, rows, static = table.specialization(frozenset(variable))
        baked: List[np.ndarray | None] = [
            tensor if static[position] else None for position, tensor in enumerate(tensors)
        ]
        baked += [None] * len(self.steps)
        _run(baked, baked_steps)
        return SpecializedPlan(
            baked,
            rows,
            sorted(variable),
            self._result_slot(),
            self.peak_intermediate_entries,
        )


class SpecializedPlan:
    """A partially evaluated :class:`ContractionPlan` (see :meth:`ContractionPlan.specialize`).

    Static intermediates are baked in, and the residual steps are kept once,
    as row-batched kernels.  :meth:`execute_rows` substitutes a candidate per
    variable position for every index row and replays the residual steps in
    one batched pass; :meth:`execute` is a one-row batch, bit-identical to a
    full :meth:`ContractionPlan.execute` replay with the same inputs:

        >>> import numpy as np
        >>> from repro.tensornetwork import ContractionPlan, TensorNetwork
        >>> network = TensorNetwork()
        >>> for tensor, labels in (([1, 2], (0,)), (np.eye(2), (0, 1)), ([1, 2], (1,))):
        ...     _ = network.add(np.array(tensor), labels)
        >>> plan = ContractionPlan.record(network)
        >>> specialized = plan.specialize(network.tensors, [1])
        >>> swap = np.array([[0, 1], [1, 0]], dtype=complex)
        >>> candidates = np.stack([network.tensors[1], swap])
        >>> values = specialized.execute_rows([candidates], np.array([[0], [1]])).tolist()
        >>> values
        [(5+0j), (4+0j)]
        >>> [specialized.execute([network.tensors[1]]), specialized.execute([swap])] == values
        True
        >>> plan.execute(network.tensors) == values[0]
        True
    """

    __slots__ = (
        "_baked",
        "_rows",
        "variable_positions",
        "_result_slot",
        "peak_intermediate_entries",
    )

    def __init__(
        self,
        baked: List[np.ndarray | None],
        rows: List[tuple],
        variable_positions: List[int],
        result_slot: int,
        peak_intermediate_entries: int,
    ) -> None:
        self._baked = baked
        #: The residual steps' row-batched kernels.
        self._rows = rows
        self.variable_positions = variable_positions
        self._result_slot = result_slot
        #: The recorded plan's largest intermediate (sizes row chunks).
        self.peak_intermediate_entries = peak_intermediate_entries

    @property
    def num_residual_steps(self) -> int:
        """Contractions actually replayed per call (the rest are baked)."""
        return len(self._rows)

    def execute(self, variables: Sequence[np.ndarray]) -> complex:
        """Return the scalar for the given variable-input values: a one-row :meth:`execute_rows`.

        ``variables[j]`` is the tensor for ``variable_positions[j]`` in this
        call (shapes must match the template's).
        """
        stacks = [tensor.reshape((1,) + tensor.shape) for tensor in variables]
        return complex(self.execute_rows(stacks, np.zeros((1, len(variables)), dtype=np.intp))[0])

    def execute_rows(self, factors: Sequence[np.ndarray], rows) -> np.ndarray:
        """Replay the plan for every index row at once; return a complex array ``[K]``.

        ``factors[j]`` stacks the candidate tensors of ``variable_positions[j]``
        along a leading axis (stacked once by the caller) and ``rows`` is an
        integer array of shape ``[K, len(factors)]``: row ``r`` substitutes
        ``factors[j][rows[r, j]]`` at every variable position.  Rows are replayed in chunks of
        :func:`row_chunk` rows; a chunk of one row is bit-identical to a full
        :meth:`ContractionPlan.execute`, and larger chunks agree with it to
        within a few ulps.

        A slot of the replay is either static (a baked tensor) or batched (a
        leading row axis in front of the sequential step's axes); every
        residual step has a batched operand, and its row kernel (see
        :func:`_kernel`) leaves the row axis first.  Without variables nothing
        is batched and the baked result is every row's value.  The replay
        runs on one BLAS thread (:func:`~repro.utils.blas.single_blas_thread`).
        """
        rows = self._check_rows(factors, rows)
        values = np.empty(len(rows), dtype=complex)
        chunk = row_chunk(self.peak_intermediate_entries)
        with single_blas_thread():
            for start in range(0, len(rows), chunk):
                block = rows[start : start + chunk]
                buffer = list(self._baked)
                for column, position in enumerate(self.variable_positions):
                    buffer[position] = factors[column][block[:, column]]
                entries = len(block) if self.variable_positions else 1
                result = _replay(buffer, self._rows, self._result_slot, entries)
                values[start : start + len(block)] = result.reshape(-1)
        return values

    def _check_rows(self, factors: Sequence[np.ndarray], rows) -> np.ndarray:
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


class _KernelTable:
    """Every step's dot kernels, derived once from a plan's input shapes.

    ``shapes[slot]`` is the shape of every slot of the slot program and
    ``forward[i]`` is step ``i`` as ``(slot_a, slot_b, out) + kernel``, the
    form :func:`_run` executes.  The reverse sweep's environment kernels are
    derived on the first :meth:`ContractionPlan.environments` call (plans
    that are only replayed never pay for them).
    """

    __slots__ = ("steps", "shapes", "forward", "_reverse", "_specializations")

    def __init__(self, steps: Sequence[_Step], input_shapes: Sequence[Tuple[int, ...]]) -> None:
        shapes: List[Tuple[int, ...]] = [tuple(shape) for shape in input_shapes]
        forward = []
        for slot_a, slot_b, axes_a, axes_b, out in steps:
            kernel = _kernel(shapes[slot_a], shapes[slot_b], axes_a, axes_b)
            shapes.append(kernel[4])
            forward.append((slot_a, slot_b, out) + kernel)
        self.steps = steps
        self.shapes = shapes
        self.forward = forward
        self._reverse: List[Tuple[_Kernel, _Kernel]] | None = None
        self._specializations: Dict[AbstractSet[int], tuple] = {}

    def specialization(self, variable: AbstractSet[int]) -> tuple:
        """``(baked_steps, rows, static)`` for the inputs in ``variable``.

        ``baked_steps`` are the forward kernels whose operands are all
        static, ``rows`` the row-batched kernels of the other (residual)
        steps, and ``static[slot]`` says whether a slot's value is fixed: a
        step is residual exactly when an operand depends on an input in
        ``variable``.  Derived on first use per variable set and built whole
        before it is stored, like the table itself.
        """
        cached = self._specializations.get(variable)
        if cached is not None:
            return cached
        num_inputs = len(self.shapes) - len(self.steps)
        static = [position not in variable for position in range(num_inputs)]
        static += [True] * len(self.steps)
        baked_steps, rows = [], []
        for step, kernel in zip(self.steps, self.forward):
            slot_a, slot_b, axes_a, axes_b, out = step
            if static[slot_a] and static[slot_b]:
                baked_steps.append(kernel)
                continue
            static[out] = False
            rows.append(
                (slot_a, slot_b, out)
                + _kernel(
                    self.shapes[slot_a],
                    self.shapes[slot_b],
                    axes_a,
                    axes_b,
                    rows_a=not static[slot_a],
                    rows_b=not static[slot_b],
                )
            )
        cached = self._specializations[variable] = (baked_steps, rows, static)
        return cached

    def reverse(self) -> List[Tuple[_Kernel, _Kernel]]:
        """Per step, the environment kernels of its operands ``a`` and ``b``."""
        reverse = self._reverse
        if reverse is None:
            shapes = self.shapes
            reverse = [
                (
                    _environment_kernel(shapes[out], shapes[slot_b], axes_a, axes_b, first=True),
                    _environment_kernel(shapes[out], shapes[slot_a], axes_b, axes_a, first=False),
                )
                for slot_a, slot_b, axes_a, axes_b, out in self.steps
            ]
            self._reverse = reverse
        return reverse


def _perm(axes) -> Tuple[int, ...] | None:
    """``axes`` as a transpose order, or None for the identity (the same view)."""
    axes = tuple(axes)
    return None if axes == tuple(range(len(axes))) else axes


def _kernel(
    shape_a: Tuple[int, ...],
    shape_b: Tuple[int, ...],
    axes_a: Sequence[int],
    axes_b: Sequence[int],
    rows_a: bool = False,
    rows_b: bool = False,
) -> _Kernel:
    """numpy's ``tensordot`` decomposition of one step, as data.

    Returns ``(perm_a, shape_a, perm_b, shape_b, shape_out, stacked,
    order)``: :func:`_run` computes ``(matmul if stacked else
    dot)(a.transpose(perm_a).reshape(shape_a),
    b.transpose(perm_b).reshape(shape_b)).reshape(shape_out)``, then
    transposes by ``order``.  A ``None`` permutation skips its transpose
    (the identity transpose is the same view, so nothing changes).

    ``shape_a``/``shape_b`` are the sequential operand shapes.  ``rows_a`` /
    ``rows_b`` mark operands that carry a leading row axis (the batched
    replay of :meth:`SpecializedPlan.execute_rows`); the row count is left as
    ``-1`` so one kernel serves every chunk size.  With neither, the kernel
    is exactly ``np.tensordot(a, b, (axes_a, axes_b))``; with one, it is
    ``tensordot`` over the row-shifted axes (then, for a batched ``b``, the
    row axis moved first); with both, one stacked ``matmul`` row by row.
    """
    free_a = [axis for axis in range(len(shape_a)) if axis not in axes_a]
    free_b = [axis for axis in range(len(shape_b)) if axis not in axes_b]
    kept_a = tuple(shape_a[axis] for axis in free_a)
    kept_b = tuple(shape_b[axis] for axis in free_b)
    size_a, size_b = math.prod(kept_a), math.prod(kept_b)
    shared = math.prod(shape_a[axis] for axis in axes_a)
    left, right = free_a + list(axes_a), list(axes_b) + free_b
    if rows_a and rows_b:
        return (
            _perm([0] + _shifted(left)), (-1, size_a, shared),
            _perm([0] + _shifted(right)), (-1, shared, size_b),
            (-1,) + kept_a + kept_b, True, None,
        )
    if rows_a:
        # The row axis leads a's free axes, so it leads the result too.
        return (
            _perm([0] + _shifted(left)), (-1, shared),
            _perm(right), (shared, size_b),
            (-1,) + kept_a + kept_b, False, None,
        )
    if rows_b:
        # tensordot leaves the row axis behind a's free axes; move it first.
        width = len(kept_a)
        order = [width] + list(range(width)) + list(range(width + 1, width + 1 + len(kept_b)))
        return (
            _perm(left), (size_a, shared),
            _perm(_shifted(axes_b) + [0] + _shifted(free_b)), (shared, -1),
            kept_a + (-1,) + kept_b, False, _perm(order),
        )
    return (
        _perm(left), (size_a, shared),
        _perm(right), (shared, size_b),
        kept_a + kept_b, False, None,
    )


def _shifted(axes: Sequence[int]) -> List[int]:
    """``axes`` past a leading row axis."""
    return [axis + 1 for axis in axes]


def _environment_kernel(
    shape_out: Tuple[int, ...],
    shape_other: Tuple[int, ...],
    axes_self: Sequence[int],
    axes_other: Sequence[int],
    first: bool,
) -> _Kernel:
    """Kernel of one operand's environment for ``out = tensordot(a, b, (axes_a, axes_b))``.

    The environment ``env`` of ``out`` (shape ``shape_out``: ``a``'s free
    axes then ``b``'s) is contracted with ``other``, the operand not
    differentiated, over ``other``'s free axes; ``axes_self`` /
    ``axes_other`` are the paired contracted axes of the operand and of
    ``other``, and ``first`` says whether the operand is ``a``.  The
    contraction leaves the operand's free axes, then its contracted axes in
    ``other``'s ascending order; the kernel's ``order`` transposes them back
    to the operand's own axis order.
    """
    free_other = [axis for axis in range(len(shape_other)) if axis not in axes_other]
    num_free_self = len(shape_out) - len(free_other)
    if first:
        env_axes = range(num_free_self, len(shape_out))
    else:
        env_axes = range(len(free_other))
    kernel = _kernel(shape_out, shape_other, tuple(env_axes), free_other)
    paired = dict(zip(axes_other, axes_self))
    labels = [axis for axis in range(num_free_self + len(axes_self)) if axis not in axes_self]
    labels += [paired[axis] for axis in sorted(axes_other)]
    return kernel[:6] + (_perm(labels.index(axis) for axis in range(len(labels))),)


def _apply(kernel: _Kernel, left, right):
    """One kernel on two operands (the reverse sweep's step; :func:`_run` inlines it)."""
    perm_a, shape_a, perm_b, shape_b, shape_out, stacked, order = kernel
    if perm_a is not None:
        left = left.transpose(perm_a)
    if perm_b is not None:
        right = right.transpose(perm_b)
    result = (np.matmul if stacked else np.dot)(left.reshape(shape_a), right.reshape(shape_b)).reshape(shape_out)
    return result if order is None else result.transpose(order)


def _run(buffer: List, kernels: Sequence[tuple], keep: AbstractSet[int] = frozenset()) -> None:
    """Execute ``(slot_a, slot_b, out) + kernel`` steps over the slot ``buffer``.

    The one replay loop: full replays, the row-batched replay and
    specialisation all run through it.  Every slot is read by exactly
    one step, so operands are released as soon as they are consumed (only
    the live intermediates stay in memory); slots in ``keep`` stay in
    ``buffer`` for a later reverse sweep (:meth:`ContractionPlan.environments`).
    """
    dot, matmul = np.dot, np.matmul
    for slot_a, slot_b, out, perm_a, shape_a, perm_b, shape_b, shape_out, stacked, order in kernels:
        left, right = buffer[slot_a], buffer[slot_b]
        if perm_a is not None:
            left = left.transpose(perm_a)
        if perm_b is not None:
            right = right.transpose(perm_b)
        result = (matmul if stacked else dot)(left.reshape(shape_a), right.reshape(shape_b)).reshape(shape_out)
        buffer[out] = result if order is None else result.transpose(order)
        if slot_a not in keep:
            buffer[slot_a] = None
        if slot_b not in keep:
            buffer[slot_b] = None


def _replay(
    buffer: List,
    kernels: Sequence[tuple],
    result_slot: int,
    entries: int = 1,
    keep: AbstractSet[int] = frozenset(),
):
    """:func:`_run` ``kernels`` over ``buffer``; return the result slot's ``entries`` values."""
    _run(buffer, kernels, keep)
    result = buffer[result_slot]
    if result is None or result.size != entries:
        raise ValidationError("plan did not reduce the network to a scalar")
    return result


def _scalar(result) -> complex:
    """A one-entry replay result as a Python complex."""
    return complex(result.reshape(()))
