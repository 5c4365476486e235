"""Contraction ordering: the one planner every network is contracted by.

The efficiency of tensor-network simulation is dominated by the order in
which tensors are contracted (the paper notes this for its TN-based
baseline).  :func:`plan_contraction` decides that order from the network's
tensor *shapes* and index labels alone (two tensors are adjacent when they
share a label) — it never reads a tensor entry and never allocates one —
and emits it as the slot program
:class:`~repro.tensornetwork.plan.ContractionPlan` replays.  Two heuristics
pick the next pair:

* ``"greedy"`` — the connected pair whose result tensor is smallest (ties
  broken by the largest immediate size reduction, then by enumeration
  order).  This is the default everywhere and is the same flavour of
  heuristic the Google TensorNetwork / opt_einsum "greedy" path uses.
* ``"sequential"`` — the first tensor (in network order) that has a
  neighbour, with its first neighbour; cheap to plan but can build huge
  intermediates.  Used as the ablation baseline.

Either way, disconnected components are then joined by outer products,
oldest first.  A step's result lands after every live tensor, its axes are
``a``'s remaining axes followed by ``b``'s, and a step over the entry budget
(``network.max_intermediate_size``) raises
:class:`~repro.tensornetwork.network.ContractionMemoryError` before anything
is contracted.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.tensornetwork.network import ContractionMemoryError, TensorNetwork
from repro.utils.validation import ValidationError

__all__ = ["plan_contraction"]


def plan_contraction(network: TensorNetwork, strategy: str = "greedy") -> Tuple[List[tuple], int]:
    """Order the pairwise contractions of ``network`` down to a scalar.

    Returns ``(steps, peak)``: ``steps`` is the slot program (inputs occupy
    slots ``0..len(network.tensors)-1`` in network order, step ``i`` reads
    slots ``a`` and ``b``, contracts ``axes_a`` with ``axes_b`` and writes
    slot ``len(network.tensors) + i``) and ``peak`` the entry count of its
    largest intermediate.  The network is left untouched.  A malformed
    description (a tensor whose label count is not its rank, a label on more
    than two axes, a bond joining unequal dimensions, a self-loop) raises
    :class:`~repro.utils.validation.ValidationError`.
    """
    if not network.tensors:
        raise ValidationError("cannot contract an empty network")
    if strategy not in ("greedy", "sequential"):
        raise ValidationError(f"unknown contraction strategy {strategy!r}")
    #: Per live slot (ascending: a result takes the next slot), the label of
    #: every axis; a self-loop appears twice.
    legs: Dict[int, List[int]] = {}
    sizes: Dict[int, int] = {}
    #: Per label, its dimension and its endpoint slots (one for a free index).
    dims: Dict[int, int] = {}
    ends: Dict[int, List[int]] = {}
    for slot, (tensor, labels) in enumerate(zip(network.tensors, network.labels)):
        if len(labels) != tensor.ndim:
            raise ValidationError(f"tensor {slot} has {tensor.ndim} axes but {len(labels)} labels")
        legs[slot] = list(labels)
        sizes[slot] = int(tensor.size)
        for label, dim in zip(labels, tensor.shape):
            slots = ends.setdefault(label, [])
            if len(slots) == 2:
                raise ValidationError(f"label {label} is on more than two axes")
            if slots and dims[label] != dim:
                raise ValidationError(f"bond {label} joins axes of dimension {dims[label]} and {dim}")
            dims[label] = dim
            slots.append(slot)

    def neighbours(slot: int) -> Dict[int, int]:
        """Distinct neighbour slots in axis order, each with its shared dimension."""
        shared: Dict[int, int] = {}
        for label in legs[slot]:
            pair = ends[label]
            if len(pair) == 2:
                other = pair[1] if pair[0] == slot else pair[0]
                shared[other] = shared.get(other, 1) * dims[label]
        return shared

    def greedy_candidate(slot: int):
        """``(key, slot, other)``: ``slot``'s first smallest-result pair with a later (or the same) slot."""
        best = None
        for other, shared in adjacency[slot].items():
            if other < slot:
                continue  # enumerated from ``other``, which comes first
            size = (sizes[slot] // shared) * (sizes[other] // shared)
            key = (size, size - sizes[slot] - sizes[other])  # smallest, then largest reduction
            if best is None or key < best[0]:
                best = (key, slot, other)
        return best

    def next_pair():
        """The connected pair the strategy contracts next (None when none is left)."""
        if strategy == "sequential":
            return next(((slot, next(iter(adjacency[slot]))) for slot in legs if adjacency[slot]), None)
        # Ties on the key go to the lower slot: the pair enumerated first.
        best = min(filter(None, candidates.values()), default=None)
        return None if best is None else best[1:]

    adjacency = {slot: neighbours(slot) for slot in legs}
    candidates = {slot: greedy_candidate(slot) for slot in legs}
    budget = network.max_intermediate_size
    steps: List[tuple] = []
    peak = 0
    while True:
        pair = next_pair()
        if pair is None:
            if len(legs) == 1:
                break
            # With no connected pair left, join the two oldest components.
            pair = tuple(legs)[:2]
        a, b = pair
        if a == b:
            raise ValidationError("self-contraction (trace) is not supported")
        shared = adjacency[a].get(b, 1)
        size = (sizes[a] // shared) * (sizes[b] // shared)
        if budget is not None and size > budget:
            raise ContractionMemoryError(
                f"intermediate tensor with {size} entries exceeds the budget of {budget} entries"
            )
        peak = max(peak, size)
        out = len(network.tensors) + len(steps)
        contracted = [label for label in legs[a] if ends[label] in ([a, b], [b, a])]
        axes_a = tuple(legs[a].index(label) for label in contracted)
        axes_b = tuple(legs[b].index(label) for label in contracted)
        steps.append((a, b, axes_a, axes_b, out))
        # The result's axes: a's remaining axes, then b's.
        legs[out] = [label for label in legs.pop(a) + legs.pop(b) if label not in contracted]
        for label in legs[out]:
            ends[label] = [out if end in (a, b) else end for end in ends[label]]
        sizes[out] = size
        touched = (set(adjacency.pop(a)) | set(adjacency.pop(b)) | {out}) - {a, b}
        del candidates[a], candidates[b]
        for slot in touched:
            adjacency[slot] = neighbours(slot)
        for slot in touched:
            candidates[slot] = greedy_candidate(slot)
    (result,) = legs
    if sizes[result] != 1:
        shape = tuple(dims[label] for label in legs[result])
        raise ValidationError(f"network does not contract to a scalar (residual shape {shape})")
    return steps, peak
