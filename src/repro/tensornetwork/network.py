"""Tensor network container."""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["TensorNetwork", "ContractionMemoryError"]


class ContractionMemoryError(MemoryError):
    """Raised when a contraction would exceed the configured intermediate-size budget.

    The planner raises it before any tensor is contracted.  The benchmark
    harness catches this to report "MO" (memory out) entries, mirroring the
    MO cells of the paper's Table II.
    """


class TensorNetwork:
    """Tensors with one integer index label per axis.

    ``tensors[i]`` carries ``labels[i]``, one label per axis.  A label on two
    axes is a bond (the axes are summed over together and must have equal
    dimensions); a label on one axis is a free index.  A network is a
    description: planning its contraction
    (:func:`~repro.tensornetwork.ordering.plan_contraction`, which rejects a
    malformed one) reads only the shapes and labels, and a plan replays over
    any tensors of those shapes, so nothing here ever changes a tensor.

    >>> network = TensorNetwork()
    >>> network.add([1.0, 2.0], (7,))
    0
    >>> network.add([3.0, 4.0], (7,))
    1
    >>> network.contract_to_scalar()
    (11+0j)
    """

    def __init__(self, max_intermediate_size: int | None = None) -> None:
        self.tensors: List[np.ndarray] = []
        self.labels: List[Tuple[int, ...]] = []
        #: Maximum number of entries allowed in any intermediate tensor.  None
        #: disables the check.
        self.max_intermediate_size = max_intermediate_size

    def add(self, tensor: np.ndarray, labels: Sequence[int]) -> int:
        """Append ``tensor`` (as a complex array) with one label per axis; return its position."""
        self.tensors.append(np.asarray(tensor, dtype=complex))
        self.labels.append(tuple(int(label) for label in labels))
        return len(self.tensors) - 1

    def contract_to_scalar(self, strategy: str = "greedy") -> complex:
        """Contract a network without free indices to a complex number.

        Plans the order (:meth:`ContractionPlan.record
        <repro.tensornetwork.plan.ContractionPlan.record>`, ``strategy``
        ``"greedy"`` or ``"sequential"``), then replays it over the tensors;
        the network is left untouched.
        """
        from repro.tensornetwork.plan import ContractionPlan

        plan = ContractionPlan.record(self, strategy=strategy)
        return plan.execute(self.tensors)
