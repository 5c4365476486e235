"""Tensor network container."""

from __future__ import annotations

from typing import List

from repro.tensornetwork.node import Edge, Node, connect

from repro.xp import declare_seam
from repro.xp import host as np

declare_seam(__name__, mode="host")

__all__ = ["TensorNetwork", "ContractionMemoryError"]


class ContractionMemoryError(MemoryError):
    """Raised when a contraction would exceed the configured intermediate-size budget.

    The planner raises it before any tensor is contracted.  The benchmark
    harness catches this to report "MO" (memory out) entries, mirroring the
    MO cells of the paper's Table II.
    """


class TensorNetwork:
    """A collection of nodes with shared edges.

    A network is a description: planning its contraction reads only the
    node shapes and the edges, and a plan replays over any tensors of those
    shapes, so nothing here ever changes the nodes.
    """

    def __init__(self, name: str = "network", max_intermediate_size: int | None = None) -> None:
        self.name = name
        self.nodes: List[Node] = []
        #: Maximum number of entries allowed in any intermediate tensor.  None
        #: disables the check.
        self.max_intermediate_size = max_intermediate_size

    # ------------------------------------------------------------------
    def add_node(self, tensor: np.ndarray, name: str | None = None) -> Node:
        """Wrap ``tensor`` in a node and add it to the network."""
        node = Node(tensor, name=name)
        self.nodes.append(node)
        return node

    def connect(self, edge_a: Edge, edge_b: Edge, name: str | None = None) -> Edge:
        """Connect two dangling edges of nodes in this network."""
        return connect(edge_a, edge_b, name=name)

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes in the network."""
        return len(self.nodes)

    def contract_to_scalar(self, strategy: str = "greedy") -> complex:
        """Contract a network with no dangling edges to a complex number.

        Plans the order (:meth:`ContractionPlan.record
        <repro.tensornetwork.plan.ContractionPlan.record>`, ``strategy``
        ``"greedy"`` or ``"sequential"``), then replays it over the node
        tensors; the network is left untouched.
        """
        from repro.tensornetwork.plan import ContractionPlan

        plan = ContractionPlan.record(self, strategy=strategy)
        return plan.execute([node.tensor for node in self.nodes])
