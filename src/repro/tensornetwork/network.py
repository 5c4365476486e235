"""Tensor network container and pairwise contraction."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.tensornetwork.node import Edge, Node, connect
from repro.utils.validation import ValidationError

from repro.xp import declare_seam
from repro.xp import host as np

declare_seam(__name__, mode="host")

__all__ = ["TensorNetwork", "ContractionMemoryError", "contract_nodes"]


class ContractionMemoryError(MemoryError):
    """Raised when a contraction would exceed the configured intermediate-size budget.

    The benchmark harness catches this to report "MO" (memory out) entries,
    mirroring the MO cells of the paper's Table II.
    """


def contract_nodes(node_a: Node, node_b: Node, name: str | None = None) -> Node:
    """Contract all shared edges between two nodes and return the result node.

    The result's edges are the remaining edges of ``node_a`` (in axis order)
    followed by the remaining edges of ``node_b``; edge objects are re-pointed
    at the new node so the rest of the network stays consistent.
    """
    if node_a is node_b:
        raise ValidationError("self-contraction (trace) is not supported")
    shared: List[Edge] = []
    for edge in node_a.edges:
        if not edge.is_dangling and edge.other(node_a) is node_b and edge not in shared:
            shared.append(edge)

    axes_a = [edge.axis_of(node_a) for edge in shared]
    axes_b = [edge.axis_of(node_b) for edge in shared]
    if shared:
        tensor = np.tensordot(node_a.tensor, node_b.tensor, axes=(axes_a, axes_b))
    else:
        tensor = np.tensordot(node_a.tensor, node_b.tensor, axes=0)

    result = Node(tensor, name=name or f"({node_a.name}*{node_b.name})")
    remaining_a = [edge for axis, edge in enumerate(node_a.edges) if axis not in axes_a]
    remaining_b = [edge for axis, edge in enumerate(node_b.edges) if axis not in axes_b]
    new_edges = remaining_a + remaining_b
    for new_axis, edge in enumerate(new_edges):
        if edge.node1 is node_a or edge.node1 is node_b:
            edge.node1 = result
            edge.axis1 = new_axis
        elif edge.node2 is node_a or edge.node2 is node_b:
            edge.node2 = result
            edge.axis2 = new_axis
        else:  # pragma: no cover - defensive
            raise ValidationError("inconsistent edge bookkeeping during contraction")
    result.edges = new_edges
    return result


class TensorNetwork:
    """A collection of nodes with shared edges.

    The network owns its nodes; :meth:`contract` destroys the node structure
    (it repeatedly merges nodes), so build a fresh network per evaluation —
    which is what all simulator front-ends in this library do.
    """

    def __init__(self, name: str = "network", max_intermediate_size: int | None = None) -> None:
        self.name = name
        self.nodes: List[Node] = []
        #: Maximum number of entries allowed in any intermediate tensor.  None
        #: disables the check.
        self.max_intermediate_size = max_intermediate_size
        #: Optional callback ``observer(network, node_a, node_b)`` invoked
        #: before every pairwise contraction; used by
        #: :class:`repro.tensornetwork.plan.ContractionPlan` to record schedules.
        self.observer = None

    # ------------------------------------------------------------------
    def add_node(self, tensor: np.ndarray, name: str | None = None) -> Node:
        """Wrap ``tensor`` in a node and add it to the network."""
        node = Node(tensor, name=name)
        self.nodes.append(node)
        return node

    def add(self, node: Node) -> Node:
        """Add an existing node to the network."""
        self.nodes.append(node)
        return node

    def connect(self, edge_a: Edge, edge_b: Edge, name: str | None = None) -> Edge:
        """Connect two dangling edges of nodes in this network."""
        return connect(edge_a, edge_b, name=name)

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes currently in the network."""
        return len(self.nodes)

    def dangling_edges(self) -> List[Edge]:
        """All dangling edges of the network, in node insertion order."""
        edges: List[Edge] = []
        for node in self.nodes:
            edges.extend(node.dangling_edges())
        return edges

    def total_size(self) -> int:
        """Sum of entries over all node tensors (a coarse memory estimate)."""
        return sum(node.size for node in self.nodes)

    # ------------------------------------------------------------------
    def _check_budget(self, size: int) -> None:
        if self.max_intermediate_size is not None and size > self.max_intermediate_size:
            raise ContractionMemoryError(
                f"intermediate tensor with {size} entries exceeds the budget of "
                f"{self.max_intermediate_size} entries"
            )

    def contract_pair(self, node_a: Node, node_b: Node) -> Node:
        """Contract two member nodes and replace them with the result."""
        if node_a not in self.nodes or node_b not in self.nodes:
            raise ValidationError("both nodes must belong to this network")
        if self.observer is not None:
            self.observer(self, node_a, node_b)
        shared_dim = 1
        for edge in node_a.edges:
            if not edge.is_dangling and edge.other(node_a) is node_b:
                shared_dim *= edge.dimension
        result_size = (node_a.size // shared_dim) * (node_b.size // shared_dim)
        self._check_budget(result_size)
        result = contract_nodes(node_a, node_b)
        self.nodes.remove(node_a)
        self.nodes.remove(node_b)
        self.nodes.append(result)
        # The consumed nodes and their shared edges reference each other;
        # dropping the edge lists breaks that cycle so each operand tensor is
        # freed now rather than at the next cyclic garbage collection.
        node_a.edges = node_b.edges = []
        return result

    def contract(
        self,
        order: Optional[Sequence[tuple]] = None,
        strategy: str = "greedy",
        output_edge_order: Optional[Sequence[Edge]] = None,
    ) -> np.ndarray:
        """Contract the whole network down to a single tensor.

        Parameters
        ----------
        order:
            Explicit list of node pairs to contract, as produced by the
            ordering heuristics.  When omitted, ``strategy`` selects one of the
            heuristics in :mod:`repro.tensornetwork.ordering`.
        strategy:
            ``"greedy"`` (default) or ``"sequential"``.
        output_edge_order:
            Optional ordering of the remaining dangling edges for the final
            transpose.
        """
        from repro.tensornetwork import ordering as ordering_mod

        if not self.nodes:
            raise ValidationError("cannot contract an empty network")

        if order is not None:
            for node_a, node_b in order:
                self.contract_pair(node_a, node_b)
        else:
            if strategy == "greedy":
                ordering_mod.contract_greedy(self)
            elif strategy == "sequential":
                ordering_mod.contract_sequential(self)
            else:
                raise ValidationError(f"unknown contraction strategy {strategy!r}")

        # Combine any disconnected components with outer products.
        while len(self.nodes) > 1:
            node_a, node_b = self.nodes[0], self.nodes[1]
            self.contract_pair(node_a, node_b)

        final = self.nodes[0]
        if output_edge_order is not None:
            if len(output_edge_order) != final.rank:
                raise ValidationError(
                    "output_edge_order must list every remaining dangling edge"
                )
            perm = [final.edges.index(edge) for edge in output_edge_order]
            tensor = np.transpose(final.tensor, perm)
        else:
            tensor = final.tensor
        return tensor

    def contract_to_scalar(self, strategy: str = "greedy") -> complex:
        """Contract a network with no dangling edges to a complex number."""
        tensor = self.contract(strategy=strategy)
        if tensor.size != 1:
            raise ValidationError(
                f"network does not contract to a scalar (residual shape {tensor.shape})"
            )
        return complex(tensor.reshape(()))
