"""Nodes and edges of a tensor network.

The engine is deliberately small: a :class:`Node` wraps a dense numpy tensor
and labels each axis with an :class:`Edge`.  Edges are either *dangling*
(free indices of the network) or connect exactly two node axes of equal
dimension.  This is the same model exposed by the Google TensorNetwork
package the paper uses; only the features needed for circuit simulation are
implemented.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple

from repro.utils.validation import ValidationError

from repro.xp import declare_seam
from repro.xp import host as np

declare_seam(__name__, mode="host")

__all__ = ["Edge", "Node"]

_edge_counter = itertools.count()
_node_counter = itertools.count()


class Edge:
    """A (possibly dangling) index shared by at most two node axes."""

    __slots__ = ("id", "name", "node1", "axis1", "node2", "axis2")

    def __init__(
        self,
        node1: "Node",
        axis1: int,
        node2: Optional["Node"] = None,
        axis2: Optional[int] = None,
        name: str | None = None,
    ) -> None:
        self.id = next(_edge_counter)
        self.name = name or f"edge{self.id}"
        self.node1 = node1
        self.axis1 = int(axis1)
        self.node2 = node2
        self.axis2 = None if axis2 is None else int(axis2)

    @property
    def is_dangling(self) -> bool:
        """True when the edge has only one endpoint."""
        return self.node2 is None

    @property
    def dimension(self) -> int:
        """Dimension of the index the edge labels."""
        return self.node1.tensor.shape[self.axis1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        right = "∅" if self.is_dangling else f"{self.node2.name}[{self.axis2}]"
        return f"<Edge {self.name}: {self.node1.name}[{self.axis1}] -- {right}>"


class Node:
    """A tensor together with one edge per axis."""

    __slots__ = ("id", "name", "tensor", "edges")

    def __init__(self, tensor: np.ndarray, name: str | None = None) -> None:
        self.id = next(_node_counter)
        self.name = name or f"node{self.id}"
        self.tensor = np.asarray(tensor, dtype=complex)
        self.edges: List[Edge] = [Edge(self, axis) for axis in range(self.tensor.ndim)]

    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """Number of tensor axes."""
        return self.tensor.ndim

    @property
    def size(self) -> int:
        """Total number of tensor entries."""
        return int(self.tensor.size)

    @property
    def shape(self) -> Tuple[int, ...]:
        """Tensor shape."""
        return tuple(self.tensor.shape)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Node {self.name} shape={self.shape}>"


def connect(edge_a: Edge, edge_b: Edge, name: str | None = None) -> Edge:
    """Join two dangling edges into a single shared edge.

    Returns the merged edge (attached to both nodes); the second edge object
    is invalidated and must no longer be used.
    """
    if not edge_a.is_dangling or not edge_b.is_dangling:
        raise ValidationError("only dangling edges can be connected")
    if edge_a is edge_b:
        raise ValidationError("cannot connect an edge to itself")
    if edge_a.dimension != edge_b.dimension:
        raise ValidationError(
            f"cannot connect edges of dimension {edge_a.dimension} and {edge_b.dimension}"
        )
    edge_a.node2 = edge_b.node1
    edge_a.axis2 = edge_b.axis1
    if name:
        edge_a.name = name
    edge_b.node1.edges[edge_b.axis1] = edge_a
    return edge_a
