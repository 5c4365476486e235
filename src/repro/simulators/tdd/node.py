"""Decision-diagram nodes and the unique table.

The TDD-based baseline of the paper represents tensors as decision diagrams
(their reference [32]).  The implementation here follows the QMDD flavour
commonly used for quantum simulation: every internal node splits on one qubit
level and has four outgoing edges indexed by the (row bit, column bit) pair
of that qubit; shared sub-diagrams are deduplicated through a unique table,
and edge weights carry the complex factors.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["DDNode", "DDEdge", "UniqueTable", "TERMINAL", "WEIGHT_DECIMALS"]

#: Number of decimals used when hashing complex weights.  Values closer than
#: 10**-WEIGHT_DECIMALS are treated as identical, which keeps the diagrams
#: canonical in the presence of floating-point noise.
WEIGHT_DECIMALS = 12


def _round_complex(value: complex) -> complex:
    return complex(round(value.real, WEIGHT_DECIMALS), round(value.imag, WEIGHT_DECIMALS))


class DDNode:
    """An internal (or terminal) decision-diagram node.

    ``level`` is the qubit the node branches on (0 is the most significant
    qubit); ``edges`` holds the four outgoing edges in (row bit, column bit)
    order: ``(0,0), (0,1), (1,0), (1,1)``.  The terminal node has
    ``level = -1`` and no edges.
    """

    __slots__ = ("level", "edges", "_hash")

    def __init__(self, level: int, edges: Optional[Tuple["DDEdge", ...]] = None) -> None:
        self.level = level
        self.edges = edges or ()
        self._hash = None

    @property
    def is_terminal(self) -> bool:
        """True for the unique terminal node."""
        return self.level < 0

    def key(self) -> tuple:
        """Canonical hashing key (level + children ids + rounded weights)."""
        return (
            self.level,
            tuple((id(edge.node), _round_complex(edge.weight)) for edge in self.edges),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_terminal:
            return "<DD terminal>"
        return f"<DDNode level={self.level}>"


class DDEdge:
    """A weighted edge pointing at a node."""

    __slots__ = ("weight", "node")

    def __init__(self, weight: complex, node: DDNode) -> None:
        self.weight = complex(weight)
        self.node = node

    def is_zero(self, atol: float = 1e-14) -> bool:
        """True when the edge contributes nothing (zero weight)."""
        return abs(self.weight) <= atol

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<DDEdge {self.weight:.4g} -> {self.node!r}>"


#: The shared terminal node.
TERMINAL = DDNode(level=-1)


class UniqueTable:
    """Hash-consing table guaranteeing canonical, shared sub-diagrams."""

    def __init__(self) -> None:
        self._table: Dict[tuple, DDNode] = {}

    def get_node(self, level: int, edges: Tuple[DDEdge, ...]) -> DDEdge:
        """Return a normalised edge to a (possibly shared) node with the given children.

        Normalisation: the first edge with the largest-magnitude weight is
        scaled to 1 and its weight pulled out into the returned edge weight.
        A node whose children are all zero collapses to a zero edge to the
        terminal.
        """
        weights = np.array([edge.weight for edge in edges], dtype=complex)
        if np.all(np.abs(weights) <= 1e-14):
            return DDEdge(0.0, TERMINAL)
        pivot_index = int(np.argmax(np.abs(weights)))
        pivot = weights[pivot_index]
        normalised = tuple(
            DDEdge(edge.weight / pivot if abs(edge.weight) > 1e-14 else 0.0,
                   edge.node if abs(edge.weight) > 1e-14 else TERMINAL)
            for edge in edges
        )
        probe = DDNode(level, normalised)
        key = probe.key()
        node = self._table.get(key)
        if node is None:
            node = probe
            self._table[key] = node
        return DDEdge(pivot, node)

    def __len__(self) -> int:
        return len(self._table)

    def clear(self) -> None:
        """Drop all cached nodes (used between independent simulations)."""
        self._table.clear()
