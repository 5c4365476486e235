"""A small from-scratch tensor-network engine.

Replaces the Google TensorNetwork dependency used by the paper's reference
implementation: nodes wrapping dense numpy tensors, edges, builders that turn
circuits into the diagrams of Sections III and IV of the paper, and one
contraction path — a symbolic planner (greedy or sequential ordering, with a
configurable intermediate-size budget checked at plan time) whose
:class:`ContractionPlan` computes every value by replay.
"""

from repro.tensornetwork.circuit_to_tn import (
    circuit_amplitude_network,
    noisy_doubled_network,
    noisy_observable_network,
    operator_amplitude_network,
    resolve_product_state,
)
from repro.tensornetwork.network import ContractionMemoryError, TensorNetwork
from repro.tensornetwork.node import Edge, Node, connect
from repro.tensornetwork.plan import ContractionPlan

__all__ = [
    "TensorNetwork",
    "ContractionMemoryError",
    "ContractionPlan",
    "Node",
    "Edge",
    "connect",
    "circuit_amplitude_network",
    "noisy_doubled_network",
    "noisy_observable_network",
    "operator_amplitude_network",
    "resolve_product_state",
]
