"""Tests for the tensor-network engine (nodes, edges, contraction).

Every contraction is planned (``ContractionPlan.record``) and then replayed;
these tests drive both through ``TensorNetwork.contract_to_scalar``.
"""

import numpy as np
import pytest

from repro.tensornetwork import (
    ContractionMemoryError,
    ContractionPlan,
    Node,
    TensorNetwork,
    connect,
)
from repro.utils.validation import ValidationError


class TestNodesAndEdges:
    def test_node_creation(self):
        node = Node(np.zeros((2, 3, 4)), name="a")
        assert node.rank == 3
        assert node.shape == (2, 3, 4)
        assert node.size == 24
        assert all(edge.is_dangling for edge in node.edges)

    def test_connect_matching_dimensions(self):
        a = Node(np.zeros((2, 3)))
        b = Node(np.zeros((3, 4)))
        edge = connect(a.edges[1], b.edges[0])
        assert not edge.is_dangling
        assert edge.dimension == 3
        assert (edge.node1, edge.node2) == (a, b)

    def test_connect_dimension_mismatch(self):
        a = Node(np.zeros((2, 3)))
        b = Node(np.zeros((4, 4)))
        with pytest.raises(ValidationError):
            connect(a.edges[1], b.edges[0])

    def test_connect_already_connected(self):
        a = Node(np.zeros((2, 2)))
        b = Node(np.zeros((2, 2)))
        c = Node(np.zeros((2, 2)))
        edge = connect(a.edges[0], b.edges[0])
        with pytest.raises(ValidationError):
            connect(edge, c.edges[0])

    def test_edge_endpoints_and_axes(self):
        a = Node(np.zeros((2, 2)))
        b = Node(np.zeros((2, 2)))
        edge = connect(a.edges[1], b.edges[0])
        assert (edge.node1, edge.axis1, edge.node2, edge.axis2) == (a, 1, b, 0)
        assert a.edges[1] is b.edges[0] is edge


def _closed(tensors, bonds):
    """A network of ``tensors`` joined by ``bonds`` of ``(node, axis, node, axis)``."""
    network = TensorNetwork()
    nodes = [network.add_node(tensor, name=f"t{i}") for i, tensor in enumerate(tensors)]
    for a, axis_a, b, axis_b in bonds:
        network.connect(nodes[a].edges[axis_a], nodes[b].edges[axis_b])
    return network


class TestPairContraction:
    def test_matrix_product(self):
        rng = np.random.default_rng(0)
        u, w = rng.normal(size=3), rng.normal(size=5)
        a_mat, b_mat = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
        network = _closed([u, a_mat, b_mat, w], [(0, 0, 1, 0), (1, 1, 2, 0), (2, 1, 3, 0)])
        assert network.contract_to_scalar() == pytest.approx(u @ a_mat @ b_mat @ w)

    def test_outer_product_when_disconnected(self):
        # Two components: the plan's last step joins them by an outer product.
        network = _closed(
            [np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0]), np.array([7.0, 8.0])],
            [(0, 0, 1, 0), (2, 0, 3, 0)],
        )
        plan = ContractionPlan.record(network)
        assert plan.steps[-1][2:4] == ((), ())
        assert network.contract_to_scalar() == pytest.approx(11.0 * 83.0)

    def test_multi_edge_contraction(self):
        rng = np.random.default_rng(1)
        a_mat = rng.normal(size=(2, 3, 4))
        b_mat = rng.normal(size=(2, 3, 5))
        u, w = rng.normal(size=4), rng.normal(size=5)
        network = _closed(
            [a_mat, b_mat, u, w], [(0, 0, 1, 0), (0, 1, 1, 1), (0, 2, 2, 0), (1, 2, 3, 0)]
        )
        plan = ContractionPlan.record(network)
        # Both shared edges of the pair contract in one step.
        assert [step[2:4] for step in plan.steps if len(step[2]) > 1] == [((0, 1), (0, 1))]
        expected = np.einsum("ijk,ijl,k,l->", a_mat, b_mat, u, w)
        assert network.contract_to_scalar() == pytest.approx(expected)

    @pytest.mark.parametrize("strategy", ["greedy", "sequential"])
    def test_self_contraction_rejected(self, strategy):
        network = TensorNetwork()
        a = network.add_node(np.zeros((2, 2)))
        network.connect(a.edges[0], a.edges[1])
        with pytest.raises(ValidationError, match="self-contraction"):
            ContractionPlan.record(network, strategy=strategy)

    def test_network_left_untouched(self):
        rng = np.random.default_rng(6)
        ring = [(0, 1, 1, 0), (1, 1, 2, 0), (2, 1, 0, 0)]
        network = _closed([rng.normal(size=(3, 3)) for _ in range(3)], ring)
        edges = [list(node.edges) for node in network.nodes]
        tensors = [node.tensor for node in network.nodes]
        first = network.contract_to_scalar()
        assert [list(node.edges) for node in network.nodes] == edges
        assert all(node.tensor is tensor for node, tensor in zip(network.nodes, tensors))
        expected = np.trace(tensors[0] @ tensors[1] @ tensors[2])
        assert network.contract_to_scalar() == first == pytest.approx(expected)


class TestNetworkContraction:
    def _chain_network(self, matrices):
        """``u · m0 · m1 · … · w`` with fixed boundary vectors: a closed matrix chain."""
        rng = np.random.default_rng(7)
        tensors = [rng.normal(size=matrices[0].shape[0]), *matrices, rng.normal(size=matrices[-1].shape[1])]
        bonds = [(0, 0, 1, 0)] + [(i, 1, i + 1, 0) for i in range(1, len(matrices))]
        bonds.append((len(matrices), 1, len(matrices) + 1, 0))
        return _closed(tensors, bonds), tensors

    def test_matrix_chain(self):
        rng = np.random.default_rng(2)
        mats = [rng.normal(size=(3, 3)) for _ in range(4)]
        network, tensors = self._chain_network(mats)
        expected = tensors[0] @ mats[0] @ mats[1] @ mats[2] @ mats[3] @ tensors[-1]
        assert network.contract_to_scalar() == pytest.approx(expected)

    def test_scalar_contraction(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=5)
        w = rng.normal(size=5)
        network = TensorNetwork()
        a = network.add_node(v)
        b = network.add_node(w)
        network.connect(a.edges[0], b.edges[0])
        assert network.contract_to_scalar() == pytest.approx(float(v @ w))

    def test_scalar_rejects_nonscalar(self):
        network = TensorNetwork()
        network.add_node(np.zeros((2, 2)))
        with pytest.raises(ValidationError, match="does not contract to a scalar"):
            ContractionPlan.record(network)
        with pytest.raises(ValidationError, match="does not contract to a scalar"):
            network.contract_to_scalar()

    def test_disconnected_components_multiply(self):
        network = TensorNetwork()
        a1 = network.add_node(np.array([1.0, 0.0]))
        a2 = network.add_node(np.array([1.0, 0.0]))
        b1 = network.add_node(np.array([0.0, 2.0]))
        b2 = network.add_node(np.array([0.0, 2.0]))
        network.connect(a1.edges[0], a2.edges[0])
        network.connect(b1.edges[0], b2.edges[0])
        assert network.contract_to_scalar() == pytest.approx(4.0)

    def test_sequential_strategy_matches_greedy(self):
        rng = np.random.default_rng(4)
        mats = [rng.normal(size=(2, 2)) for _ in range(5)]
        network, _ = self._chain_network(mats)
        greedy = network.contract_to_scalar(strategy="greedy")
        sequential = network.contract_to_scalar(strategy="sequential")
        assert greedy == pytest.approx(sequential)

    def test_unknown_strategy(self):
        network, _ = self._chain_network([np.eye(2), np.eye(2)])
        with pytest.raises(ValidationError, match="unknown contraction strategy"):
            ContractionPlan.record(network, strategy="quantum")
        with pytest.raises(ValidationError, match="unknown contraction strategy"):
            network.contract_to_scalar(strategy="quantum")

    def test_empty_network(self):
        with pytest.raises(ValidationError, match="empty network"):
            ContractionPlan.record(TensorNetwork())
        with pytest.raises(ValidationError, match="empty network"):
            TensorNetwork().contract_to_scalar()

    def test_memory_budget_enforced(self):
        network = TensorNetwork(max_intermediate_size=8)
        a = network.add_node(np.zeros((2, 2, 2)))
        b = network.add_node(np.zeros((2, 2, 2)))
        network.connect(a.edges[0], b.edges[0])
        with pytest.raises(ContractionMemoryError, match="16 entries exceeds the budget of 8"):
            ContractionPlan.record(network)
        with pytest.raises(ContractionMemoryError):
            network.contract_to_scalar()
