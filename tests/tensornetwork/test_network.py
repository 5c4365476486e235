"""Tests for the tensor-network engine (nodes, edges, contraction)."""

import numpy as np
import pytest

from repro.tensornetwork import (
    ContractionMemoryError,
    Node,
    TensorNetwork,
    connect,
    contract_nodes,
    estimate_contraction_cost,
    plan_greedy,
)
from repro.utils.validation import ValidationError


class TestNodesAndEdges:
    def test_node_creation(self):
        node = Node(np.zeros((2, 3, 4)), name="a")
        assert node.rank == 3
        assert node.shape == (2, 3, 4)
        assert node.size == 24
        assert len(node.dangling_edges()) == 3

    def test_connect_matching_dimensions(self):
        a = Node(np.zeros((2, 3)))
        b = Node(np.zeros((3, 4)))
        edge = connect(a.edges[1], b.edges[0])
        assert not edge.is_dangling
        assert edge.dimension == 3
        assert a.neighbours() == [b]

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

    def test_edge_other_and_axis(self):
        a = Node(np.zeros((2, 2)))
        b = Node(np.zeros((2, 2)))
        edge = connect(a.edges[1], b.edges[0])
        assert edge.other(a) is b
        assert edge.axis_of(b) == 0


class TestPairContraction:
    def test_matrix_product(self):
        rng = np.random.default_rng(0)
        a_mat = rng.normal(size=(3, 4))
        b_mat = rng.normal(size=(4, 5))
        a, b = Node(a_mat), Node(b_mat)
        connect(a.edges[1], b.edges[0])
        result = contract_nodes(a, b)
        assert np.allclose(result.tensor, a_mat @ b_mat)

    def test_outer_product_when_disconnected(self):
        a = Node(np.array([1.0, 2.0]))
        b = Node(np.array([3.0, 4.0]))
        result = contract_nodes(a, b)
        assert np.allclose(result.tensor, np.outer([1, 2], [3, 4]))

    def test_multi_edge_contraction(self):
        rng = np.random.default_rng(1)
        a_mat = rng.normal(size=(2, 3, 4))
        b_mat = rng.normal(size=(2, 3, 5))
        a, b = Node(a_mat), Node(b_mat)
        connect(a.edges[0], b.edges[0])
        connect(a.edges[1], b.edges[1])
        result = contract_nodes(a, b)
        assert np.allclose(result.tensor, np.einsum("ijk,ijl->kl", a_mat, b_mat))

    def test_self_contraction_rejected(self):
        a = Node(np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            contract_nodes(a, a)

    def test_remaining_edges_stay_consistent(self):
        a = Node(np.zeros((2, 3)))
        b = Node(np.zeros((3, 4)))
        c = Node(np.zeros((4, 5)))
        connect(a.edges[1], b.edges[0])
        connect(b.edges[1], c.edges[0])
        ab = contract_nodes(a, b)
        # The edge to c must now point at the merged node.
        assert c.neighbours() == [ab]


class TestNetworkContraction:
    def _chain_network(self, matrices):
        network = TensorNetwork()
        nodes = [network.add_node(m, name=f"m{i}") for i, m in enumerate(matrices)]
        for left, right in zip(nodes[:-1], nodes[1:]):
            network.connect(left.edges[1], right.edges[0])
        return network

    def test_matrix_chain(self):
        rng = np.random.default_rng(2)
        mats = [rng.normal(size=(3, 3)) for _ in range(4)]
        network = self._chain_network(mats)
        row_edge = network.nodes[0].edges[0]
        col_edge = network.nodes[-1].edges[1]
        result = network.contract(output_edge_order=[row_edge, col_edge])
        expected = mats[0] @ mats[1] @ mats[2] @ mats[3]
        assert np.allclose(result, expected)

    def test_consumed_operands_freed_without_cycle_collector(self):
        import gc
        import weakref

        rng = np.random.default_rng(5)
        network = self._chain_network([rng.normal(size=(3, 3)) for _ in range(4)])
        operands = [weakref.ref(node.tensor) for node in network.nodes]
        gc.disable()
        try:
            network.contract()
            assert [ref() for ref in operands] == [None] * len(operands)
        finally:
            gc.enable()

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
        with pytest.raises(ValidationError):
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
        greedy = self._chain_network(mats).contract(strategy="greedy")
        sequential = self._chain_network(mats).contract(strategy="sequential")
        assert np.allclose(greedy, sequential)

    def test_unknown_strategy(self):
        network = self._chain_network([np.eye(2), np.eye(2)])
        with pytest.raises(ValidationError):
            network.contract(strategy="quantum")

    def test_empty_network(self):
        with pytest.raises(ValidationError):
            TensorNetwork().contract()

    def test_output_edge_order(self):
        rng = np.random.default_rng(5)
        mat = rng.normal(size=(2, 3))
        network = TensorNetwork()
        node = network.add_node(mat)
        result = network.contract(output_edge_order=[node.edges[1], node.edges[0]])
        assert np.allclose(result, mat.T)

    def test_memory_budget_enforced(self):
        network = TensorNetwork(max_intermediate_size=8)
        a = network.add_node(np.zeros((2, 2, 2)))
        b = network.add_node(np.zeros((2, 2, 2)))
        network.connect(a.edges[0], b.edges[0])
        with pytest.raises(ContractionMemoryError):
            network.contract()

    def test_plan_greedy_reports_sizes(self):
        network = self._chain_network([np.eye(2)] * 3)
        plan = plan_greedy(network)
        assert len(plan) == 2
        assert all(size >= 1 for _, _, size in plan)
        # Planning must not modify the network.
        assert network.num_nodes == 3

    def test_estimate_contraction_cost(self):
        network = self._chain_network([np.eye(2)] * 3)
        assert estimate_contraction_cost(network) >= 4
