"""Tests for the tensor-network engine (labelled tensors, contraction).

Every contraction is planned (``ContractionPlan.record``) and then replayed;
these tests drive both through ``TensorNetwork.contract_to_scalar``.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.tensornetwork import (
    ContractionMemoryError,
    ContractionPlan,
    TensorNetwork,
    noisy_doubled_network,
)
from repro.utils.validation import ValidationError


class TestLabels:
    def test_add_returns_the_position_of_a_complex_tensor(self):
        network = TensorNetwork()
        assert network.add(np.zeros((2, 3, 4)), [0, 1, 2]) == 0
        assert network.add(np.ones(4, dtype=int), (2,)) == 1
        assert [tensor.dtype for tensor in network.tensors] == [complex, complex]
        assert [tensor.shape for tensor in network.tensors] == [(2, 3, 4), (4,)]
        assert network.labels == [(0, 1, 2), (2,)]

    def test_shared_labels_are_bonds_on_their_axes(self):
        rng = np.random.default_rng(5)
        a_mat, b_mat = rng.normal(size=(2, 3)), rng.normal(size=(3, 2))
        network = TensorNetwork()
        network.add(a_mat, (5, 6))
        network.add(b_mat, (6, 5))
        plan = ContractionPlan.record(network)
        assert plan.steps == [(0, 1, (0, 1), (1, 0), 2)]
        assert network.contract_to_scalar() == pytest.approx(np.trace(a_mat @ b_mat))

    def test_bond_dimension_mismatch(self):
        network = TensorNetwork()
        network.add(np.zeros((2, 3)), (0, 1))
        network.add(np.zeros((4, 2)), (1, 0))
        with pytest.raises(ValidationError, match="dimension 3 and 4"):
            ContractionPlan.record(network)

    def test_label_on_a_third_axis(self):
        network = TensorNetwork()
        for _ in range(3):
            network.add(np.zeros(2), (0,))
        with pytest.raises(ValidationError, match="more than two axes"):
            ContractionPlan.record(network)

    @pytest.mark.parametrize("labels", [(0,), (0, 1, 2)])
    def test_label_count_must_match_rank(self, labels):
        network = TensorNetwork()
        network.add(np.zeros((2, 2)), labels)
        with pytest.raises(ValidationError, match="2 axes but"):
            ContractionPlan.record(network)

    def test_dropped_network_is_freed_without_the_cyclic_collector(self):
        # A network holds plain lists, so dropping the last reference frees
        # its tensors at once; a reference cycle would keep them alive until
        # the cyclic garbage collector runs.
        enabled = gc.isenabled()
        gc.disable()
        try:
            network = noisy_doubled_network(Circuit(2).h(0).cx(0, 1), "00", "00")
            boundary = weakref.ref(network.tensors[0])
            assert boundary() is not None
            del network
            assert boundary() is None
        finally:
            if enabled:
                gc.enable()


def _closed(tensors, bonds):
    """A network of ``tensors`` joined by ``bonds`` of ``(tensor, axis, tensor, axis)``."""
    labels, fresh = [], 0
    for tensor in tensors:
        labels.append(list(range(fresh, fresh + np.ndim(tensor))))
        fresh += np.ndim(tensor)
    for a, axis_a, b, axis_b in bonds:
        labels[b][axis_b] = labels[a][axis_a]
    network = TensorNetwork()
    for tensor, axes in zip(tensors, labels):
        network.add(tensor, axes)
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
        network.add(np.zeros((2, 2)), (0, 0))
        with pytest.raises(ValidationError, match="self-contraction"):
            ContractionPlan.record(network, strategy=strategy)

    def test_network_left_untouched(self):
        rng = np.random.default_rng(6)
        ring = [(0, 1, 1, 0), (1, 1, 2, 0), (2, 1, 0, 0)]
        network = _closed([rng.normal(size=(3, 3)) for _ in range(3)], ring)
        labels = list(network.labels)
        tensors = list(network.tensors)
        first = network.contract_to_scalar()
        assert network.labels == labels
        assert all(held is tensor for held, tensor in zip(network.tensors, tensors))
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
        network.add(v, (0,))
        network.add(w, (0,))
        assert network.contract_to_scalar() == pytest.approx(float(v @ w))

    def test_scalar_rejects_nonscalar(self):
        network = TensorNetwork()
        network.add(np.zeros((2, 2)), (0, 1))
        with pytest.raises(ValidationError, match="does not contract to a scalar"):
            ContractionPlan.record(network)
        with pytest.raises(ValidationError, match="does not contract to a scalar"):
            network.contract_to_scalar()

    def test_disconnected_components_multiply(self):
        network = TensorNetwork()
        network.add(np.array([1.0, 0.0]), (0,))
        network.add(np.array([1.0, 0.0]), (0,))
        network.add(np.array([0.0, 2.0]), (1,))
        network.add(np.array([0.0, 2.0]), (1,))
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
        network.add(np.zeros((2, 2, 2)), (0, 1, 2))
        network.add(np.zeros((2, 2, 2)), (0, 3, 4))
        with pytest.raises(ContractionMemoryError, match="16 entries exceeds the budget of 8"):
            ContractionPlan.record(network)
        with pytest.raises(ContractionMemoryError):
            network.contract_to_scalar()
