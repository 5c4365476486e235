"""Tests for the symbolic contraction planner (``repro.tensornetwork.ordering``).

The planner reads shapes and edges only, so its plans are pinned as goldens:
``sha256(repr(plan.steps))`` and the peak intermediate size of both
strategies, on every ``BUILDERS`` network of ``test_plan.py`` and on the
networks of the Table III ``qaoa_9`` cell.  The goldens were computed with
the destructive pairwise contraction the planner replaced, so a change to any
order, orientation or axis order shows here.
"""

import hashlib

import numpy as np
import pytest

from repro.api import Session
from repro.circuits.library import benchmark_circuit
from repro.core.svd_decomposition import decompose_noise
from repro.tensornetwork import (
    ContractionMemoryError,
    ContractionPlan,
    noisy_doubled_network,
    operator_amplitude_network,
)
from tests.core.reference import substituted_split_networks
from tests.tensornetwork.test_plan import ALL_BUILDERS, BUILDERS

#: The Table III cell: qaoa_9 with 8 depolarizing noises at p=0.001, placed
#: with seed 5 (perfbench's pinned placement).
TABLE3_NOISE = {"channel": "depolarizing", "parameter": 0.001, "count": 8, "seed": 5}


def _table3_circuit(backend):
    """The circuit ``backend`` plans for the Table III cell (after the passes)."""
    circuit = benchmark_circuit("qaoa_9", seed=3, native_gates=False)
    with Session(seed=1) as session:
        return session.compile(circuit, backend, noise=TABLE3_NOISE).circuit


def _qaoa9_tn():
    circuit = _table3_circuit("tn")
    zeros = "0" * circuit.num_qubits
    return noisy_doubled_network(circuit, zeros, zeros)


def _qaoa9_split():
    circuit = _table3_circuit("approximation")
    zeros = "0" * circuit.num_qubits
    dominant = {
        index: decompose_noise(inst.operation).terms[0]
        for index, inst in enumerate(circuit.noise_instructions)
    }
    return substituted_split_networks(circuit, dominant, zeros, zeros)[0]


def _qaoa9_trajectory():
    circuit = _table3_circuit("trajectories_tn")
    zeros = "0" * circuit.num_qubits
    operations = [
        (inst.operation.matrix if inst.is_gate else inst.operation.kraus_operators[0], inst.qubits)
        for inst in circuit
    ]
    return operator_amplitude_network(circuit.num_qubits, operations, zeros, zeros)


NETWORKS = {
    **BUILDERS,
    "qaoa9_tn": _qaoa9_tn,
    "qaoa9_split": _qaoa9_split,
    "qaoa9_trajectory": _qaoa9_trajectory,
}

#: "network/strategy" -> (sha256 of repr(plan.steps), peak intermediate entries).
GOLDENS = {
    "ghz_amplitude/greedy": ("83f64a1f1d7a9e8fb8ba20003b37fba35743d9d623206c722cc6f618765166a4", 8),
    "ghz_amplitude/sequential": ("0230046c63e9eea0fed13ac0e458a9080ba5bd2a11c2879acb7a819e8d4ebebf", 8),
    "idle_qubit/greedy": ("6ec58ef86829a88bf502879bbdc24edba4de1de5874ce20c7c08ada29e0dc298", 8),
    "idle_qubit/sequential": ("e2d0b52bd7b8c57418273b33683980c52439c449ed202acee982687597937988", 8),
    "noisy_amplitude_damping/greedy": ("5c835e40a43d1e0b1da257ad89d18cd4e0a0bf5c8447ab08d1a72b5fbb744cc8", 16),
    "noisy_amplitude_damping/sequential": ("dad3966ca8a1c8142bd8c8740f6ef0911b08bb8c57be02897f9363fd2636fc1a", 64),
    "noisy_dense_output/greedy": ("1578345133671f171e7e7afcb7b695e8550053fb122b2594cb69b73bd9115fea", 64),
    "noisy_dense_output/sequential": ("f9c369cba9dfd2c49c9e0890e747674d2ce6031481d87f436c614b0215b89612", 1024),
    "noisy_depolarizing/greedy": ("f242a8a3a0099e1552d73dcded5a1aa72439556443bfe7dbaf17091334ca9456", 16),
    "noisy_depolarizing/sequential": ("e23ef0150050ff02bfcba7ce6577414efbb3854c2d4676375c05424152553163", 128),
    "qaoa9_split/greedy": ("8583b7e63389429f275dd4d27935420233f570945f627b56aaa968cb9d3b35e8", 16),
    "qaoa9_split/sequential": ("5bd6b1f30eab52cbbbf14c2871e5c6e96964738d49b9f980154fee670bbb37e3", 64),
    "qaoa9_tn/greedy": ("28d8e9a57d29ede41f36b082ad9f5e84e310b0fd9a67f8b2070f576121f13149", 256),
    "qaoa9_tn/sequential": ("f6c335ef06747bfaa8c9fb4325c3a43162775e06d018ef1bdf342bdd3b7bfcf4", 4096),
    "qaoa9_trajectory/greedy": ("8583b7e63389429f275dd4d27935420233f570945f627b56aaa968cb9d3b35e8", 16),
    "qaoa9_trajectory/sequential": ("5bd6b1f30eab52cbbbf14c2871e5c6e96964738d49b9f980154fee670bbb37e3", 64),
    "qft_amplitude/greedy": ("602a6c535a825b85b9c37bda39ec4eba10c76eccaab8906c7ac085d297667300", 16),
    "qft_amplitude/sequential": ("7fb2839b72bea07fd71c78cc1f3a382edb7f47729dcf7af780db12fdad54f5f9", 128),
}


@pytest.mark.parametrize("strategy", ["greedy", "sequential"])
@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_plan_matches_golden(name, strategy):
    network = NETWORKS[name]()
    plan = ContractionPlan.record(network, strategy=strategy)
    digest = hashlib.sha256(repr(plan.steps).encode()).hexdigest()
    assert (digest, plan.peak_intermediate_entries) == GOLDENS[f"{name}/{strategy}"]
    assert plan.num_inputs == len(network.tensors)
    assert plan.num_steps == len(network.tensors) - 1


@pytest.mark.parametrize("name", sorted(ALL_BUILDERS))
def test_planned_peak_is_the_largest_replayed_intermediate(name):
    network = ALL_BUILDERS[name]()
    plan = ContractionPlan.record(network)
    shapes = plan._kernel_table(network.tensors).shapes
    assert plan.peak_intermediate_entries == max(
        int(np.prod(shape)) for shape in shapes[plan.num_inputs :]
    )


class TestBudgetAtPlanTime:
    """An over-budget order raises from ``record`` before any contraction runs."""

    @pytest.fixture
    def contractions(self, monkeypatch):
        calls = []

        def spy(name, function):
            def counted(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)

            return counted

        for name in ("dot", "tensordot", "matmul"):
            monkeypatch.setattr(np, name, spy(name, getattr(np, name)))
        return calls

    def test_spy_sees_a_replay(self, contractions):
        BUILDERS["noisy_depolarizing"]().contract_to_scalar()
        assert contractions

    @pytest.mark.parametrize("strategy", ["greedy", "sequential"])
    def test_over_budget_network_raises_without_contracting(self, contractions, strategy):
        # Greedy peaks at 16 entries, sequential at 128 on this network.
        network = BUILDERS["noisy_depolarizing"]()
        network.max_intermediate_size = 8
        with pytest.raises(ContractionMemoryError, match="exceeds the budget of 8 entries"):
            ContractionPlan.record(network, strategy=strategy)
        with pytest.raises(ContractionMemoryError):
            network.contract_to_scalar(strategy=strategy)
        assert contractions == []

    def test_budget_at_the_peak_is_enough(self):
        network = BUILDERS["noisy_depolarizing"]()
        network.max_intermediate_size = 16
        assert ContractionPlan.record(network).peak_intermediate_entries == 16
        network.max_intermediate_size = 15
        with pytest.raises(ContractionMemoryError):
            ContractionPlan.record(network)
