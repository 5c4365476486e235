"""Algorithm 1's terms, path truncation's paths and traj_tn's samples as index rows.

All three replay their rows through one ``SpecializedPlan.execute_rows`` of
the circuit's ``KrausRowNetwork``.  Two invariants make that sound: the
paper's lower split network is the conjugate of the upper one over the
term's singular-value product ``w`` (so one network serves a term, whose
value is ``|upper|²/w``), and the values are the ones the per-term
substitution evaluator produced.  The traj_tn golden values below were
computed by that evaluator.  The Algorithm 1 and path-truncation ones were
re-derived by the one-network replay when it replaced the two-half product;
each moved by less than 1e-14 relative.  All are compared with ``==``
against the sequential per-row replay (:func:`tests.core.reference.sequential_execute_rows`) and
within 1e-12 relative against the library's batched replay, which sums in a
different order.
"""

import numpy as np
import pytest

import repro.core.approximation as approximation
from benchmarks.reference_loops import tensordot_row_loop, tensordot_specialize
from repro.api import apply_noise
from repro.backends.engine import BatchedTrajectoryEngine
from repro.circuits.library import qaoa_circuit
from repro.core import ApproximateNoisySimulator
from repro.core.approximation import level_rows
from repro.core.path_truncation import PathTruncatedSimulator
from repro.noise import NoiseModel, depolarizing_channel
from repro.tensornetwork.circuit_to_tn import instruction_node_positions
from repro.tensornetwork import plan as plan_module
from repro.tensornetwork.plan import ContractionPlan, SpecializedPlan
from repro.verify import generate_workloads
from repro.verify.generators import FAMILIES
from repro.utils.validation import ValidationError
from tests.core.reference import (
    BATCHED_RTOL,
    rows_close,
    sequential_execute_rows,
    substituted_split_networks,
    tensordot_execute_rows,
)


def _dense_state(num_qubits, seed):
    rng = np.random.default_rng(seed)
    state = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return state / np.linalg.norm(state)


def _family_cases(family, boundary):
    """``(workload, noisy circuit, boundary states)`` for two seeded workloads of ``family``."""
    for workload in generate_workloads(families=family, cases=2, seed=29):
        circuit = workload.noisy_circuit()
        if circuit.noise_count() == 0:
            circuit = apply_noise(
                workload.circuit,
                {"channel": "amplitude_damping", "parameter": 0.02, "count": 3, "seed": 4},
            )
        n = circuit.num_qubits
        if boundary == "product":
            states = ("0" * n, "1" * n)
        else:
            states = (_dense_state(n, workload.seed), _dense_state(n, workload.seed + 1))
        yield workload, circuit, states


def _split_halves(circuit, states, decompositions, rows):
    """The paper's upper and lower split networks of every row, by the tensordot reference."""
    dominant = {index: d.terms[0] for index, d in enumerate(decompositions)}
    positions = instruction_node_positions(circuit, states[0])
    nodes = [node for (node, *_), inst in zip(positions, circuit) if inst.is_noise]
    halves = []
    for half, network in enumerate(substituted_split_networks(circuit, dominant, *states)):
        tensors = network.tensors
        factors = [
            np.stack([np.reshape(term[half], tensors[node].shape) for term in d.terms])
            for d, node in zip(decompositions, nodes)
        ]
        plan = ContractionPlan.record(network)
        halves.append(tensordot_execute_rows(plan, tensors, nodes, factors, rows))
    return halves


def _weights(decompositions, rows):
    """``w = Π_s d_{rows[r, s]}``: each row's product of selected singular values."""
    weights = np.ones(len(rows))
    for column, decomposition in enumerate(decompositions):
        weights *= np.asarray(decomposition.singular_values)[rows[:, column]]
    return weights


@pytest.mark.parametrize("boundary", ["product", "dense"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestOneNetworkPerTerm:
    def test_lower_network_is_the_conjugate_upper_network(self, family, boundary):
        for workload, circuit, states in _family_cases(family, boundary):
            prepared = ApproximateNoisySimulator().prepare(circuit, *states)
            rows = level_rows(prepared.decompositions, 2)
            upper, lower = _split_halves(circuit, states, prepared.decompositions, rows)
            weights = _weights(prepared.decompositions, rows)
            assert rows_close(lower, upper.conj() / weights, rtol=1e-13), workload.describe()
            assert rows_close(prepared.evaluate(rows), upper * lower, rtol=1e-13), workload.describe()

    def test_batched_rows_equal_sequential_rows(self, family, boundary):
        for workload, circuit, states in _family_cases(family, boundary):
            prepared = ApproximateNoisySimulator().prepare(circuit, *states)
            rows = level_rows(prepared.decompositions, 2)
            specialized = prepared.network.specialized
            batched = specialized.execute_rows(prepared.factors, rows)
            sequential = sequential_execute_rows(specialized, prepared.factors, rows)
            assert rows_close(batched, sequential), workload.describe()

    def test_sequential_rows_equal_the_tensordot_row_loop(self, family, boundary):
        # An independent per-row oracle for the one-row replay.
        for workload, circuit, states in _family_cases(family, boundary):
            prepared = ApproximateNoisySimulator().prepare(circuit, *states)
            rows = level_rows(prepared.decompositions, 2)
            network = prepared.network
            positions = network.specialized.variable_positions
            oracle = tensordot_row_loop(
                tensordot_specialize(network.plan, network.tensors, positions),
                positions,
                prepared.factors,
                rows,
            )
            sequential = sequential_execute_rows(network.specialized, prepared.factors, rows)
            assert np.array_equal(sequential, oracle), workload.describe()

    def test_terms_are_nonnegative_and_levels_increase(self, family, boundary):
        simulator = ApproximateNoisySimulator()
        for workload, circuit, states in _family_cases(family, boundary):
            prepared = simulator.prepare(circuit, *states)
            assert np.all(prepared.evaluate(level_rows(prepared.decompositions, 2)) >= 0.0)
            values = [
                simulator.fidelity(circuit, *states, level=level, prepared=prepared).value
                for level in range(3)
            ]
            assert values == sorted(values), workload.describe()


class TestLevelRows:
    def test_rows_count_and_order(self):
        circuit = NoiseModel(depolarizing_channel(0.01), seed=1).insert_random(
            qaoa_circuit(4, seed=3, native_gates=False), 3
        )
        decompositions = ApproximateNoisySimulator().decompose_noises(circuit)
        rows = level_rows(decompositions, 2)
        assert rows.shape == (1 + 3 * 3 + 3 * 9, 3)
        assert rows[:4].tolist() == [[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]]
        assert rows[10].tolist() == [1, 1, 0]
        levels = np.count_nonzero(rows, axis=1)
        assert np.all(np.diff(levels) >= 0)

    def test_noiseless_circuit_has_one_empty_row(self):
        assert level_rows([], 3).shape == (1, 0)


# (qaoa qubits, noise seed) -> A(1), A(1)'s level contributions, A(2), A(2)'s
# level contributions, the K=16 path-truncated value, and the 600-sample
# traj_tn estimate and standard error (rng = noise seed, workers=1).
GOLDEN = {
    (9, 1): (
        0.0003615811806885773,
        (0.00032232268076095975, 3.925849992761754e-05),
        0.0003633307475340197,
        (0.00032232268076095975, 3.925849992761754e-05, 1.7495668454423855e-06),
        0.0003478067515557834,
        0.00035993921096339783,
        3.914649946667523e-06,
    ),
    (9, 2): (
        0.0003725207300814954,
        (0.00032232268076096024, 5.0198049320535194e-05),
        0.00037542057480700886,
        (0.00032232268076096024, 5.0198049320535194e-05, 2.8998447255134486e-06),
        0.00035211497307745124,
        0.00036829358194180345,
        5.096112072289331e-06,
    ),
    (6, 3): (
        0.009285722200393367,
        (0.008395891223942024, 0.0008898309764513428),
        0.00932062296689209,
        (0.008395891223942024, 0.0008898309764513428, 3.490076649872236e-05),
        0.008955558863518245,
        0.009348211891776854,
        7.007646266620108e-05,
    ),
}


def _assert_golden(compute, golden, monkeypatch):
    """``compute()`` is ``golden`` exactly on the sequential reference, and within 1e-12 batched."""
    np.testing.assert_allclose(compute(), golden, rtol=BATCHED_RTOL, atol=0.0)
    with monkeypatch.context() as patched:
        patched.setattr(SpecializedPlan, "execute_rows", sequential_execute_rows)
        assert compute() == golden


@pytest.mark.parametrize("placement", sorted(GOLDEN), ids=lambda p: f"qaoa_{p[0]}-seed{p[1]}")
class TestGoldenValues:
    @pytest.fixture
    def noisy(self, placement):
        qubits, seed = placement
        ideal = qaoa_circuit(qubits, seed=3, native_gates=False)
        return NoiseModel(depolarizing_channel(0.01), seed=seed).insert_random(ideal, 8)

    def test_algorithm1_levels(self, placement, noisy, monkeypatch):
        a1, a1_levels, a2, a2_levels, *_ = GOLDEN[placement]
        simulator = ApproximateNoisySimulator()

        def levels():
            one = simulator.fidelity(noisy, level=1)
            two = simulator.fidelity(noisy, level=2)
            assert two.num_terms == 1 + 8 * 3 + 28 * 9
            return (one.value, *one.level_contributions, two.value, *two.level_contributions)

        _assert_golden(levels, (a1, *a1_levels, a2, *a2_levels), monkeypatch)

    def test_path_truncation(self, placement, noisy, monkeypatch):
        def truncated():
            result = PathTruncatedSimulator(max_paths=16).fidelity(noisy)
            assert result.num_paths == 16
            return (result.value,)

        _assert_golden(truncated, GOLDEN[placement][4:5], monkeypatch)

    def test_traj_tn(self, placement, noisy, monkeypatch):
        def estimate():
            result = BatchedTrajectoryEngine("tn").estimate_fidelity(
                noisy, 600, rng=placement[1], workers=1
            )
            return (result.estimate, result.standard_error)

        _assert_golden(estimate, GOLDEN[placement][5:], monkeypatch)


class TestMalformedRows:
    """Rows are validated once per call: 2-D integers, each index in range."""

    @pytest.fixture(scope="class")
    def prepared(self):
        noisy = NoiseModel(depolarizing_channel(0.01), seed=1).insert_random(
            qaoa_circuit(4, seed=3, native_gates=False), 3
        )
        return ApproximateNoisySimulator().prepare(noisy)

    @pytest.mark.parametrize(
        "rows, match",
        [
            ([[-1, 0, 0]], "picks candidate -1"),
            ([[0, 0, 4]], "picks candidate 4 of variable 2"),
            ([0, 0, 0], "shape"),
            ([[0, 0]], "shape"),
            ([[0.0, 1.0, 0.0]], "integers"),
        ],
        ids=["negative", "past_the_end", "one_dimensional", "too_narrow", "float"],
    )
    def test_rejected(self, prepared, rows, match):
        with pytest.raises(ValidationError, match=match):
            prepared.evaluate(np.array(rows))

    def test_empty_rows_evaluate_to_nothing(self, prepared):
        values = prepared.evaluate(np.zeros((0, 3), dtype=int))
        assert values.shape == (0,) and values.dtype == float


def test_fidelity_to_error_decomposes_each_noise_once(monkeypatch):
    noisy = NoiseModel(depolarizing_channel(0.01), seed=2).insert_random(
        qaoa_circuit(4, seed=3, native_gates=False), 5
    )
    calls = []
    decompose = approximation.decompose_noise

    def counting_decompose(*args, **kwargs):
        calls.append(args)
        return decompose(*args, **kwargs)

    monkeypatch.setattr(approximation, "decompose_noise", counting_decompose)
    result = ApproximateNoisySimulator().fidelity_to_error(noisy, 1e-4)
    assert len(calls) == noisy.noise_count() == 5
    assert result.error_bound <= 1e-4


def test_algorithm1_rows_replay_in_one_chunk(monkeypatch):
    # Level 3 on the Table III cell is 1789 rows of a 16-entry plan: one
    # execute_rows call, whose entry budget holds them all in one chunk.
    noisy = NoiseModel(depolarizing_channel(0.01), seed=1).insert_random(
        qaoa_circuit(9, seed=3, native_gates=False), 8
    )
    chunks = []
    replay = plan_module._replay

    def spy(buffer, kernels, result_slot, entries):
        chunks.append(entries)
        return replay(buffer, kernels, result_slot, entries)

    monkeypatch.setattr(plan_module, "_replay", spy)
    result = ApproximateNoisySimulator().fidelity(noisy, level=3)
    assert chunks == [result.num_terms] == [1789]
