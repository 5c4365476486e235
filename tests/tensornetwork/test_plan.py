"""Tests for recorded contraction plans and their partial evaluation.

A :class:`ContractionPlan` must replay exactly the ``tensordot`` sequence of
its steps, and :meth:`SpecializedPlan.execute` exactly the residual of that
sequence — so those comparisons are bit-for-bit.  The
batched :meth:`SpecializedPlan.execute_rows` sums in a different order; it is
compared with the per-row replay within 1e-12 relative.  Every replay runs from the plan's kernel table, and
:class:`TestTensordotOracle` pins each one bit for bit to a plain
per-step ``np.tensordot`` replay (``tests/core/reference.py``).
"""

import numpy as np
import pytest

from repro.api import Session
from repro.circuits.circuit import Circuit
from repro.circuits.library import (
    benchmark_circuit,
    brickwork_circuit,
    clifford_t_circuit,
    ghz_circuit,
    qaoa_circuit,
    qft_circuit,
    random_circuit,
)
from repro.circuits.parameters import circuit_parameters
from repro.noise import (
    NoiseModel,
    amplitude_damping_channel,
    depolarizing_channel,
    pauli_channel,
    phase_damping_channel,
    two_qubit_depolarizing_channel,
)
from repro.tensornetwork import (
    ContractionPlan,
    TensorNetwork,
    circuit_amplitude_network,
    noisy_doubled_network,
    noisy_observable_network,
    operator_amplitude_network,
)
import repro.tensornetwork.plan as plan_module
from repro.tensornetwork.plan import SpecializedPlan
from repro.utils.validation import ValidationError
from tests.core.reference import (
    rows_close,
    sequential_execute_rows,
    tensordot_environments,
    tensordot_execute,
    tensordot_execute_rows,
)


def _noisy(seed, channel):
    ideal = random_circuit(3, 10, rng=seed)
    return NoiseModel(channel, seed=seed).insert_random(ideal, 3)


def _idle_qubit_circuit():
    circuit = Circuit(3)
    circuit.h(0).cx(0, 1)  # qubit 2 stays idle: a disconnected component
    return circuit


def _dense_output(num_qubits, seed=5):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return v / np.linalg.norm(v)


def _two_qubit_noise(arity, _rng):
    # One-qubit gates get single-qubit noise, two-qubit gates a joint channel.
    return two_qubit_depolarizing_channel(0.03) if arity == 2 else depolarizing_channel(0.03)


def _non_unitary_operations():
    """Random non-unitary factors, as Algorithm 1 inserts ``U_i``/``V_i``."""
    rng = np.random.default_rng(9)
    placements = [(0,), (0, 1), (1, 2), (2,), (0, 2), (1,)]
    return [
        (rng.normal(size=(2 ** len(q),) * 2) + 1j * rng.normal(size=(2 ** len(q),) * 2), q)
        for q in placements
    ]


#: name -> zero-argument builder of a fresh (deterministic) network.
BUILDERS = {
    "noisy_depolarizing": lambda: noisy_doubled_network(
        _noisy(1, depolarizing_channel(0.05)), "000", "000"
    ),
    "noisy_amplitude_damping": lambda: noisy_doubled_network(
        _noisy(2, amplitude_damping_channel(0.1)), "000", "010"
    ),
    "noisy_dense_output": lambda: noisy_doubled_network(
        _noisy(3, depolarizing_channel(0.02)), "000", _dense_output(3)
    ),
    "ghz_amplitude": lambda: circuit_amplitude_network(ghz_circuit(4), "0000", "1111"),
    "qft_amplitude": lambda: circuit_amplitude_network(qft_circuit(4), "0101", "0000"),
    "idle_qubit": lambda: circuit_amplitude_network(_idle_qubit_circuit(), "000", "110"),
}

#: More channels, boundaries and circuit families; ``test_ordering.py`` pins
#: the plans of ``BUILDERS`` only.
EXTRA_BUILDERS = {
    "noisy_phase_damping": lambda: noisy_doubled_network(
        _noisy(4, phase_damping_channel(0.1)), "000", "000"
    ),
    "noisy_pauli": lambda: noisy_doubled_network(
        _noisy(5, pauli_channel(0.02, 0.03, 0.01)), "000", "101"
    ),
    "noisy_two_qubit_channel": lambda: noisy_doubled_network(
        NoiseModel(_two_qubit_noise, seed=6).insert_random(random_circuit(3, 10, rng=6), 3),
        "000",
        "000",
    ),
    "noisy_dense_input": lambda: noisy_doubled_network(
        _noisy(7, amplitude_damping_channel(0.05)), _dense_output(3, seed=8), "000"
    ),
    "noisy_observable": lambda: noisy_observable_network(
        _noisy(8, depolarizing_channel(0.05)),
        "000",
        {0: np.diag([1.0, -1.0]), 2: np.array([[0.0, 1.0], [1.0, 0.0]])},
    ),
    "noisy_qaoa": lambda: noisy_doubled_network(
        NoiseModel(depolarizing_channel(0.01), seed=9).insert_random(qaoa_circuit(4, seed=7), 4),
        "0000",
        "0000",
    ),
    "brickwork_amplitude": lambda: circuit_amplitude_network(
        brickwork_circuit(4, depth=4), "0000", "0110"
    ),
    "clifford_t_amplitude": lambda: circuit_amplitude_network(
        clifford_t_circuit(4, depth=8, seed=3), "0000", "1001"
    ),
    "dense_boundaries": lambda: circuit_amplitude_network(
        random_circuit(4, 12, rng=10), _dense_output(4, seed=10), _dense_output(4, seed=11)
    ),
    "non_unitary_operators": lambda: operator_amplitude_network(
        3, _non_unitary_operations(), "000", "011"
    ),
}

ALL_BUILDERS = {**BUILDERS, **EXTRA_BUILDERS}


def _record(name):
    """(plan, value by a per-step tensordot replay, input tensors) for a fresh network."""
    network = ALL_BUILDERS[name]()
    tensors = list(network.tensors)
    plan = ContractionPlan.record(network)
    return plan, tensordot_execute(plan, tensors), tensors


def _perturbed(tensors, positions, rng):
    """A copy of ``tensors`` with fresh random values at ``positions``."""
    swapped = list(tensors)
    for position in positions:
        shape = tensors[position].shape
        swapped[position] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return swapped


@pytest.mark.parametrize("name", sorted(ALL_BUILDERS))
class TestReplay:
    def test_execute_equals_tensordot_and_contract_to_scalar(self, name):
        plan, expected, tensors = _record(name)
        one_shot = ALL_BUILDERS[name]().contract_to_scalar()
        assert plan.num_inputs == len(tensors)
        assert plan.execute(tensors) == expected == one_shot

    def test_swapped_values_contract_by_the_same_plan(self, name, rng):
        # Ordering reads shapes only: the network holding other values plans
        # the same steps, and its one-shot value is that plan's tensordot replay.
        plan, _, tensors = _record(name)
        swapped = _perturbed(tensors, range(0, len(tensors), 3), rng)
        network = ALL_BUILDERS[name]()
        network.tensors[:] = swapped
        assert ContractionPlan.record(network).steps == plan.steps
        assert network.contract_to_scalar() == tensordot_execute(plan, swapped)

    def test_replay_is_repeatable(self, name):
        plan, expected, tensors = _record(name)
        assert [plan.execute(tensors) for _ in range(3)] == [expected] * 3

    def test_specialize_matches_full_execute(self, name, rng):
        plan, _, tensors = _record(name)
        subsets = [
            [],
            list(range(plan.num_inputs)),
            sorted(rng.choice(plan.num_inputs, size=plan.num_inputs // 2, replace=False)),
            sorted(rng.choice(plan.num_inputs, size=1, replace=False)),
        ]
        for subset in subsets:
            specialized = plan.specialize(tensors, subset)
            swapped = _perturbed(tensors, subset, rng)
            value = specialized.execute([swapped[p] for p in subset])
            assert value == plan.execute(swapped), subset

    def test_residual_step_counts(self, name):
        plan, _, tensors = _record(name)
        assert plan.specialize(tensors, []).num_residual_steps == 0
        assert plan.specialize(tensors, range(plan.num_inputs)).num_residual_steps == plan.num_steps
        assert plan.describe()["num_steps"] == plan.num_steps

    def test_execute_rows_equals_execute_per_row(self, name, rng):
        plan, _, tensors = _record(name)
        # Every third input varies; then none (a noiseless plan, rows [K, 0]).
        for subset in (list(range(0, plan.num_inputs, 3)), []):
            specialized, factors = _row_candidates(plan, tensors, subset, rng)
            rows = rng.integers(0, 3, size=(5, len(subset)))
            batched = specialized.execute_rows(factors, rows)
            assert batched.shape == (5,) and batched.dtype == complex
            assert rows_close(batched, sequential_execute_rows(specialized, factors, rows)), subset
            assert specialized.execute_rows(factors, rows[:0]).shape == (0,)

    def test_execute_rows_in_uneven_chunks(self, name, rng, monkeypatch):
        plan, _, tensors = _record(name)
        specialized, factors = _row_candidates(plan, tensors, range(0, plan.num_inputs, 2), rng)
        rows = rng.integers(0, 3, size=(11, len(factors)))
        whole = specialized.execute_rows(factors, rows)
        # Three rows per chunk: 11 rows replay as 3 + 3 + 3 + 2.
        monkeypatch.setattr(plan_module, "ROW_BATCH_ENTRIES", 3 * plan.peak_intermediate_entries)
        chunked = specialized.execute_rows(factors, rows)
        assert rows_close(chunked, sequential_execute_rows(specialized, factors, rows))
        assert rows_close(chunked, whole)

    def test_chunks_follow_the_entry_budget(self, name, rng, monkeypatch):
        plan, _, tensors = _record(name)
        specialized, factors = _row_candidates(plan, tensors, range(0, plan.num_inputs, 2), rng)
        monkeypatch.setattr(plan_module, "ROW_BATCH_ENTRIES", 4 * plan.peak_intermediate_entries)
        rows = rng.integers(0, 3, size=(2 * 4 + 3, len(factors)))
        chunks = []
        replay = plan_module._replay

        def spy(buffer, kernels, result_slot, entries):
            chunks.append(entries)
            return replay(buffer, kernels, result_slot, entries)

        monkeypatch.setattr(plan_module, "_replay", spy)
        specialized.execute_rows(factors, rows)
        assert chunks == [4, 4, 3]


def _row_candidates(plan, tensors, positions, rng):
    """``plan`` specialized over ``positions``, with three random candidates stacked per position."""
    positions = list(positions)
    factors = [
        np.stack([_perturbed(tensors, [position], rng)[position] for _ in range(3)])
        for position in positions
    ]
    return plan.specialize(tensors, positions), factors


def _pair(environment, tensor):
    """``⟨E, T⟩``: the full contraction of an environment with its input."""
    return complex(np.tensordot(environment, tensor, axes=tensor.ndim))


@pytest.mark.parametrize("name", sorted(ALL_BUILDERS))
class TestEnvironments:
    """One forward and one reverse replay give every input's environment."""

    def test_every_environment_reproduces_the_value(self, name):
        plan, value, tensors = _record(name)
        replayed, environments = plan.environments(tensors, range(plan.num_inputs))
        assert replayed == value
        assert sorted(environments) == list(range(plan.num_inputs))
        for position, tensor in enumerate(tensors):
            assert environments[position].shape == tensor.shape
            assert abs(_pair(environments[position], tensor) - value) <= 1e-12 * max(1.0, abs(value))

    def test_environment_is_the_derivative(self, name):
        # The value is linear in each input: perturbing one input by D moves
        # it by exactly <E, D>.
        plan, value, tensors = _record(name)
        rng = np.random.default_rng(11)
        positions = sorted(rng.choice(plan.num_inputs, size=3, replace=False).tolist())
        _, environments = plan.environments(tensors, positions)
        for position in positions:
            swapped = _perturbed(tensors, [position], rng)
            delta = swapped[position] - tensors[position]
            moved = plan.execute(swapped)
            assert abs(moved - value - _pair(environments[position], delta)) <= 1e-12 * max(
                1.0, abs(moved)
            )


@pytest.mark.parametrize("name", sorted(ALL_BUILDERS))
class TestTensordotOracle:
    """Kernel-table replays equal a per-step ``np.tensordot`` replay bit for bit."""

    def test_execute(self, name, rng):
        plan, _, tensors = _record(name)
        for values in (tensors, _perturbed(tensors, range(plan.num_inputs), rng)):
            expected = tensordot_execute(plan, values)
            assert [plan.execute(values) for _ in range(2)] == [expected] * 2

    def test_environments(self, name, rng):
        plan, _, tensors = _record(name)
        values = _perturbed(tensors, range(0, plan.num_inputs, 2), rng)
        for positions in (list(range(plan.num_inputs)), list(range(1, plan.num_inputs, 3))):
            value, environments = plan.environments(values, positions)
            expected, expected_environments = tensordot_environments(plan, values, positions)
            assert value == expected
            assert sorted(environments) == sorted(positions)
            for position in positions:
                assert np.array_equal(environments[position], expected_environments[position]), position

    def test_specialized_execute(self, name, rng):
        plan, _, tensors = _record(name)
        for subset in (list(range(0, plan.num_inputs, 3)), list(range(plan.num_inputs))):
            specialized = plan.specialize(tensors, subset)
            swapped = _perturbed(tensors, subset, rng)
            inputs = [swapped[position] for position in subset]
            assert specialized.execute(inputs) == tensordot_execute(plan, swapped), subset

    def test_execute_rows(self, name, rng, monkeypatch):
        plan, _, tensors = _record(name)
        subset = list(range(0, plan.num_inputs, 2))
        specialized, factors = _row_candidates(plan, tensors, subset, rng)
        rows = rng.integers(0, 3, size=(7, len(subset)))
        expected = tensordot_execute_rows(plan, tensors, subset, factors, rows)
        assert np.array_equal(specialized.execute_rows(factors, rows), expected)
        # Uneven chunks (3 + 3 + 1 rows): every chunk size shares one kernel.
        monkeypatch.setattr(plan_module, "ROW_BATCH_ENTRIES", 3 * plan.peak_intermediate_entries)
        expected = tensordot_execute_rows(plan, tensors, subset, factors, rows)
        assert np.array_equal(specialized.execute_rows(factors, rows), expected)


class TestKernelTable:
    """The kernel table is derived once per plan."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        original = plan_module._KernelTable

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(plan_module, "_KernelTable", counting)
        return calls

    def test_once_per_plan_across_replays(self, builds, rng):
        plan, value, tensors = _record("noisy_depolarizing")
        assert [plan.execute(tensors) for _ in range(3)] == [value] * 3
        plan.environments(tensors, range(plan.num_inputs))
        plan.environments(tensors, [0])
        specialized, factors = _row_candidates(plan, tensors, [0, 2], rng)
        specialized.execute_rows(factors, rng.integers(0, 3, size=(4, 2)))
        specialized.execute([factors[0][0], factors[1][1]])
        assert len(builds) == 1

    def test_once_per_plan_across_bindings(self, builds):
        circuit = benchmark_circuit("qaoa_4", seed=3, native_gates=False, parametric=True)
        noise = {"channel": "depolarizing", "parameter": 0.01, "count": 3, "seed": 5}
        with Session(seed=1, plan_cache_size=4) as session:
            executable = session.compile(circuit, "tn", noise=noise)
            names = sorted(circuit_parameters(executable.circuit))
            for angle in (0.1, 0.2, 0.3):
                params = dict.fromkeys(names, angle)
                bound = executable.bind(params)
                bound.run()
                bound.run()
                executable.gradient(params)
        assert len(builds) == 1

    def test_one_shot_run_derives_one_table(self, builds):
        circuit = benchmark_circuit("qaoa_4", seed=3, native_gates=False)
        with Session(seed=1) as session:
            session.run(circuit, "tn", noise={"channel": "depolarizing", "parameter": 0.01, "count": 3})
        assert len(builds) == 1


def test_environments_of_crossed_contraction_axes():
    # b's contracted axes in descending order and distinct dimensions, so a
    # wrong transpose back to an operand's axis order changes its shape.
    rng = np.random.default_rng(3)
    shapes = [(2, 3, 4), (3, 2, 5), (4,), (5,)]
    tensors = [rng.normal(size=shape) + 1j * rng.normal(size=shape) for shape in shapes]
    steps = [(0, 1, (0, 1), (1, 0), 4), (4, 2, (0,), (0,), 5), (5, 3, (0,), (0,), 6)]
    plan = ContractionPlan(steps, num_inputs=4)
    value, environments = plan.environments(tensors, range(4))
    expected = np.einsum("ijk,jil,k,l->", *tensors)
    assert abs(value - expected) <= 1e-12 * abs(expected)
    for position, tensor in enumerate(tensors):
        assert environments[position].shape == tensor.shape
        assert abs(_pair(environments[position], tensor) - value) <= 1e-12 * abs(value)


class TestSingleNode:
    def test_environment_of_the_only_input_is_one(self):
        network = TensorNetwork()
        network.add(np.array(0.25 + 0.5j), ())
        plan = ContractionPlan.record(network)
        value, environments = plan.environments([np.array(0.25 + 0.5j)], [0])
        assert value == 0.25 + 0.5j and environments[0] == 1.0


    def test_plan_without_steps_returns_the_input(self):
        network = TensorNetwork()
        network.add(np.array(0.25 + 0.5j), ())
        plan = ContractionPlan.record(network)
        assert plan.num_steps == 0
        assert network.contract_to_scalar() == plan.execute([np.array(0.25 + 0.5j)]) == 0.25 + 0.5j
        specialized = plan.specialize([np.array(0.0)], [0])
        assert specialized.execute([np.array(2.0 + 0j)]) == 2.0

    def test_execute_rows_without_steps_returns_the_picked_inputs(self):
        network = TensorNetwork()
        network.add(np.array(0.25 + 0.5j), ())
        plan = ContractionPlan.record(network)
        candidates = [np.array([0.5 + 0j, 2.0 - 1j])]
        rows = np.array([[1], [0], [1]])
        assert plan.specialize([np.array(0.0)], [0]).execute_rows(
            candidates, rows
        ).tolist() == [2.0 - 1j, 0.5, 2.0 - 1j]
        static = plan.specialize([np.array(0.25 + 0.5j)], [])
        assert static.execute_rows([], np.zeros((2, 0), dtype=int)).tolist() == [0.25 + 0.5j] * 2


class TestErrors:
    @pytest.fixture(scope="class")
    def recorded(self):
        return _record("noisy_depolarizing")

    def test_execute_rejects_wrong_tensor_count(self, recorded):
        plan, _, tensors = recorded
        with pytest.raises(ValidationError, match="expects"):
            plan.execute(tensors[:-1])

    def test_specialize_rejects_wrong_tensor_count(self, recorded):
        plan, _, tensors = recorded
        with pytest.raises(ValidationError, match="expects"):
            plan.specialize(tensors + [tensors[0]], [0])

    def test_environments_reject_out_of_range_positions(self, recorded):
        plan, _, tensors = recorded
        with pytest.raises(ValidationError, match="out of range"):
            plan.environments(tensors, [plan.num_inputs])

    def test_missing_substitution(self, recorded):
        plan, _, tensors = recorded
        specialized = plan.specialize(tensors, [0, 1])
        assert isinstance(specialized, SpecializedPlan)
        with pytest.raises(ValidationError, match="missing substitution"):
            specialized.execute([tensors[0]])

    @pytest.mark.parametrize("position", [-1, "num_inputs"])
    def test_out_of_range_position(self, recorded, position):
        plan, _, tensors = recorded
        position = plan.num_inputs if position == "num_inputs" else position
        with pytest.raises(ValidationError, match="out of range"):
            plan.specialize(tensors, [position])
