"""Tests for the batched parallel trajectory engine.

Covers the two guarantees the engine makes:

1. It reproduces a plain per-sample Python loop drawing from the same seeded
   RNG blocks exactly (same seed ⇒ same Kraus draws ⇒ same values), for both
   the statevector and the tensor-network path
   (:mod:`benchmarks.reference_loops`).
2. The result depends only on the seed — never on ``workers`` (``None``,
   ``1`` or a process pool) — thanks to fixed-size per-block RNG streams
   and a pool that runs whole passes.

Both paths evolve (statevector) or replay (tn) each distinct Kraus history
of a pass (up to ``PASS_BLOCKS`` RNG blocks) once and copy its value to
every sample sharing it; the statevector path splits depth-first into
capped runs when a channel yields more group states than
``max_batch_entries`` allows.  The oracle tests at the end pin that grouping
on a many-duplicates and a two-qubit-Kraus case, and check that forced
splits and pass boundaries never move a statevector value and that a tn
pass replays each of its histories once.
"""

import pickle

import numpy as np
import pytest

from benchmarks.reference_loops import reference_statevector_loop, reference_tn_loop
from repro.backends import engine as engine_module
from repro.backends.engine import (
    PASS_BLOCKS,
    RNG_BLOCK,
    BatchedTrajectoryEngine,
    apply_matrix_batched,
)
from repro.circuits.circuit import Circuit
from repro.circuits.library import ghz_circuit, qaoa_circuit, random_circuit
from repro.noise import (
    KrausChannel,
    NoiseModel,
    amplitude_damping_channel,
    depolarizing_channel,
    pauli_channel,
    phase_damping_channel,
    two_qubit_depolarizing_channel,
)
from repro.simulators import DensityMatrixSimulator, TNSimulator
from repro.simulators.statevector import apply_matrix
from repro.tensornetwork import plan as plan_module
from repro.tensornetwork.plan import SpecializedPlan
from repro.utils import zero_state
from repro.utils.validation import ValidationError
from repro.verify import generate_workloads


@pytest.fixture(scope="module")
def noisy_circuit():
    ideal = random_circuit(3, 15, rng=4)
    return NoiseModel(depolarizing_channel(0.1), seed=4).insert_random(ideal, 4)


class TestLegacyEquivalence:
    # Both sample counts span two RNG blocks, so the block seeding is checked
    # as well as the per-block stream order.
    def test_statevector_matches_per_sample_loop(self, noisy_circuit):
        reference = reference_statevector_loop(noisy_circuit, 400, 0)
        engine = BatchedTrajectoryEngine("statevector")
        for workers in (None, 1, 2):
            result = engine.estimate_fidelity(
                noisy_circuit, 400, rng=0, keep_samples=True, workers=workers
            )
            np.testing.assert_allclose(
                np.array(result.samples), reference, rtol=0, atol=1e-12
            )
            assert result.estimate == pytest.approx(reference.mean(), abs=1e-13)
            assert result.standard_error == pytest.approx(
                reference.std(ddof=1) / np.sqrt(400), rel=1e-9
            )

    def test_tn_matches_per_sample_loop(self, noisy_circuit):
        reference = reference_tn_loop(noisy_circuit, 300, 6)
        engine = BatchedTrajectoryEngine("tn")
        for workers in (None, 1, 2):
            result = engine.estimate_fidelity(
                noisy_circuit, 300, rng=6, keep_samples=True, workers=workers
            )
            np.testing.assert_allclose(
                np.array(result.samples), reference, rtol=0, atol=1e-12
            )

    def test_backends_agree_with_each_other(self, noisy_circuit):
        sv = BatchedTrajectoryEngine("statevector").estimate_fidelity(noisy_circuit, 1500, rng=7)
        tn = BatchedTrajectoryEngine("tn").estimate_fidelity(noisy_circuit, 1500, rng=7)
        assert sv.estimate == pytest.approx(
            tn.estimate, abs=3 * (sv.standard_error + tn.standard_error)
        )

    def test_amplitude_damping_unbiased(self):
        noisy = NoiseModel(amplitude_damping_channel(0.3), seed=5).insert_random(
            ghz_circuit(2), 2
        )
        exact = DensityMatrixSimulator().fidelity(noisy, zero_state(2))
        result = BatchedTrajectoryEngine("statevector").estimate_fidelity(noisy, 4000, rng=5)
        assert result.estimate == pytest.approx(exact, abs=0.02)


class TestSeededReproducibility:
    @pytest.mark.parametrize("backend", ["statevector", "tn"])
    def test_identical_across_worker_counts(self, noisy_circuit, backend):
        engine = BatchedTrajectoryEngine(backend)
        num_samples = RNG_BLOCK * 2 + 37  # spans three partial blocks
        unset, one, pooled = (
            engine.estimate_fidelity(noisy_circuit, num_samples, rng=42, workers=workers)
            for workers in (None, 1, 2)
        )
        assert unset.estimate == one.estimate == pooled.estimate
        assert unset.standard_error == one.standard_error == pooled.standard_error

    @pytest.mark.parametrize("seed", [0, 7, 11, 2**32 + 3, 2**62 + 5])
    def test_block_zero_is_the_plain_seeded_stream(self, seed):
        # Why runs of at most RNG_BLOCK samples kept their values when the
        # engine's separate single-stream mode was folded into the blocks.
        np.testing.assert_array_equal(
            np.random.default_rng(seed).random(1000),
            np.random.default_rng([seed, 0]).random(1000),
        )

    def test_statevector_three_workers(self, noisy_circuit):
        engine = BatchedTrajectoryEngine("statevector")
        one = engine.estimate_fidelity(noisy_circuit, 600, rng=9, workers=1)
        three = engine.estimate_fidelity(noisy_circuit, 600, rng=9, workers=3)
        assert one.estimate == three.estimate

    def test_different_seeds_differ(self, noisy_circuit):
        engine = BatchedTrajectoryEngine("statevector")
        a = engine.estimate_fidelity(noisy_circuit, 300, rng=1, workers=1)
        b = engine.estimate_fidelity(noisy_circuit, 300, rng=2, workers=1)
        assert a.estimate != b.estimate


class TestSampleRetention:
    def test_samples_discarded_by_default(self, noisy_circuit):
        result = BatchedTrajectoryEngine("statevector").estimate_fidelity(
            noisy_circuit, 64, rng=3
        )
        assert result.samples is None
        assert result.num_samples == 64
        assert np.isfinite(result.estimate) and np.isfinite(result.standard_error)

    def test_keep_samples_opt_in(self, noisy_circuit):
        result = BatchedTrajectoryEngine("statevector").estimate_fidelity(
            noisy_circuit, 64, rng=3, keep_samples=True
        )
        assert len(result.samples) == 64
        assert result.estimate == pytest.approx(np.mean(result.samples))

    def test_streaming_moments_match_full_array(self, noisy_circuit):
        # A 4-state cap forces split runs here; the streamed moments must
        # still match a direct computation.
        engine = BatchedTrajectoryEngine("statevector", max_batch_entries=8 * 4)
        result = engine.estimate_fidelity(noisy_circuit, 100, rng=8, keep_samples=True)
        values = np.array(result.samples)
        assert result.estimate == pytest.approx(values.mean(), rel=1e-12)
        assert result.standard_error == pytest.approx(
            values.std(ddof=1) / np.sqrt(values.size), rel=1e-9
        )


class TestEngineValidation:
    def test_invalid_backend(self):
        with pytest.raises(ValidationError):
            BatchedTrajectoryEngine("magic")

    def test_invalid_sample_count(self, noisy_circuit):
        with pytest.raises(ValidationError):
            BatchedTrajectoryEngine("statevector").estimate_fidelity(noisy_circuit, 0)

    def test_noiseless_circuit_zero_variance(self):
        result = BatchedTrajectoryEngine("statevector").estimate_fidelity(
            ghz_circuit(3), 10, rng=2
        )
        assert result.standard_error == pytest.approx(0.0, abs=1e-12)
        assert result.estimate == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "circuit",
        [ghz_circuit(3), qaoa_circuit(4, seed=3, native_gates=False)]
        + [workload.circuit for workload in generate_workloads(cases=24, seed=3)],
        ids=lambda circuit: circuit.name,
    )
    def test_noiseless_circuit_tn(self, circuit):
        # Every sample holds the noiseless |amplitude|², replayed as one empty row.
        n = circuit.num_qubits
        expected = abs(TNSimulator().amplitude(circuit, "0" * n, "0" * n)) ** 2
        result = BatchedTrajectoryEngine("tn").estimate_fidelity(circuit, 10, rng=2, keep_samples=True)
        assert result.samples == (expected,) * 10


class TestBatchedApply:
    def test_apply_matrix_batched_matches_single(self):
        rng = np.random.default_rng(0)
        states = rng.normal(size=(5, 16)) + 1j * rng.normal(size=(5, 16))
        matrix = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        batched = apply_matrix_batched(states, matrix, (3, 1), 4)
        for row in range(5):
            single = apply_matrix(states[row], matrix, (3, 1), 4)
            np.testing.assert_allclose(batched[row], single, atol=1e-12)

    def test_apply_matrix_batched_bad_shape(self):
        with pytest.raises(ValidationError):
            apply_matrix_batched(np.zeros((2, 4), complex), np.eye(4), (0,), 2)


# -- Distinct Kraus histories --------------------------------------------------


def _qaoa9(probability):
    ideal = qaoa_circuit(9, seed=3, native_gates=False)
    return NoiseModel(depolarizing_channel(probability), seed=5).insert_random(ideal, 8)


def _two_qubit_kraus_circuit():
    # A state-dependent two-qubit channel (amplitude damping on both qubits)
    # on a non-adjacent, reversed pair, plus a two-qubit depolarizing channel.
    damping = amplitude_damping_channel(0.3).kraus_operators
    damping2 = KrausChannel([np.kron(a, b) for a in damping for b in damping], name="damping2")
    noisy = Circuit(4, name="two_qubit_kraus")
    for position, inst in enumerate(random_circuit(4, 12, rng=2)):
        noisy.append(inst.operation, inst.qubits)
        if position % 5 == 1:
            noisy.append(damping2, (3, 1))
        elif position % 5 == 3:
            noisy.append(two_qubit_depolarizing_channel(0.2), (0, 2))
    return noisy


def _non_unital_mix_circuit():
    # Non-unital, dephasing and asymmetric Pauli noise in turn: the Kraus
    # candidates of one history differ in their Born weights.
    channels = [
        amplitude_damping_channel(0.2),
        phase_damping_channel(0.3),
        pauli_channel(0.05, 0.1, 0.15),
    ]
    noisy = Circuit(3, name="non_unital_mix")
    for position, inst in enumerate(random_circuit(3, 12, rng=8)):
        noisy.append(inst.operation, inst.qubits)
        if position % 3 == 0:
            noisy.append(channels[(position // 3) % 3], (inst.qubits[0],))
    return noisy


# (circuit factory, statevector samples, tn samples): the low-noise qaoa_9
# case spans 8 RNG blocks on the statevector path (the per-sample tn loop is
# ~15 ms a sample, so its oracle run stays at two blocks).
ORACLE_CASES = {
    "qaoa9_p0.001": (lambda: _qaoa9(0.001), 2000, RNG_BLOCK + 44),
    "two_qubit_kraus": (_two_qubit_kraus_circuit, 600, 600),
    "non_unital_mix": (_non_unital_mix_circuit, 600, 600),
}
REFERENCE_LOOPS = {"statevector": reference_statevector_loop, "tn": reference_tn_loop}


@pytest.fixture(scope="module")
def oracle_case(request):
    build, sv_samples, tn_samples = ORACLE_CASES[request.param]
    return build(), {"statevector": sv_samples, "tn": tn_samples}


@pytest.mark.parametrize("oracle_case", sorted(ORACLE_CASES), indirect=True)
@pytest.mark.parametrize("backend", ["statevector", "tn"])
def test_grouped_histories_match_per_sample_loop(oracle_case, backend):
    circuit, samples = oracle_case
    reference = REFERENCE_LOOPS[backend](circuit, samples[backend], 1)
    engine = BatchedTrajectoryEngine(backend)
    for workers in (None, 1, 2):
        result = engine.estimate_fidelity(
            circuit, samples[backend], rng=1, keep_samples=True, workers=workers
        )
        np.testing.assert_allclose(np.array(result.samples), reference, rtol=0, atol=1e-12)


def _gate_batches(monkeypatch, circuit):
    batches = []
    apply = engine_module._apply_gate_tensor

    def spy(tensor, *args):
        batches.append(tensor.shape[0])
        return apply(tensor, *args)

    monkeypatch.setattr(engine_module, "_apply_gate_tensor", spy)
    engine = BatchedTrajectoryEngine("statevector")
    engine.estimate_fidelity(circuit, 2000, rng=1, workers=1)
    return batches, engine._slab_size(circuit.num_qubits)


def test_gates_act_on_fewer_states_than_the_slab_at_low_noise(monkeypatch):
    batches, slab = _gate_batches(monkeypatch, _qaoa9(0.001))
    assert batches and max(batches) < slab


def test_gates_never_act_on_more_states_than_the_slab_at_high_noise(monkeypatch):
    batches, slab = _gate_batches(monkeypatch, _qaoa9(0.1))
    assert batches and max(batches) <= slab


@pytest.mark.parametrize("workers", [None, 2])
def test_forced_splits_keep_every_value(monkeypatch, noisy_circuit, workers):
    # 8 * 4 entries cap a 3-qubit pass at 4 group states, so the p = 0.1
    # depolarizing channels (4 branches each) split runs depth-first.
    batches = []
    apply = engine_module._apply_gate_tensor

    def spy(tensor, *args):
        batches.append(tensor.shape[0])
        return apply(tensor, *args)

    monkeypatch.setattr(engine_module, "_apply_gate_tensor", spy)
    capped = BatchedTrajectoryEngine("statevector", max_batch_entries=8 * 4)
    result = capped.estimate_fidelity(
        noisy_circuit, 400, rng=0, keep_samples=True, workers=workers
    )
    capped_batches = list(batches)
    default = BatchedTrajectoryEngine("statevector").estimate_fidelity(
        noisy_circuit, 400, rng=0, keep_samples=True, workers=workers
    )
    assert result.samples == default.samples
    reference = reference_statevector_loop(noisy_circuit, 400, 0)
    np.testing.assert_allclose(np.array(result.samples), reference, rtol=0, atol=1e-12)
    if workers is None:
        # Split runs replay the gates after their channel; no batch tops the cap.
        num_gates = sum(inst.is_gate for inst in noisy_circuit)
        assert max(capped_batches) <= 4 and len(capped_batches) > 2 * num_gates


def test_split_right_after_a_channel_keeps_its_parent_rows():
    # Runs of consecutive channels split right after another channel's
    # selection; the pending runs must resume from their own parent rows,
    # untouched by the first run's later channels.
    noisy = Circuit(3, name="back_to_back_channels")
    for position, inst in enumerate(random_circuit(3, 9, rng=6)):
        noisy.append(inst.operation, inst.qubits)
        if position % 3 == 2:
            noisy.append(depolarizing_channel(0.3), (0,))
            noisy.append(depolarizing_channel(0.3), (1,))
            noisy.append(amplitude_damping_channel(0.4), (2,))
    capped = BatchedTrajectoryEngine("statevector", max_batch_entries=8 * 4)
    result = capped.estimate_fidelity(noisy, 300, rng=3, keep_samples=True)
    reference = reference_statevector_loop(noisy, 300, 3)
    np.testing.assert_allclose(np.array(result.samples), reference, rtol=0, atol=1e-12)


def test_one_pass_applies_each_gate_once(monkeypatch):
    # 2000 samples span 8 RNG blocks; at p = 0.001 their few distinct
    # histories fit one grouped pass, so each gate instruction acts once.
    circuit = _qaoa9(0.001)
    applied = []
    apply = engine_module._apply_gate_tensor

    def spy(tensor, gate_tensor, qubits, *args):
        applied.append(tuple(qubits))
        return apply(tensor, gate_tensor, qubits, *args)

    monkeypatch.setattr(engine_module, "_apply_gate_tensor", spy)
    BatchedTrajectoryEngine("statevector").estimate_fidelity(circuit, 2000, rng=1)
    assert applied == [tuple(inst.qubits) for inst in circuit if inst.is_gate]


def _tn_replays(monkeypatch, probability):
    calls = []
    execute_rows = SpecializedPlan.execute_rows

    def spy(self, factors, rows):
        calls.append(np.array(rows))
        return execute_rows(self, factors, rows)

    monkeypatch.setattr(SpecializedPlan, "execute_rows", spy)
    BatchedTrajectoryEngine("tn").estimate_fidelity(_qaoa9(probability), 2000, rng=1)
    rows = np.concatenate(calls)
    assert len(np.unique(rows, axis=0)) == len(rows)
    return [len(call) for call in calls]


def test_one_pass_replays_each_tn_history_once(monkeypatch):
    # The tn twin of the gate spy above: the 8 blocks of a 2000-sample
    # estimate form one pass, whose distinct histories replay in one call.
    assert len(_tn_replays(monkeypatch, 0.001)) == 1


def test_tn_replays_a_pass_in_one_chunk(monkeypatch):
    # At p = 0.3 a pass holds ~1000 distinct histories: they replay once
    # each, in one call that the plan's entry budget leaves unchunked.
    chunks = []
    replay = plan_module._replay

    def spy(buffer, kernels, result_slot, entries):
        chunks.append(entries)
        return replay(buffer, kernels, result_slot, entries)

    monkeypatch.setattr(plan_module, "_replay", spy)
    sizes = _tn_replays(monkeypatch, 0.3)
    assert len(sizes) == 1 and sizes[0] > 500
    assert chunks == sizes


def test_tn_passes_identical_across_worker_counts():
    # Three passes, the last one partial.  A tn pass replays its rows in
    # batches whose rounding can move a value in the last ulp with the batch
    # layout (here at p = 0.1, not on the 3-qubit fixture), so the pool must
    # run whole passes to keep every value.
    engine = BatchedTrajectoryEngine("tn")
    circuit = _qaoa9(0.1)
    num_samples = 2 * PASS_BLOCKS * RNG_BLOCK + 37
    kept = [
        engine.estimate_fidelity(
            circuit, num_samples, rng=3, keep_samples=True, workers=workers
        ).samples
        for workers in (None, 1, 2, 3)
    ]
    assert kept[0] == kept[1] == kept[2] == kept[3]


@pytest.mark.parametrize("probability", [0.01, 0.1])
def test_pass_boundaries_never_move_a_value(monkeypatch, probability):
    circuit = _qaoa9(probability)
    engine = BatchedTrajectoryEngine("statevector")
    one_pass = engine.estimate_fidelity(circuit, 2000, rng=2, keep_samples=True)
    monkeypatch.setattr(engine_module, "PASS_BLOCKS", 1)
    per_block = engine.estimate_fidelity(circuit, 2000, rng=2, keep_samples=True)
    assert per_block.samples == one_pass.samples
    assert per_block.estimate == one_pass.estimate
    assert per_block.standard_error == one_pass.standard_error


def test_one_pass_estimate_stays_in_process(monkeypatch, noisy_circuit):
    # A pass is the unit of work, so a one-pass estimate gains nothing from
    # a pool: it neither creates one nor maps onto a caller's.
    def refuse(*args, **kwargs):
        raise AssertionError("a one-pass estimate used a process pool")

    class RefusingExecutor:
        map = refuse

    monkeypatch.setattr(engine_module, "ProcessPoolExecutor", refuse)
    engine = BatchedTrajectoryEngine("statevector")
    num_samples = PASS_BLOCKS * RNG_BLOCK
    serial = engine.estimate_fidelity(noisy_circuit, num_samples, rng=5, keep_samples=True)
    for executor in (None, RefusingExecutor()):
        pooled = engine.estimate_fidelity(
            noisy_circuit, num_samples, rng=5, keep_samples=True, workers=2, executor=executor
        )
        assert pooled.samples == serial.samples


@pytest.mark.parametrize("backend", ["statevector", "tn"])
def test_pool_payload_carries_only_what_a_pass_reads(backend, noisy_circuit):
    # A pool payload ships the context's replay: a tn replay holds the
    # specialized plan, the stacked Kraus candidates and the sampling
    # distributions (no template tensors, recorded plan or circuit), and a
    # statevector replay pickles without its dense boundary states.
    engine = BatchedTrajectoryEngine(backend)
    context = engine.prepare(noisy_circuit)
    before = engine.estimate_fidelity(noisy_circuit, 300, rng=2, keep_samples=True, context=context)
    if backend == "tn":
        assert context.replay._fields == ("specialized", "kraus", "q_dists", "q_cdfs")
        assert context.replay.specialized is context.network.specialized
    else:
        _, arguments = context.replay.__reduce__()
        assert not any(
            isinstance(value, np.ndarray) and value.size >= 2**noisy_circuit.num_qubits
            for value in arguments
        )
    context.replay = pickle.loads(pickle.dumps(context.replay))
    after = engine.estimate_fidelity(noisy_circuit, 300, rng=2, keep_samples=True, context=context)
    assert after.samples == before.samples
