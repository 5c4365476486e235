"""Tests for the optimizing pass pipeline (:mod:`repro.circuits.passes`).

Three layers of coverage:

* unit tests per pass — fusion, noise folding, boundary/lightcone pruning,
  the PTM/superoperator conversions, and the config resolution rules;
* a pass-statistics snapshot on a hand-built circuit, pinning exactly what
  :meth:`repro.api.Executable.describe` reports;
* property tests over the six ``repro.verify`` circuit families — running a
  workload with passes on must agree with passes off within each backend's
  own conformance contract (bit-level for the exact methods, Theorem-1
  bound-sum for the approximation, 5σ for trajectories).
"""

import numpy as np
import pytest

from repro.api import Session, simulate
from repro.backends import get_backend
from repro.circuits import Circuit
from repro.circuits.passes import (
    PassConfig,
    fold_unitary_channels,
    fuse_gates,
    merge_adjacent_channels,
    prune_boundaries,
    prune_to_observable_cone,
    run_passes,
)
from repro.circuits.passes.ptm import (
    choi_from_superoperator,
    kraus_from_superoperator,
    pauli_basis_matrices,
    ptm_from_superoperator,
    superoperator_from_kraus,
    superoperator_from_ptm,
)
from repro.circuits.library import qaoa_circuit, random_circuit
from repro.noise import KrausChannel, amplitude_damping_channel, depolarizing_channel
from repro.utils.validation import ValidationError
from repro.verify.generators import FAMILIES, generate_workloads

_Z = np.diag([1.0, -1.0]).astype(complex)


def _dm_value(circuit: Circuit) -> float:
    """Exact fidelity via the density-matrix backend (no session, no passes)."""
    return get_backend("density_matrix").run(circuit).value


def _unitaries_match(a: Circuit, b: Circuit, atol: float = 1e-9) -> bool:
    return np.allclose(a.unitary(), b.unitary(), atol=atol)


# ----------------------------------------------------------------------
# Gate fusion
# ----------------------------------------------------------------------
class TestFuseGates:
    def test_single_qubit_run_becomes_one_gate(self):
        circuit = Circuit(1).h(0).t(0).s(0)
        fused, count = fuse_gates(circuit)
        assert fused.gate_count() == 1
        assert count == 2
        assert _unitaries_match(circuit, fused)

    def test_two_qubit_block_absorbs_single_qubit_gates(self):
        # h/t on each wire are subsets of the cx support: one fused tensor.
        circuit = Circuit(2).h(0).t(1).cx(0, 1).s(0)
        fused, _ = fuse_gates(circuit)
        assert fused.gate_count() == 1
        assert _unitaries_match(circuit, fused)

    def test_identity_block_dropped(self):
        circuit = Circuit(1).x(0).x(0)
        fused, _ = fuse_gates(circuit)
        assert fused.gate_count() == 0

    def test_noise_is_a_barrier(self):
        circuit = Circuit(1).h(0)
        circuit.append(depolarizing_channel(0.05), 0)
        circuit.h(0)
        fused, count = fuse_gates(circuit)
        assert fused.gate_count() == 2
        assert fused.noise_count() == 1
        assert count == 0

    def test_arity_never_grows(self):
        # Partial overlaps flush instead of merging, so no fused gate is
        # wider than the widest original gate (the MPS/MPDO contract).
        circuit = random_circuit(5, depth=20, rng=3)
        widest = max(len(inst.qubits) for inst in circuit)
        fused, _ = fuse_gates(circuit)
        assert max(len(inst.qubits) for inst in fused) <= widest

    def test_exact_on_random_circuits(self):
        for seed in (0, 1, 2):
            circuit = random_circuit(4, depth=16, rng=seed)
            fused, _ = fuse_gates(circuit)
            # Global phase matters: the promise is exact matrix equality.
            assert _unitaries_match(circuit, fused)

    def test_single_gate_passes_through_unwrapped(self):
        circuit = Circuit(2).cx(0, 1)
        fused, count = fuse_gates(circuit)
        assert count == 0
        assert fused[0].name == "cx"


# ----------------------------------------------------------------------
# Noise folding
# ----------------------------------------------------------------------
class TestFolding:
    def test_unitary_channel_becomes_gate(self):
        circuit = Circuit(1).h(0)
        circuit.append(KrausChannel([_Z], name="coherent_z"), 0)
        before = _dm_value(circuit)
        folded, count = fold_unitary_channels(circuit)
        assert count == 1
        assert folded.noise_count() == 0
        assert folded.gate_count() == 2
        assert _dm_value(folded) == pytest.approx(before, abs=1e-12)

    def test_stochastic_channel_untouched(self):
        circuit = Circuit(1).h(0)
        circuit.append(depolarizing_channel(0.1), 0)
        folded, count = fold_unitary_channels(circuit)
        assert count == 0
        assert folded.noise_count() == 1

    def test_adjacent_same_support_channels_merge(self):
        circuit = Circuit(1).h(0)
        circuit.append(depolarizing_channel(0.1), 0)
        circuit.append(amplitude_damping_channel(0.2), 0)
        before = _dm_value(circuit)
        merged, count = merge_adjacent_channels(circuit)
        assert count == 1
        assert merged.noise_count() == 1
        assert _dm_value(merged) == pytest.approx(before, abs=1e-10)

    def test_gate_in_between_blocks_merge(self):
        circuit = Circuit(1).h(0)
        circuit.append(depolarizing_channel(0.1), 0)
        circuit.x(0)
        circuit.append(depolarizing_channel(0.1), 0)
        merged, count = merge_adjacent_channels(circuit)
        assert count == 0
        assert merged.noise_count() == 2


# ----------------------------------------------------------------------
# Boundary and lightcone pruning
# ----------------------------------------------------------------------
class TestPruning:
    def test_forward_prune_gate_fixing_input(self):
        circuit = Circuit(2).z(0).h(0).cx(0, 1)
        pruned, removed = prune_boundaries(circuit, input_state="00", output_state=None)
        # Z|0⟩ = |0⟩, so the leading Z is dead; the rest stays.
        assert removed == 1
        assert [inst.name for inst in pruned] == ["h", "cx"]

    def test_backward_prune_gate_fixing_output(self):
        circuit = Circuit(2).h(0).cx(0, 1).rz(0.4, 1)
        pruned, removed = prune_boundaries(circuit, input_state=None, output_state="00")
        # ⟨00|Rz(θ) = ⟨00| up to phase (and ⟨00|CX = ⟨00| exposes nothing
        # further here because H does not fix |0⟩).
        assert removed >= 1
        assert all(inst.name != "rz" for inst in pruned)

    def test_fidelity_preserved_under_pruning(self):
        circuit = Circuit(3).z(0).h(0).cx(0, 1).rz(0.3, 2)
        circuit.append(depolarizing_channel(0.05), 1)
        before = _dm_value(circuit)
        pruned, removed = prune_boundaries(circuit, input_state="000", output_state="000")
        assert removed >= 2
        assert _dm_value(pruned) == pytest.approx(before, abs=1e-12)

    def test_dense_boundary_disables_sweep(self):
        circuit = Circuit(1).z(0)
        state = np.array([1.0, 1.0]) / np.sqrt(2.0)
        pruned, removed = prune_boundaries(circuit, input_state=state, output_state=None)
        assert removed == 0
        assert pruned is circuit

    def test_lightcone_drops_disconnected_sites(self):
        circuit = Circuit(3).h(0).cx(0, 1).h(2)
        circuit.append(depolarizing_channel(0.1), 2)
        cone, removed = prune_to_observable_cone(circuit, {0, 1})
        # Qubit 2 never feeds the observable support {0, 1}.
        assert removed == 2
        assert all(set(inst.qubits) <= {0, 1} for inst in cone)

    def test_lightcone_expectation_unchanged(self):
        from repro.circuits.observables import PauliObservable
        from repro.simulators.tn_simulator import TNSimulator

        circuit = Circuit(4).h(0).cx(0, 1).rx(0.3, 2).cx(2, 3)
        circuit.append(depolarizing_channel(0.05), 3)
        observable = PauliObservable()
        observable.add_term(1.0, {0: "Z", 1: "Z"})
        simulator = TNSimulator()
        on = simulator.expectation(circuit, observable, lightcone=True)
        off = simulator.expectation(circuit, observable, lightcone=False)
        assert on == pytest.approx(off, abs=1e-10)


# ----------------------------------------------------------------------
# PTM / superoperator conversions
# ----------------------------------------------------------------------
class TestPtm:
    def _random_channel(self, seed: int, num_kraus: int = 3) -> list:
        rng = np.random.default_rng(seed)
        raw = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(num_kraus)]
        total = sum(op.conj().T @ op for op in raw)
        # Normalise to a CPTP set via the inverse square root of Σ E†E.
        eigvals, eigvecs = np.linalg.eigh(total)
        inv_sqrt = eigvecs @ np.diag(eigvals**-0.5) @ eigvecs.conj().T
        return [op @ inv_sqrt for op in raw]

    def test_pauli_basis_is_orthonormal(self):
        basis = pauli_basis_matrices(2)
        dim = 4
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                inner = np.trace(a.conj().T @ b) / dim
                assert inner == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)

    def test_ptm_roundtrip(self):
        kraus = self._random_channel(5)
        superop = superoperator_from_kraus(kraus)
        ptm = ptm_from_superoperator(superop)
        assert np.allclose(superoperator_from_ptm(ptm), superop, atol=1e-12)
        # Trace preservation shows up as a [1, 0, ...] first PTM row.
        assert np.allclose(ptm[0], np.eye(len(ptm))[0], atol=1e-9)

    def test_kraus_reconstruction_matches_superoperator(self):
        kraus = self._random_channel(9)
        superop = superoperator_from_kraus(kraus)
        rebuilt = kraus_from_superoperator(superop)
        assert np.allclose(superoperator_from_kraus(rebuilt), superop, atol=1e-9)

    def test_choi_of_identity_is_maximally_entangled(self):
        superop = superoperator_from_kraus([np.eye(2, dtype=complex)])
        choi = choi_from_superoperator(superop)
        bell = np.array([1.0, 0.0, 0.0, 1.0]).reshape(4, 1)
        assert np.allclose(choi, bell @ bell.T, atol=1e-12)


# ----------------------------------------------------------------------
# Config resolution and the pipeline
# ----------------------------------------------------------------------
class TestConfigAndPipeline:
    def test_resolve_accepts_bool_mapping_and_config(self):
        assert PassConfig.resolve(True) == PassConfig()
        assert not PassConfig.resolve(False).enabled()
        partial = PassConfig.resolve({"fold_noise": False})
        assert partial.fuse_gates and not partial.fold_noise
        config = PassConfig(prune_lightcone=False)
        assert PassConfig.resolve(config) is config

    def test_resolve_rejects_unknown_keys(self):
        with pytest.raises(ValidationError):
            PassConfig.resolve({"fuse": True})

    def test_noop_returns_original_object(self):
        circuit = Circuit(2).cx(0, 1)
        # CX creates entanglement from |00⟩ toward a ⟨+|-style boundary the
        # pruner cannot certify, and there is nothing to fuse or fold.
        state = np.kron(
            np.array([1.0, 1.0]) / np.sqrt(2.0), np.array([1.0, 1.0]) / np.sqrt(2.0)
        )
        optimized, stats = run_passes(circuit, input_state=state, output_state=state)
        assert optimized is circuit
        assert not stats.changed()


# ----------------------------------------------------------------------
# describe() statistics snapshot
# ----------------------------------------------------------------------
class TestDescribeSnapshot:
    def _snapshot_circuit(self) -> Circuit:
        circuit = Circuit(2, name="snapshot")
        circuit.z(0).h(0).t(0)  # run on qubit 0, absorbed by the CX below
        circuit.cx(0, 1)
        circuit.append(KrausChannel([_Z], name="coherent_z"), 1)  # folds to a gate
        circuit.append(depolarizing_channel(0.05), 0)  # survives everything
        circuit.rz(0.3, 1)  # backward-dead against the ⟨00| boundary
        return circuit

    def test_stats_snapshot(self):
        # Pipeline walkthrough: the coherent_z channel folds to a gate (1
        # folded); z/h/t, the cx and the folded gate fuse into one two-qubit
        # tensor (5 gates -> 1, i.e. 4 fused); the trailing rz fixes ⟨00| up
        # to phase and is pruned (1 site).  6 gates/2 channels in, 1 gate/1
        # channel out.
        with Session() as session:
            executable = session.compile(self._snapshot_circuit(), backend="tn")
        info = executable.describe()["passes"]
        assert info["config"] == {
            "fuse_gates": True,
            "fold_noise": True,
            "prune_lightcone": True,
        }
        assert info["stats"] == {
            "gates_fused": 4,
            "channels_folded": 1,
            "sites_pruned": 1,
            "gates_before": 5,
            "gates_after": 1,
            "noises_before": 2,
            "noises_after": 1,
        }
        assert info["seconds"] >= 0.0

    def test_disabled_passes_report_none(self):
        with Session(passes=False) as session:
            executable = session.compile(self._snapshot_circuit(), backend="tn")
        info = executable.describe()["passes"]
        assert info["stats"] is None
        assert info["config"] == {
            "fuse_gates": False,
            "fold_noise": False,
            "prune_lightcone": False,
        }

    def test_pass_modes_agree_on_the_snapshot_circuit(self):
        circuit = self._snapshot_circuit()
        on = simulate(circuit, backend="tn")
        off = simulate(circuit, backend="tn", passes=False)
        assert on.value == pytest.approx(off.value, abs=1e-10)


# ----------------------------------------------------------------------
# Property tests: pass-on vs pass-off over the verify families
# ----------------------------------------------------------------------
def _family_workloads(family: str, cases: int = 2):
    for workload in generate_workloads(families=family, cases=cases, seed=13):
        yield workload, workload.noisy_circuit()


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("backend", ["density_matrix", "tn"])
def test_passes_preserve_exact_backends(family, backend):
    for _, circuit in _family_workloads(family):
        on = simulate(circuit, backend=backend)
        off = simulate(circuit, backend=backend, passes=False)
        assert on.value == pytest.approx(off.value, abs=1e-9), family


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_passes_preserve_tdd(family):
    for _, circuit in _family_workloads(family, cases=1):
        on = simulate(circuit, backend="tdd")
        off = simulate(circuit, backend="tdd", passes=False)
        assert on.value == pytest.approx(off.value, abs=1e-9), family


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_passes_within_approximation_bounds(family):
    # The approximation backend may legitimately shift within its Theorem-1
    # error bound when the noise-site list changes; the conformance contract
    # is the bound sum.
    for workload, circuit in _family_workloads(family):
        on = simulate(circuit, backend="approximation", level=workload.level)
        off = simulate(circuit, backend="approximation", level=workload.level, passes=False)
        budget = (on.error_bound or 0.0) + (off.error_bound or 0.0) + 1e-9
        assert abs(on.value - off.value) <= budget, family


def test_passes_keep_trajectories_consistent_with_exact():
    # Removing noise sites reshuffles the per-channel RNG stream, so the
    # trajectory estimate is compared against the exact value statistically
    # (5σ, floored for near-zero variance), not bit-wise.
    for _, circuit in _family_workloads("qaoa_like", cases=2):
        exact = simulate(circuit, backend="density_matrix", passes=False).value
        on = simulate(circuit, backend="trajectories", samples=400, seed=5)
        tolerance = max(5.0 * on.standard_error, 0.05)
        assert abs(on.value - exact) <= tolerance
