"""Tests for the metamorphic oracles (clean pass + seeded-bug sensitivity)."""

from dataclasses import replace

import pytest

from repro.api import Session
from repro.backends.adapters import ApproximationBackend
from repro.circuits import Circuit
from repro.circuits.library import brickwork_circuit, ghz_circuit
from repro.noise import NoiseModel, depolarizing_channel
from repro.verify import generate_workloads
from repro.verify.generators import Workload, random_pauli_observable
from repro.verify.oracles import (
    DEFAULT_ORACLES,
    CrossBackendAgreement,
    NoiseMonotonicity,
    ObservableAgreement,
    SeedDeterminism,
    TranspileInvariance,
    _jump_mass,
)
from repro.utils.validation import ValidationError


@pytest.fixture(scope="module")
def session():
    with Session(workers=2, seed=11) as shared:
        yield shared


def _workload(circuit, noise=None, seed=5, samples=320, observable=None):
    return Workload(
        family="test", index=0, seed=seed, circuit=circuit, noise=noise,
        observable=observable, samples=samples,
    )


class TestCrossBackendAgreement:
    def test_clean_workloads_have_no_violations(self, session):
        oracle = CrossBackendAgreement(output_state="ideal")
        for workload in generate_workloads(cases=2, seed=21):
            assert oracle.check(workload, session) == []

    def test_output_state_validated(self):
        with pytest.raises(ValidationError):
            CrossBackendAgreement(output_state="bogus")

    def test_mps_excluded_from_ideal_output_checks(self):
        zero = CrossBackendAgreement(output_state="zero")
        ideal = CrossBackendAgreement(output_state="ideal")
        circuit = ghz_circuit(3)
        assert "mps" in zero._candidates(circuit)
        assert "mps" not in ideal._candidates(circuit)

    def test_violates_is_false_for_agreeing_backends(self, session):
        oracle = CrossBackendAgreement(output_state="ideal")
        details = {"backend": "tn", "samples": 64, "seed": 3, "level": 1}
        assert not oracle.violates(ghz_circuit(3), details, session)

    def test_bounded_result_above_the_reference_violates(self, session, monkeypatch):
        # Every Algorithm-1 term is non-negative, so A(l) <= F: a bounded
        # result may fall short of the reference by its error bound, but
        # overshooting it by half the bound is a violation.
        noisy = NoiseModel(depolarizing_channel(0.05), seed=2).insert_random(ghz_circuit(3), 4)
        workload = _workload(noisy)
        oracle = CrossBackendAgreement(backends=["approximation"])
        assert oracle.check(workload, session) == []
        execute = ApproximationBackend._execute

        def overshooting(self, circuit, task, plan):
            result = execute(self, circuit, task, plan)
            return replace(result, value=result.value + result.metadata["error_bound"] / 2)

        monkeypatch.setattr(ApproximationBackend, "_execute", overshooting)
        with Session(seed=11) as fresh:
            (violation,) = oracle.check(workload, fresh)
        assert violation.tolerance == oracle.bound_slack

    def test_jump_mass_counts_noise_channels(self):
        circuit = ghz_circuit(2)
        assert _jump_mass(circuit) == 0.0
        noisy = NoiseModel(depolarizing_channel(0.1), seed=1).insert_random(circuit, 2)
        mass = _jump_mass(noisy)
        assert 0.0 < mass <= 0.3


class TestTranspileInvariance:
    def test_clean_circuit_passes(self, session):
        workload = _workload(brickwork_circuit(3, depth=3, seed=2))
        assert TranspileInvariance().check(workload, session) == []

    def test_violates_on_candidate_without_reference_support(self, session):
        big = Circuit(15).h(0)  # beyond the density-matrix ceiling
        oracle = TranspileInvariance()
        assert not oracle.violates(big, {"transform": "merge_single_qubit_gates"}, session)


class TestNoiseMonotonicity:
    def test_clean_circuit_passes(self, session):
        workload = _workload(brickwork_circuit(3, depth=2, seed=3))
        assert NoiseMonotonicity().check(workload, session) == []

    def test_counts_must_increase(self):
        with pytest.raises(ValidationError):
            NoiseMonotonicity(counts=(4, 2, 1))

    def test_nested_prefix_recheck_on_stacked_noise(self, session):
        # A correctly stacked circuit must not re-trigger the predicate.
        oracle = NoiseMonotonicity()
        circuit = ghz_circuit(3)
        stacked = oracle._stacked(circuit, position=1, qubit=1, parameter=0.2, count=3)
        assert not oracle.violates(stacked, {}, session)

    def test_noiseless_candidate_never_violates(self, session):
        assert not NoiseMonotonicity().violates(ghz_circuit(2), {}, session)


class TestSeedDeterminism:
    def test_stochastic_backends_are_deterministic(self, session):
        noisy = NoiseModel(depolarizing_channel(0.05), seed=3).insert_random(
            ghz_circuit(3), 3
        )
        workload = _workload(noisy, samples=300)
        assert SeedDeterminism().check(workload, session) == []

    def test_requires_two_worker_counts(self):
        with pytest.raises(ValidationError):
            SeedDeterminism(workers=(1,))


class TestObservableAgreement:
    def test_dense_and_tn_expectations_agree(self, session, rng):
        observable = random_pauli_observable(3, rng)
        noisy = NoiseModel(depolarizing_channel(0.02), seed=7).insert_random(
            ghz_circuit(3), 2
        )
        workload = _workload(noisy, observable=observable)
        assert ObservableAgreement().check(workload, session) == []

    def test_applies_respects_qubit_ceiling(self, rng):
        observable = random_pauli_observable(3, rng)
        workload = _workload(ghz_circuit(3), observable=observable)
        assert ObservableAgreement(max_qubits=2).applies(workload) is False

    def test_violates_skips_out_of_range_observables(self, session):
        oracle = ObservableAgreement()
        details = {"observable": [[0.5, {"4": "Z"}]]}
        assert not oracle.violates(ghz_circuit(2), details, session)


class TestDefaults:
    def test_default_oracles_have_unique_names(self):
        names = [oracle.name for oracle in DEFAULT_ORACLES()]
        assert len(names) == len(set(names))

    def test_violation_summary_is_readable(self, session):
        oracle = CrossBackendAgreement()
        workload = _workload(ghz_circuit(2))
        violation = oracle._violation(
            workload, workload.circuit, 0.5, 1e-7, backend="tn"
        )
        text = violation.summary()
        assert "cross_backend_zero" in text and "backend=tn" in text
