"""End-to-end conformance runs: clean pass, injected bug, CLI, sweep spec.

The injected-bug test is the subsystem's acceptance check: a deliberately
broken backend registered under a test-only name must be *caught* by the
cross-backend oracle, *shrunk* to a <= 8-gate reproducing circuit, and the
written artifact must *replay* as still-failing.
"""

import json

import pytest

from repro.backends import registry
from repro.backends.adapters import DensityMatrixBackend
from repro.backends.registry import register_backend
from repro.circuits import Circuit
from repro.cli import main
from repro.sweeps import load_spec
from repro.utils.validation import ValidationError
from repro.verify import (
    ConformanceRunner,
    CrossBackendAgreement,
    conformance_spec,
    load_artifact,
    replay_artifact,
    run_conformance,
)


@pytest.fixture
def buggy_backend():
    """A density-matrix backend that silently drops every T gate."""

    class _BuggyDM(DensityMatrixBackend):
        def _execute(self, circuit, task, plan):
            mutated = Circuit(circuit.num_qubits, name=circuit.name)
            for inst in circuit:
                if inst.is_gate and inst.operation.name == "t":
                    continue
                mutated.append(inst.operation, inst.qubits)
            return super()._execute(mutated, task, plan)

    register_backend("buggy_dm_test", noisy=True, exact=True, max_qubits=12)(_BuggyDM)
    try:
        yield "buggy_dm_test"
    finally:
        registry._REGISTRY.pop("buggy_dm_test", None)


class TestCleanRun:
    def test_small_all_family_run_is_clean(self, tmp_path):
        report = run_conformance(
            cases=6, seed=7, artifact_dir=tmp_path, samples=288
        )
        assert report.ok
        assert report.cases == 6
        assert report.checks > 0
        assert list(tmp_path.glob("*.json")) == []
        table = report.summary_table()
        assert "cross_backend_ideal" in table and "total" in table

    def test_workers_validated(self):
        with pytest.raises(ValidationError):
            ConformanceRunner(workers=1)


class TestInjectedBug:
    # All injected-bug tests run with passes=False: the planted bug matches
    # gates by *name*, and the optimizing fusion pass would rewrite the T
    # gates into fused `u` gates before the backend sees them — both backends
    # then (correctly) agree on the optimized circuit, so the raw pipeline is
    # what this machinery needs to exercise.  The recorded artifact carries
    # the pass mode, so replays reproduce under the same pipeline.

    def test_bug_is_caught_shrunk_and_replayable(self, tmp_path, buggy_backend):
        runner = ConformanceRunner(
            families="clifford_t",
            cases=4,
            seed=7,
            oracles=[CrossBackendAgreement(backends=[buggy_backend], output_state="ideal")],
            artifact_dir=tmp_path,
            passes=False,
        )
        report = runner.run()
        assert not report.ok
        assert report.violations, "the T-dropping backend must be caught"

        # Acceptance: shrunk to a <= 8-gate reproducing circuit.
        shrunk = [report.shrunk[i] for i in range(len(report.violations)) if i in report.shrunk]
        assert shrunk and min(c.gate_count() for c in shrunk) <= 8
        for circuit in shrunk:
            assert any(inst.name == "t" for inst in circuit), "reproducer must keep a T gate"

        # Acceptance: the artifact replays as still-failing while the bug is
        # present, and records both circuits.
        artifact = load_artifact(report.artifacts[0])
        assert artifact["details"]["backend"] == buggy_backend
        assert replay_artifact(artifact, oracle=runner.oracles[0]) is True

    def test_artifact_replays_clean_after_fix(self, tmp_path, buggy_backend):
        runner = ConformanceRunner(
            families="clifford_t",
            cases=4,
            seed=7,
            oracles=[CrossBackendAgreement(backends=[buggy_backend], output_state="ideal")],
            artifact_dir=tmp_path,
            passes=False,
        )
        report = runner.run()
        assert report.artifacts
        artifact = load_artifact(report.artifacts[0])
        # "Fix" the backend: swap the buggy adapter for a correct one under
        # the same registry name (capabilities inherit from the base class).
        registry._REGISTRY["buggy_dm_test"] = type(
            "FixedDM", (DensityMatrixBackend,), {"name": "buggy_dm_test"}
        )
        assert replay_artifact(artifact) is False


class TestCli:
    def test_verify_command_clean(self, tmp_path, capsys):
        code = main([
            "verify", "--families", "ghz_ladder", "--cases", "2", "--seed", "7",
            "--samples", "288", "--artifacts", str(tmp_path), "--quiet",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "all" in out and "checks passed" in out

    def test_verify_command_reports_failures(self, tmp_path, capsys, buggy_backend,
                                             monkeypatch):
        # Narrow the default oracle set to the buggy comparison via the
        # runner, exercised through the CLI failure path.
        from repro.verify import runner as runner_module

        def tiny_oracles():
            return [CrossBackendAgreement(backends=[buggy_backend], output_state="ideal")]

        monkeypatch.setattr(runner_module, "DEFAULT_ORACLES", tiny_oracles)
        code = main([
            "verify", "--families", "clifford_t", "--cases", "4", "--seed", "7",
            "--artifacts", str(tmp_path), "--quiet", "--no-passes",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "violation" in captured.err.lower()
        assert list(tmp_path.glob("*.json"))

    def test_replay_command(self, tmp_path, capsys, buggy_backend):
        report = ConformanceRunner(
            families="clifford_t", cases=4, seed=7,
            oracles=[CrossBackendAgreement(backends=[buggy_backend], output_state="ideal")],
            artifact_dir=tmp_path, passes=False,
        ).run()
        path = str(report.artifacts[0])
        assert main(["replay", path]) == 1  # bug still present -> exit 1
        assert "STILL FAILING" in capsys.readouterr().out

    def test_unknown_family_is_a_cli_error(self, capsys):
        assert main(["verify", "--families", "nope", "--cases", "1"]) == 2
        assert "unknown workload family" in capsys.readouterr().err


class TestSweepIntegration:
    def test_conformance_spec_loads_as_sweep(self):
        spec = load_spec(conformance_spec())
        assert spec.name == "conformance"
        assert spec.reference == "density_matrix"
        assert len(spec.cells()) == 6 * 3 * 4

    def test_conformance_spec_family_subset(self):
        spec = load_spec(conformance_spec(families="brickwork"))
        assert [c.circuit.name for c in spec.cells()][0].startswith("brickwork")

    def test_repo_example_spec_matches_generator(self):
        example = load_spec("examples/specs/conformance.yaml")
        generated = load_spec(conformance_spec())
        assert {c.circuit.label for c in example.cells()} == {
            c.circuit.label for c in generated.cells()
        }
