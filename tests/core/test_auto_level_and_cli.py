"""Tests for automatic level selection and the command-line interface."""

import numpy as np
import pytest

from repro import cli
from repro.circuits.library import qaoa_circuit
from repro.core import ApproximateNoisySimulator, theorem1_error_bound
from repro.noise import NoiseModel, depolarizing_channel, noise_rate
from repro.simulators import DensityMatrixSimulator
from repro.utils import zero_state
from repro.utils.validation import ValidationError
from tests.core.reference import StatevectorReference


@pytest.fixture(scope="module")
def noisy_circuit():
    ideal = qaoa_circuit(4, seed=7, native_gates=False)
    return NoiseModel(depolarizing_channel(0.01), seed=7).insert_random(ideal, 5)


class TestAutoLevelSelection:
    def test_level_for_error_respects_bound(self, noisy_circuit):
        simulator = ApproximateNoisySimulator()
        rate = noise_rate(depolarizing_channel(0.01))
        for target in (1e-1, 1e-3, 1e-6):
            level = simulator.level_for_error(noisy_circuit, target)
            assert theorem1_error_bound(5, rate, level) <= target or level == 5

    def test_level_monotone_in_target(self, noisy_circuit):
        simulator = ApproximateNoisySimulator()
        loose = simulator.level_for_error(noisy_circuit, 1e-1)
        tight = simulator.level_for_error(noisy_circuit, 1e-8)
        assert tight >= loose

    def test_level_capped_by_max_level(self, noisy_circuit):
        simulator = ApproximateNoisySimulator()
        assert simulator.level_for_error(noisy_circuit, 1e-30, max_level=2) == 2

    def test_noiseless_circuit_needs_level_zero(self):
        simulator = ApproximateNoisySimulator()
        assert simulator.level_for_error(qaoa_circuit(4, seed=1, native_gates=False), 1e-9) == 0

    def test_invalid_target(self, noisy_circuit):
        with pytest.raises(ValidationError):
            ApproximateNoisySimulator().level_for_error(noisy_circuit, 0.0)

    def test_fidelity_to_error_meets_target(self, noisy_circuit):
        target = 1e-4
        result = StatevectorReference().fidelity_to_error(
            noisy_circuit, target
        )
        exact = DensityMatrixSimulator().fidelity(noisy_circuit, zero_state(4))
        assert result.error_bound <= target
        assert abs(result.value - exact) <= target


class TestCLI:
    def test_simulate_command(self, capsys):
        assert cli.main([
            "simulate", "--circuit", "ghz_3", "--noises", "2",
            "--channel", "depolarizing", "--parameter", "0.01", "--level", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "A(1)" in out and "Theorem-1 bound" in out

    def test_simulate_noiseless(self, capsys):
        assert cli.main(["simulate", "--circuit", "ghz_3", "--noises", "0"]) == 0
        assert "contractions" in capsys.readouterr().out

    def test_compare_command(self, capsys):
        assert cli.main([
            "compare", "--circuit", "qaoa_4", "--noises", "2", "--composite-gates",
            "--channel", "depolarizing", "--parameter", "0.001", "--samples", "64",
        ]) == 0
        out = capsys.readouterr().out
        assert "tn" in out and "approximation" in out and "density_matrix" in out

    def test_compare_command_backend_subset(self, capsys):
        assert cli.main([
            "compare", "--circuit", "qaoa_4", "--noises", "2", "--composite-gates",
            "--channel", "depolarizing", "--parameter", "0.001",
            "--backends", "tn,mm",
        ]) == 0
        out = capsys.readouterr().out
        assert "tn" in out and "density_matrix" in out
        assert "tdd" not in out

    def test_compare_command_reports_failures(self, capsys):
        # statevector cannot simulate noise channels: the row must report the
        # failure instead of aborting the comparison.
        assert cli.main([
            "compare", "--circuit", "ghz_3", "--noises", "2",
            "--channel", "depolarizing", "--parameter", "0.01",
            "--backends", "statevector,tn",
        ]) == 0
        out = capsys.readouterr().out
        assert "failed (BackendUnsupportedError)" in out

    def test_list_backends_command(self, capsys):
        assert cli.main(["list-backends"]) == 0
        out = capsys.readouterr().out
        assert "trajectories" in out and "density_matrix" in out and "Max qubits" in out

    def test_decompose_command(self, capsys):
        assert cli.main(["decompose", "--channel", "depolarizing", "--parameter", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "noise rate" in out and "singular values" in out

    def test_decompose_verbose_superconducting(self, capsys):
        assert cli.main(["decompose", "--channel", "superconducting", "--verbose"]) == 0
        assert "term 0" in capsys.readouterr().out

    def test_bound_command(self, capsys):
        assert cli.main(["bound", "--noises", "20", "--rate", "0.001", "--max-level", "2"]) == 0
        out = capsys.readouterr().out
        assert "Contractions" in out
        assert "122" in out  # 2(1+3*20)

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])
