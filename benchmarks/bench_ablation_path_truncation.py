"""Ablation — level-based truncation (Algorithm 1) vs weight-ordered path truncation.

Both schemes spend a budget of split-network evaluations on the expansion of
``M_{E_N} … M_{E_1}``; Algorithm 1 organises it by the number of non-dominant
noises, the path-truncated variant by the product of singular values.  With a
homogeneous noise model the two coincide; with one strong noise among weak
ones the path ordering concentrates the budget where it matters.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import run_once, write_report
from repro.analysis import format_table
from repro.circuits.library import random_circuit
from repro.core import ApproximateNoisySimulator, PathTruncatedSimulator
from repro.noise import NoiseModel, amplitude_damping_channel, depolarizing_channel
from repro.simulators import DensityMatrixSimulator
from repro.utils import zero_state

_rows: list = []


def _heterogeneous_circuit():
    """Three weak depolarizing noises plus one strong amplitude-damping defect."""
    ideal = random_circuit(4, 16, rng=41)
    with_defect = NoiseModel(amplitude_damping_channel(0.3), seed=41).insert_at(
        ideal, positions=[3], qubits=[ideal[3].qubits[0]]
    )
    return NoiseModel(depolarizing_channel(1e-3), seed=42).insert_random(with_defect, 3)


def _homogeneous_circuit():
    ideal = random_circuit(4, 16, rng=43)
    return NoiseModel(depolarizing_channel(0.01), seed=43).insert_random(ideal, 4)


@pytest.mark.parametrize("workload,builder", [
    ("homogeneous", _homogeneous_circuit),
    ("heterogeneous", _heterogeneous_circuit),
])
@pytest.mark.parametrize("scheme", ["level-1", "paths"])
def test_ablation_path_truncation(benchmark, workload, builder, scheme):
    circuit = builder()
    exact = DensityMatrixSimulator().fidelity(circuit, zero_state(4))
    num_noises = circuit.noise_count()
    budget_terms = 1 + 3 * num_noises  # the level-1 term budget

    def run():
        start = time.perf_counter()
        if scheme == "level-1":
            value = ApproximateNoisySimulator(level=1).fidelity(circuit).value
        else:
            value = PathTruncatedSimulator(max_paths=budget_terms).fidelity(circuit).value
        return value, time.perf_counter() - start

    value, elapsed = run_once(benchmark, run)
    _rows.append([workload, scheme, budget_terms, elapsed, abs(value - exact)])


def test_ablation_path_truncation_report(benchmark):
    if not _rows:
        pytest.skip("run with --benchmark-only to populate the table")
    table = format_table(
        ["Workload", "Scheme", "Term budget", "Time (s)", "|error|"],
        sorted(_rows),
        title="Ablation: level-based vs weight-ordered path truncation at equal budget",
    )
    run_once(benchmark, write_report, "ablation_path_truncation", table)

    errors = {(row[0], row[1]): row[4] for row in _rows}
    # Equal budgets: the two schemes coincide for homogeneous noise ...
    assert errors[("homogeneous", "paths")] == pytest.approx(
        errors[("homogeneous", "level-1")], abs=1e-9
    )
    # ... and path ordering is at least as accurate when noise strengths differ.
    assert errors[("heterogeneous", "paths")] <= errors[("heterogeneous", "level-1")] + 1e-9
