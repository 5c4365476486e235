"""Ablation — truncation axis: noise-tensor truncation (ours) vs MPDO bond truncation.

The paper's approximation truncates the *noise tensors* (keeping the dominant
Kronecker term per noise, plus level-``l`` corrections); the MPDO family from
its related work truncates the *density-operator bonds* instead.  This
ablation runs both on the same noisy circuit and reports error vs runtime,
illustrating when each axis pays off (weak noise favours the noise-tensor
truncation; strong noise on a 1-D circuit favours MPDO).
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import run_once, write_report
from repro.analysis import format_table
from repro.circuits.library import random_circuit
from repro.core import ApproximateNoisySimulator
from repro.noise import NoiseModel, depolarizing_channel
from repro.simulators import DensityMatrixSimulator, MPDOSimulator
from repro.utils import zero_state

NUM_QUBITS = 6
NUM_NOISES = 6
_rows: list = []


def _setup(p: float):
    ideal = random_circuit(NUM_QUBITS, 40, rng=37)
    noisy = NoiseModel(depolarizing_channel(p), seed=37).insert_random(ideal, NUM_NOISES)
    exact = DensityMatrixSimulator().fidelity(noisy, zero_state(NUM_QUBITS))
    return noisy, exact


@pytest.mark.parametrize("p", [0.001, 0.05])
@pytest.mark.parametrize(
    "method,config",
    [
        ("ours level-0", {"kind": "ours", "level": 0}),
        ("ours level-1", {"kind": "ours", "level": 1}),
        ("MPDO bond 4", {"kind": "mpdo", "bond": 4}),
        ("MPDO bond 16", {"kind": "mpdo", "bond": 16}),
    ],
)
def test_ablation_truncation_axis(benchmark, p, method, config):
    noisy, exact = _setup(p)

    def run():
        start = time.perf_counter()
        if config["kind"] == "ours":
            value = ApproximateNoisySimulator(level=config["level"]).fidelity(noisy).value
        else:
            value = MPDOSimulator(max_bond_dim=config["bond"]).fidelity(noisy)
        return value, time.perf_counter() - start

    value, elapsed = run_once(benchmark, run)
    _rows.append([p, method, elapsed, abs(value - exact)])


def test_ablation_truncation_axis_report(benchmark):
    if not _rows:
        pytest.skip("run with --benchmark-only to populate the table")
    table = format_table(
        ["Noise p", "Method", "Time (s)", "|error|"],
        sorted(_rows, key=lambda row: (row[0], row[1])),
        title="Ablation: noise-tensor truncation (ours) vs density-operator bond truncation (MPDO)",
    )
    run_once(benchmark, write_report, "ablation_truncation_axis", table)

    # Qualitative claim: at weak noise the level-1 noise-tensor truncation is
    # at least as accurate as the strongly truncated MPDO.
    weak = {row[1]: row[3] for row in _rows if row[0] == 0.001}
    assert weak["ours level-1"] <= weak["MPDO bond 4"] + 1e-9
