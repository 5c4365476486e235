"""Ablation — MPS bond-dimension truncation as an alternative SVD-based axis.

Algorithm 1 truncates the *noise* expansion by SVD; an MPS simulator
truncates the *state* by SVD of its bonds instead.  This ablation measures
the time/infidelity trade-off of that second axis on a noiseless supremacy
instance at reproduction scale.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import run_once, write_report
from repro.analysis import format_table
from repro.circuits.library import supremacy_circuit
from repro.simulators import MPSSimulator, StatevectorSimulator


def test_ablation_mps_bond_dimension(benchmark):
    """Bond-truncation (MPS) as the alternative SVD-based approximation axis."""
    circuit = supremacy_circuit(2, 3, 8, seed=3)
    exact = StatevectorSimulator().run(circuit)

    def run():
        rows = []
        for bond in (2, 4, 8, None):
            start = time.perf_counter()
            mps = MPSSimulator(max_bond_dim=bond).run(circuit)
            elapsed = time.perf_counter() - start
            psi = mps.to_statevector()
            psi = psi / np.linalg.norm(psi)
            infidelity = 1.0 - abs(np.vdot(exact, psi)) ** 2
            rows.append([bond if bond else "exact", elapsed, infidelity])
        return rows

    rows = run_once(benchmark, run)
    table = format_table(
        ["Max bond dim", "Time (s)", "Infidelity"],
        rows,
        title="Ablation: MPS bond-dimension truncation on inst_2x3_8 (noiseless)",
    )
    write_report("ablation_mps_truncation", table)
    # Infidelity decreases as the bond dimension grows.
    infidelities = [row[2] for row in rows]
    assert infidelities[-1] <= infidelities[0] + 1e-12

