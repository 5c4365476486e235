"""TDD-based noisy circuit simulator (decision-diagram baseline).

This reproduces the "TDD-based method" column of the paper's Table II: the
density matrix, all gates and all Kraus operators are held as decision
diagrams (:class:`~repro.simulators.tdd.diagram.MatrixDD`), gates are applied
as ``G ρ G†`` and noise channels as ``Σ_k E_k ρ E_k†`` using diagram algebra,
and the fidelity ``⟨v| E_N(|ψ⟩⟨ψ|) |v⟩`` is read off as ``tr(|v⟩⟨v| ρ)``.

For structured circuits the diagrams stay compact; for circuits with many
arbitrary-angle rotations they blow up — exactly the behaviour the paper
reports for the DD baseline.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import Circuit
from repro.simulators.tdd.diagram import DDContext, MatrixDD
from repro.utils.linalg import projector
from repro.utils.states import zero_state
from repro.utils.validation import ValidationError, check_statevector

__all__ = ["TDDSimulator"]


class TDDSimulator:
    """Exact noisy simulation with decision diagrams."""

    def __init__(self, max_qubits: int = 16, max_nodes: int | None = 200_000) -> None:
        self.max_qubits = int(max_qubits)
        #: Abort (as a memory-out condition) when the density diagram exceeds
        #: this many nodes.  Mirrors the MO/TO entries of Table II.
        self.max_nodes = max_nodes

    # ------------------------------------------------------------------
    def run(self, circuit: Circuit, initial_state: np.ndarray | None = None) -> MatrixDD:
        """Return the output density matrix as a decision diagram."""
        if circuit.num_qubits > self.max_qubits:
            raise MemoryError(
                f"TDD simulation limited to {self.max_qubits} qubits "
                f"(circuit has {circuit.num_qubits})"
            )
        n = circuit.num_qubits
        context = DDContext()
        if initial_state is None:
            rho_dense = projector(zero_state(n))
        else:
            arr = np.asarray(initial_state, dtype=complex)
            rho_dense = projector(check_statevector(arr)) if arr.ndim == 1 else arr
        if rho_dense.shape[0] != 2**n:
            raise ValidationError("initial state dimension does not match the circuit")
        rho = MatrixDD.from_matrix(rho_dense, context)

        for inst in circuit:
            if inst.is_gate:
                gate = MatrixDD.from_gate(inst.operation.matrix, inst.qubits, n, context)
                rho = gate.multiply(rho).multiply(gate.adjoint())
            else:
                terms = None
                for op in inst.operation.kraus_operators:
                    kraus = MatrixDD.from_gate(op, inst.qubits, n, context)
                    term = kraus.multiply(rho).multiply(kraus.adjoint())
                    terms = term if terms is None else terms.add(term)
                rho = terms
            if self.max_nodes is not None and rho.node_count() > self.max_nodes:
                raise MemoryError(
                    f"density diagram grew past {self.max_nodes} nodes "
                    "(decision-diagram blow-up)"
                )
            # Keep per-instruction caches from growing without bound.
            context.clear_caches()
        return rho

    def fidelity(
        self,
        circuit: Circuit,
        output_state: np.ndarray | None = None,
        initial_state: np.ndarray | None = None,
    ) -> float:
        """Return ``⟨v| E_N(|ψ⟩⟨ψ|) |v⟩`` using diagram algebra end to end."""
        n = circuit.num_qubits
        v = zero_state(n) if output_state is None else check_statevector(output_state)
        rho = self.run(circuit, initial_state)
        proj = MatrixDD.from_matrix(projector(v), rho.context)
        return float(np.real(proj.multiply(rho).trace()))

    def density_matrix(self, circuit: Circuit, initial_state: np.ndarray | None = None) -> np.ndarray:
        """Dense output density matrix (small circuits only; used for cross-checks)."""
        return self.run(circuit, initial_state).to_matrix()
