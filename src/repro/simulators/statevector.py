"""Dense statevector simulation of noiseless circuits.

This is the textbook simulator the paper describes in the introduction: the
state is a dense ``2**n`` amplitude vector and each gate is applied by a
tensor contraction on the relevant axes.  It cannot represent noise channels
(use the density-matrix or trajectory simulators for that), but it is the
workhorse behind the quantum-trajectories baseline and all small-scale
cross-checks in the test suite.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.circuits.circuit import Circuit
from repro.utils.states import zero_state
from repro.utils.validation import ValidationError, check_statevector

__all__ = ["apply_matrix", "StatevectorSimulator"]

#: Hard cap on the qubit count for dense statevector simulation.
MAX_DENSE_QUBITS = 24


def apply_matrix(state, matrix, qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    """Apply a (not necessarily unitary) matrix to the given qubits of ``state``.

    Parameters
    ----------
    state:
        Dense amplitude vector of length ``2**num_qubits``.
    matrix:
        ``2**k x 2**k`` matrix acting on ``k = len(qubits)`` qubits.
    qubits:
        Big-endian qubit indices the matrix acts on, in the matrix's own order.
    num_qubits:
        Total register size.
    """
    qubits = [int(q) for q in qubits]
    k = len(qubits)
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (2**k, 2**k):
        raise ValidationError(f"matrix shape {matrix.shape} does not match {k} qubits")
    tensor = np.asarray(state, dtype=complex).reshape([2] * num_qubits)
    # Contract the gate's input axes with the state's qubit axes.
    tensor = np.tensordot(matrix.reshape([2] * (2 * k)), tensor, axes=(list(range(k, 2 * k)), qubits))
    # tensordot moves the contracted axes to the front; restore the ordering.
    order = list(qubits) + [ax for ax in range(num_qubits) if ax not in qubits]
    return np.transpose(tensor, np.argsort(order)).reshape(-1)


class StatevectorSimulator:
    """Noiseless dense statevector simulator."""

    def __init__(self, max_qubits: int = MAX_DENSE_QUBITS) -> None:
        self.max_qubits = int(max_qubits)

    # ------------------------------------------------------------------
    def _check(self, circuit: Circuit) -> None:
        if circuit.num_qubits > self.max_qubits:
            raise ValidationError(
                f"statevector simulation limited to {self.max_qubits} qubits "
                f"(circuit has {circuit.num_qubits})"
            )
        if not circuit.is_noiseless():
            raise ValidationError(
                "StatevectorSimulator cannot simulate noise channels; "
                "use DensityMatrixSimulator or the trajectories backend"
            )

    def run(self, circuit: Circuit, initial_state=None) -> np.ndarray:
        """Return the final statevector of ``circuit`` applied to ``initial_state``."""
        self._check(circuit)
        n = circuit.num_qubits
        state = zero_state(n) if initial_state is None else check_statevector(initial_state)
        if state.size != 2**n:
            raise ValidationError(
                f"initial state has {state.size} amplitudes, expected {2**n}"
            )
        for inst in circuit:
            state = apply_matrix(state, inst.operation.matrix, inst.qubits, n)
        return state

    def amplitude(
        self,
        circuit: Circuit,
        output_state,
        initial_state=None,
    ) -> complex:
        """Return ``⟨v| C |ψ⟩`` for dense vectors ``v`` and ``ψ``."""
        final = self.run(circuit, initial_state)
        v = check_statevector(output_state)
        return complex(np.vdot(v, final))

    def probabilities(self, circuit: Circuit, initial_state=None) -> np.ndarray:
        """Return the measurement probability of every computational basis state."""
        final = self.run(circuit, initial_state)
        return np.abs(final) ** 2

    def sample(
        self,
        circuit: Circuit,
        shots: int,
        rng=None,
        initial_state=None,
    ) -> Dict[str, int]:
        """Sample measurement outcomes in the computational basis."""
        if shots <= 0:
            raise ValidationError("shots must be positive")
        rng = np.random.default_rng(rng)
        probs = self.probabilities(circuit, initial_state)
        probs = probs / probs.sum()
        outcomes = rng.choice(len(probs), size=shots, p=probs)
        counts: Dict[str, int] = {}
        width = circuit.num_qubits
        for outcome in outcomes:
            key = format(int(outcome), f"0{width}b")
            counts[key] = counts.get(key, 0) + 1
        return counts

    def expectation(
        self,
        circuit: Circuit,
        observable,
        initial_state=None,
    ) -> float:
        """Return ``⟨ψ_out| O |ψ_out⟩`` for a Hermitian observable ``O``."""
        final = self.run(circuit, initial_state)
        observable = np.asarray(observable, dtype=complex)
        if observable.shape != (final.size, final.size):
            raise ValidationError("observable dimension does not match the circuit")
        return float(np.real(np.vdot(final, observable @ final)))
