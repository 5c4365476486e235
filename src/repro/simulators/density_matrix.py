"""Matrix-multiplication (MM-based) density-matrix simulator.

This is the "MM-based method" baseline of the paper's Table II: states, gates
and noises are dense matrices and the simulation is executed by matrix
multiplications ``rho → E_k rho E_k†``.  It is exact but scales as ``4**n``
in memory, which is why the paper reports MO (memory out) for it beyond a
handful of qubits — the same behaviour this implementation exhibits through
its ``max_qubits`` guard.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.circuits.circuit import Circuit
from repro.utils.linalg import dagger, is_density_matrix, projector
from repro.utils.states import zero_state
from repro.utils.validation import ValidationError, check_square, check_statevector

__all__ = ["apply_matrix_to_density", "apply_channel_to_density", "DensityMatrixSimulator"]

#: Default qubit cap: a 12-qubit density matrix already holds 16M complex entries.
MAX_DENSITY_QUBITS = 12


def _reshape_apply(rho, matrix, qubits: Sequence[int], num_qubits: int, side: str):
    """Apply ``matrix`` to the row (side="left") or column (side="right") indices of ``rho``."""
    qubits = [int(q) for q in qubits]
    k = len(qubits)
    tensor = rho.reshape([2] * (2 * num_qubits))
    gate = matrix.reshape([2] * (2 * k))
    if side == "left":
        axes = qubits
    else:
        # Right multiplication by matrix^T on the column indices.
        axes = [q + num_qubits for q in qubits]
    tensor = np.tensordot(gate, tensor, axes=(list(range(k, 2 * k)), axes))
    order = list(axes) + [ax for ax in range(2 * num_qubits) if ax not in axes]
    return np.transpose(tensor, np.argsort(order)).reshape(rho.shape)


def apply_matrix_to_density(rho, matrix, qubits: Sequence[int], num_qubits: int):
    """Return ``M rho M†`` with ``M`` acting only on ``qubits``."""
    matrix = np.asarray(matrix, dtype=complex)
    left = _reshape_apply(rho, matrix, qubits, num_qubits, side="left")
    return _reshape_apply(left, matrix.conj(), qubits, num_qubits, side="right")


def apply_channel_to_density(rho, kraus_operators, qubits: Sequence[int], num_qubits: int):
    """Return ``Σ_k E_k rho E_k†`` with the channel acting only on ``qubits``."""
    result = np.zeros(rho.shape, dtype=rho.dtype)
    for op in kraus_operators:
        result = result + apply_matrix_to_density(rho, op, qubits, num_qubits)
    return result


class DensityMatrixSimulator:
    """Exact noisy simulation with dense density matrices (MM-based baseline)."""

    def __init__(self, max_qubits: int = MAX_DENSITY_QUBITS) -> None:
        self.max_qubits = int(max_qubits)

    def _check(self, circuit: Circuit) -> None:
        if circuit.num_qubits > self.max_qubits:
            raise MemoryError(
                f"density-matrix simulation limited to {self.max_qubits} qubits "
                f"(circuit has {circuit.num_qubits}); this mirrors the MO entries of Table II"
            )

    # ------------------------------------------------------------------
    def run(
        self,
        circuit: Circuit,
        initial_state: np.ndarray | None = None,
    ) -> np.ndarray:
        """Return the output density matrix ``E_N(rho_0)``.

        ``initial_state`` may be a statevector or a density matrix; the
        default is ``|0…0⟩⟨0…0|``.
        """
        self._check(circuit)
        n = circuit.num_qubits
        if initial_state is None:
            rho = projector(zero_state(n))
        else:
            arr = np.asarray(initial_state, dtype=complex)
            if arr.ndim == 1:
                rho = projector(check_statevector(arr))
            else:
                rho = check_square(arr, name="initial density matrix")
        if rho.shape[0] != 2**n:
            raise ValidationError(
                f"initial state dimension {rho.shape[0]} does not match {n} qubits"
            )

        for inst in circuit:
            if inst.is_gate:
                rho = apply_matrix_to_density(rho, inst.operation.matrix, inst.qubits, n)
            else:
                rho = apply_channel_to_density(rho, inst.operation.kraus_operators, inst.qubits, n)
        return rho

    def fidelity(
        self,
        circuit: Circuit,
        output_state: np.ndarray,
        initial_state: np.ndarray | None = None,
    ) -> float:
        """Return ``⟨v| E_N(rho_0) |v⟩`` — the paper's noisy-simulation quantity."""
        rho = self.run(circuit, initial_state)
        v = check_statevector(output_state)
        if v.size != rho.shape[0]:
            raise ValidationError("output state dimension does not match the circuit")
        return float(np.real(np.vdot(v, rho @ v)))

    def matrix_element(
        self,
        circuit: Circuit,
        bra: np.ndarray,
        ket: np.ndarray,
        initial_state: np.ndarray | None = None,
    ) -> complex:
        """Return the density-matrix element ``⟨x| E_N(rho_0) |y⟩``."""
        rho = self.run(circuit, initial_state)
        x = check_statevector(bra)
        y = check_statevector(ket)
        return complex(np.vdot(x, rho @ y))

    def validate_output(self, circuit: Circuit, initial_state: np.ndarray | None = None) -> bool:
        """Check that the simulated output is a valid density matrix (used in tests)."""
        return is_density_matrix(self.run(circuit, initial_state))
