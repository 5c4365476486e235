"""Boundary and lightcone pruning: delete sites that cannot affect the output.

Two entry points:

``prune_boundaries``
    Removes instructions that act trivially against the *fixed boundary
    states* of the task.  A forward sweep tracks the per-qubit product state
    evolved from the input boundary and removes any gate that leaves it
    invariant up to a global phase (``Gψ = e^{iφ}ψ``) or channel that fixes
    it exactly (``E(|ψ⟩⟨ψ|) = |ψ⟩⟨ψ|``); a backward sweep does the adjoint
    analysis from the output boundary (``G†v = λv`` with ``|λ| = 1``;
    ``Σ_k E_k† P E_k = P``).  Both conditions make the removal exact for
    every figure of merit of the form ``tr(P_out E_circuit(ρ_in))`` — global
    phases cancel and the adjoint-fixed-point identity
    ``tr(P E(ρ)) = tr(E†(P) ρ)`` holds for any input.  Dense (non-product)
    boundaries disable the corresponding sweep.

``prune_to_observable_cone``
    Removes every site outside the backward causal cone of an observable's
    support.  Valid because the qubits outside the cone are traced out and
    the adjoint of any trace-preserving map is unital (``E†(I) = I``), so
    dropped sites contribute exactly the identity.  Used per Pauli term by
    :meth:`repro.simulators.TNSimulator.expectation`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.circuits.circuit import Circuit, Instruction
from repro.utils.linalg import kron_all, projector

__all__ = ["prune_boundaries", "prune_to_observable_cone"]


def _product_factors(state, num_qubits: int) -> Optional[Dict[int, np.ndarray]]:
    """Per-qubit boundary factors, or None when the state is dense/absent."""
    if state is None:
        return None
    from repro.tensornetwork.circuit_to_tn import resolve_product_state

    resolved = resolve_product_state(state, num_qubits)
    if not isinstance(resolved, list):
        return None
    factors: Dict[int, np.ndarray] = {}
    for qubit, factor in enumerate(resolved):
        norm = np.linalg.norm(factor)
        if norm <= 0:
            return None
        factors[qubit] = factor / norm
    return factors


def _local_state(factors: Dict[int, np.ndarray], qubits) -> Optional[np.ndarray]:
    """Kron of the known factors on ``qubits`` (None when any is unknown)."""
    parts = []
    for qubit in qubits:
        factor = factors.get(qubit)
        if factor is None:
            return None
        parts.append(factor)
    return kron_all([part.reshape(2, 1) for part in parts]).ravel()


def _fixes_vector(matrix: np.ndarray, vector: np.ndarray, atol: float) -> bool:
    """True when ``matrix @ vector = e^{iφ} vector`` for a unimodular phase."""
    image = matrix @ vector
    overlap = np.vdot(vector, image)
    if not np.isclose(abs(overlap), 1.0, atol=atol):
        return False
    return bool(np.linalg.norm(image - overlap * vector) < atol)


def _channel_fixes_state(channel, vector: np.ndarray, atol: float) -> bool:
    """True when ``E(|ψ⟩⟨ψ|) = |ψ⟩⟨ψ|`` exactly."""
    rho = projector(vector)
    return bool(np.allclose(channel.apply(rho), rho, atol=atol))


def _channel_adjoint_fixes(channel, vector: np.ndarray, atol: float) -> bool:
    """True when ``E†(|v⟩⟨v|) = |v⟩⟨v|`` (``Σ E_k† P E_k = P``)."""
    p = projector(vector)
    total = sum(op.conj().T @ p @ op for op in channel.kraus_operators)
    return bool(np.allclose(total, p, atol=atol))


def _forward_sweep(
    instructions: List[Instruction],
    factors: Optional[Dict[int, np.ndarray]],
    atol: float,
) -> Tuple[List[Instruction], int]:
    """One pass from the input boundary; returns (kept instructions, removed)."""
    if factors is None:
        return instructions, 0
    factors = dict(factors)
    kept: List[Instruction] = []
    removed = 0
    for instruction in instructions:
        if getattr(instruction.operation, "is_parametric_gate", False):
            # A parametric angle (even a bound one) is a value-dependent
            # rewrite opportunity this pass must provably skip: keep the
            # instruction and stop tracking its qubits' factors.
            for qubit in instruction.qubits:
                factors[qubit] = None
            kept.append(instruction)
            continue
        local = _local_state(factors, instruction.qubits)
        if local is None:
            for qubit in instruction.qubits:
                factors[qubit] = None
            kept.append(instruction)
            continue
        operation = instruction.operation
        if instruction.is_gate:
            if _fixes_vector(operation.matrix, local, atol):
                removed += 1
                continue
            if len(instruction.qubits) == 1:
                image = operation.matrix @ local
                factors[instruction.qubits[0]] = image / np.linalg.norm(image)
            else:
                for qubit in instruction.qubits:
                    factors[qubit] = None
        else:
            if _channel_fixes_state(operation, local, atol):
                removed += 1
                continue
            for qubit in instruction.qubits:
                factors[qubit] = None
        kept.append(instruction)
    return kept, removed


def _backward_sweep(
    instructions: List[Instruction],
    factors: Optional[Dict[int, np.ndarray]],
    atol: float,
) -> Tuple[List[Instruction], int]:
    """One pass from the output boundary; returns (kept instructions, removed)."""
    if factors is None:
        return instructions, 0
    factors = dict(factors)
    kept_reversed: List[Instruction] = []
    removed = 0
    for instruction in reversed(instructions):
        if getattr(instruction.operation, "is_parametric_gate", False):
            # Same barrier rule as the forward sweep (see above).
            for qubit in instruction.qubits:
                factors[qubit] = None
            kept_reversed.append(instruction)
            continue
        local = _local_state(factors, instruction.qubits)
        if local is None:
            for qubit in instruction.qubits:
                factors[qubit] = None
            kept_reversed.append(instruction)
            continue
        operation = instruction.operation
        if instruction.is_gate:
            adjoint = operation.matrix.conj().T
            if _fixes_vector(adjoint, local, atol):
                removed += 1
                continue
            if len(instruction.qubits) == 1:
                image = adjoint @ local
                factors[instruction.qubits[0]] = image / np.linalg.norm(image)
            else:
                for qubit in instruction.qubits:
                    factors[qubit] = None
        else:
            if _channel_adjoint_fixes(operation, local, atol):
                removed += 1
                continue
            for qubit in instruction.qubits:
                factors[qubit] = None
        kept_reversed.append(instruction)
    return list(reversed(kept_reversed)), removed


def prune_boundaries(
    circuit: Circuit,
    input_state=None,
    output_state=None,
    atol: float = 1e-9,
) -> Tuple[Circuit, int]:
    """Remove instructions that act trivially against the task boundaries.

    Iterates forward and backward sweeps to a fixpoint (a backward removal
    can expose a new forward removal and vice versa).  Returns the pruned
    circuit and the number of instructions removed.
    """
    input_factors = _product_factors(input_state, circuit.num_qubits)
    output_factors = _product_factors(output_state, circuit.num_qubits)
    instructions = list(circuit)
    total_removed = 0
    while True:
        instructions, forward_removed = _forward_sweep(instructions, input_factors, atol)
        instructions, backward_removed = _backward_sweep(instructions, output_factors, atol)
        total_removed += forward_removed + backward_removed
        if not (forward_removed or backward_removed):
            break

    if not total_removed:
        return circuit, 0
    pruned = Circuit(circuit.num_qubits, name=circuit.name)
    pruned.extend(instructions)
    return pruned, total_removed


def prune_to_observable_cone(circuit: Circuit, support) -> Tuple[Circuit, int]:
    """Keep only the sites inside the backward causal cone of ``support``.

    ``support`` is the set of qubits the observable acts on.  Returns the
    pruned circuit and the number of instructions removed.
    """
    live = {int(q) for q in support}
    kept_reversed: List[Instruction] = []
    removed = 0
    for instruction in reversed(circuit.instructions):
        if live.intersection(instruction.qubits):
            live.update(instruction.qubits)
            kept_reversed.append(instruction)
        else:
            removed += 1
    if not removed:
        return circuit, 0
    pruned = Circuit(circuit.num_qubits, name=circuit.name)
    pruned.extend(reversed(kept_reversed))
    return pruned, removed
