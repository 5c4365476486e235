"""Deterministic noise folding: remove sampling-free noise sites.

Two transformations, both phrased through :mod:`repro.circuits.passes.ptm`:

``fold_unitary_channels``
    A channel that is *unitary* (a single effective Kraus operator — no
    sampling freedom, every trajectory applies the same map) is rewritten as
    an ordinary gate.  The fusion pass then merges it into neighbouring gate
    tensors, so the site disappears from the doubled network, the trajectory
    stream and Algorithm 1's noise list alike.  Exact for every backend: the
    trajectory sampler draws nothing for it (the dominant Kraus branch has
    probability 1), and Algorithm 1's SVD of a unitary channel has exactly
    one term, so no level-budget choice is lost.

``merge_adjacent_channels``
    Two noise channels acting back-to-back on the same qubit support are
    composed into one channel by multiplying their superoperators (equal, up
    to the unitary Pauli change of basis, to multiplying their PTMs) and
    re-extracting a canonical Kraus form.  Exact for the superoperator
    backends, but it changes the circuit's *noise count* — the quantity
    Algorithm 1's level budget and the per-channel trajectory RNG stream are
    indexed by — so backends opt in via
    :meth:`~repro.backends.SimulationBackend.pass_profile`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.circuits.circuit import Circuit, Instruction
from repro.circuits.gates import Gate
from repro.circuits.passes.fusion import expand_matrix
from repro.circuits.passes.ptm import kraus_from_superoperator, superoperator_from_kraus
from repro.noise.kraus import KrausChannel

__all__ = ["fold_unitary_channels", "merge_adjacent_channels"]


def fold_unitary_channels(circuit: Circuit) -> Tuple[Circuit, int]:
    """Rewrite unitary (deterministic) noise channels as gates.

    Returns the rewritten circuit and the number of channels folded.
    """
    output: List[Instruction] = []
    folded = 0
    for instruction in circuit:
        operation = instruction.operation
        if not (instruction.is_noise and operation.is_unitary_channel()):
            output.append(instruction)
            continue
        if operation.num_kraus == 1:
            matrix = np.asarray(operation.kraus_operators[0], dtype=complex)
        else:
            # All but one operator are numerically zero; the canonical form
            # isolates the dominant one exactly.
            matrix = operation.canonical_kraus().kraus_operators[0]
        gate = Gate(f"folded_{operation.name}", operation.num_qubits, matrix)
        output.append(Instruction(gate, instruction.qubits))
        folded += 1

    result = Circuit(circuit.num_qubits, name=circuit.name)
    result.extend(output)
    return result, folded


def merge_adjacent_channels(circuit: Circuit) -> Tuple[Circuit, int]:
    """Compose back-to-back same-support noise channels into one channel.

    Returns the rewritten circuit and the number of channels merged away.
    """
    output: List[Instruction] = []
    #: Per qubit, the index in ``output`` of the last instruction touching it.
    last_touch: Dict[int, int] = {}
    merged = 0

    for instruction in circuit:
        support = set(instruction.qubits)
        if instruction.is_noise:
            indices = {last_touch.get(q, -1) for q in support}
            if len(indices) == 1:
                index = next(iter(indices))
                previous = output[index] if index >= 0 else None
                if (
                    previous is not None
                    and previous.is_noise
                    and set(previous.qubits) == support
                ):
                    output[index] = _compose_channels(previous, instruction)
                    merged += 1
                    continue
        position = len(output)
        output.append(instruction)
        for qubit in instruction.qubits:
            last_touch[qubit] = position

    result = Circuit(circuit.num_qubits, name=circuit.name)
    result.extend(output)
    return result, merged


def _compose_channels(first: Instruction, second: Instruction) -> Instruction:
    """Compose two same-support channels (``first`` applied before ``second``)."""
    frame = first.qubits
    kraus_second = [
        expand_matrix(op, second.qubits, frame) for op in second.operation.kraus_operators
    ]
    superop = superoperator_from_kraus(kraus_second) @ superoperator_from_kraus(
        first.operation.kraus_operators
    )
    channel = KrausChannel(
        kraus_from_superoperator(superop),
        name=f"{second.operation.name}∘{first.operation.name}",
    )
    return Instruction(channel, frame)
