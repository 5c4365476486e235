"""Superoperator gate fusion: collapse runs of adjacent gates into one tensor.

Generalises :func:`repro.circuits.transpile.merge_single_qubit_gates` from
single qubits to arbitrary gate supports.  The pass keeps a *live block* per
region of qubits — the product of every gate merged into it so far — and
folds each incoming gate into an existing block whenever the supports nest:

* same/subset support: the gate multiplies into the covering block;
* superset support: every overlapped block is absorbed into a new block on
  the gate's support (overlapped blocks are pairwise disjoint, so their
  embedded matrices commute and the absorption order is irrelevant);
* partial overlap: the overlapped blocks are flushed to the output first.

Because a block's support is always the support of one of the original
gates, fusion never *increases* gate arity — a circuit whose gates all fit a
backend's arity constraint (e.g. the MPS backend's nearest-neighbour
two-qubit limit) still fits it after fusion.  Noise channels act as
barriers: they flush every block they touch, preserving the gate/noise
interleaving the trajectory sampler and Algorithm 1 depend on.

Blocks that fuse to the identity up to a global phase are dropped outright
(dead-gate elimination); every figure of merit the backends report is
insensitive to global phase, so this is exact.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import Circuit, Instruction
from repro.circuits.gates import Gate
from repro.utils.linalg import embed_operator

__all__ = ["fuse_gates", "expand_matrix", "is_identity_up_to_phase"]


def expand_matrix(
    matrix: np.ndarray, qubits: Sequence[int], target_qubits: Sequence[int]
) -> np.ndarray:
    """Embed an operator on ``qubits`` into the frame spanned by ``target_qubits``.

    ``qubits`` must be a subset of ``target_qubits``; the result acts as
    ``matrix`` on them (in order) and as the identity on the rest, with the
    output axis order following ``target_qubits``.
    """
    target = list(target_qubits)
    return embed_operator(matrix, [target.index(q) for q in qubits], len(target))


def is_identity_up_to_phase(matrix: np.ndarray, atol: float = 1e-9) -> bool:
    """True when ``matrix = e^{iφ} I`` for some global phase ``φ``."""
    arr = np.asarray(matrix, dtype=complex)
    dim = arr.shape[0]
    trace = np.trace(arr)
    if not np.isclose(abs(trace), dim, atol=atol * dim):
        return False
    return bool(np.allclose(arr, (trace / dim) * np.eye(dim), atol=atol))


class _Block:
    """A live fusion block: the running product of gates on one support."""

    __slots__ = ("qubits", "matrix", "count", "order", "first")

    def __init__(self, instruction: Instruction, order: int) -> None:
        self.qubits: Tuple[int, ...] = instruction.qubits
        self.matrix: np.ndarray = np.asarray(instruction.operation.matrix, dtype=complex)
        self.count = 1
        self.order = order
        #: The original instruction, emitted verbatim when nothing fused in.
        self.first = instruction

    def absorb_gate(self, instruction: Instruction) -> None:
        """Multiply a gate whose support is a subset of this block's."""
        self.matrix = (
            expand_matrix(instruction.operation.matrix, instruction.qubits, self.qubits)
            @ self.matrix
        )
        self.count += 1

    def emit(self) -> Instruction | None:
        """Render the block back into an instruction (None = fused to identity)."""
        if is_identity_up_to_phase(self.matrix):
            return None
        if self.count == 1:
            return self.first
        gate = Gate("fused", len(self.qubits), self.matrix)
        return Instruction(gate, self.qubits)


def fuse_gates(circuit: Circuit) -> Tuple[Circuit, int]:
    """Run superoperator gate fusion over ``circuit``.

    Returns the fused circuit and the number of gate instructions removed
    (gates merged into blocks plus blocks dropped as identity).
    """
    owner: Dict[int, _Block] = {}
    output: List[Instruction] = []
    next_order = 0

    def flush(blocks: List[_Block]) -> None:
        for block in sorted(blocks, key=lambda b: b.order):
            emitted = block.emit()
            if emitted is not None:
                output.append(emitted)
            for qubit in block.qubits:
                del owner[qubit]

    for instruction in circuit:
        support = instruction.qubits
        overlapping: List[_Block] = []
        seen: set = set()
        for qubit in support:
            block = owner.get(qubit)
            if block is not None and id(block) not in seen:
                seen.add(id(block))
                overlapping.append(block)

        if instruction.is_noise or getattr(
            instruction.operation, "is_parametric_gate", False
        ):
            # Parametric gates (bound or not) are barriers exactly like noise:
            # fusing a bound value would break the structural identity every
            # binding of one circuit must share, and the bind-equivalence
            # guarantee needs passes to commute with substitution exactly.
            flush(overlapping)
            output.append(instruction)
            continue

        support_set = set(support)
        if len(overlapping) == 1 and support_set <= set(overlapping[0].qubits):
            overlapping[0].absorb_gate(instruction)
            continue
        if overlapping and all(set(b.qubits) <= support_set for b in overlapping):
            # Superset absorption: embed each covered block (pairwise
            # disjoint, so the product order among them is immaterial) and
            # apply the new gate on top.
            merged = _Block(instruction, next_order)
            next_order += 1
            for block in overlapping:
                merged.matrix = merged.matrix @ expand_matrix(
                    block.matrix, block.qubits, support
                )
                merged.count += block.count
                for qubit in block.qubits:
                    del owner[qubit]
            for qubit in support:
                owner[qubit] = merged
            continue
        if overlapping:
            flush(overlapping)
        block = _Block(instruction, next_order)
        next_order += 1
        for qubit in support:
            owner[qubit] = block

    flush(list({id(b): b for b in owner.values()}.values()))

    fused = Circuit(circuit.num_qubits, name=circuit.name)
    fused.extend(output)
    return fused, circuit.gate_count() - fused.gate_count()
