"""Reference evaluators for Algorithm 1's index rows (test oracles).

:class:`StatevectorReference` runs the library's term enumeration but
evaluates every term's index row as the paper does, by dense matrix
application instead of replaying the library's amplitude network: the upper
half applies each gate ``U`` and each noise's ``U_i`` to ``|ψ⟩``, the lower
half applies ``U*`` and ``V_i`` to ``|ψ*⟩``, and the term is
``⟨v|upper⟩ · ⟨v*|lower⟩``.

:func:`substituted_split_networks` builds the paper's two networks of a
fully substituted term, the upper and the lower one, which the library
never builds: its lower network is the conjugate of the upper one over the
term's singular-value product.

:func:`sequential_execute_rows` replays a specialized plan once per row,
each row a one-row :meth:`SpecializedPlan.execute_rows` batch (what
:meth:`SpecializedPlan.execute` runs) — the per-row loop the batched replay
replaced, and the reference the golden values were computed with.  It holds
the unpatched ``execute_rows``, so a test may patch that method with it.

The tensordot slot replays are the plan replay written plainly, one
``np.tensordot`` (or stacked ``matmul``) per step: a kernel-table replay
must equal them bit for bit.  :func:`tensordot_execute` and
:func:`tensordot_environments` (from ``benchmarks/reference_loops.py``,
which times them) cover :meth:`ContractionPlan.execute`,
:meth:`ContractionPlan.environments` and :meth:`SpecializedPlan.execute`;
:func:`tensordot_execute_rows` covers :meth:`SpecializedPlan.execute_rows`.

No library option selects any of them; tests compare the library against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.tensornetwork.plan as plan_module
from benchmarks.reference_loops import tensordot_environments, tensordot_execute, tensordot_specialize
from repro.circuits.circuit import Circuit
from repro.core import ApproximateNoisySimulator
from repro.simulators.statevector import apply_matrix
from repro.tensornetwork.circuit_to_tn import (
    StateLike,
    dense_product_state,
    operator_amplitude_network,
    resolve_product_state,
)
from repro.tensornetwork.network import TensorNetwork
from repro.tensornetwork.plan import SpecializedPlan
from repro.utils.validation import ValidationError

__all__ = [
    "StatevectorReference",
    "rows_close",
    "sequential_execute_rows",
    "substituted_split_networks",
    "tensordot_environments",
    "tensordot_execute",
    "tensordot_execute_rows",
]

#: Batched vs sequential row replay: only the summation order differs.
BATCHED_RTOL = 1e-12


def substituted_split_networks(
    circuit: Circuit, substitution, input_state: StateLike, output_state: StateLike
) -> tuple[TensorNetwork, TensorNetwork]:
    """Build the two independent ``n``-rail networks of a fully substituted term.

    ``substitution`` maps the *noise occurrence index* (0-based position among
    the circuit's noise instructions, in order) to a pair ``(U, V)`` so that
    the noise's matrix representation is replaced by ``U ⊗ V``.  Every noise
    occurrence must be substituted — that is what makes the doubled diagram
    factorise into the upper network (⟨v| … U … |ψ⟩) and the lower network
    (⟨v*| … V … |ψ*⟩).
    """
    if len(substitution) != circuit.noise_count() or any(
        index not in substitution for index in range(circuit.noise_count())
    ):
        raise ValidationError(
            f"substitution covers {sorted(substitution)} but the circuit has "
            f"{circuit.noise_count()} noise occurrences; all must be substituted"
        )
    states = [resolve_product_state(state, circuit.num_qubits) for state in (input_state, output_state)]
    halves = []
    for half in (0, 1):
        noises = iter(range(circuit.noise_count()))
        operations = [
            (
                (inst.operation.matrix.conj() if half else inst.operation.matrix)
                if inst.is_gate
                else substitution[next(noises)][half],
                inst.qubits,
            )
            for inst in circuit
        ]
        halves.append(operator_amplitude_network(circuit.num_qubits, operations, *states))
        # The lower network runs from |ψ*⟩ to ⟨v*|.
        states = [
            [factor.conj() for factor in state] if isinstance(state, list) else state.conj()
            for state in states
        ]
    return tuple(halves)


#: The library's row replay, held before a test patches ``execute_rows`` with
#: :func:`sequential_execute_rows` (which must not call the patched method).
_execute_rows = SpecializedPlan.execute_rows


def sequential_execute_rows(plan: SpecializedPlan, factors, rows) -> np.ndarray:
    """One one-row replay per index row (signature of ``execute_rows``)."""
    rows = np.asarray(rows, dtype=np.intp)
    values = np.empty(len(rows), dtype=complex)
    for index in range(len(rows)):
        values[index] = _execute_rows(plan, factors, rows[index : index + 1])[0]
    return values


def tensordot_execute_rows(plan, tensors, variable_positions, factors, rows) -> np.ndarray:
    """``plan.specialize(tensors, variable_positions).execute_rows(factors, rows)``, step by step.

    Static steps are ``np.tensordot`` calls over the static inputs.  In each
    chunk of rows (the library's chunk size), a step with one batched operand
    is a ``tensordot`` over the row-shifted axes (a batched ``b``'s row axis
    then moved first), and two batched operands contract row by row in one
    stacked ``matmul``.
    """
    variable = list(variable_positions)
    baked, residual = tensordot_specialize(plan, tensors, variable)
    batched = set(variable) | {step[4] for step in residual}
    rows = np.asarray(rows, dtype=np.intp)
    chunk = plan_module.row_chunk(plan.peak_intermediate_entries)
    values = []
    for start in range(0, len(rows), chunk):
        block = rows[start : start + chunk]
        buffer = list(baked)
        for column, position in enumerate(variable):
            buffer[position] = factors[column][block[:, column]]
        for slot_a, slot_b, axes_a, axes_b, out in residual:
            tensor_a, tensor_b = buffer[slot_a], buffer[slot_b]
            if slot_a in batched and slot_b in batched:
                free_a = [axis for axis in range(tensor_a.ndim - 1) if axis not in axes_a]
                free_b = [axis for axis in range(tensor_b.ndim - 1) if axis not in axes_b]
                shared = int(np.prod([tensor_a.shape[axis + 1] for axis in axes_a]))
                left = np.transpose(tensor_a, [0] + [axis + 1 for axis in free_a + list(axes_a)])
                right = np.transpose(tensor_b, [0] + [axis + 1 for axis in list(axes_b) + free_b])
                product = left.reshape(len(block), -1, shared) @ right.reshape(len(block), shared, -1)
                buffer[out] = product.reshape(
                    [len(block)]
                    + [tensor_a.shape[axis + 1] for axis in free_a]
                    + [tensor_b.shape[axis + 1] for axis in free_b]
                )
            elif slot_a in batched:
                shifted = [axis + 1 for axis in axes_a]
                buffer[out] = np.tensordot(tensor_a, tensor_b, axes=(shifted, list(axes_b)))
            else:
                shifted = [axis + 1 for axis in axes_b]
                result = np.tensordot(tensor_a, tensor_b, axes=(list(axes_a), shifted))
                free = tensor_a.ndim - len(axes_a)
                buffer[out] = np.transpose(
                    result, [free] + list(range(free)) + list(range(free + 1, result.ndim))
                )
        result = buffer[-1]
        values.extend(result.reshape(-1) if variable else [result.reshape(())] * len(block))
    return np.array(values, dtype=complex)


def rows_close(actual, expected, rtol: float = BATCHED_RTOL) -> bool:
    """``actual`` equals ``expected`` to ``rtol`` relative to the largest ``|expected|``."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    if actual.shape != expected.shape:
        return False
    scale = np.max(np.abs(expected), initial=0.0)
    return bool(np.max(np.abs(actual - expected), initial=0.0) <= rtol * scale)


@dataclass(frozen=True)
class _DenseTerms:
    circuit: Circuit
    decompositions: tuple
    psi: np.ndarray
    v: np.ndarray

    def evaluate(self, rows) -> np.ndarray:
        """Dense value of every term; row ``r`` picks SVD term ``rows[r, s]`` of noise ``s``.

        A term is real (the lower half is the conjugate of the upper one over
        the singular-value product), so, like the library's, the values are
        real: the rounding left in each imaginary part is dropped.
        """
        terms = [self._term(row) for row in np.asarray(rows, dtype=int).tolist()]
        return np.array(terms, dtype=complex).real

    def _term(self, row) -> complex:
        n = self.circuit.num_qubits
        upper = self.psi.copy()
        lower = self.psi.conj().copy()
        noise_index = 0
        for inst in self.circuit:
            if inst.is_gate:
                upper = apply_matrix(upper, inst.operation.matrix, inst.qubits, n)
                lower = apply_matrix(lower, inst.operation.matrix.conj(), inst.qubits, n)
            else:
                u_matrix, v_matrix = self.decompositions[noise_index].terms[row[noise_index]]
                upper = apply_matrix(upper, u_matrix, inst.qubits, n)
                lower = apply_matrix(lower, v_matrix, inst.qubits, n)
                noise_index += 1
        return complex(np.vdot(self.v, upper)) * complex(np.vdot(self.v.conj(), lower))


class StatevectorReference(ApproximateNoisySimulator):
    """Algorithm 1 with every term evaluated on dense statevectors."""

    def prepare(
        self,
        circuit: Circuit,
        input_state: StateLike = None,
        output_state: StateLike = None,
    ) -> _DenseTerms:
        n = circuit.num_qubits
        if n > 20:
            raise MemoryError("the statevector reference is limited to 20 qubits")
        return _DenseTerms(
            circuit=circuit,
            decompositions=tuple(self.decompose_noises(circuit)),
            psi=dense_product_state("0" * n if input_state is None else input_state, n),
            v=dense_product_state("0" * n if output_state is None else output_state, n),
        )
