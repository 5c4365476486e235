"""Reference evaluators for Algorithm 1's index rows (test oracles).

:class:`StatevectorReference` runs the library's term enumeration but
evaluates every term's index row by dense matrix application instead of
replaying the recorded split-network plan: the upper half applies each gate
``U`` and each noise's ``U_i`` to ``|ψ⟩``, the lower half applies ``U*`` and
``V_i`` to ``|ψ*⟩``, and the term is ``⟨v|upper⟩ · ⟨v*|lower⟩``.

:func:`sequential_execute_rows` replays a specialized plan once per row
through :meth:`SpecializedPlan.execute` — the per-row loop the batched
:meth:`SpecializedPlan.execute_rows` replaced, and the reference the
golden values were computed with.

No library option selects either; tests compare the library against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.circuit import Circuit
from repro.core import ApproximateNoisySimulator
from repro.simulators.statevector import apply_matrix
from repro.tensornetwork.circuit_to_tn import StateLike, dense_product_state
from repro.tensornetwork.plan import SpecializedPlan

__all__ = ["StatevectorReference", "rows_close", "sequential_execute_rows"]

#: Batched vs sequential row replay: only the summation order differs.
BATCHED_RTOL = 1e-12


def sequential_execute_rows(plan: SpecializedPlan, factors, rows, xp=None) -> np.ndarray:
    """One :meth:`SpecializedPlan.execute` per index row (signature of ``execute_rows``)."""
    return np.array(
        [
            plan.execute([candidates[index] for candidates, index in zip(factors, row)], xp)
            for row in np.asarray(rows, dtype=int).tolist()
        ],
        dtype=complex,
    )


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
        """Dense value of every term; row ``r`` picks SVD term ``rows[r, s]`` of noise ``s``."""
        return np.array([self._term(row) for row in np.asarray(rows, dtype=int).tolist()], dtype=complex)

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
