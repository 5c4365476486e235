"""Tensor-network (TN-based) exact noisy simulator.

This is the "TN-based method" baseline of the paper (and the exact algorithm
of its Section III): build the doubled tensor-network diagram in which every
gate appears as ``U`` and ``U*`` and every noise as its matrix representation
``M_E``, then contract the whole network to obtain
``⟨v| E_N(|ψ⟩⟨ψ|) |v⟩`` exactly.

Every value is computed the same way: the contraction order is planned from
the network's shapes (:class:`~repro.tensornetwork.plan.ContractionPlan`),
then replayed over its tensors.  The plan respects an optional
intermediate-size budget; an order exceeding it raises
:class:`~repro.tensornetwork.network.ContractionMemoryError` at plan time,
before any tensor is allocated, which the benchmark harness reports as "MO"
exactly like the paper's Table II.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.parameters import gate_derivative
from repro.tensornetwork.circuit_to_tn import (
    StateLike,
    circuit_amplitude_network,
    instruction_node_positions,
    noisy_doubled_network,
    noisy_observable_network,
    operator_tensor,
)
from repro.tensornetwork.plan import ContractionPlan
from repro.utils.validation import ValidationError

__all__ = ["PreparedFidelity", "TNSimulator"]


class PreparedFidelity:
    """A planned fidelity contraction, replayable without re-planning.

    Produced by :meth:`TNSimulator.prepare`: the network construction and the
    greedy contraction-ordering search are paid once; every :meth:`execute`
    replays the plan (its pairwise ``tensordot`` steps as precompiled ``dot``
    kernels that compute the same bits, so the value is bit-identical to
    :meth:`TNSimulator.fidelity`; the kernel table lives on the plan, which
    every :meth:`rebind` shares).

    ``gate_nodes`` maps the instruction index of every parametric gate to its
    node positions (``U``, then ``U*`` in the doubled diagram; see
    :func:`~repro.tensornetwork.circuit_to_tn.instruction_node_positions`):
    the only tensors another binding of the structure changes.
    """

    __slots__ = ("plan", "tensors", "noiseless", "gate_nodes")

    def __init__(
        self,
        plan: ContractionPlan,
        tensors: List[np.ndarray],
        noiseless: bool,
        gate_nodes: Dict[int, Tuple[int, ...]] | None = None,
    ) -> None:
        self.plan = plan
        self.tensors = tensors
        self.noiseless = noiseless
        self.gate_nodes = {} if gate_nodes is None else gate_nodes

    def execute(self) -> float:
        """Return the fidelity by one replay of the plan."""
        value = self.plan.execute(self.tensors)
        if self.noiseless:
            return float(abs(value) ** 2)
        return float(np.real(value))

    def rebind(self, circuit: Circuit) -> "PreparedFidelity":
        """This plan over another binding of its structure: only the gate tensors change.

        Copies the tensor list and overwrites the nodes of every parametric
        gate with ``circuit``'s bound matrix (and its conjugate on the lower
        rails), exactly the tensors the network builder would produce — no
        network is built, and every other tensor (boundaries, fixed gates,
        noise superoperators) is shared with this plan.
        """
        tensors = list(self.tensors)
        for index, nodes in self.gate_nodes.items():
            inst = circuit[index]
            matrix = inst.operation.matrix
            tensors[nodes[0]] = operator_tensor(matrix, inst.qubits)
            if len(nodes) > 1:
                tensors[nodes[1]] = operator_tensor(matrix.conj(), inst.qubits)
        return PreparedFidelity(self.plan, tensors, self.noiseless, gate_nodes=self.gate_nodes)

    def angle_derivatives(self, circuit: Circuit, indices: Sequence[int]) -> List[float]:
        """Exact ``∂F/∂θ`` of the single-angle gate at each instruction index.

        ``circuit`` is the circuit these tensors were built from, and each
        indexed gate must be parametric with a generator in
        :data:`~repro.circuits.parameters.GATE_GENERATORS`.  One forward and
        one reverse replay (:meth:`ContractionPlan.environments`) give the
        environment ``E`` of every gate node.  With ``U′ = dU/dθ``, the
        doubled diagram's fidelity ``F = Re(value)`` has
        ``∂F/∂θ = Re(⟨E_U, U′⟩ + ⟨E_U*, conj U′⟩)``; the noiseless amplitude
        ``A`` has ``∂|A|²/∂θ = 2·Re(conj(A)·⟨E_U, U′⟩)``.
        """
        missing = sorted(index for index in indices if index not in self.gate_nodes)
        if missing:
            raise ValidationError(f"instructions {missing} are not parametric gates of this plan")
        positions = [position for index in indices for position in self.gate_nodes[index]]
        value, envs = self.plan.environments(self.tensors, positions)
        derivatives = []
        for index in indices:
            inst = circuit[index]
            tensor = operator_tensor(gate_derivative(inst.operation), inst.qubits)
            nodes = self.gate_nodes[index]
            upper = _pair(envs[nodes[0]], tensor)
            if self.noiseless:
                derivatives.append(float(2.0 * np.real(np.conj(value) * upper)))
            else:
                lower = _pair(envs[nodes[1]], tensor.conj())
                derivatives.append(float(np.real(upper + lower)))
        return derivatives

    def describe(self) -> dict:
        """Plan-cost summary (node count, steps, peak intermediate size)."""
        return {"noiseless": self.noiseless, **self.plan.describe()}


def _pair(environment: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """``⟨E, T⟩``: the full contraction of an environment with its input, as one ``dot``.

    ``np.tensordot(E, T, axes=T.ndim)`` computes exactly this row-times-column
    product (its decomposition of a full contraction) and returns it as a
    0-d array too, so the value — and the arithmetic done with it — is the
    same to the bit, without ``tensordot``'s per-call shape arithmetic.
    """
    return np.dot(environment.reshape(1, -1), tensor.reshape(-1, 1)).reshape(())


class TNSimulator:
    """Exact noisy simulation by contraction of the doubled tensor network."""

    def __init__(
        self,
        max_intermediate_size: int | None = 2**26,
        strategy: str = "greedy",
    ) -> None:
        #: Budget on the entry count of any intermediate tensor (None = unlimited).
        self.max_intermediate_size = max_intermediate_size
        #: Contraction-order heuristic ("greedy" or "sequential").
        self.strategy = strategy

    # ------------------------------------------------------------------
    def amplitude(
        self,
        circuit: Circuit,
        input_state: StateLike,
        output_state: StateLike,
    ) -> complex:
        """Return ``⟨v| C |ψ⟩`` for a noiseless circuit (single-size network)."""
        network = circuit_amplitude_network(
            circuit,
            input_state,
            output_state,
            max_intermediate_size=self.max_intermediate_size,
        )
        return network.contract_to_scalar(strategy=self.strategy)

    def fidelity(
        self,
        circuit: Circuit,
        input_state: StateLike = None,
        output_state: StateLike = None,
    ) -> float:
        """Return ``⟨v| E_N(|ψ⟩⟨ψ|) |v⟩`` exactly.

        ``input_state`` and ``output_state`` default to ``|0…0⟩``.  Both may
        be bitstrings, per-qubit product factors or dense vectors.  A
        one-shot evaluation is :meth:`prepare` followed by one replay.
        """
        return self.prepare(circuit, input_state, output_state).execute()

    def prepare(
        self,
        circuit: Circuit,
        input_state: StateLike = None,
        output_state: StateLike = None,
        template: PreparedFidelity | None = None,
    ) -> PreparedFidelity:
        """Plan a reusable contraction for this fidelity evaluation.

        Builds the same network :meth:`fidelity` would and plans its
        contraction order from the shapes alone (see
        :class:`repro.tensornetwork.plan.ContractionPlan`), so repeated
        evaluations of the same circuit/boundary configuration skip the
        network construction and ordering search entirely.

        ``template`` is a plan prepared from another binding of the same
        parametric structure.  No network is built: the template's schedule
        is reused as is (the greedy ordering inspects tensor sizes, never
        entries) and so are its static tensors; only the parametric gate
        nodes are overwritten with ``circuit``'s values
        (:meth:`PreparedFidelity.rebind`) — no ordering search.
        """
        if template is not None:
            return template.rebind(circuit)
        n = circuit.num_qubits
        input_state = "0" * n if input_state is None else input_state
        output_state = "0" * n if output_state is None else output_state
        noiseless = circuit.is_noiseless()
        build_network = circuit_amplitude_network if noiseless else noisy_doubled_network
        network = build_network(
            circuit,
            input_state,
            output_state,
            max_intermediate_size=self.max_intermediate_size,
        )
        positions = instruction_node_positions(circuit, input_state, doubled=not noiseless)
        gate_nodes = {
            index: positions[index]
            for index, inst in enumerate(circuit)
            if getattr(inst.operation, "is_parametric_gate", False)
        }
        return PreparedFidelity(
            ContractionPlan.record(network, strategy=self.strategy),
            network.tensors,
            noiseless,
            gate_nodes=gate_nodes,
        )

    def expectation(
        self,
        circuit: Circuit,
        observable,
        input_state: StateLike = None,
        lightcone: bool = True,
    ) -> float:
        """Return ``tr(O · E_N(|ψ⟩⟨ψ|))`` for a Pauli-sum observable ``O``.

        ``observable`` is a :class:`repro.circuits.observables.PauliObservable`
        (or a single :class:`PauliTerm`).  Each term is evaluated by one
        contraction of the doubled diagram with the trace-closure boundary —
        no density matrix is ever materialised, so this works for noisy
        circuits beyond the reach of the density-matrix simulator.

        With ``lightcone=True`` (the default) each term's network is built
        from the circuit restricted to the backward causal cone of that
        term's support (:func:`repro.circuits.passes.prune_to_observable_cone`)
        — exact, because the qubits outside the cone are traced out and every
        dropped site is trace preserving.  A local term of a shallow circuit
        then contracts a much smaller network than the full diagram.
        """
        from repro.circuits.observables import PauliObservable, PauliTerm
        from repro.circuits.passes import prune_to_observable_cone

        n = circuit.num_qubits
        input_state = "0" * n if input_state is None else input_state
        if isinstance(observable, PauliTerm):
            observable = PauliObservable([observable])
        total = observable.constant
        for term in observable:
            operator_map = term.operator_map()
            term_circuit = circuit
            if lightcone and operator_map:
                term_circuit, _ = prune_to_observable_cone(circuit, operator_map.keys())
            network = noisy_observable_network(
                term_circuit,
                input_state,
                operator_map,
                max_intermediate_size=self.max_intermediate_size,
            )
            value = network.contract_to_scalar(strategy=self.strategy)
            total += term.coefficient * float(np.real(value))
        return float(total)

    def matrix_element(
        self,
        circuit: Circuit,
        bra_state: StateLike,
        ket_state: StateLike,
        input_state: StateLike = None,
    ) -> complex:
        """Return ``⟨x| E_N(|ψ⟩⟨ψ|) |y⟩`` via the polarisation identity of Section III.

        Each of the four terms is itself a fidelity-style evaluation with a
        superposed boundary state, so arbitrary density-matrix elements reduce
        to four contractions of the doubled diagram.
        """
        from repro.tensornetwork.circuit_to_tn import dense_product_state

        n = circuit.num_qubits
        input_state = "0" * n if input_state is None else input_state

        x = dense_product_state(bra_state, n)
        y = dense_product_state(ket_state, n)
        terms = [
            (0.25, x + y),
            (-0.25, x - y),
            (-0.25j, x + 1j * y),
            (0.25j, x - 1j * y),
        ]
        total = 0.0 + 0.0j
        for coefficient, vector in terms:
            norm = np.linalg.norm(vector)
            if norm < 1e-15:
                continue
            value = self.fidelity(circuit, input_state, vector / norm)
            total += coefficient * (norm**2) * value
        return complex(total)
