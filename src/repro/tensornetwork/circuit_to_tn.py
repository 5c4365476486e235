"""Builders turning circuits into tensor networks.

Three diagrams are needed by the library:

1. ``circuit_amplitude_network`` — the ordinary (noiseless) amplitude
   ``⟨v| U_d … U_1 |ψ⟩`` as an ``n``-rail network.
2. ``noisy_doubled_network`` — the paper's Section-III diagram: a ``2n``-rail
   network in which every gate ``U`` appears twice (``U`` on the upper rails
   and ``U*`` on the mirrored lower rails) and every noise channel appears as
   its matrix representation ``M_E = Σ_k E_k ⊗ E_k*`` coupling upper and
   lower rails.  Contracting it yields ``⟨v| E_N(|ψ⟩⟨ψ|) |v⟩`` exactly.
3. :class:`KrausRowNetwork` — the ``n``-rail amplitude network of a noisy
   circuit whose noise nodes take one operator per *index row*: a sampled
   Kraus operator (``trajectories_tn``) or an SVD factor (Algorithm 1, see
   :mod:`repro.core.approximation`).

States are given either as bitstrings (``"0100"``), per-qubit vectors, or a
dense statevector.  Product-state forms keep every boundary tensor rank-1 so
the contraction stays cheap.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.circuits.circuit import Circuit
from repro.tensornetwork.network import TensorNetwork
from repro.tensornetwork.plan import ContractionPlan
from repro.utils.validation import ValidationError

__all__ = [
    "StateLike",
    "resolve_product_state",
    "dense_product_state",
    "operator_amplitude_network",
    "instruction_node_positions",
    "operator_tensor",
    "KrausRowNetwork",
    "circuit_amplitude_network",
    "noisy_doubled_network",
    "noisy_observable_network",
]

#: Accepted state descriptions: bitstring, per-qubit vectors, or a dense vector.
StateLike = Union[str, Sequence[np.ndarray], np.ndarray]


def resolve_product_state(state: StateLike, num_qubits: int) -> List[np.ndarray] | np.ndarray:
    """Normalise a state description.

    Returns a list of per-qubit 2-vectors when the state is a product state
    (bitstring or explicit factor list) and a dense ``2**n`` vector otherwise.
    """
    if isinstance(state, str):
        if len(state) != num_qubits or any(c not in "01+-" for c in state):
            raise ValidationError(
                f"bitstring {state!r} is not a valid {num_qubits}-qubit product state "
                "(characters 0, 1, +, - allowed)"
            )
        lookup = {
            "0": np.array([1.0, 0.0], dtype=complex),
            "1": np.array([0.0, 1.0], dtype=complex),
            "+": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
            "-": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
        }
        return [lookup[c] for c in state]

    if isinstance(state, (list, tuple)) and len(state) == num_qubits and all(
        np.asarray(factor).size == 2 for factor in state
    ):
        return [np.asarray(factor, dtype=complex).ravel() for factor in state]

    dense = np.asarray(state, dtype=complex).ravel()
    if dense.size != 2**num_qubits:
        raise ValidationError(
            f"state of length {dense.size} does not match {num_qubits} qubits"
        )
    return dense


def dense_product_state(state: StateLike, num_qubits: int) -> np.ndarray:
    """Return ``state`` as a dense ``2**n`` vector (Kronecker product of factors)."""
    resolved = resolve_product_state(state, num_qubits)
    if isinstance(resolved, list):
        dense = np.array([1.0 + 0.0j])
        for factor in resolved:
            dense = np.kron(dense, factor)
        return dense
    return resolved


def _add_boundary(
    network: TensorNetwork,
    state: StateLike,
    rails: Sequence[int],
    conjugate: bool,
) -> None:
    """Add the boundary tensors of ``state`` on the qubit rails labelled ``rails``."""
    resolved = resolve_product_state(state, len(rails))
    if isinstance(resolved, list):
        for factor, rail in zip(resolved, rails):
            network.add(factor.conj() if conjugate else factor, (rail,))
    else:
        vec = resolved.conj() if conjugate else resolved
        network.add(vec.reshape([2] * len(rails)), rails)


def _add_operations(
    network: TensorNetwork,
    operations: Sequence[Tuple[np.ndarray, Sequence[int]]],
    rails: List[int],
) -> None:
    """Append one tensor per ``(matrix, qubits)`` operation, threading the rail labels.

    ``rails[q]`` is qubit ``q``'s open label, initially ``q``.  An operation's
    tensor has its output axes first, each a fresh label that becomes its
    qubit's open label, then its input axes on the qubits' open labels.
    """
    num_qubits = len(rails)
    fresh = num_qubits
    for op_index, (matrix, qubits) in enumerate(operations):
        qubits = [int(q) for q in qubits]
        k = len(qubits)
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (2**k, 2**k):
            raise ValidationError(
                f"operation {op_index} has shape {matrix.shape}, expected {(2**k, 2**k)}"
            )
        for q in qubits:
            if not 0 <= q < num_qubits:
                raise ValidationError(f"operation {op_index} touches invalid qubit {q}")
        outputs = list(range(fresh, fresh + k))
        fresh += k
        network.add(operator_tensor(matrix, qubits), outputs + [rails[q] for q in qubits])
        for qubit, label in zip(qubits, outputs):
            rails[qubit] = label


def operator_amplitude_network(
    num_qubits: int,
    operations: Sequence[Tuple[np.ndarray, Sequence[int]]],
    input_state: StateLike,
    output_state: StateLike,
    max_intermediate_size: int | None = None,
) -> TensorNetwork:
    """Build the network for ``⟨v| O_d … O_1 |ψ⟩`` with arbitrary matrices ``O_i``.

    ``operations`` lists ``(matrix, qubits)`` pairs in application order; the
    matrices need not be unitary (the approximation algorithm inserts the SVD
    factors ``U_i``/``V_i`` here).
    """
    network = TensorNetwork(max_intermediate_size=max_intermediate_size)
    rails = list(range(num_qubits))
    _add_boundary(network, input_state, rails, conjugate=False)
    _add_operations(network, operations, rails)
    _add_boundary(network, output_state, rails, conjugate=True)
    return network


def instruction_node_positions(
    circuit: Circuit, input_state: StateLike, doubled: bool = False
) -> Tuple[Tuple[int, ...], ...]:
    """Tensor positions of every instruction of ``circuit`` in the network built from it.

    The node-order rule of :func:`operator_amplitude_network`: the input
    boundary comes first (one node per rail for a product state, one node
    for a dense state), then one node per operation in application order,
    then the output boundary.  In a one-op-per-instruction network
    (:func:`circuit_amplitude_network`, :class:`KrausRowNetwork`)
    instruction ``i`` is node ``boundary + i``.  In the
    ``doubled`` diagram (:func:`noisy_doubled_network`, ``2n`` rails) a gate
    is two consecutive nodes, ``U`` then ``U*``, and a noise is one ``M_E``
    node.  Entry ``i`` of the result holds instruction ``i``'s nodes.

    >>> from repro.circuits.circuit import Circuit
    >>> from repro.noise import depolarizing_channel
    >>> circuit = Circuit(2).h(0).cx(0, 1).append(depolarizing_channel(0.1), (1,))
    >>> instruction_node_positions(circuit, "00")
    ((2,), (3,), (4,))
    >>> instruction_node_positions(circuit, "00", doubled=True)
    ((4, 5), (6, 7), (8,))
    """
    resolved = resolve_product_state(input_state, circuit.num_qubits)
    rails = 2 * circuit.num_qubits if doubled else circuit.num_qubits
    node = rails if isinstance(resolved, list) else 1
    positions = []
    for inst in circuit:
        width = 2 if doubled and inst.is_gate else 1
        positions.append(tuple(range(node, node + width)))
        node += width
    return tuple(positions)


def operator_tensor(matrix: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    """A ``k``-qubit operator matrix as its ``[2] * 2k`` complex node tensor."""
    return np.asarray(matrix, dtype=complex).reshape([2] * (2 * len(qubits)))


class KrausRowNetwork:
    """``⟨v| O_d … O_1 |ψ⟩`` of a noisy circuit, prepared for index-row replay.

    One node per instruction (:func:`instruction_node_positions`).  An index
    row picks every noise node's operator from a stack of candidates, so all
    rows share one recorded plan, specialized over the other nodes and
    replayed by ``specialized.execute_rows``.  The template's noise nodes
    hold each noise's first Kraus operator, whose values no replay reads.
    :meth:`rebind` serves another binding without building a network.
    """

    __slots__ = ("tensors", "gate_nodes", "noise_nodes", "plan", "specialized")

    def __init__(
        self,
        tensors: Tuple[np.ndarray, ...],
        gate_nodes: Dict[int, int],
        noise_nodes: Tuple[int, ...],
        plan: ContractionPlan,
    ) -> None:
        #: The node tensors, one per boundary factor and instruction.
        self.tensors = tensors
        #: Instruction index -> node of every parametric gate (the only
        #: tensors another binding of the structure changes).
        self.gate_nodes = gate_nodes
        #: The node of every noise instruction, in circuit order.
        self.noise_nodes = noise_nodes
        self.plan = plan
        #: ``plan`` partially evaluated over every tensor but the noise
        #: nodes (a noiseless network bakes its whole value).
        self.specialized = plan.specialize(tensors, noise_nodes)

    @classmethod
    def build(
        cls,
        circuit: Circuit,
        input_state: StateLike,
        output_state: StateLike,
        max_intermediate_size: int | None = None,
        strategy: str = "greedy",
    ) -> "KrausRowNetwork":
        """Build ``circuit``'s network and record its contraction order by ``strategy``."""
        operations = [
            (
                inst.operation.matrix if inst.is_gate else inst.operation.kraus_operators[0],
                inst.qubits,
            )
            for inst in circuit
        ]
        network = operator_amplitude_network(
            circuit.num_qubits,
            operations,
            input_state,
            output_state,
            max_intermediate_size=max_intermediate_size,
        )
        positions = instruction_node_positions(circuit, input_state)
        gate_nodes = {
            index: positions[index][0]
            for index, inst in enumerate(circuit)
            if getattr(inst.operation, "is_parametric_gate", False)
        }
        noise_nodes = tuple(nodes[0] for nodes, inst in zip(positions, circuit) if inst.is_noise)
        return cls(
            tuple(network.tensors),
            gate_nodes,
            noise_nodes,
            ContractionPlan.record(network, strategy=strategy),
        )

    def rebind(self, circuit: Circuit) -> "KrausRowNetwork":
        """This network for another binding ``circuit`` of the same parametric structure.

        The tensors are copied with every parametric gate node overwritten
        from ``circuit``; the plan is shared, and only the specialization's
        static intermediates are recomputed.
        """
        tensors = list(self.tensors)
        for index, node in self.gate_nodes.items():
            inst = circuit[index]
            tensors[node] = operator_tensor(inst.operation.matrix, inst.qubits)
        return KrausRowNetwork(tuple(tensors), self.gate_nodes, self.noise_nodes, self.plan)


def circuit_amplitude_network(
    circuit: Circuit,
    input_state: StateLike,
    output_state: StateLike,
    max_intermediate_size: int | None = None,
) -> TensorNetwork:
    """Amplitude network ``⟨v| C |ψ⟩`` for a noiseless circuit ``C``."""
    if not circuit.is_noiseless():
        raise ValidationError(
            "circuit_amplitude_network only handles noiseless circuits; "
            "use noisy_doubled_network for noisy ones"
        )
    operations = [(inst.operation.matrix, inst.qubits) for inst in circuit]
    return operator_amplitude_network(
        circuit.num_qubits,
        operations,
        input_state,
        output_state,
        max_intermediate_size=max_intermediate_size,
    )


def noisy_doubled_network(
    circuit: Circuit,
    input_state: StateLike,
    output_state: StateLike,
    max_intermediate_size: int | None = None,
) -> TensorNetwork:
    """The paper's doubled (``2n``-qubit) diagram for ``⟨v| E_N(|ψ⟩⟨ψ|) |v⟩``.

    Upper rails ``0..n-1`` carry the original circuit, lower rails ``n..2n-1``
    carry the conjugated circuit, and each noise channel becomes a single
    ``M_E`` node straddling the corresponding upper/lower rails.
    """
    n = circuit.num_qubits
    return operator_amplitude_network(
        2 * n,
        _doubled_operations(circuit),
        _double_state(input_state, n),
        _double_state(output_state, n),
        max_intermediate_size=max_intermediate_size,
    )


def noisy_observable_network(
    circuit: Circuit,
    input_state: StateLike,
    observable_ops: Dict[int, np.ndarray] | None = None,
    max_intermediate_size: int | None = None,
) -> TensorNetwork:
    """Doubled diagram evaluating ``tr(O · E_N(|ψ⟩⟨ψ|))`` for a product observable.

    ``observable_ops`` maps qubits to single-qubit operators; unlisted qubits
    carry the identity (i.e. they are traced out).  The output boundary of
    each qubit is a single rank-2 node ``B_i[r, c] = O_i[c, r]`` connecting
    the qubit's upper (row) and lower (column) rails, which closes the trace.

    This extends the paper's diagram from fidelities ``⟨v|E_N(ρ)|v⟩`` to
    expectation values of local observables (e.g. the QAOA cost Hamiltonian
    under noise) without reconstructing any density matrix.
    """
    observable_ops = observable_ops or {}
    n = circuit.num_qubits
    for qubit, op in observable_ops.items():
        if not 0 <= int(qubit) < n:
            raise ValidationError(f"observable touches invalid qubit {qubit}")
        if np.asarray(op).shape != (2, 2):
            raise ValidationError("observable factors must be single-qubit (2x2) operators")

    network = TensorNetwork(max_intermediate_size=max_intermediate_size)
    rails = list(range(2 * n))
    _add_boundary(network, _double_state(input_state, n), rails, conjugate=False)
    _add_operations(network, _doubled_operations(circuit), rails)
    for qubit in range(n):
        operator = np.asarray(observable_ops.get(qubit, np.eye(2)), dtype=complex)
        network.add(operator.T, (rails[qubit], rails[qubit + n]))
    return network


def _doubled_operations(circuit: Circuit) -> List[Tuple[np.ndarray, List[int]]]:
    """Operations of the doubled diagram: ``U`` up, ``U*`` mirrored, ``M_E`` straddling."""
    n = circuit.num_qubits
    operations: List[Tuple[np.ndarray, List[int]]] = []
    for inst in circuit:
        qubits = list(inst.qubits)
        mirrored = [q + n for q in qubits]
        if inst.is_gate:
            matrix = inst.operation.matrix
            operations.append((matrix, qubits))
            operations.append((matrix.conj(), mirrored))
        else:
            operations.append((inst.operation.matrix_representation(), qubits + mirrored))
    return operations


def _double_state(state: StateLike, num_qubits: int) -> StateLike:
    """Return the doubled boundary state ``|ψ⟩ ⊗ |ψ*⟩`` in the cheapest representation."""
    resolved = resolve_product_state(state, num_qubits)
    if isinstance(resolved, list):
        return resolved + [factor.conj() for factor in resolved]
    return np.kron(resolved, resolved.conj())
