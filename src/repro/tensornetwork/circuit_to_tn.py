"""Builders turning circuits into tensor networks.

Three diagrams are needed by the library:

1. ``circuit_amplitude_network`` — the ordinary (noiseless) amplitude
   ``⟨v| U_d … U_1 |ψ⟩`` as an ``n``-rail network.
2. ``noisy_doubled_network`` — the paper's Section-III diagram: a ``2n``-rail
   network in which every gate ``U`` appears twice (``U`` on the upper rails
   and ``U*`` on the mirrored lower rails) and every noise channel appears as
   its matrix representation ``M_E = Σ_k E_k ⊗ E_k*`` coupling upper and
   lower rails.  Contracting it yields ``⟨v| E_N(|ψ⟩⟨ψ|) |v⟩`` exactly.
3. ``substituted_split_networks`` — the diagrams used by Algorithm 1: when
   every noise is substituted by a Kronecker product ``U_i ⊗ V_i`` the doubled
   network falls apart into two independent ``n``-rail networks which are
   contracted separately and multiplied.

States are given either as bitstrings (``"0100"``), per-qubit vectors, or a
dense statevector.  Product-state forms keep every boundary tensor rank-1 so
the contraction stays cheap.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

from repro.circuits.circuit import Circuit
from repro.tensornetwork.network import TensorNetwork
from repro.utils.validation import ValidationError

from repro.xp import declare_seam
from repro.xp import host as np

declare_seam(__name__, mode="host")

__all__ = [
    "StateLike",
    "resolve_product_state",
    "dense_product_state",
    "operator_amplitude_network",
    "instruction_node_positions",
    "noise_node_positions",
    "circuit_amplitude_network",
    "noisy_doubled_network",
    "noisy_observable_network",
    "substituted_split_networks",
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
    num_qubits: int,
    conjugate: bool,
    label: str,
) -> List:
    """Add input/output boundary nodes and return one dangling edge per qubit."""
    resolved = resolve_product_state(state, num_qubits)
    edges = []
    if isinstance(resolved, list):
        for qubit, factor in enumerate(resolved):
            vec = factor.conj() if conjugate else factor
            node = network.add_node(vec, name=f"{label}{qubit}")
            edges.append(node.edges[0])
    else:
        vec = resolved.conj() if conjugate else resolved
        node = network.add_node(vec.reshape([2] * num_qubits), name=label)
        edges.extend(node.edges)
    return edges


def _add_operations(
    network: TensorNetwork,
    operations: Sequence[Tuple[np.ndarray, Sequence[int]]],
    open_edges: List,
) -> None:
    """Append one node per ``(matrix, qubits)`` operation, threading the open edges."""
    num_qubits = len(open_edges)
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
        node = network.add_node(matrix.reshape([2] * (2 * k)), name=f"op{op_index}")
        for j, qubit in enumerate(qubits):
            network.connect(node.edges[k + j], open_edges[qubit])
            open_edges[qubit] = node.edges[j]


def operator_amplitude_network(
    num_qubits: int,
    operations: Sequence[Tuple[np.ndarray, Sequence[int]]],
    input_state: StateLike,
    output_state: StateLike,
    name: str = "amplitude",
    max_intermediate_size: int | None = None,
) -> TensorNetwork:
    """Build the network for ``⟨v| O_d … O_1 |ψ⟩`` with arbitrary matrices ``O_i``.

    ``operations`` lists ``(matrix, qubits)`` pairs in application order; the
    matrices need not be unitary (the approximation algorithm inserts the SVD
    factors ``U_i``/``V_i`` here).
    """
    network = TensorNetwork(name=name, max_intermediate_size=max_intermediate_size)
    open_edges = _add_boundary(network, input_state, num_qubits, conjugate=False, label="in")
    _add_operations(network, operations, open_edges)
    output_edges = _add_boundary(network, output_state, num_qubits, conjugate=True, label="out")
    for qubit in range(num_qubits):
        network.connect(output_edges[qubit], open_edges[qubit])
    return network


def instruction_node_positions(
    circuit: Circuit, input_state: StateLike, doubled: bool = False
) -> Tuple[Tuple[int, ...], ...]:
    """Node indices of every instruction of ``circuit`` in the network built from it.

    The node-order rule of :func:`operator_amplitude_network`: the input
    boundary comes first (one node per rail for a product state, one node
    for a dense state), then one node per operation in application order,
    then the output boundary.  In a one-op-per-instruction network
    (:func:`circuit_amplitude_network`, Algorithm 1's split networks, the
    trajectory template) instruction ``i`` is node ``boundary + i``.  In the
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


def noise_node_positions(circuit: Circuit, input_state: StateLike) -> Tuple[int, ...]:
    """Node indices of ``circuit``'s noise instructions in a one-op-per-instruction network.

    See :func:`instruction_node_positions` for the node-order rule.
    """
    positions = instruction_node_positions(circuit, input_state)
    return tuple(nodes[0] for nodes, inst in zip(positions, circuit) if inst.is_noise)


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
        name=f"{circuit.name}_amplitude",
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
        name=f"{circuit.name}_doubled",
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

    network = TensorNetwork(
        name=f"{circuit.name}_observable", max_intermediate_size=max_intermediate_size
    )
    open_edges = _add_boundary(
        network, _double_state(input_state, n), 2 * n, conjugate=False, label="in"
    )
    _add_operations(network, _doubled_operations(circuit), open_edges)
    for qubit in range(n):
        operator = np.asarray(observable_ops.get(qubit, np.eye(2)), dtype=complex)
        boundary = network.add_node(operator.T, name=f"obs{qubit}")
        network.connect(boundary.edges[0], open_edges[qubit])
        network.connect(boundary.edges[1], open_edges[qubit + n])
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


def substituted_split_networks(
    circuit: Circuit,
    substitution: Dict[int, Tuple[np.ndarray, np.ndarray]],
    input_state: StateLike,
    output_state: StateLike,
    max_intermediate_size: int | None = None,
) -> Tuple[TensorNetwork, TensorNetwork]:
    """Build the two independent ``n``-rail networks of a fully substituted term.

    ``substitution`` maps the *noise occurrence index* (0-based position among
    the circuit's noise instructions, in order) to a pair ``(U, V)`` so that
    the noise's matrix representation is replaced by ``U ⊗ V``.  Every noise
    occurrence must be substituted — that is what makes the doubled diagram
    factorise into the upper network (⟨v| … U … |ψ⟩) and the lower network
    (⟨v*| … V … |ψ*⟩).
    """
    upper_ops: List[Tuple[np.ndarray, Tuple[int, ...]]] = []
    lower_ops: List[Tuple[np.ndarray, Tuple[int, ...]]] = []
    noise_index = 0
    for inst in circuit:
        if inst.is_gate:
            upper_ops.append((inst.operation.matrix, inst.qubits))
            lower_ops.append((inst.operation.matrix.conj(), inst.qubits))
        else:
            if noise_index not in substitution:
                raise ValidationError(
                    f"noise occurrence {noise_index} has no substitution; "
                    "all noises must be substituted to split the diagram"
                )
            upper_matrix, lower_matrix = substitution[noise_index]
            upper_ops.append((np.asarray(upper_matrix, dtype=complex), inst.qubits))
            lower_ops.append((np.asarray(lower_matrix, dtype=complex), inst.qubits))
            noise_index += 1
    if noise_index != len(substitution):
        raise ValidationError(
            f"substitution has {len(substitution)} entries but the circuit has "
            f"{noise_index} noise occurrences"
        )

    upper = operator_amplitude_network(
        circuit.num_qubits,
        upper_ops,
        input_state,
        output_state,
        name=f"{circuit.name}_upper",
        max_intermediate_size=max_intermediate_size,
    )
    resolved_in = resolve_product_state(input_state, circuit.num_qubits)
    resolved_out = resolve_product_state(output_state, circuit.num_qubits)
    conj_in = (
        [f.conj() for f in resolved_in] if isinstance(resolved_in, list) else resolved_in.conj()
    )
    conj_out = (
        [f.conj() for f in resolved_out] if isinstance(resolved_out, list) else resolved_out.conj()
    )
    lower = operator_amplitude_network(
        circuit.num_qubits,
        lower_ops,
        conj_in,
        conj_out,
        name=f"{circuit.name}_lower",
        max_intermediate_size=max_intermediate_size,
    )
    return upper, lower
