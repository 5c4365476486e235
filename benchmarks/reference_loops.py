"""Straightforward reference loops, kept as test/benchmark oracles.

The per-sample trajectory loops are one-trajectory-at-a-time
implementations of the two trajectory estimators.  They draw their Kraus
choices from the engine's RNG schedule — block ``b`` of
:data:`~repro.backends.engine.RNG_BLOCK` samples uses ``default_rng([seed,
b])``, one uniform per (sample, channel) in sample-major order — so the
batched engine must reproduce their values for the same integer seed.  Both
the equivalence tests (``tests/backends/test_engine.py``) and the speedup
benchmark (``benchmarks/bench_engine_speedup.py``) measure against this
single shared reference rather than maintaining separate copies.

The parameter-shift loop is the two-runs-per-gate-occurrence gradient that
``benchmarks/bench_gradient.py`` times against the ``tn`` environment sweep
of :meth:`repro.api.Executable.gradient`.

The tensordot slot replays run a recorded
:class:`~repro.tensornetwork.plan.ContractionPlan`'s steps with one
``np.tensordot`` per step, and its environments with one more per operand
of the reverse sweep: the plan replay as it was before kernel tables.  A
kernel-table replay must equal them bit for bit
(``tests/tensornetwork/test_plan.py``), and
``benchmarks/bench_plan_replay.py`` times it against them.  The tensordot
row loop replays index rows one at a time over a
:func:`tensordot_specialize` residual, as
:meth:`~repro.tensornetwork.plan.SpecializedPlan.execute` did before kernel
tables; ``benchmarks/bench_term_replay.py`` times the batched
``execute_rows`` against it.  None of them calls the library's replay, so
their cost does not move with it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.backends.engine import RNG_BLOCK
from repro.circuits.circuit import Circuit
from repro.circuits.parameters import circuit_parameters, substitute
from repro.simulators.statevector import apply_matrix
from repro.tensornetwork.circuit_to_tn import dense_product_state, operator_amplitude_network
from repro.tensornetwork.plan import ContractionPlan

__all__ = [
    "reference_shift_gradient",
    "reference_statevector_loop",
    "reference_tn_loop",
    "tensordot_environments",
    "tensordot_execute",
    "tensordot_row_loop",
    "tensordot_specialize",
    "tensordot_step",
]


def _block_streams(num_samples, seed):
    """Yield the generator each sample draws from, in sample order."""
    for block in range(-(-num_samples // RNG_BLOCK)):
        rng = np.random.default_rng([seed, block])
        for _ in range(min(RNG_BLOCK, num_samples - block * RNG_BLOCK)):
            yield rng


def reference_statevector_loop(circuit, num_samples, seed):
    """Per-sample statevector trajectories with exact Born-rule Kraus draws."""
    n = circuit.num_qubits
    psi0 = dense_product_state("0" * n, n)
    v = dense_product_state("0" * n, n)
    values = []
    for rng in _block_streams(num_samples, seed):
        state = psi0.copy()
        for inst in circuit:
            if inst.is_gate:
                state = apply_matrix(state, inst.operation.matrix, inst.qubits, n)
            else:
                branches, probs = [], []
                for op in inst.operation.kraus_operators:
                    branch = apply_matrix(state, op, inst.qubits, n)
                    branches.append(branch)
                    probs.append(float(np.real(np.vdot(branch, branch))))
                probs = np.asarray(probs)
                probs = probs / probs.sum()
                index = int(rng.choice(len(branches), p=probs))
                state = branches[index] / np.linalg.norm(branches[index])
        values.append(float(abs(np.vdot(v, state)) ** 2))
    return np.array(values)


def reference_tn_loop(circuit, num_samples, seed):
    """Per-sample TN trajectories: a fresh network contraction per sample.

    Each sample's network is planned by the library and contracted by
    :func:`tensordot_execute`, so the value never goes through the library's
    kernel-table replay.
    """
    n = circuit.num_qubits
    distributions = []
    for inst in circuit:
        if inst.is_noise:
            weights = np.array(
                [np.real(np.trace(op.conj().T @ op)) for op in inst.operation.kraus_operators]
            )
            distributions.append(weights / weights.sum())
    values = []
    for rng in _block_streams(num_samples, seed):
        operations, weight, noise_index = [], 1.0, 0
        for inst in circuit:
            if inst.is_gate:
                operations.append((inst.operation.matrix, inst.qubits))
            else:
                q = distributions[noise_index]
                k = int(rng.choice(len(q), p=q))
                weight /= q[k]
                operations.append((inst.operation.kraus_operators[k], inst.qubits))
                noise_index += 1
        network = operator_amplitude_network(
            n, operations, "0" * n, "0" * n, max_intermediate_size=2**26
        )
        amplitude = tensordot_execute(
            ContractionPlan.record(network), network.tensors
        )
        values.append(float(abs(amplitude) ** 2) * weight)
    return np.array(values)


def reference_shift_gradient(backend, circuit, task, plan, params):
    """Two-term parameter-shift gradient of ``backend.run(bound circuit).value``.

    ``circuit`` is a noise-bound parametric circuit and ``plan`` what
    ``backend.compile`` built for its structure.  Every gate occurrence whose
    angle holds a free parameter is evaluated at ``θ ± π/2`` (its
    post-evaluation offset, so both runs replay ``plan``), and
    ``coeff · [f(θ+π/2) − f(θ−π/2)] / 2`` accumulates into each parameter.
    """
    free = circuit_parameters(circuit)
    bound = substitute(circuit, params)
    grad = dict.fromkeys(sorted(free), 0.0)
    for index, inst in enumerate(circuit):
        operation = inst.operation
        if not getattr(operation, "is_parametric_gate", False) or not operation.free_parameters:
            continue
        values = []
        for delta in (math.pi / 2, -math.pi / 2):
            shifted = Circuit(bound.num_qubits, name=bound.name)
            for position, other in enumerate(bound):
                gate = other.operation.shifted(0, delta) if position == index else other.operation
                shifted.append(gate, other.qubits)
            values.append(backend.run(shifted, task, plan=plan).value)
        partial = (values[0] - values[1]) / 2.0
        for name, coeff in operation.expressions[0].terms:
            grad[name] += coeff * partial
    return grad


def tensordot_step(tensor_a, tensor_b, axes_a, axes_b):
    """One plan step as ``np.tensordot`` computes it (empty axes = outer product)."""
    return np.tensordot(tensor_a, tensor_b, axes=(list(axes_a), list(axes_b)) if axes_a else 0)


def _tensordot_forward(plan, tensors):
    """The slot buffer after replaying every step of ``plan`` (nothing released)."""
    buffer = list(tensors) + [None] * plan.num_steps
    for slot_a, slot_b, axes_a, axes_b, out in plan.steps:
        buffer[out] = tensordot_step(buffer[slot_a], buffer[slot_b], axes_a, axes_b)
    return buffer


def tensordot_execute(plan, tensors) -> complex:
    """``plan``'s value over host ``tensors``, one ``np.tensordot`` per step."""
    return complex(_tensordot_forward(plan, tensors)[-1].reshape(()))


def tensordot_specialize(plan, tensors, variable_positions):
    """``plan`` partially evaluated over its static inputs, one ``np.tensordot`` per step.

    Returns ``(baked, residual)``: the slot buffer with the result of every
    step whose operands are all static filled in, and the steps that read a
    variable input (transitively), in plan order.
    """
    variable = set(variable_positions)
    static = [position not in variable for position in range(plan.num_inputs)]
    static += [True] * plan.num_steps
    baked = list(tensors) + [None] * plan.num_steps
    residual = []
    for step in plan.steps:
        slot_a, slot_b, axes_a, axes_b, out = step
        if static[slot_a] and static[slot_b]:
            baked[out] = tensordot_step(baked[slot_a], baked[slot_b], axes_a, axes_b)
        else:
            static[out] = False
            residual.append(step)
    return baked, residual


def tensordot_row_loop(specialized, variable_positions, factors, rows) -> np.ndarray:
    """One replay per index row over a :func:`tensordot_specialize` residual.

    Row ``r`` substitutes ``factors[j][rows[r, j]]`` at ``variable_positions[j]``
    and runs every residual step as one ``np.tensordot``; returns the complex
    values ``[K]``.
    """
    baked, residual = specialized
    values = np.empty(len(rows), dtype=complex)
    for index, row in enumerate(np.asarray(rows).tolist()):
        buffer = list(baked)
        for position, candidates, pick in zip(variable_positions, factors, row):
            buffer[position] = candidates[pick]
        for slot_a, slot_b, axes_a, axes_b, out in residual:
            buffer[out] = tensordot_step(buffer[slot_a], buffer[slot_b], axes_a, axes_b)
        values[index] = complex(buffer[-1].reshape(()))
    return values


def tensordot_environments(plan, tensors, positions):
    """``(value, {position: environment})`` by a tensordot forward replay and reverse sweep.

    Only steps on a path from a requested input to the root are swept.  The
    environment of such a step's operand is the step's environment
    contracted with the other operand over that operand's free axes (its
    free axes, then its contracted axes in the other operand's ascending
    order), transposed back to the operand's own axis order.
    """
    on_path = set(positions)
    for slot_a, slot_b, _, _, out in plan.steps:
        if slot_a in on_path or slot_b in on_path:
            on_path.add(out)
    buffer = _tensordot_forward(plan, tensors)
    envs = {len(buffer) - 1: np.ones(buffer[-1].shape, dtype=complex)}
    for slot_a, slot_b, axes_a, axes_b, out in reversed(plan.steps):
        if out not in on_path:
            continue
        env = envs.pop(out)
        for slot, other, axes_self, axes_other, first in (
            (slot_a, buffer[slot_b], axes_a, axes_b, True),
            (slot_b, buffer[slot_a], axes_b, axes_a, False),
        ):
            if slot not in on_path:
                continue
            free_other = [axis for axis in range(other.ndim) if axis not in axes_other]
            num_free_self = env.ndim - len(free_other)
            if first:
                env_axes = list(range(num_free_self, env.ndim))
            else:
                env_axes = list(range(len(free_other)))
            grad = tensordot_step(env, other, env_axes, free_other)
            paired = dict(zip(axes_other, axes_self))
            labels = [axis for axis in range(grad.ndim) if axis not in axes_self]
            labels += [paired[axis] for axis in sorted(axes_other)]
            envs[slot] = np.transpose(grad, [labels.index(axis) for axis in range(grad.ndim)])
    return complex(buffer[-1].reshape(())), {position: envs[position] for position in positions}
