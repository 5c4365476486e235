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
"""

from __future__ import annotations

import math

import numpy as np

from repro.backends.engine import RNG_BLOCK
from repro.circuits.circuit import Circuit
from repro.circuits.parameters import circuit_parameters, substitute
from repro.simulators.statevector import apply_matrix
from repro.tensornetwork.circuit_to_tn import dense_product_state, operator_amplitude_network

__all__ = ["reference_shift_gradient", "reference_statevector_loop", "reference_tn_loop"]


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
    """Per-sample TN trajectories: a fresh network contraction per sample."""
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
        values.append(float(abs(network.contract_to_scalar()) ** 2) * weight)
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
