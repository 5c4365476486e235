"""Adapter classes wrapping every simulator behind the uniform backend API.

Each adapter translates the :class:`~repro.backends.base.SimulationTask`
vocabulary into the wrapped simulator's own calling convention and packs the
outcome into a :class:`~repro.backends.base.BackendResult`.  Registration
happens at import time via :func:`~repro.backends.registry.register_backend`.

Constructor options are the one way to configure an adapter, and only the
memory budgets behind Table II's "MO" cells are configurable:
``density_matrix(max_qubits)``, ``tdd(max_nodes)``,
``tn(max_intermediate_size)`` and ``approximation(max_intermediate_size)``.
The other adapters take no arguments; per-run method knobs (samples, level,
bond dimension, device) are :class:`~repro.backends.base.SimulationTask`
fields.

Every adapter has exactly one execution method, ``_execute(circuit, task,
plan)``, which :meth:`~repro.backends.base.SimulationBackend.run` feeds
either a caller-supplied plan or the one it builds via ``_compile`` — so a
one-shot run and a compiled run execute the same code.  Adapters with
expensive per-circuit one-time work put it in ``_compile``: the TN adapter
records its contraction schedule, the trajectory adapters prepare the
engine's per-circuit context (template network, Kraus sampling
distributions), the approximation adapter records the schedule of the one
amplitude network every substituted term replays, and the statevector
adapter resolves its dense boundary states.  The remaining adapters have no plan (``None``).
Every ``_compile`` takes the ``template`` of a parametric plan, which
:meth:`~repro.backends.base.SimulationBackend.run` passes when it
re-prepares a compiled plan on another binding's values.  The TN adapter
also differentiates its plan
(:meth:`~repro.backends.base.SimulationBackend.angle_derivatives`), so
:meth:`repro.api.Executable.gradient` needs no shifted runs there.
"""

from __future__ import annotations

from repro.backends.base import (
    BackendResult,
    BackendUnsupportedError,
    SimulationBackend,
    SimulationTask,
)
from repro.backends.engine import BatchedTrajectoryEngine
from repro.backends.registry import register_backend
from repro.circuits.circuit import Circuit
from repro.circuits.passes import PassProfile
from repro.core import ApproximateNoisySimulator
from repro.simulators import (
    DensityMatrixSimulator,
    MatrixProductState,
    MPDOSimulator,
    MPSSimulator,
    StatevectorSimulator,
    TDDSimulator,
    TNSimulator,
)
from repro.tensornetwork.circuit_to_tn import dense_product_state, resolve_product_state

__all__ = [
    "StatevectorBackend",
    "DensityMatrixBackend",
    "TNBackend",
    "TDDBackend",
    "MPSBackend",
    "MPDOBackend",
    "TrajectoryMMBackend",
    "TrajectoryTNBackend",
    "ApproximationBackend",
]


def _default_states(circuit: Circuit, task: SimulationTask):
    n = circuit.num_qubits
    input_state = "0" * n if task.input_state is None else task.input_state
    output_state = "0" * n if task.output_state is None else task.output_state
    return input_state, output_state


@register_backend(
    "statevector", noisy=False, exact=True, max_qubits=24, supports_device=True,
    aliases=("sv",),
)
class StatevectorBackend(SimulationBackend):
    """Dense noiseless simulation: ``|⟨v| C |ψ⟩|²``."""

    def _compile(self, circuit: Circuit, task: SimulationTask, template=None):
        if template is not None:
            # The plan is the boundary states alone: value-independent.
            return template
        input_state, output_state = _default_states(circuit, task)
        n = circuit.num_qubits
        return (dense_product_state(input_state, n), dense_product_state(output_state, n))

    def _execute(self, circuit: Circuit, task: SimulationTask, plan) -> BackendResult:
        psi, v = plan
        simulator = StatevectorSimulator(max_qubits=self.max_qubits(), device=task.device)
        amplitude = simulator.amplitude(circuit, v, psi)
        return BackendResult(backend=self.name, value=float(abs(amplitude) ** 2))


@register_backend(
    "density_matrix", noisy=True, exact=True, max_qubits=12, supports_device=True,
    aliases=("mm", "dm"),
)
class DensityMatrixBackend(SimulationBackend):
    """MM-based exact noisy simulation (the paper's Table II baseline)."""

    def __init__(self, max_qubits: int | None = None) -> None:
        self._max_qubits = max_qubits

    def pass_profile(self) -> PassProfile:
        # Exact superoperator evolution: composing adjacent channels is exact.
        return PassProfile(merge_channels=True)

    def _execute(self, circuit: Circuit, task: SimulationTask, plan) -> BackendResult:
        input_state, output_state = _default_states(circuit, task)
        n = circuit.num_qubits
        simulator = DensityMatrixSimulator(max_qubits=self.max_qubits(), device=task.device)
        value = simulator.fidelity(
            circuit,
            dense_product_state(output_state, n),
            dense_product_state(input_state, n),
        )
        return BackendResult(backend=self.name, value=float(value))


@register_backend("tn", noisy=True, exact=True, supports_device=True)
class TNBackend(SimulationBackend):
    """Exact contraction of the paper's doubled tensor-network diagram."""

    def __init__(self, max_intermediate_size: int | None = 2**26) -> None:
        self.max_intermediate_size = max_intermediate_size

    def pass_profile(self) -> PassProfile:
        # The doubled diagram inserts each channel's superoperator tensor
        # verbatim, so channel merging is an exact network rewrite here.
        return PassProfile(merge_channels=True)

    def _simulator(self, task: SimulationTask) -> TNSimulator:
        return TNSimulator(
            max_intermediate_size=self.max_intermediate_size, device=task.device
        )

    def _compile(self, circuit: Circuit, task: SimulationTask, template=None):
        input_state, output_state = _default_states(circuit, task)
        return self._simulator(task).prepare(
            circuit, input_state, output_state, template=template
        )

    def _execute(self, circuit: Circuit, task: SimulationTask, plan) -> BackendResult:
        return BackendResult(
            backend=self.name, value=plan.execute(), num_contractions=1
        )

    def angle_derivatives(self, circuit: Circuit, task: SimulationTask, plan, indices):
        # One forward and one reverse replay of the compiled plan (environments
        # of the gate nodes) instead of two shifted runs per occurrence.
        prepared = self._compile(circuit, task, template=plan)
        return prepared.angle_derivatives(circuit, indices)


@register_backend("tdd", noisy=True, exact=True, max_qubits=16)
class TDDBackend(SimulationBackend):
    """Decision-diagram exact noisy simulation."""

    def __init__(self, max_nodes: int | None = 200_000) -> None:
        self.max_nodes = max_nodes

    def pass_profile(self) -> PassProfile:
        # Decision diagrams evolve the full superoperator exactly as well.
        return PassProfile(merge_channels=True)

    def _execute(self, circuit: Circuit, task: SimulationTask, plan) -> BackendResult:
        input_state, output_state = _default_states(circuit, task)
        n = circuit.num_qubits
        simulator = TDDSimulator(max_qubits=self.max_qubits(), max_nodes=self.max_nodes)
        value = simulator.fidelity(
            circuit,
            dense_product_state(output_state, n),
            dense_product_state(input_state, n),
        )
        return BackendResult(
            backend=self.name, value=float(value), metadata={"max_nodes": self.max_nodes}
        )


@register_backend("mps", noisy=False, exact=False, needs_product_state=True)
class MPSBackend(SimulationBackend):
    """Matrix-product-state simulation of noiseless circuits (bond truncation)."""

    def _extra_supports(self, circuit: Circuit) -> str | None:
        if any(len(inst.qubits) > 2 for inst in circuit):
            return "mps supports 1- and 2-qubit gates only"
        return None

    def _execute(self, circuit: Circuit, task: SimulationTask, plan) -> BackendResult:
        input_state, output_state = _default_states(circuit, task)
        n = circuit.num_qubits
        if not (isinstance(input_state, str) and set(input_state) <= {"0"}):
            raise BackendUnsupportedError("mps backend starts from |0…0⟩ only")
        factors = resolve_product_state(output_state, n)
        if not isinstance(factors, list):
            raise BackendUnsupportedError("mps backend needs a product output state")
        simulator = MPSSimulator(max_bond_dim=task.max_bond_dim)
        mps = simulator.run(circuit)
        overlap = MatrixProductState.from_product_state(factors).overlap(mps)
        value = float(abs(overlap) ** 2)
        return BackendResult(
            backend=self.name,
            value=value,
            metadata={
                "max_bond_dimension": mps.max_bond_dimension(),
                "discarded_weight": simulator.total_discarded_weight,
            },
        )


@register_backend("mpdo", noisy=True, exact=False, needs_product_state=True)
class MPDOBackend(SimulationBackend):
    """Matrix-product-density-operator noisy simulation (1-qubit channels)."""

    def _extra_supports(self, circuit: Circuit) -> str | None:
        for inst in circuit:
            if inst.is_noise and len(inst.qubits) != 1:
                return "mpdo supports single-qubit noise channels only"
            if inst.is_gate and len(inst.qubits) > 2:
                return "mpdo supports 1- and 2-qubit gates only"
        return None

    def pass_profile(self) -> PassProfile:
        # Channels are applied as exact local superoperators (truncation only
        # happens on two-qubit gates), and merging two single-qubit channels
        # yields another single-qubit channel, so the arity constraint holds.
        return PassProfile(merge_channels=True)

    def _execute(self, circuit: Circuit, task: SimulationTask, plan) -> BackendResult:
        input_state, output_state = _default_states(circuit, task)
        n = circuit.num_qubits
        if not (isinstance(input_state, str) and set(input_state) <= {"0"}):
            raise BackendUnsupportedError("mpdo backend starts from |0…0⟩ only")
        simulator = MPDOSimulator(max_bond_dim=task.max_bond_dim)
        value = simulator.fidelity(circuit, output_state)
        return BackendResult(
            backend=self.name,
            value=float(value),
            metadata={"discarded_weight": simulator.total_discarded_weight},
        )


class _TrajectoryBackendBase(SimulationBackend):
    """Shared implementation of the two batched trajectory backends."""

    _engine_backend = "statevector"

    def __init__(self) -> None:
        self.engine = BatchedTrajectoryEngine(backend=self._engine_backend)

    def _engine_for(self, task: SimulationTask) -> BatchedTrajectoryEngine:
        """The default host engine, or a same-configuration one on ``task.device``.

        Engine construction is cheap (namespaces are cached by the registry)
        and the prepared context from :meth:`_compile` is engine-independent
        — it caches device tensors per namespace — so plans compiled on one
        device replay on another.
        """
        if task.device is None:
            return self.engine
        return BatchedTrajectoryEngine(backend=self._engine_backend, device=task.device)

    def _compile(self, circuit: Circuit, task: SimulationTask, template=None):
        if task.workers is not None and task.workers > 1:
            # The multi-process path prepares a context inside each worker
            # process; a parent-side context would be dead weight (the plan
            # cache keys pooled and in-process regimes separately).
            return None
        input_state, output_state = _default_states(circuit, task)
        return self.engine.prepare(circuit, input_state, output_state, template=template)

    def _execute(self, circuit: Circuit, task: SimulationTask, plan) -> BackendResult:
        input_state, output_state = _default_states(circuit, task)
        result = self._engine_for(task).estimate_fidelity(
            circuit,
            task.num_samples,
            input_state,
            output_state,
            rng=task.seed,
            keep_samples=task.keep_samples,
            workers=task.workers,
            # A caller-owned process pool (e.g. a session's shared pool); the
            # engine reuses it without shutting it down.
            executor=task.executor,
            # The prepared per-circuit context (template network, recorded
            # contraction plan, Kraus sampling distributions) when compiled.
            context=plan,
        )
        return BackendResult(
            backend=self.name,
            value=result.estimate,
            standard_error=result.standard_error,
            num_samples=result.num_samples,
            metadata={"workers": task.workers},
        )


@register_backend(
    "trajectories", noisy=True, exact=False, stochastic=True, max_qubits=22,
    supports_device=True, aliases=("traj", "traj_mm"),
)
class TrajectoryMMBackend(_TrajectoryBackendBase):
    """Quantum trajectories on batched dense statevectors (Traj (MM))."""

    _engine_backend = "statevector"


@register_backend(
    "trajectories_tn", noisy=True, exact=False, stochastic=True, supports_device=True,
    aliases=("traj_tn",),
)
class TrajectoryTNBackend(_TrajectoryBackendBase):
    """Quantum trajectories as cached-plan tensor-network contractions (Traj (TN))."""

    _engine_backend = "tn"


@register_backend("approximation", noisy=True, exact=False, aliases=("ours", "approx"))
class ApproximationBackend(SimulationBackend):
    """The paper's approximation algorithm (Algorithm 1) at ``task.level``."""

    def __init__(self, max_intermediate_size: int | None = 2**26) -> None:
        self.max_intermediate_size = max_intermediate_size

    def _simulator(self, task: SimulationTask) -> ApproximateNoisySimulator:
        return ApproximateNoisySimulator(
            level=task.level, max_intermediate_size=self.max_intermediate_size
        )

    def _compile(self, circuit: Circuit, task: SimulationTask, template=None):
        input_state, output_state = _default_states(circuit, task)
        return self._simulator(task).prepare(
            circuit, input_state, output_state, template=template
        )

    def _execute(self, circuit: Circuit, task: SimulationTask, plan) -> BackendResult:
        input_state, output_state = _default_states(circuit, task)
        result = self._simulator(task).fidelity(
            circuit, input_state, output_state, prepared=plan
        )
        return BackendResult(
            backend=self.name,
            value=result.value,
            num_contractions=result.num_contractions,
            metadata={
                "level": result.level,
                "error_bound": result.error_bound,
                "num_terms": result.num_terms,
                "num_noises": result.num_noises,
            },
        )
