"""Metamorphic oracles: properties every correct backend stack satisfies.

Each :class:`Oracle` checks one property of a :class:`~repro.verify.Workload`
by dispatching simulations through a shared :class:`repro.api.Session` and
returns :class:`Violation` records for every breach.  Oracles also expose
:meth:`Oracle.violates`, a pure predicate on a *candidate circuit* that
re-evaluates the recorded failure — this is what the shrinker and the corpus
replay drive, so a failure found once can be minimised and re-checked
mechanically.

The oracles are *sound*: each tolerance follows from a contract the backends
already guarantee (floating-point exactness, the Theorem-1 bound, a
``z``-sigma confidence interval, or the provable monotonicity of stacked
same-site depolarizing noise), so a violation is a bug, not noise.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

import numpy as np

from repro.api import Session
from repro.backends import get_backend
from repro.backends.registry import backend_names
from repro.circuits import gates as glib
from repro.circuits.circuit import Circuit
from repro.circuits.observables import PauliObservable
from repro.circuits.parameters import (
    GATE_GENERATORS,
    Parameter,
    ParametricGate,
    circuit_parameters,
    substitute,
)
from repro.circuits.transpile import decompose_to_native, merge_single_qubit_gates
from repro.noise import depolarizing_channel
from repro.sweeps.spec import stable_seed
from repro.utils.validation import ValidationError
from repro.verify.generators import Workload

__all__ = [
    "DEFAULT_ORACLES",
    "BindEquivalence",
    "CrossBackendAgreement",
    "GradientAgreement",
    "NoiseMonotonicity",
    "ObservableAgreement",
    "Oracle",
    "SeedDeterminism",
    "TranspileInvariance",
    "Violation",
    "parametrize_circuit",
]


@dataclass
class Violation:
    """One oracle breach: the failing circuit plus a replayable description."""

    oracle: str
    family: str
    case_index: int
    workload_seed: int
    deviation: float
    tolerance: float
    #: The circuit exhibiting the failure (shrunk later; serialised by corpus).
    circuit: Circuit = field(repr=False)
    #: JSON-serialisable parameters sufficient to re-evaluate the failure.
    details: Dict[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        """One-line human-readable description."""
        extras = ", ".join(f"{key}={value}" for key, value in sorted(self.details.items())
                           if key not in ("values",))
        return (
            f"[{self.oracle}] {self.family}#{self.case_index}: "
            f"deviation {self.deviation:.3e} > tolerance {self.tolerance:.3e} ({extras})"
        )


class Oracle(ABC):
    """A metamorphic property checked against every applicable workload."""

    name = "oracle"
    #: Whether :meth:`violates` supports arbitrary candidate circuits, which
    #: is what the shrinker needs.
    shrinkable = True

    def applies(self, workload: Workload) -> bool:
        """Whether this oracle is meaningful for ``workload``."""
        return True

    @abstractmethod
    def check(self, workload: Workload, session: Session) -> List[Violation]:
        """Evaluate the property; return a (possibly empty) violation list."""

    @abstractmethod
    def violates(self, circuit: Circuit, details: Dict[str, Any], session: Session) -> bool:
        """Re-evaluate a recorded failure on a candidate circuit."""

    def _violation(
        self,
        workload: Workload,
        circuit: Circuit,
        deviation: float,
        tolerance: float,
        **details: Any,
    ) -> Violation:
        return Violation(
            oracle=self.name,
            family=workload.family,
            case_index=workload.index,
            workload_seed=workload.seed,
            deviation=float(deviation),
            tolerance=float(tolerance),
            circuit=circuit,
            details=details,
        )


def _supported(name: str, circuit: Circuit) -> bool:
    return get_backend(name).supports(circuit) is None


def _jump_mass(circuit: Circuit) -> float:
    """Upper bound on a trajectory's probability of any non-dominant branch.

    For each noise channel the no-jump probability from any state is at least
    ``σ_min(E_0)²`` of its dominant Kraus operator, so a union bound over the
    channels caps the per-trajectory jump probability.  This feeds the
    stochastic tolerance: when jumps are rare the *empirical* standard error
    of a small sample can be exactly zero (no jump was drawn), so the
    analytic ``z·sqrt(μ(1−μ)/n)`` term keeps the interval honest — for
    ``μ ≤ z²/n`` it dominates the worst-case zero-jump bias ``μ`` itself,
    and for larger ``μ`` jumps are frequent enough that the empirical term
    is reliable.
    """
    total = 0.0
    for inst in circuit.noise_instructions:
        operators = inst.operation.kraus_operators
        dominant = max(operators, key=lambda op: float(np.linalg.norm(op)))
        smallest_singular = float(np.linalg.svd(dominant, compute_uv=False)[-1])
        total += max(0.0, 1.0 - smallest_singular**2)
    return min(1.0, total)


class CrossBackendAgreement(Oracle):
    """Every capable backend agrees with the reference within its contract.

    Per-backend tolerance: exact backends get ``exact_tol`` (floating point),
    the approximation backend gets its own Theorem-1 ``error_bound`` below
    the reference and only ``bound_slack`` above it (every Algorithm-1 term
    is a squared amplitude, so ``A(l) ≤ F``), the
    stochastic backends get a ``z``-sigma interval plus an absolute floor,
    and the truncating MPS/MPDO backends (run untruncated here) get
    ``inexact_tol``.

    ``output_state="zero"`` scores against ``|0…0⟩`` (covers the
    product-state-only backends); ``output_state="ideal"`` scores against the
    circuit's own ideal output, where the noiseless fidelity is exactly 1 —
    much more discriminating for Clifford-heavy circuits whose ``|0…0⟩``
    overlap is often exactly zero on every backend.  The default oracle set
    runs one instance of each.
    """

    name = "cross_backend"

    def __init__(
        self,
        reference: str = "density_matrix",
        backends: Sequence[str] | None = None,
        output_state: str = "zero",
        exact_tol: float = 1e-7,
        inexact_tol: float = 1e-6,
        z: float = 6.0,
        stochastic_floor: float = 1e-3,
        bound_slack: float = 1e-9,
    ) -> None:
        if output_state not in ("zero", "ideal"):
            raise ValidationError("output_state must be 'zero' or 'ideal'")
        self.reference = reference
        self.backends = None if backends is None else list(backends)
        self.output_state = output_state
        self.name = f"cross_backend_{output_state}"
        self.exact_tol = exact_tol
        self.inexact_tol = inexact_tol
        self.z = z
        self.stochastic_floor = stochastic_floor
        self.bound_slack = bound_slack

    def _output_arg(self):
        return "ideal" if self.output_state == "ideal" else None

    def applies(self, workload: Workload) -> bool:
        return _supported(self.reference, workload.noisy_circuit())

    def _candidates(self, circuit: Circuit) -> List[str]:
        names = self.backends if self.backends is not None else backend_names()
        return [
            name
            for name in names
            if name != self.reference
            and _supported(name, circuit)
            # A dense ideal output state is not a product state, which the
            # MPS/MPDO backends require.
            and not (
                self.output_state == "ideal"
                and get_backend(name).capabilities.needs_product_state
            )
        ]

    def _deviation(self, name: str, result, circuit: Circuit, reference: float):
        """``(|value − reference|, tolerance)`` of ``name``'s ``result``."""
        return abs(result.value - reference), self._tolerance(name, result, circuit, reference)

    def _tolerance(self, name: str, result, circuit: Circuit, reference: float) -> float:
        capabilities = get_backend(name).capabilities
        if result.error_bound is not None:
            if result.value > reference:
                return self.bound_slack
            return result.error_bound + self.bound_slack
        if capabilities.stochastic:
            mass = _jump_mass(circuit)
            samples = max(1, int(result.num_samples or 1))
            sampling = self.z * float(np.sqrt(mass * (1.0 - mass) / samples))
            return self.z * result.standard_error + sampling + self.stochastic_floor
        if capabilities.exact:
            return self.exact_tol
        return self.inexact_tol

    def check(self, workload: Workload, session: Session) -> List[Violation]:
        circuit = workload.noisy_circuit()
        reference = session.run(
            circuit, backend=self.reference, output_state=self._output_arg()
        ).value
        violations = []
        names = self._candidates(circuit)
        futures = [
            (
                name,
                session.submit(
                    circuit,
                    backend=name,
                    samples=workload.samples,
                    seed=workload.seed,
                    level=workload.level,
                    output_state=self._output_arg(),
                ),
            )
            for name in names
        ]
        for name, future in futures:
            result = future.result()
            deviation, tolerance = self._deviation(name, result, circuit, reference)
            if deviation > tolerance:
                violations.append(
                    self._violation(
                        workload,
                        circuit,
                        deviation,
                        tolerance,
                        backend=name,
                        reference=self.reference,
                        output_state=self.output_state,
                        values={"backend": result.value, "reference": reference},
                        samples=workload.samples,
                        seed=workload.seed,
                        level=workload.level,
                    )
                )
        return violations

    def violates(self, circuit: Circuit, details: Dict[str, Any], session: Session) -> bool:
        name = details["backend"]
        if not (_supported(self.reference, circuit) and _supported(name, circuit)):
            return False
        reference = session.run(
            circuit, backend=self.reference, output_state=self._output_arg()
        ).value
        result = session.run(
            circuit, backend=name, samples=details["samples"], seed=details["seed"],
            level=details["level"], output_state=self._output_arg(),
        )
        deviation, tolerance = self._deviation(name, result, circuit, reference)
        return deviation > tolerance


class TranspileInvariance(Oracle):
    """Gate fusion and native decomposition preserve the fidelity exactly."""

    name = "transpile_invariance"

    _TRANSFORMS = {
        "merge_single_qubit_gates": merge_single_qubit_gates,
        "decompose_to_native": decompose_to_native,
    }

    def __init__(self, reference: str = "density_matrix", tolerance: float = 1e-7) -> None:
        self.reference = reference
        self.tolerance = tolerance

    def applies(self, workload: Workload) -> bool:
        return _supported(self.reference, workload.noisy_circuit())

    def _deviation(
        self, circuit: Circuit, transform: str, session: Session,
        base: float | None = None,
    ) -> float:
        if base is None:
            base = session.run(circuit, backend=self.reference).value
        transformed = self._TRANSFORMS[transform](circuit)
        value = session.run(transformed, backend=self.reference).value
        return abs(value - base)

    def check(self, workload: Workload, session: Session) -> List[Violation]:
        circuit = workload.noisy_circuit()
        base = session.run(circuit, backend=self.reference).value
        violations = []
        for transform in self._TRANSFORMS:
            try:
                deviation = self._deviation(circuit, transform, session, base=base)
            except ValidationError:
                continue  # e.g. 3-qubit gates the native pass rejects
            if deviation > self.tolerance:
                violations.append(
                    self._violation(
                        workload, circuit, deviation, self.tolerance,
                        transform=transform, reference=self.reference,
                    )
                )
        return violations

    def violates(self, circuit: Circuit, details: Dict[str, Any], session: Session) -> bool:
        if not _supported(self.reference, circuit):
            return False
        try:
            return self._deviation(circuit, details["transform"], session) > self.tolerance
        except ValidationError:
            return False


class NoiseMonotonicity(Oracle):
    """TVD from the noiseless value grows with stacked depolarizing count.

    ``k`` copies of the same single-qubit depolarizing channel inserted at
    one site compose to a single depolarizing channel whose mixing weight
    ``γ_k = 1 − (1 − 4p/3)^k`` increases with ``k``; the fidelity against the
    ideal output is therefore ``F(k) = (1−γ_k)·F(0) + γ_k·B`` for a constant
    ``B``, and ``|F(k) − F(0)| = γ_k·|F(0) − B|`` is provably non-decreasing.
    The oracle inserts the stack after a seeded-random gate and checks that
    order (the Bernoulli TVD between two fidelities is their absolute
    difference).
    """

    name = "noise_monotonicity"

    def __init__(
        self,
        reference: str = "density_matrix",
        counts: Sequence[int] = (1, 2, 4),
        slack: float = 1e-9,
    ) -> None:
        if sorted(counts) != list(counts) or len(counts) < 2:
            raise ValidationError("counts must be at least two increasing noise counts")
        self.reference = reference
        self.counts = tuple(int(count) for count in counts)
        self.slack = slack

    def applies(self, workload: Workload) -> bool:
        return workload.circuit.gate_count() > 0 and _supported(
            self.reference, workload.circuit
        )

    @staticmethod
    def _stacked(circuit: Circuit, position: int, qubit: int, parameter: float, count: int) -> Circuit:
        channel = depolarizing_channel(parameter)
        stacked = Circuit(circuit.num_qubits, name=f"{circuit.name}_stack{count}")
        for index, inst in enumerate(circuit):
            stacked.append(inst.operation, inst.qubits)
            if index == position:
                for _ in range(count):
                    stacked.append(channel, (qubit,))
        return stacked

    def _fidelity(self, circuit: Circuit, session: Session) -> float:
        return session.run(circuit, backend=self.reference, output_state="ideal").value

    def check(self, workload: Workload, session: Session) -> List[Violation]:
        circuit = workload.circuit  # the *ideal* circuit anchors F(0)
        rng = np.random.default_rng(stable_seed(workload.seed, "monotone"))
        gate_positions = [i for i, inst in enumerate(circuit) if inst.is_gate]
        position = gate_positions[int(rng.integers(len(gate_positions)))]
        qubit = int(rng.choice(circuit[position].qubits))
        parameter = float(rng.uniform(0.05, 0.3))

        baseline = self._fidelity(circuit, session)
        tvds = []
        for count in self.counts:
            stacked = self._stacked(circuit, position, qubit, parameter, count)
            tvds.append(abs(self._fidelity(stacked, session) - baseline))
        worst = max(
            (tvds[i] - tvds[i + 1] for i in range(len(tvds) - 1)), default=0.0
        )
        if worst > self.slack:
            largest = self._stacked(circuit, position, qubit, parameter, self.counts[-1])
            return [
                self._violation(
                    workload, largest, worst, self.slack,
                    position=position, qubit=qubit, parameter=parameter,
                    counts=list(self.counts), tvds=tvds, reference=self.reference,
                )
            ]
        return []

    def violates(self, circuit: Circuit, details: Dict[str, Any], session: Session) -> bool:
        """Nested-prefix re-check: keeping the first ``j`` noises for growing
        ``j`` must not shrink the TVD from the all-gates baseline."""
        if not _supported(self.reference, circuit):
            return False
        noise_positions = circuit.noise_positions()
        if not noise_positions:
            return False
        baseline = self._fidelity(circuit.without_noise(), session)
        previous = 0.0
        for keep in range(1, len(noise_positions) + 1):
            kept = set(noise_positions[:keep])
            prefix = Circuit(circuit.num_qubits, name=f"{circuit.name}_prefix{keep}")
            for index, inst in enumerate(circuit):
                if inst.is_gate or index in kept:
                    prefix.append(inst.operation, inst.qubits)
            tvd = abs(self._fidelity(prefix, session) - baseline)
            if previous - tvd > self.slack:
                return True
            previous = tvd
        return False


class SeedDeterminism(Oracle):
    """Stochastic estimates are bit-identical across repeats and worker counts."""

    name = "seed_determinism"

    def __init__(self, backends: Sequence[str] | None = None, workers: Sequence[int] = (1, 2)) -> None:
        if len(workers) < 2:
            raise ValidationError("at least two worker counts are required")
        self.backends = None if backends is None else list(backends)
        self.workers = tuple(int(count) for count in workers)

    def _stochastic(self, circuit: Circuit) -> List[str]:
        names = self.backends if self.backends is not None else backend_names()
        return [
            name
            for name in names
            if get_backend(name).capabilities.stochastic and _supported(name, circuit)
        ]

    def applies(self, workload: Workload) -> bool:
        return bool(self._stochastic(workload.noisy_circuit()))

    def _values(
        self, name: str, circuit: Circuit, session: Session, samples: int, seed: int
    ) -> List[float]:
        values = [
            session.run(
                circuit, backend=name, samples=samples, seed=seed, workers=count
            ).value
            for count in self.workers
        ]
        # Repeat the first configuration: catches hidden global-state leaks.
        values.append(
            session.run(
                circuit, backend=name, samples=samples, seed=seed,
                workers=self.workers[0],
            ).value
        )
        return values

    def check(self, workload: Workload, session: Session) -> List[Violation]:
        circuit = workload.noisy_circuit()
        violations = []
        for name in self._stochastic(circuit):
            values = self._values(name, circuit, session, workload.samples, workload.seed)
            deviation = max(abs(value - values[0]) for value in values)
            if deviation > 0.0:
                violations.append(
                    self._violation(
                        workload, circuit, deviation, 0.0,
                        backend=name, samples=workload.samples, seed=workload.seed,
                        workers=list(self.workers), values=values,
                    )
                )
        return violations

    def violates(self, circuit: Circuit, details: Dict[str, Any], session: Session) -> bool:
        name = details["backend"]
        if not _supported(name, circuit):
            return False
        values = self._values(name, circuit, session, details["samples"], details["seed"])
        return max(abs(value - values[0]) for value in values) > 0.0


class ObservableAgreement(Oracle):
    """Dense and tensor-network engines agree on Pauli-sum expectations."""

    name = "observable_agreement"

    def __init__(self, tolerance: float = 1e-7, max_qubits: int = 10) -> None:
        self.tolerance = tolerance
        self.max_qubits = max_qubits

    def applies(self, workload: Workload) -> bool:
        return (
            workload.observable is not None
            and workload.circuit.num_qubits <= self.max_qubits
        )

    def _deviation(self, circuit: Circuit, observable: PauliObservable) -> float:
        from repro.simulators import DensityMatrixSimulator, TNSimulator

        rho = DensityMatrixSimulator(max_qubits=self.max_qubits).run(circuit)
        dense = float(np.real(np.trace(observable.matrix(circuit.num_qubits) @ rho)))
        tn = TNSimulator().expectation(circuit, observable)
        return abs(tn - dense)

    def check(self, workload: Workload, session: Session) -> List[Violation]:
        circuit = workload.noisy_circuit()
        deviation = self._deviation(circuit, workload.observable)
        if deviation > self.tolerance:
            return [
                self._violation(
                    workload, circuit, deviation, self.tolerance,
                    observable=_observable_to_list(workload.observable),
                )
            ]
        return []

    def violates(self, circuit: Circuit, details: Dict[str, Any], session: Session) -> bool:
        if circuit.num_qubits > self.max_qubits:
            return False
        observable = _observable_from_list(details["observable"])
        support = {qubit for _, paulis in details["observable"] for qubit in map(int, paulis)}
        if any(qubit >= circuit.num_qubits for qubit in support):
            return False
        return self._deviation(circuit, observable) > self.tolerance


def _parametrizable(circuit: Circuit) -> List[int]:
    """Indices of gates a :class:`Parameter` can replace (one-angle factories)."""
    return [
        index
        for index, inst in enumerate(circuit)
        if inst.is_gate
        and not getattr(inst.operation, "is_parametric_gate", False)
        and inst.operation.name in glib.GATE_FACTORIES
        and len(inst.operation.params) == 1
    ]


def parametrize_circuit(circuit: Circuit, rng: np.random.Generator):
    """Lift a random subset of one-angle gates into symbolic parameters.

    Each chosen gate ``g(θ)`` becomes ``g(c·p_j)`` for a fresh parameter
    ``p_j`` and a nonzero seeded coefficient ``c``, with ``binding[p_j] =
    θ/c`` — so the bound circuit evaluates the *same expression* the
    substitute path does, and any value drift between the two execution
    paths is a planner/binding bug, not floating-point re-association.

    Returns ``(parametric_circuit, binding)``; ``(None, {})`` when the
    circuit has no parametrizable gate.
    """
    eligible = _parametrizable(circuit)
    if not eligible:
        return None, {}
    chosen = {index for index in eligible if rng.random() < 0.5}
    if not chosen:
        chosen = {eligible[int(rng.integers(len(eligible)))]}
    parametric = Circuit(circuit.num_qubits, name=f"{circuit.name}_parametric")
    binding: Dict[str, float] = {}
    slot = 0
    for index, inst in enumerate(circuit):
        if index in chosen:
            angle = float(inst.operation.params[0])
            coeff = float(rng.uniform(0.5, 2.0))
            name = f"p{slot}"
            parametric.append(
                ParametricGate(inst.operation.name, (coeff * Parameter(name),)),
                inst.qubits,
            )
            binding[name] = angle / coeff
            slot += 1
        else:
            parametric.append(inst.operation, inst.qubits)
    return parametric, binding


class BindEquivalence(Oracle):
    """``compile(c).bind(p)`` is bit-identical to ``compile(substitute(c, p))``.

    A parametric plan is a value-free template: binding swaps tensor values
    while reusing the recorded contraction schedule, noise decompositions
    and sampling distributions.  Both paths evaluate the same expressions on
    the same binding with the same explicit seed, so every backend must
    return the exact same float — the tolerance is zero.

    The reference path runs in an *independent* session with the plan cache
    disabled: in the shared session the substituted circuit shares the
    parametric circuit's structural fingerprint and would silently reuse the
    very plan under test.  Stochastic backends are pinned to ``workers=1``
    in both paths so the trajectory schedule is identical.
    """

    name = "bind_equivalence"

    def __init__(self, backends: Sequence[str] | None = None) -> None:
        self.backends = None if backends is None else list(backends)

    def _names(self, circuit: Circuit) -> List[str]:
        names = self.backends if self.backends is not None else backend_names()
        return [name for name in names if _supported(name, circuit)]

    def applies(self, workload: Workload) -> bool:
        circuit = workload.noisy_circuit()
        return bool(_parametrizable(circuit)) and bool(self._names(circuit))

    def _deviation(
        self, parametric: Circuit, binding: Dict[str, float], name: str,
        session: Session, samples: int, seed: int, level: int,
    ) -> float:
        workers = 1 if get_backend(name).capabilities.stochastic else None
        bound = (
            session.compile(
                parametric, backend=name, samples=samples, seed=seed,
                level=level, workers=workers,
            )
            .bind(binding)
            .run()
            .value
        )
        with Session(plan_cache_size=0, passes=session.passes) as independent:
            reference = independent.run(
                substitute(parametric, binding), backend=name, samples=samples,
                seed=seed, level=level, workers=workers,
            ).value
        return abs(bound - reference)

    def check(self, workload: Workload, session: Session) -> List[Violation]:
        circuit = workload.noisy_circuit()
        rng = np.random.default_rng(stable_seed(workload.seed, "bind"))
        parametric, binding = parametrize_circuit(circuit, rng)
        if parametric is None:
            return []
        violations = []
        for name in self._names(circuit):
            deviation = self._deviation(
                parametric, binding, name, session,
                workload.samples, workload.seed, workload.level,
            )
            if deviation > 0.0:
                violations.append(
                    self._violation(
                        workload, parametric, deviation, 0.0,
                        backend=name, binding=binding,
                        samples=workload.samples, seed=workload.seed,
                        level=workload.level,
                    )
                )
        return violations

    def violates(self, circuit: Circuit, details: Dict[str, Any], session: Session) -> bool:
        binding = {str(key): float(value) for key, value in details["binding"].items()}
        free = circuit_parameters(circuit)
        if not free or not free <= set(binding):
            return False
        if not _supported(details["backend"], substitute(circuit, binding)):
            return False
        deviation = self._deviation(
            circuit, binding, details["backend"], session,
            details["samples"], details["seed"], details["level"],
        )
        return deviation > 0.0


class GradientAgreement(Oracle):
    """The ``tn`` environment-sweep gradient equals parameter shift on ``density_matrix``.

    ``tn`` differentiates its compiled plan from one forward and one reverse
    replay; the density-matrix reference applies the exact two-term shift
    rule.  Both are exact derivatives of the same fidelity, so they agree to
    rounding: the tolerance is 1e-10 per parameter.  Cases are the
    parametrized workload circuits whose free gates all have a generator
    (:data:`~repro.circuits.parameters.GATE_GENERATORS`).
    """

    name = "gradient_agreement"
    tolerance = 1e-10

    @staticmethod
    def _eligible(circuit: Circuit) -> bool:
        free = [
            inst.operation
            for inst in circuit
            if getattr(inst.operation, "is_parametric_gate", False) and inst.operation.free_parameters
        ]
        bound = substitute(circuit, dict.fromkeys(circuit_parameters(circuit), 0.0))
        return (
            bool(free)
            and all(operation.name in GATE_GENERATORS for operation in free)
            and _supported("tn", bound)
            and _supported("density_matrix", bound)
        )

    def _parametrized(self, workload: Workload):
        rng = np.random.default_rng(stable_seed(workload.seed, "gradient"))
        return parametrize_circuit(workload.noisy_circuit(), rng)

    def applies(self, workload: Workload) -> bool:
        parametric, _ = self._parametrized(workload)
        return parametric is not None and self._eligible(parametric)

    def _deviation(self, parametric: Circuit, binding: Dict[str, float], session: Session) -> float:
        swept = session.compile(parametric, backend="tn").gradient(binding)
        shifted = session.compile(parametric, backend="density_matrix").gradient(binding)
        return max(abs(swept[name] - shifted[name]) for name in shifted)

    def check(self, workload: Workload, session: Session) -> List[Violation]:
        parametric, binding = self._parametrized(workload)
        deviation = self._deviation(parametric, binding, session)
        if deviation <= self.tolerance:
            return []
        return [
            self._violation(workload, parametric, deviation, self.tolerance, binding=binding)
        ]

    def violates(self, circuit: Circuit, details: Dict[str, Any], session: Session) -> bool:
        binding = {str(key): float(value) for key, value in details["binding"].items()}
        if not circuit_parameters(circuit) <= set(binding) or not self._eligible(circuit):
            return False
        return self._deviation(circuit, binding, session) > self.tolerance


def _observable_to_list(observable: PauliObservable) -> List[Any]:
    """JSON form: ``[[coefficient, {qubit: label}], ...]``."""
    return [
        [term.coefficient, {str(qubit): label for qubit, label in term.paulis}]
        for term in observable
    ]


def _observable_from_list(payload: Sequence[Any]) -> PauliObservable:
    observable = PauliObservable()
    for coefficient, paulis in payload:
        observable.add_term(float(coefficient), {int(q): str(l) for q, l in paulis.items()})
    return observable


def DEFAULT_ORACLES() -> List[Oracle]:
    """A fresh instance of every default oracle (order = evaluation order)."""
    return [
        CrossBackendAgreement(output_state="zero"),
        CrossBackendAgreement(output_state="ideal"),
        TranspileInvariance(),
        NoiseMonotonicity(),
        SeedDeterminism(),
        ObservableAgreement(),
        BindEquivalence(),
        GradientAgreement(),
    ]
