"""The paper's approximation algorithm for noisy circuit simulation (Algorithm 1).

Given a noisy circuit ``E_N`` with ``N`` noise channels, an input state
``|ψ⟩``, an output state ``|v⟩`` and an approximation level ``l``, the
algorithm

1. SVD-decomposes every noise's matrix representation into
   ``M_E = Σ_{i=0..3} U_i ⊗ V_i`` (:mod:`repro.core.svd_decomposition`);
2. enumerates every way of replacing at most ``l`` noises by one of their
   sub-dominant terms (``i ∈ {1,2,3}``) while all remaining noises use the
   dominant term ``U_0 ⊗ V_0``;
3. evaluates each substituted diagram as the product of two independent
   single-size tensor-network contractions (upper and lower half) and sums
   the contributions.  Every term shares the same two network topologies, so
   both contraction schedules are recorded once (:meth:`prepare`) and each
   term replays them with its ``U_i``/``V_i`` factors swapped in.

The result ``A(l)`` approximates the fidelity ``⟨v| E_N(|ψ⟩⟨ψ|) |v⟩`` with
the Theorem-1 error bound; ``l = N`` recovers the exact value.

Both the bound and the cost are indexed by the noise count ``N``, which is
why the session-layer compiler passes (:mod:`repro.circuits.passes`) only
shrink it in ways that cannot change the remaining channels' sampling
structure for this backend: folding a *unitary* channel into a gate removes
a channel whose SVD has a single term (its level budget was free), and
pruning removes channels provably acting as the identity on the boundary —
while channel *merging*, which rewrites ``N`` arbitrarily, stays reserved
for the exact superoperator backends.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import Circuit
from repro.core.error_bounds import contraction_count, theorem1_error_bound
from repro.core.svd_decomposition import NoiseTermDecomposition, decompose_noise
from repro.tensornetwork.circuit_to_tn import (
    StateLike,
    noise_node_positions,
    substituted_split_networks,
)
from repro.tensornetwork.plan import ContractionPlan
from repro.utils.validation import ValidationError

__all__ = ["ApproximationResult", "ApproximateNoisySimulator", "PreparedApproximation"]


@dataclass(frozen=True)
class PreparedApproximation:
    """One-time work of Algorithm 1, reusable across levels and repeat runs.

    Every substituted term of the algorithm produces the *same* pair of
    network topologies (only the inserted ``U_i``/``V_i`` tensor values
    change), so the noise decompositions, the upper/lower template networks
    and their recorded contraction schedules can be computed once — by
    :meth:`ApproximateNoisySimulator.prepare` — and replayed per term with the
    noise tensors swapped in.  The plans are level-independent: one prepared
    object serves ``fidelity(..., level=l)`` for every ``l``.  They are also
    value-independent: another binding of a parametric structure re-prepares
    with this object as its ``template`` and rebuilds only the tensors.
    """

    decompositions: Tuple[NoiseTermDecomposition, ...]
    upper_plan: ContractionPlan
    lower_plan: ContractionPlan
    upper_tensors: Tuple[np.ndarray, ...]
    lower_tensors: Tuple[np.ndarray, ...]
    #: Node positions of the noise operations in both template networks.
    noise_positions: Tuple[int, ...]
    #: Partially evaluated plans: contractions not downstream of any noise
    #: tensor are baked in, so each term replays only the residual steps.
    upper_specialized: Any = None
    lower_specialized: Any = None

    def describe(self) -> dict:
        """Plan-cost summary (what :meth:`repro.api.Executable.describe` reports)."""
        info = {
            "num_noises": len(self.decompositions),
            "upper": self.upper_plan.describe(),
            "lower": self.lower_plan.describe(),
        }
        if self.upper_specialized is not None:
            info["upper"]["residual_steps"] = self.upper_specialized.num_residual_steps
            info["lower"]["residual_steps"] = self.lower_specialized.num_residual_steps
        return info


@dataclass(frozen=True)
class ApproximationResult:
    """Outcome of one run of the approximation algorithm."""

    value: float
    level: int
    num_noises: int
    num_terms: int
    num_contractions: int
    level_contributions: Tuple[float, ...]
    max_noise_rate: float
    elapsed_seconds: float

    @property
    def error_bound(self) -> float:
        """Theorem-1 a-priori bound on ``|F − A(l)|`` for this run."""
        return theorem1_error_bound(self.num_noises, self.max_noise_rate, self.level)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"A({self.level}) = {self.value:.8f} "
            f"(noises={self.num_noises}, terms={self.num_terms}, "
            f"contractions={self.num_contractions}, bound={self.error_bound:.2e})"
        )


class ApproximateNoisySimulator:
    """Implementation of Algorithm 1 (ApproximationNoisySimulation).

    This is the algorithm-level class; at the service level the same
    computation is dispatched through the registry as backend
    ``"approximation"`` (alias ``"ours"``) — e.g.
    ``repro.api.simulate(circuit, backend="approximation", level=1)`` — whose
    unified result carries ``error_bound`` and provenance.

    Example — a level-1 run on a noisy GHZ circuit, checked against the exact
    value (level ``N``) and the Theorem-1 a-priori bound::

        >>> from repro.circuits.library import ghz_circuit
        >>> from repro.core import ApproximateNoisySimulator
        >>> from repro.noise import NoiseModel, depolarizing_channel
        >>> model = NoiseModel(depolarizing_channel(0.01), seed=1)
        >>> noisy = model.insert_random(ghz_circuit(2), 2)
        >>> simulator = ApproximateNoisySimulator(level=1)
        >>> result = simulator.fidelity(noisy)
        >>> result.level, result.num_noises
        (1, 2)
        >>> exact = simulator.exact_fidelity(noisy)
        >>> abs(result.value - exact.value) <= result.error_bound
        True
    """

    def __init__(
        self,
        level: int = 1,
        max_intermediate_size: int | None = 2**26,
        strategy: str = "greedy",
        drop_tolerance: float = 1e-14,
    ) -> None:
        if level < 0:
            raise ValidationError("level must be non-negative")
        #: Default approximation level ``l`` (the paper recommends 1).
        self.level = int(level)
        self.max_intermediate_size = max_intermediate_size
        self.strategy = strategy
        self.drop_tolerance = drop_tolerance

    # ------------------------------------------------------------------
    # Decomposition of the circuit's noises
    # ------------------------------------------------------------------
    def decompose_noises(self, circuit: Circuit) -> List[NoiseTermDecomposition]:
        """SVD-decompose every noise channel of ``circuit`` (in occurrence order)."""
        decompositions = []
        for inst in circuit.noise_instructions:
            decompositions.append(
                decompose_noise(inst.operation, drop_tolerance=self.drop_tolerance)
            )
        return decompositions

    # ------------------------------------------------------------------
    # One-time preparation (compile step of the service layer)
    # ------------------------------------------------------------------
    def prepare(
        self,
        circuit: Circuit,
        input_state: StateLike = None,
        output_state: StateLike = None,
        template: PreparedApproximation | None = None,
    ) -> PreparedApproximation:
        """Precompute the term-independent work of Algorithm 1 for ``circuit``.

        SVD-decomposes every noise channel and records the contraction
        schedules of the dominant-term split networks; since every substituted
        term shares those topologies (the greedy heuristic decides from
        tensor *shapes* only, which are the same for every term),
        :meth:`fidelity` replays the schedules with swapped noise tensors
        instead of building and greedy-ordering two fresh networks per term.

        ``template`` is a plan prepared from another binding of the same
        parametric structure.  Its noise decompositions and both schedules
        are reused (noise channels carry no parameters); only the split
        networks' tensors and their specializations are rebuilt.
        """
        n = circuit.num_qubits
        input_state = "0" * n if input_state is None else input_state
        output_state = "0" * n if output_state is None else output_state
        if template is None:
            decompositions = tuple(self.decompose_noises(circuit))
        else:
            decompositions = template.decompositions
        dominant = {
            index: decomposition.terms[0]
            for index, decomposition in enumerate(decompositions)
        }
        upper, lower = substituted_split_networks(
            circuit,
            dominant,
            input_state,
            output_state,
            max_intermediate_size=self.max_intermediate_size,
        )
        # Recording consumes the networks, so snapshot the tensors first.
        upper_tensors = tuple(node.tensor for node in upper.nodes)
        lower_tensors = tuple(node.tensor for node in lower.nodes)
        if template is None:
            upper_plan, _ = ContractionPlan.record(upper, strategy=self.strategy)
            lower_plan, _ = ContractionPlan.record(lower, strategy=self.strategy)
            noise_positions = noise_node_positions(circuit, input_state)
        else:
            upper_plan, lower_plan = template.upper_plan, template.lower_plan
            noise_positions = template.noise_positions
        return PreparedApproximation(
            decompositions=decompositions,
            upper_plan=upper_plan,
            lower_plan=lower_plan,
            upper_tensors=upper_tensors,
            lower_tensors=lower_tensors,
            noise_positions=noise_positions,
            upper_specialized=upper_plan.specialize(list(upper_tensors), noise_positions),
            lower_specialized=lower_plan.specialize(list(lower_tensors), noise_positions),
        )

    def _evaluate_term_prepared(
        self,
        prepared: PreparedApproximation,
        substitution: Dict[int, Tuple[np.ndarray, np.ndarray]],
    ) -> complex:
        upper: Dict[int, np.ndarray] = {}
        lower: Dict[int, np.ndarray] = {}
        for noise_index, position in enumerate(prepared.noise_positions):
            u_matrix, v_matrix = substitution[noise_index]
            upper[position] = np.asarray(u_matrix, dtype=complex).reshape(
                prepared.upper_tensors[position].shape
            )
            lower[position] = np.asarray(v_matrix, dtype=complex).reshape(
                prepared.lower_tensors[position].shape
            )
        return prepared.upper_specialized.execute(upper) * prepared.lower_specialized.execute(lower)

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def fidelity(
        self,
        circuit: Circuit,
        input_state: StateLike = None,
        output_state: StateLike = None,
        level: int | None = None,
        prepared: PreparedApproximation | None = None,
    ) -> ApproximationResult:
        """Return the level-``l`` approximation ``A(l)`` of ``⟨v| E_N(|ψ⟩⟨ψ|) |v⟩``.

        ``input_state`` and ``output_state`` default to ``|0…0⟩`` as in the
        paper's Table II experiments.  ``prepared`` optionally supplies the
        one-time work recorded by :meth:`prepare` (for the same circuit and
        boundary states); without it the work is prepared here, so a one-shot
        run and a compiled run evaluate every term by the same plan replay.
        """
        start = time.perf_counter()
        level = self.level if level is None else int(level)
        if level < 0:
            raise ValidationError("level must be non-negative")
        n = circuit.num_qubits
        input_state = "0" * n if input_state is None else input_state
        output_state = "0" * n if output_state is None else output_state

        if prepared is None:
            prepared = self.prepare(circuit, input_state, output_state)
        elif len(prepared.decompositions) != circuit.noise_count():
            raise ValidationError(
                "prepared plan covers "
                f"{len(prepared.decompositions)} noises but the circuit "
                f"has {circuit.noise_count()}"
            )
        decompositions = prepared.decompositions
        num_noises = len(decompositions)
        level = min(level, num_noises)

        total = 0.0 + 0.0j
        level_contributions: List[float] = []
        num_terms = 0

        for k in range(level + 1):
            contribution = 0.0 + 0.0j
            for positions in itertools.combinations(range(num_noises), k):
                # Each selected position can use any of its sub-dominant terms.
                choices_per_position = []
                for position in positions:
                    available = range(1, decompositions[position].num_terms)
                    choices_per_position.append(list(available))
                if positions and any(not c for c in choices_per_position):
                    continue
                for assignment in itertools.product(*choices_per_position):
                    substitution: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
                    for noise_index in range(num_noises):
                        substitution[noise_index] = decompositions[noise_index].terms[0]
                    for position, term_index in zip(positions, assignment):
                        substitution[position] = decompositions[position].terms[term_index]
                    contribution += self._evaluate_term_prepared(prepared, substitution)
                    num_terms += 1
            level_contributions.append(float(np.real(contribution)))
            total += contribution

        max_rate = max((d.noise_rate for d in decompositions), default=0.0)
        elapsed = time.perf_counter() - start
        return ApproximationResult(
            value=float(np.real(total)),
            level=level,
            num_noises=num_noises,
            num_terms=num_terms,
            num_contractions=2 * num_terms,
            level_contributions=tuple(level_contributions),
            max_noise_rate=max_rate,
            elapsed_seconds=elapsed,
        )

    # ------------------------------------------------------------------
    def level_for_error(
        self,
        circuit: Circuit,
        target_error: float,
        max_level: int | None = None,
    ) -> int:
        """Smallest level whose Theorem-1 bound meets ``target_error`` for this circuit.

        Uses only the a-priori bound (no simulation), so it can be called
        before committing to an expensive run; combine with
        :func:`repro.core.error_bounds.contraction_count` to budget the cost.
        """
        if target_error <= 0:
            raise ValidationError("target_error must be positive")
        decompositions = self.decompose_noises(circuit)
        num_noises = len(decompositions)
        max_rate = max((d.noise_rate for d in decompositions), default=0.0)
        ceiling = num_noises if max_level is None else min(int(max_level), num_noises)
        for level in range(ceiling + 1):
            if theorem1_error_bound(num_noises, max_rate, level) <= target_error:
                return level
        return ceiling

    def fidelity_to_error(
        self,
        circuit: Circuit,
        target_error: float,
        input_state: StateLike = None,
        output_state: StateLike = None,
        max_level: int | None = None,
    ) -> ApproximationResult:
        """Run Algorithm 1 at the cheapest level whose a-priori bound meets ``target_error``."""
        level = self.level_for_error(circuit, target_error, max_level=max_level)
        return self.fidelity(circuit, input_state, output_state, level=level)

    # ------------------------------------------------------------------
    def exact_fidelity(
        self,
        circuit: Circuit,
        input_state: StateLike = None,
        output_state: StateLike = None,
    ) -> ApproximationResult:
        """Run the algorithm at level ``N`` (all noises), which is exact."""
        return self.fidelity(
            circuit, input_state, output_state, level=circuit.noise_count()
        )

    def planned_contractions(self, circuit: Circuit, level: int | None = None) -> int:
        """Number of contractions Algorithm 1 will perform (Theorem 1 count)."""
        level = self.level if level is None else int(level)
        return contraction_count(circuit.noise_count(), level)
