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
   the contributions.  A term fixes one SVD term per noise, so it is an
   integer *index row* ``[i_1 … i_N]``; both halves share one schedule,
   recorded once (:meth:`prepare`), and every row replays it through
   :meth:`~repro.tensornetwork.plan.SpecializedPlan.execute_rows`.

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
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import Circuit
from repro.core.error_bounds import contraction_count, theorem1_error_bound
from repro.core.svd_decomposition import NoiseTermDecomposition, decompose_noise
from repro.tensornetwork.circuit_to_tn import (
    StateLike,
    noise_node_positions,
    substituted_split_networks,
)
from repro.tensornetwork.plan import ContractionPlan, SpecializedPlan
from repro.utils.validation import ValidationError

__all__ = ["ApproximationResult", "ApproximateNoisySimulator", "PreparedApproximation"]


@dataclass(frozen=True)
class PreparedApproximation:
    """One-time work of Algorithm 1, reusable across levels and repeat runs.

    Every substituted term of the algorithm produces the *same* network
    topology in both halves (only the inserted ``U_i``/``V_i`` tensor values
    change), so the noise decompositions and one recorded contraction
    schedule can be computed once — by
    :meth:`ApproximateNoisySimulator.prepare` — and replayed per term with the
    noise tensors swapped in.  The plan is level-independent: one prepared
    object serves ``fidelity(..., level=l)`` for every ``l``.  It is also
    value-independent: another binding of a parametric structure re-prepares
    with this object as its ``template`` and rebuilds only the tensors.
    """

    decompositions: Tuple[NoiseTermDecomposition, ...]
    #: The split-network schedule, recorded once on the upper half.
    plan: ContractionPlan
    #: ``plan`` partially evaluated over each half's static tensors.
    upper: SpecializedPlan
    lower: SpecializedPlan
    #: Per noise, every SVD term's ``U_i`` (resp. ``V_i``) as a node tensor.
    upper_factors: Tuple[Tuple[np.ndarray, ...], ...]
    lower_factors: Tuple[Tuple[np.ndarray, ...], ...]

    def evaluate(self, rows) -> np.ndarray:
        """Value ``upper · lower`` of every term; row ``r`` picks SVD term ``rows[r, s]`` of noise ``s``."""
        upper = self.upper.execute_rows(self.upper_factors, rows)
        lower = self.lower.execute_rows(self.lower_factors, rows)
        # The textbook product with one rounding per operation, as Python's
        # complex multiply does (numpy's complex multiply may fuse them).
        values = np.empty(len(upper), dtype=complex)
        values.real = upper.real * lower.real - upper.imag * lower.imag
        values.imag = upper.real * lower.imag + upper.imag * lower.real
        return values

    def describe(self) -> dict:
        """Plan-cost summary (what :meth:`repro.api.Executable.describe` reports)."""
        return {
            "num_noises": len(self.decompositions),
            "plan": self.plan.describe(),
            "upper_residual_steps": self.upper.num_residual_steps,
            "lower_residual_steps": self.lower.num_residual_steps,
        }


def level_rows(decompositions: Sequence[NoiseTermDecomposition], level: int) -> np.ndarray:
    """Index rows of every term with at most ``level`` non-dominant noises, level by level."""
    num_noises = len(decompositions)
    rows = []
    for k in range(level + 1):
        for positions in itertools.combinations(range(num_noises), k):
            choices = [range(1, decompositions[position].num_terms) for position in positions]
            for assignment in itertools.product(*choices):
                row = [0] * num_noises
                for position, term_index in zip(positions, assignment):
                    row[position] = term_index
                rows.append(row)
    return np.array(rows, dtype=int).reshape(len(rows), num_noises)


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
    ) -> None:
        if level < 0:
            raise ValidationError("level must be non-negative")
        #: Default approximation level ``l`` (the paper recommends 1).
        self.level = int(level)
        self.max_intermediate_size = max_intermediate_size
        self.strategy = strategy

    # ------------------------------------------------------------------
    # Decomposition of the circuit's noises
    # ------------------------------------------------------------------
    def decompose_noises(self, circuit: Circuit) -> List[NoiseTermDecomposition]:
        """SVD-decompose every noise channel of ``circuit`` (in occurrence order)."""
        return [decompose_noise(inst.operation) for inst in circuit.noise_instructions]

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
        schedule of the dominant-term upper split network.  Every substituted
        term, in either half, shares that topology and its tensor shapes (the
        greedy heuristic decides from shapes only), so the one schedule is
        specialized over the upper and the lower tensors, and :meth:`fidelity`
        replays it with swapped noise tensors instead of building and
        greedy-ordering two fresh networks per term.

        ``template`` is a plan prepared from another binding of the same
        parametric structure.  Its noise decompositions and schedule are
        reused with their U/V factor tensors (noise channels carry no
        parameters); only the split networks' tensors and their
        specializations are rebuilt.
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
        # Recording consumes the network, so snapshot the tensors first.
        upper_tensors = [node.tensor for node in upper.nodes]
        lower_tensors = [node.tensor for node in lower.nodes]
        noise_positions = noise_node_positions(circuit, input_state)
        if template is None:
            plan, _ = ContractionPlan.record(upper, strategy=self.strategy)
            upper_factors, lower_factors = (
                tuple(
                    tuple(
                        np.asarray(term[half], dtype=complex).reshape(upper_tensors[position].shape)
                        for term in decomposition.terms
                    )
                    for decomposition, position in zip(decompositions, noise_positions)
                )
                for half in (0, 1)
            )
        else:
            plan = template.plan
            upper_factors, lower_factors = template.upper_factors, template.lower_factors
        return PreparedApproximation(
            decompositions=decompositions,
            plan=plan,
            upper=plan.specialize(upper_tensors, noise_positions),
            lower=plan.specialize(lower_tensors, noise_positions),
            upper_factors=upper_factors,
            lower_factors=lower_factors,
        )

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

        rows = level_rows(decompositions, level)
        contributions = [0.0 + 0.0j] * (level + 1)
        for k, value in zip(np.count_nonzero(rows, axis=1).tolist(), prepared.evaluate(rows).tolist()):
            contributions[k] += value
        total = 0.0 + 0.0j
        for contribution in contributions:
            total += contribution

        max_rate = max((d.noise_rate for d in decompositions), default=0.0)
        elapsed = time.perf_counter() - start
        return ApproximationResult(
            value=float(np.real(total)),
            level=level,
            num_noises=num_noises,
            num_terms=len(rows),
            num_contractions=2 * len(rows),
            level_contributions=tuple(float(np.real(c)) for c in contributions),
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
        return _cheapest_level(self.decompose_noises(circuit), target_error, max_level)

    def fidelity_to_error(
        self,
        circuit: Circuit,
        target_error: float,
        input_state: StateLike = None,
        output_state: StateLike = None,
        max_level: int | None = None,
    ) -> ApproximationResult:
        """Run Algorithm 1 at the cheapest level whose a-priori bound meets ``target_error``."""
        prepared = self.prepare(circuit, input_state, output_state)
        level = _cheapest_level(prepared.decompositions, target_error, max_level)
        return self.fidelity(
            circuit, input_state, output_state, level=level, prepared=prepared
        )

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


def _cheapest_level(decompositions, target_error: float, max_level: int | None) -> int:
    """Smallest level whose Theorem-1 bound over ``decompositions`` meets ``target_error``."""
    if target_error <= 0:
        raise ValidationError("target_error must be positive")
    num_noises = len(decompositions)
    max_rate = max((d.noise_rate for d in decompositions), default=0.0)
    ceiling = num_noises if max_level is None else min(int(max_level), num_noises)
    for level in range(ceiling + 1):
        if theorem1_error_bound(num_noises, max_rate, level) <= target_error:
            return level
    return ceiling
