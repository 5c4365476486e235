"""The paper's approximation algorithm for noisy circuit simulation (Algorithm 1).

Given a noisy circuit ``E_N`` with ``N`` noise channels, an input state
``|ψ⟩``, an output state ``|v⟩`` and an approximation level ``l``, the
algorithm

1. SVD-decomposes every noise's matrix representation into
   ``M_E = Σ_{i=0..3} U_i ⊗ V_i`` (:mod:`repro.core.svd_decomposition`);
2. enumerates every way of replacing at most ``l`` noises by one of their
   sub-dominant terms (``i ∈ {1,2,3}``) while all remaining noises use the
   dominant term ``U_0 ⊗ V_0``;
3. evaluates each substituted diagram and sums the contributions.  A term
   fixes one SVD term per noise: an integer *index row* ``[i_1 … i_N]``.
   The paper multiplies an upper network over the ``U_i`` by a lower one
   over the ``V_i``.  Since ``V_i = conj(U_i)/d_i`` (see
   :func:`~repro.core.svd_decomposition.decompose_noise`), that product is
   ``|upper|²/Π d_i``: the squared amplitude of the circuit's
   :class:`~repro.tensornetwork.circuit_to_tn.KrausRowNetwork` over the
   factors ``U_i/√d_i``, prepared once (:meth:`prepare`) and replayed for
   every row by :meth:`~repro.tensornetwork.plan.SpecializedPlan.execute_rows`.

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
from repro.tensornetwork.circuit_to_tn import KrausRowNetwork, StateLike
from repro.utils.validation import ValidationError

__all__ = ["ApproximationResult", "ApproximateNoisySimulator", "PreparedApproximation"]


@dataclass(frozen=True)
class PreparedApproximation:
    """One-time work of Algorithm 1, reusable across levels and repeat runs.

    Every substituted term of the algorithm evaluates the *same* network
    (only the inserted SVD factors change), so the noise decompositions and
    the prepared :class:`~repro.tensornetwork.circuit_to_tn.KrausRowNetwork`
    are computed once — by :meth:`ApproximateNoisySimulator.prepare` — and
    replayed per term with the factors swapped in.  The plan is
    level-independent: one prepared object serves ``fidelity(..., level=l)``
    for every ``l``.  It is also value-independent: another binding of a
    parametric structure re-prepares with this object as its ``template``
    and rebinds only the gate tensors.
    """

    decompositions: Tuple[NoiseTermDecomposition, ...]
    #: The circuit's amplitude network, replayed once per term.
    network: KrausRowNetwork
    #: Per noise, every SVD term's ``U_i/√d_i`` as a node tensor, stacked
    #: along a leading term axis.
    factors: Tuple[np.ndarray, ...]

    def evaluate(self, rows) -> np.ndarray:
        """Value ``|upper|²/w ≥ 0`` of every term; row ``r`` picks SVD term ``rows[r, s]`` of noise ``s``."""
        amplitudes = self.network.specialized.execute_rows(self.factors, rows)
        return amplitudes.real**2 + amplitudes.imag**2

    def describe(self) -> dict:
        """Plan-cost summary (what :meth:`repro.api.Executable.describe` reports)."""
        return {
            "num_noises": len(self.decompositions),
            "plan": self.network.plan.describe(),
            "residual_steps": self.network.specialized.num_residual_steps,
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
    #: Terms evaluated; the replay contracts one network per term.
    num_terms: int
    #: The paper's Theorem-1 contraction count, two per term (upper and
    #: lower network), kept comparable with the paper's tables.
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

        SVD-decomposes every noise channel, builds the circuit's
        :class:`~repro.tensornetwork.circuit_to_tn.KrausRowNetwork` and
        records its contraction schedule.  Every substituted term shares that
        topology and its tensor shapes (the greedy heuristic decides from
        shapes only), so :meth:`fidelity` replays the one schedule with
        swapped noise factors instead of building and greedy-ordering fresh
        networks per term.

        ``template`` is a plan prepared from another binding of the same
        parametric structure and boundary states.  Its noise decompositions,
        factor stacks and schedule are reused (noise channels carry no
        parameters); only the parametric gate tensors and the specialization
        are rebuilt (:meth:`KrausRowNetwork.rebind`).
        """
        if template is not None:
            return PreparedApproximation(
                decompositions=template.decompositions,
                network=template.network.rebind(circuit),
                factors=template.factors,
            )
        n = circuit.num_qubits
        decompositions = tuple(self.decompose_noises(circuit))
        network = KrausRowNetwork.build(
            circuit,
            "0" * n if input_state is None else input_state,
            "0" * n if output_state is None else output_state,
            max_intermediate_size=self.max_intermediate_size,
            strategy=self.strategy,
        )
        factors = tuple(
            np.stack(
                [
                    np.asarray(u, dtype=complex).reshape(network.tensors[node].shape) / np.sqrt(d)
                    for (u, _), d in zip(decomposition.terms, decomposition.singular_values)
                ]
            )
            for decomposition, node in zip(decompositions, network.noise_nodes)
        )
        return PreparedApproximation(decompositions=decompositions, network=network, factors=factors)

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
        contributions = [0.0] * (level + 1)
        for k, value in zip(np.count_nonzero(rows, axis=1).tolist(), prepared.evaluate(rows).tolist()):
            contributions[k] += value
        total = 0.0
        for contribution in contributions:
            total += contribution

        max_rate = max((d.noise_rate for d in decompositions), default=0.0)
        elapsed = time.perf_counter() - start
        return ApproximationResult(
            value=total,
            level=level,
            num_noises=num_noises,
            num_terms=len(rows),
            num_contractions=2 * len(rows),
            level_contributions=tuple(contributions),
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
        """Number of contractions Algorithm 1 performs by Theorem 1's count (two per term)."""
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
