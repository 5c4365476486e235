"""Weight-ordered path truncation: an anytime variant of Algorithm 1.

Algorithm 1 organises the expansion of ``M_{E_N} … M_{E_1}`` by *how many*
noises deviate from their dominant Kronecker term (the approximation level).
An alternative — natural once every noise has been SVD-decomposed — is to
expand the same product over *paths* ``(i_1, …, i_N)`` (one term index per
noise), order the paths by their weight ``Π_s d_{i_s}`` (the product of the
singular values selected at every noise), and evaluate the heaviest ``K``
paths.  This gives an *anytime* algorithm: the budget is a path count rather
than a level, and the partial sums improve monotonically in expectation as
paths are added.

A path is the same index row as an Algorithm-1 term, so the heaviest ``K``
paths replay the prepared amplitude network of
:class:`~repro.core.approximation.ApproximateNoisySimulator` through
:meth:`~repro.core.approximation.PreparedApproximation.evaluate` (one
:meth:`~repro.tensornetwork.plan.SpecializedPlan.execute_rows` for all of
them).
The level-``l`` approximation corresponds to the set of paths
with at most ``l`` non-dominant indices, so the two truncation schemes
coincide when the singular-value gaps are uniform, and differ when some
noises are much stronger than others — which is what the ablation benchmark
explores.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import Circuit
from repro.core.approximation import ApproximateNoisySimulator
from repro.core.svd_decomposition import NoiseTermDecomposition
from repro.tensornetwork.circuit_to_tn import StateLike
from repro.utils.validation import ValidationError

__all__ = ["PathTruncationResult", "PathTruncatedSimulator", "enumerate_paths_by_weight"]


def enumerate_paths_by_weight(
    decompositions: Sequence[NoiseTermDecomposition],
    max_paths: int | None = None,
) -> Iterator[Tuple[float, Tuple[int, ...]]]:
    """Yield ``(weight, path)`` pairs in non-increasing weight order.

    The weight of a path ``(i_1, …, i_N)`` is ``Π_s d_{i_s}`` with ``d`` the
    singular values of each noise's permuted matrix representation.  The
    enumeration is the classic best-first search over a product lattice: start
    from the all-dominant path and push single-index successors, deduplicating
    visited paths.
    """
    if not decompositions:
        yield 1.0, ()
        return
    values = [list(d.singular_values) for d in decompositions]

    def weight(path: Tuple[int, ...]) -> float:
        result = 1.0
        for noise_index, term_index in enumerate(path):
            result *= values[noise_index][term_index]
        return result

    start = tuple(0 for _ in decompositions)
    heap: List[Tuple[float, Tuple[int, ...]]] = [(-weight(start), start)]
    seen = {start}
    emitted = 0
    while heap:
        negative_weight, path = heapq.heappop(heap)
        yield -negative_weight, path
        emitted += 1
        if max_paths is not None and emitted >= max_paths:
            return
        for noise_index in range(len(path)):
            if path[noise_index] + 1 < len(values[noise_index]):
                successor = list(path)
                successor[noise_index] += 1
                successor = tuple(successor)
                if successor not in seen:
                    seen.add(successor)
                    heapq.heappush(heap, (-weight(successor), successor))


@dataclass(frozen=True)
class PathTruncationResult:
    """Outcome of a weight-ordered path-truncated run."""

    value: float
    num_paths: int
    #: The paper's Theorem-1 contraction count, two per path.
    num_contractions: int
    total_weight_evaluated: float
    total_weight_available: float
    elapsed_seconds: float

    @property
    def weight_coverage(self) -> float:
        """Fraction of the total path weight covered by the evaluated paths."""
        if self.total_weight_available == 0:
            return 1.0
        return self.total_weight_evaluated / self.total_weight_available


class PathTruncatedSimulator:
    """Evaluate the heaviest ``K`` expansion paths of the noisy simulation."""

    def __init__(
        self,
        max_paths: int = 64,
        max_intermediate_size: int | None = 2**26,
        strategy: str = "greedy",
    ) -> None:
        if max_paths < 1:
            raise ValidationError("max_paths must be at least 1")
        self.max_paths = int(max_paths)
        #: Preparation (SVDs, the recorded plan) is the level-based simulator's.
        self._delegate = ApproximateNoisySimulator(
            level=0,
            max_intermediate_size=max_intermediate_size,
            strategy=strategy,
        )

    def fidelity(
        self,
        circuit: Circuit,
        input_state: StateLike = None,
        output_state: StateLike = None,
        max_paths: int | None = None,
    ) -> PathTruncationResult:
        """Approximate ``⟨v| E_N(|ψ⟩⟨ψ|) |v⟩`` with the heaviest expansion paths."""
        start = time.perf_counter()
        max_paths = self.max_paths if max_paths is None else int(max_paths)
        if max_paths < 1:
            raise ValidationError("max_paths must be at least 1")
        prepared = self._delegate.prepare(circuit, input_state, output_state)
        decompositions = prepared.decompositions
        total_weight_available = float(
            np.prod([sum(d.singular_values) for d in decompositions])
        ) if decompositions else 1.0

        weights, paths = zip(*enumerate_paths_by_weight(decompositions, max_paths=max_paths))
        rows = np.array(paths, dtype=int).reshape(len(paths), len(decompositions))
        total = 0.0 + 0.0j
        for value in prepared.evaluate(rows).tolist():
            total += value
        evaluated_weight = 0.0
        for weight in weights:
            evaluated_weight += weight

        elapsed = time.perf_counter() - start
        return PathTruncationResult(
            value=float(np.real(total)),
            num_paths=len(paths),
            num_contractions=2 * len(paths),
            total_weight_evaluated=evaluated_weight,
            total_weight_available=total_weight_available,
            elapsed_seconds=elapsed,
        )
