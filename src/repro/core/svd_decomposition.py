"""SVD decomposition of noise tensors (the paper's Fig. 3 / Lemma 2).

For a noise channel ``E`` with matrix representation ``M_E`` the decomposition
proceeds exactly as in the paper:

1. tensor-permute ``M_E`` into ``~M_E``;
2. compute the SVD ``~M_E = S D T†`` with singular values ``d_0 ≥ d_1 ≥ …``;
3. define ``Ũ_i = d_i S|i⟩`` and ``Ṽ_i = T|i⟩`` so ``~M_E = Σ_i Ũ_i Ṽ_i†``;
4. un-permute each rank-1 term, which turns it into a Kronecker product
   ``U_i ⊗ V_i`` so that ``M_E = Σ_i U_i ⊗ V_i``.

``U_0 ⊗ V_0`` (the dominant term) approximates ``M_E`` with error at most
``4 ‖M_E − I‖`` (Lemma 2); the sub-dominant terms are what Algorithm 1 sums
over at higher approximation levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.matrix_rep import matrix_representation, tensor_permutation
from repro.noise.kraus import KrausChannel
from repro.utils.linalg import operator_norm
from repro.utils.validation import ValidationError

__all__ = ["NoiseTermDecomposition", "decompose_noise", "decompose_matrix_representation"]


@dataclass(frozen=True)
class NoiseTermDecomposition:
    """The Kronecker-term decomposition ``M_E = Σ_i U_i ⊗ V_i`` of one noise.

    Attributes
    ----------
    terms:
        List of ``(U_i, V_i)`` pairs ordered by decreasing singular value.
    singular_values:
        The singular values ``d_i`` of the permuted matrix ``~M_E``.
    matrix_rep:
        The original matrix representation ``M_E``.
    noise_rate:
        ``‖M_E − I‖`` (the paper's noise-rate metric).
    """

    terms: Tuple[Tuple[np.ndarray, np.ndarray], ...]
    singular_values: Tuple[float, ...]
    matrix_rep: np.ndarray
    noise_rate: float

    @property
    def num_terms(self) -> int:
        """Number of retained Kronecker terms (at most ``d²`` for a ``d``-dim channel)."""
        return len(self.terms)

    @property
    def dominant(self) -> Tuple[np.ndarray, np.ndarray]:
        """The dominant term ``(U_0, V_0)``."""
        return self.terms[0]

    @property
    def subdominant(self) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
        """The non-dominant terms ``(U_i, V_i)`` for ``i ≥ 1``."""
        return self.terms[1:]

    def term_matrix(self, index: int) -> np.ndarray:
        """Return the Kronecker product ``U_i ⊗ V_i`` of term ``index``."""
        u, v = self.terms[index]
        return np.kron(u, v)

    def reconstruct(self) -> np.ndarray:
        """Return ``Σ_i U_i ⊗ V_i`` (equals ``M_E`` up to numerical error)."""
        return sum(self.term_matrix(i) for i in range(self.num_terms))

    def dominant_error(self) -> float:
        """Return ``‖M_E − U_0 ⊗ V_0‖`` (Lemma 2 bounds this by ``4·noise_rate``)."""
        return operator_norm(self.matrix_rep - self.term_matrix(0))

    def residual_norm(self) -> float:
        """Return ``‖Σ_{i≥1} U_i ⊗ V_i‖`` (what the paper calls ``‖M̄_E‖``)."""
        if self.num_terms <= 1:
            return 0.0
        residual = sum(self.term_matrix(i) for i in range(1, self.num_terms))
        return operator_norm(residual)


def decompose_matrix_representation(
    matrix_rep: np.ndarray,
    drop_tolerance: float = 1e-14,
) -> NoiseTermDecomposition:
    """Decompose a matrix representation ``M_E`` into ``Σ_i U_i ⊗ V_i``.

    Parameters
    ----------
    matrix_rep:
        The ``d² x d²`` matrix representation of the channel.
    drop_tolerance:
        Kronecker terms whose singular value is below this threshold are
        dropped (they contribute nothing within numerical precision).
    """
    matrix_rep = np.asarray(matrix_rep, dtype=complex)
    total = matrix_rep.shape[0]
    dim = int(round(np.sqrt(total)))
    if dim * dim != total:
        raise ValidationError("matrix representation must have dimension d² x d²")

    permuted = tensor_permutation(matrix_rep)
    left, singular, right_h = np.linalg.svd(permuted)

    terms: List[Tuple[np.ndarray, np.ndarray]] = []
    kept: List[float] = []
    for i, value in enumerate(singular):
        if value <= drop_tolerance and i > 0:
            continue
        u = value * left[:, i].reshape(dim, dim)
        v = right_h[i, :].reshape(dim, dim)
        terms.append((u, v))
        kept.append(float(value))

    rate = operator_norm(matrix_rep - np.eye(total))
    return NoiseTermDecomposition(
        terms=tuple(terms),
        singular_values=tuple(kept),
        matrix_rep=matrix_rep,
        noise_rate=rate,
    )


def decompose_noise(
    channel: KrausChannel,
    drop_tolerance: float = 1e-14,
) -> NoiseTermDecomposition:
    """Decompose a Kraus channel's matrix representation into Kronecker terms.

    A Kraus channel's ``~M_E`` is its Choi matrix, Hermitian and positive
    semi-definite, so the SVD's two factors agree: ``V_i = conj(U_i)/d_i``
    for every kept term.
    """
    return decompose_matrix_representation(
        matrix_representation(channel), drop_tolerance=drop_tolerance
    )
