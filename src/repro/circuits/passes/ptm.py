"""Superoperator / Pauli-transfer-matrix conversions for the pass pipeline.

All conversions are phrased in the library's row-major vectorisation
convention (:func:`repro.utils.linalg.vec_row`): a channel with Kraus
operators ``{E_k}`` has the superoperator ``M = Σ_k E_k ⊗ E_k*`` acting on
``vec_row(rho)``.  The Pauli-transfer matrix is the same linear map written
in the normalised Pauli basis, ``R = B† M B`` where the columns of ``B`` are
``vec_row(P_i)/sqrt(d)`` — a unitary change of basis, so superoperator
products and PTM products are interchangeable.

``kraus_from_ptm`` closes the loop: PTM → superoperator → Choi →
eigendecomposition, the same construction as
:meth:`repro.noise.KrausChannel.canonical_kraus`.  It is what lets the
folding pass multiply two channels in PTM form and hand the result back to
the circuit IR as an ordinary :class:`~repro.noise.KrausChannel`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence

import numpy as np

from repro.utils.linalg import kron_all
from repro.utils.validation import ValidationError, check_square

__all__ = [
    "pauli_basis_matrices",
    "superoperator_from_kraus",
    "ptm_from_superoperator",
    "superoperator_from_ptm",
    "choi_from_superoperator",
    "kraus_from_ptm",
    "kraus_from_superoperator",
    "is_identity_ptm",
]

_PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@lru_cache(maxsize=8)
def pauli_basis_matrices(num_qubits: int) -> tuple:
    """Return the ``4**k`` tensor-product Pauli matrices for ``k`` qubits.

    Ordered with qubit 0 as the most significant factor, matching the
    big-endian register convention used everywhere else in the library.
    """
    if num_qubits < 1:
        raise ValidationError("pauli basis needs at least one qubit")
    matrices = list(_PAULIS)
    for _ in range(num_qubits - 1):
        matrices = [np.kron(a, p) for a in matrices for p in _PAULIS]
    return tuple(matrices)


@lru_cache(maxsize=8)
def _pauli_change_of_basis(num_qubits: int) -> np.ndarray:
    """Unitary ``B`` with columns ``vec_row(P_i)/sqrt(d)``."""
    d = 2**num_qubits
    columns = [p.reshape(-1) / np.sqrt(d) for p in pauli_basis_matrices(num_qubits)]
    return np.stack(columns, axis=1)


def superoperator_from_kraus(kraus_operators: Sequence[np.ndarray]) -> np.ndarray:
    """Return ``M = Σ_k E_k ⊗ E_k*`` acting on row-major vectorised states."""
    if not kraus_operators:
        raise ValidationError("cannot build a superoperator from zero Kraus operators")
    first = check_square(kraus_operators[0])
    total = np.zeros((first.shape[0] ** 2, first.shape[0] ** 2), dtype=complex)
    for op in kraus_operators:
        arr = np.asarray(op, dtype=complex)
        total += np.kron(arr, arr.conj())
    return total


def ptm_from_superoperator(superoperator: np.ndarray) -> np.ndarray:
    """Rewrite a row-major superoperator in the normalised Pauli basis."""
    arr = check_square(superoperator)
    num_qubits = _superoperator_qubits(arr)
    basis = _pauli_change_of_basis(num_qubits)
    return basis.conj().T @ arr @ basis


def superoperator_from_ptm(ptm: np.ndarray) -> np.ndarray:
    """Invert :func:`ptm_from_superoperator` (``B`` is unitary)."""
    arr = check_square(ptm)
    num_qubits = _superoperator_qubits(arr)
    basis = _pauli_change_of_basis(num_qubits)
    return basis @ arr @ basis.conj().T


def choi_from_superoperator(superoperator: np.ndarray) -> np.ndarray:
    """Reshuffle a row-major superoperator into its Choi matrix.

    With ``M[(i,j),(k,l)]`` mapping ``rho[k,l] -> rho'[i,j]``, the Choi matrix
    is ``C[(i,k),(j,l)] = M[(i,j),(k,l)]`` — for ``M = Σ E ⊗ E*`` this gives
    ``C = Σ vec_row(E) vec_row(E)†``, matching
    :meth:`repro.noise.KrausChannel.choi_matrix`.
    """
    arr = check_square(superoperator)
    d = 2 ** _superoperator_qubits(arr)
    return arr.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def kraus_from_superoperator(superoperator: np.ndarray, atol: float = 1e-12) -> List[np.ndarray]:
    """Extract a canonical Kraus decomposition from a superoperator.

    Eigendecomposes the (Hermitian, for a CP map) Choi matrix and keeps the
    eigenvectors with eigenvalue above ``atol``, largest first — the same
    canonical form :meth:`repro.noise.KrausChannel.canonical_kraus` produces.
    """
    arr = check_square(superoperator)
    d = 2 ** _superoperator_qubits(arr)
    choi = choi_from_superoperator(arr)
    if not np.allclose(choi, choi.conj().T, atol=1e-9):
        raise ValidationError("superoperator is not completely positive (non-Hermitian Choi)")
    eigenvalues, eigenvectors = np.linalg.eigh((choi + choi.conj().T) / 2)
    order = np.argsort(eigenvalues)[::-1]
    operators: List[np.ndarray] = []
    for index in order:
        value = float(eigenvalues[index])
        if value <= atol:
            if value < -1e-7:
                raise ValidationError(
                    f"superoperator is not completely positive (Choi eigenvalue {value:.3e})"
                )
            continue
        operators.append(np.sqrt(value) * eigenvectors[:, index].reshape(d, d))
    if not operators:
        raise ValidationError("superoperator has no Kraus operators above tolerance")
    return operators


def kraus_from_ptm(ptm: np.ndarray, atol: float = 1e-12) -> List[np.ndarray]:
    """Extract a canonical Kraus decomposition from a Pauli-transfer matrix."""
    return kraus_from_superoperator(superoperator_from_ptm(ptm), atol=atol)


def is_identity_ptm(ptm: np.ndarray, atol: float = 1e-9) -> bool:
    """True when the PTM (or superoperator) is the identity map."""
    arr = check_square(ptm)
    return bool(np.allclose(arr, np.eye(arr.shape[0]), atol=atol))


def _superoperator_qubits(matrix: np.ndarray) -> int:
    """Number of qubits of a ``d² x d²`` superoperator/PTM."""
    dim = matrix.shape[0]
    d = int(round(np.sqrt(dim)))
    if d * d != dim:
        raise ValidationError(f"matrix of dimension {dim} is not a superoperator (need d²)")
    num_qubits = int(round(np.log2(d)))
    if 2**num_qubits != d:
        raise ValidationError(f"superoperator dimension {dim} is not 4**k")
    return num_qubits
