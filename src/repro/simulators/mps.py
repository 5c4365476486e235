"""Matrix-product-state (MPS) simulator with bond truncation.

The paper's related-work section lists MPS/MPO/MPDO simulation as the other
family of SVD-based approximation methods.  This module provides a complete
MPS simulator for noiseless circuits (and, combined with quantum-trajectories
sampling of the Kraus operators, a building block for approximate noisy
simulation).  It is used by the ablation
benchmarks to contrast bond-dimension truncation with the paper's noise-tensor
truncation.

Conventions: site tensors have shape ``(left_bond, physical, right_bond)``;
qubit 0 is the leftmost site.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits import gates as glib
from repro.utils.validation import ValidationError

__all__ = ["MatrixProductState", "MPSSimulator"]


class MatrixProductState:
    """A matrix product state over ``num_qubits`` two-level sites."""

    def __init__(self, tensors: Sequence[np.ndarray]) -> None:
        if not tensors:
            raise ValidationError("an MPS needs at least one site tensor")
        self.tensors: List[np.ndarray] = [np.asarray(t, dtype=complex) for t in tensors]
        for i, tensor in enumerate(self.tensors):
            if tensor.ndim != 3 or tensor.shape[1] != 2:
                raise ValidationError(
                    f"site tensor {i} must have shape (left, 2, right), got {tensor.shape}"
                )
        if self.tensors[0].shape[0] != 1 or self.tensors[-1].shape[2] != 1:
            raise ValidationError("boundary bond dimensions must be 1")

    # ------------------------------------------------------------------
    @classmethod
    def from_product_state(cls, factors: Sequence[np.ndarray]) -> "MatrixProductState":
        """Build an MPS from per-qubit 2-vectors (bond dimension 1)."""
        tensors = [np.asarray(f, dtype=complex).reshape(1, 2, 1) for f in factors]
        return cls(tensors)

    @classmethod
    def zero_state(cls, num_qubits: int) -> "MatrixProductState":
        """The ``|0…0⟩`` MPS."""
        return cls.from_product_state([np.array([1.0, 0.0])] * num_qubits)

    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        """Number of sites."""
        return len(self.tensors)

    def bond_dimensions(self) -> List[int]:
        """Bond dimensions between consecutive sites."""
        return [tensor.shape[2] for tensor in self.tensors[:-1]]

    def max_bond_dimension(self) -> int:
        """Largest bond dimension in the chain."""
        dims = self.bond_dimensions()
        return max(dims) if dims else 1

    def norm(self) -> float:
        """2-norm of the represented state."""
        env = np.array([[1.0 + 0.0j]])
        for tensor in self.tensors:
            env = np.einsum("ab,aps,bpt->st", env, tensor.conj(), tensor)
        return float(np.sqrt(abs(env[0, 0].real)))

    def amplitude(self, bitstring: str) -> complex:
        """Amplitude ``⟨bitstring|ψ⟩``."""
        if len(bitstring) != self.num_qubits or any(c not in "01" for c in bitstring):
            raise ValidationError(f"invalid bitstring {bitstring!r}")
        env = np.array([1.0 + 0.0j])
        for tensor, bit in zip(self.tensors, bitstring):
            env = env @ tensor[:, int(bit), :]
        return complex(env[0])

    def to_statevector(self) -> np.ndarray:
        """Dense statevector (small qubit counts only)."""
        if self.num_qubits > 20:
            raise ValidationError("refusing to densify an MPS with more than 20 qubits")
        result = np.array([1.0 + 0.0j]).reshape(1, 1)
        for tensor in self.tensors:
            result = np.einsum("ia,apb->ipb", result, tensor).reshape(-1, tensor.shape[2])
        return result.reshape(-1)

    def overlap(self, other: "MatrixProductState") -> complex:
        """Inner product ``⟨self|other⟩``."""
        if other.num_qubits != self.num_qubits:
            raise ValidationError("MPS sizes do not match")
        env = np.array([[1.0 + 0.0j]])
        for bra, ket in zip(self.tensors, other.tensors):
            env = np.einsum("ab,aps,bpt->st", env, bra.conj(), ket)
        return complex(env[0, 0])

    def copy(self) -> "MatrixProductState":
        """Deep copy."""
        return MatrixProductState([tensor.copy() for tensor in self.tensors])

    # ------------------------------------------------------------------
    # Gate application
    # ------------------------------------------------------------------
    def apply_single_qubit(self, matrix: np.ndarray, site: int) -> None:
        """Apply a 1-qubit matrix to ``site`` in place."""
        matrix = np.asarray(matrix, dtype=complex)
        self.tensors[site] = np.einsum("qp,apb->aqb", matrix, self.tensors[site])

    def apply_two_qubit(
        self,
        matrix: np.ndarray,
        site: int,
        max_bond_dim: int | None = None,
        truncation_threshold: float = 0.0,
    ) -> float:
        """Apply a 2-qubit matrix to sites ``(site, site+1)`` with SVD truncation.

        Returns the discarded squared Schmidt weight (0 when no truncation
        happened), which callers can accumulate into a fidelity estimate.
        """
        if site < 0 or site + 1 >= self.num_qubits:
            raise ValidationError(f"two-qubit gate site {site} out of range")
        matrix = np.asarray(matrix, dtype=complex)
        left = self.tensors[site]
        right = self.tensors[site + 1]
        theta = np.einsum("apb,bqc->apqc", left, right)
        gate = matrix.reshape(2, 2, 2, 2)
        theta = np.einsum("rspq,apqc->arsc", gate, theta)
        dl, _, _, dr = theta.shape
        merged = theta.reshape(dl * 2, 2 * dr)
        u, singular, vh = np.linalg.svd(merged, full_matrices=False)

        keep = np.ones(len(singular), dtype=bool)
        if truncation_threshold > 0:
            keep &= singular > truncation_threshold * (singular[0] if singular.size else 1.0)
        if max_bond_dim is not None:
            keep &= np.arange(len(singular)) < max_bond_dim
        if not np.any(keep):
            keep[0] = True
        discarded = float(np.sum(singular[~keep] ** 2))

        u = u[:, keep]
        singular = singular[keep]
        vh = vh[keep, :]
        new_dim = len(singular)
        self.tensors[site] = u.reshape(dl, 2, new_dim)
        self.tensors[site + 1] = (np.diag(singular) @ vh).reshape(new_dim, 2, dr)
        return discarded

    def apply_swap(self, site: int, max_bond_dim: int | None = None) -> float:
        """Swap neighbouring sites ``site`` and ``site+1``."""
        return self.apply_two_qubit(glib.SWAP().matrix, site, max_bond_dim=max_bond_dim)


class MPSSimulator:
    """Noiseless circuit simulation on a matrix product state."""

    def __init__(
        self,
        max_bond_dim: int | None = None,
        truncation_threshold: float = 1e-12,
    ) -> None:
        self.max_bond_dim = max_bond_dim
        self.truncation_threshold = truncation_threshold

    def run(self, circuit: Circuit, initial_state: MatrixProductState | None = None) -> MatrixProductState:
        """Simulate ``circuit`` and return the final MPS.

        Non-adjacent two-qubit gates are routed with SWAP chains; gates on
        more than two qubits are rejected (decompose them first).
        """
        if not circuit.is_noiseless():
            raise ValidationError(
                "MPSSimulator only handles noiseless circuits; combine with the "
                "trajectory sampler for noisy simulation"
            )
        mps = (
            MatrixProductState.zero_state(circuit.num_qubits)
            if initial_state is None
            else initial_state.copy()
        )
        self.total_discarded_weight = 0.0
        for inst in circuit:
            matrix = inst.operation.matrix
            if len(inst.qubits) == 1:
                mps.apply_single_qubit(matrix, inst.qubits[0])
            elif len(inst.qubits) == 2:
                self._apply_two_qubit_routed(mps, matrix, inst.qubits)
            else:
                raise ValidationError(
                    f"MPS simulation supports 1- and 2-qubit gates, got {len(inst.qubits)}"
                )
        return mps

    def _apply_two_qubit_routed(
        self, mps: MatrixProductState, matrix: np.ndarray, qubits: Sequence[int]
    ) -> None:
        a, b = qubits
        flipped = False
        if a > b:
            a, b = b, a
            flipped = True
        # Bring qubit b next to a with swaps.
        for site in range(b - 1, a, -1):
            self.total_discarded_weight += mps.apply_swap(site, self.max_bond_dim)
        gate = matrix
        if flipped:
            gate = matrix.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
        self.total_discarded_weight += mps.apply_two_qubit(
            gate, a, self.max_bond_dim, self.truncation_threshold
        )
        for site in range(a + 1, b):
            self.total_discarded_weight += mps.apply_swap(site, self.max_bond_dim)

    def amplitude(self, circuit: Circuit, bitstring: str) -> complex:
        """Return ``⟨bitstring| C |0…0⟩``."""
        return self.run(circuit).amplitude(bitstring)
