"""Matrix-product-density-operator (MPDO) noisy simulator.

The paper's related-work section lists MPO/MPDO simulation (its references
[21]-[23]) as the other family of SVD-truncation methods for noisy circuits:
instead of truncating the *noise tensors* (the paper's approach), the MPDO
method represents the density operator as a one-dimensional tensor train and
truncates the *bond dimension* after every two-qubit gate.

This implementation provides that baseline so the extension benchmarks can
contrast the two truncation axes:

* site tensors have shape ``(left_bond, ket_phys, bra_phys, right_bond)``;
* 1-qubit gates and 1-qubit Kraus channels are applied locally (channels via
  the superoperator acting on the ``(ket, bra)`` pair — they never increase
  the bond dimension);
* 2-qubit gates act on adjacent sites through an SVD split with optional
  truncation; non-adjacent gates are routed with SWAPs;
* fidelities ``⟨v| rho |v⟩`` and local expectation values are computed by
  contracting the chain with product-state boundaries.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits import gates as glib
from repro.tensornetwork.circuit_to_tn import StateLike, resolve_product_state
from repro.utils.validation import ValidationError

__all__ = ["MatrixProductDensityOperator", "MPDOSimulator"]


class MatrixProductDensityOperator:
    """A density operator in tensor-train form."""

    def __init__(self, tensors: Sequence[np.ndarray]) -> None:
        if not tensors:
            raise ValidationError("an MPDO needs at least one site tensor")
        self.tensors: List[np.ndarray] = [np.asarray(t, dtype=complex) for t in tensors]
        for i, tensor in enumerate(self.tensors):
            if tensor.ndim != 4 or tensor.shape[1] != 2 or tensor.shape[2] != 2:
                raise ValidationError(
                    f"site tensor {i} must have shape (left, 2, 2, right), got {tensor.shape}"
                )
        if self.tensors[0].shape[0] != 1 or self.tensors[-1].shape[3] != 1:
            raise ValidationError("boundary bond dimensions must be 1")

    # ------------------------------------------------------------------
    @classmethod
    def from_product_state(cls, factors: Sequence[np.ndarray]) -> "MatrixProductDensityOperator":
        """Build ``⊗_i |f_i⟩⟨f_i|`` with bond dimension 1."""
        tensors = []
        for factor in factors:
            vec = np.asarray(factor, dtype=complex).ravel()
            if vec.size != 2:
                raise ValidationError("product-state factors must be single-qubit vectors")
            tensors.append(np.outer(vec, vec.conj()).reshape(1, 2, 2, 1))
        return cls(tensors)

    @classmethod
    def zero_state(cls, num_qubits: int) -> "MatrixProductDensityOperator":
        """The ``|0…0⟩⟨0…0|`` MPDO."""
        return cls.from_product_state([np.array([1.0, 0.0])] * num_qubits)

    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        """Number of sites."""
        return len(self.tensors)

    def bond_dimensions(self) -> List[int]:
        """Bond dimensions between consecutive sites."""
        return [tensor.shape[3] for tensor in self.tensors[:-1]]

    def max_bond_dimension(self) -> int:
        """Largest internal bond dimension."""
        dims = self.bond_dimensions()
        return max(dims) if dims else 1

    def trace(self) -> complex:
        """``tr(rho)`` (should stay 1 up to truncation error)."""
        env = np.array([[1.0 + 0.0j]]).reshape(1)
        for tensor in self.tensors:
            # Contract ket and bra physical indices together.
            traced = np.einsum("apqb->ab", tensor * np.eye(2)[None, :, :, None])
            env = env @ traced
        return complex(env[0])

    def to_matrix(self) -> np.ndarray:
        """Dense density matrix (small registers only)."""
        if self.num_qubits > 10:
            raise ValidationError("refusing to densify an MPDO with more than 10 qubits")
        result = np.array([1.0 + 0.0j]).reshape(1, 1, 1)  # (row, col, bond)
        for tensor in self.tensors:
            result = np.einsum("rcb,bpqd->rpcqd", result, tensor)
            r, p, c, q, d = result.shape
            result = result.reshape(r * p, c * q, d)
        return result.reshape(result.shape[0], result.shape[1])

    def fidelity(self, output_factors: Sequence[np.ndarray]) -> float:
        """``⟨v| rho |v⟩`` for a product state ``|v⟩ = ⊗_i |v_i⟩``."""
        if len(output_factors) != self.num_qubits:
            raise ValidationError("output state has the wrong number of factors")
        env = np.array([1.0 + 0.0j])
        for tensor, factor in zip(self.tensors, output_factors):
            vec = np.asarray(factor, dtype=complex).ravel()
            local = np.einsum("p,apqb,q->ab", vec.conj(), tensor, vec)
            env = env @ local
        return float(np.real(env[0]))

    def expectation(self, operators: Dict[int, np.ndarray]) -> float:
        """``tr(O rho)`` for a product of single-qubit operators ``O = ⊗ O_i``."""
        env = np.array([1.0 + 0.0j])
        for site, tensor in enumerate(self.tensors):
            operator = np.asarray(operators.get(site, np.eye(2)), dtype=complex)
            local = np.einsum("qp,apqb->ab", operator, tensor)
            env = env @ local
        return float(np.real(env[0]))

    def copy(self) -> "MatrixProductDensityOperator":
        """Deep copy."""
        return MatrixProductDensityOperator([t.copy() for t in self.tensors])

    # ------------------------------------------------------------------
    # Local operations
    # ------------------------------------------------------------------
    def apply_single_qubit_gate(self, matrix: np.ndarray, site: int) -> None:
        """Apply ``U · U†`` on one site."""
        u = np.asarray(matrix, dtype=complex)
        self.tensors[site] = np.einsum("rp,apqb,sq->arsb", u, self.tensors[site], u.conj())

    def apply_single_qubit_channel(self, kraus_operators: Sequence[np.ndarray], site: int) -> None:
        """Apply a single-qubit Kraus channel on one site (bond dimension unchanged)."""
        tensor = self.tensors[site]
        result = np.zeros_like(tensor)
        for op in kraus_operators:
            op = np.asarray(op, dtype=complex)
            result = result + np.einsum("rp,apqb,sq->arsb", op, tensor, op.conj())
        self.tensors[site] = result

    def apply_two_qubit_gate(
        self,
        matrix: np.ndarray,
        site: int,
        max_bond_dim: int | None = None,
        truncation_threshold: float = 0.0,
    ) -> float:
        """Apply ``U · U†`` on adjacent sites ``(site, site+1)`` with SVD truncation.

        Returns the discarded squared singular weight.
        """
        if site < 0 or site + 1 >= self.num_qubits:
            raise ValidationError(f"two-qubit gate site {site} out of range")
        u = np.asarray(matrix, dtype=complex).reshape(2, 2, 2, 2)
        left = self.tensors[site]
        right = self.tensors[site + 1]
        # Combined two-site tensor with axes (a, ket0, bra0, ket1, bra1, f).
        theta = np.einsum("apqb,bcdf->apqcdf", left, right)
        # Apply U on the ket indices (axes p=ket0, c=ket1) ...
        theta = np.einsum("rspc,apqcdf->arsqdf", u, theta)
        # ... and U* on the bra indices (axes q=bra0, d=bra1); axes are now
        # (a, ket0', ket1', bra0', bra1', f).
        theta = np.einsum("tuqd,arsqdf->arstuf", u.conj(), theta)
        # Regroup into site-major order (a, ket0', bra0', ket1', bra1', f).
        theta = np.transpose(theta, (0, 1, 3, 2, 4, 5))
        dl = theta.shape[0]
        dr = theta.shape[5]
        merged = theta.reshape(dl * 4, 4 * dr)
        left_u, singular, right_v = np.linalg.svd(merged, full_matrices=False)

        keep = np.ones(len(singular), dtype=bool)
        if truncation_threshold > 0 and singular.size:
            keep &= singular > truncation_threshold * singular[0]
        if max_bond_dim is not None:
            keep &= np.arange(len(singular)) < max_bond_dim
        if not np.any(keep):
            keep[0] = True
        discarded = float(np.sum(singular[~keep] ** 2))

        left_u = left_u[:, keep]
        singular = singular[keep]
        right_v = right_v[keep, :]
        new_dim = len(singular)
        self.tensors[site] = left_u.reshape(dl, 2, 2, new_dim)
        self.tensors[site + 1] = (np.diag(singular) @ right_v).reshape(new_dim, 2, 2, dr)
        return discarded

    def apply_swap(self, site: int, max_bond_dim: int | None = None) -> float:
        """Swap neighbouring sites."""
        return self.apply_two_qubit_gate(glib.SWAP().matrix, site, max_bond_dim=max_bond_dim)


class MPDOSimulator:
    """Noisy circuit simulation on a matrix product density operator."""

    def __init__(
        self,
        max_bond_dim: int | None = None,
        truncation_threshold: float = 1e-12,
    ) -> None:
        self.max_bond_dim = max_bond_dim
        self.truncation_threshold = truncation_threshold
        self.total_discarded_weight = 0.0

    # ------------------------------------------------------------------
    def run(
        self,
        circuit: Circuit,
        initial_state: MatrixProductDensityOperator | None = None,
    ) -> MatrixProductDensityOperator:
        """Simulate ``circuit`` (gates and 1-qubit noise channels) and return the MPDO."""
        mpdo = (
            MatrixProductDensityOperator.zero_state(circuit.num_qubits)
            if initial_state is None
            else initial_state.copy()
        )
        self.total_discarded_weight = 0.0
        for inst in circuit:
            if inst.is_noise:
                if len(inst.qubits) != 1:
                    raise ValidationError("MPDOSimulator supports single-qubit noise channels only")
                mpdo.apply_single_qubit_channel(inst.operation.kraus_operators, inst.qubits[0])
                continue
            matrix = inst.operation.matrix
            if len(inst.qubits) == 1:
                mpdo.apply_single_qubit_gate(matrix, inst.qubits[0])
            elif len(inst.qubits) == 2:
                self._apply_two_qubit_routed(mpdo, matrix, inst.qubits)
            else:
                raise ValidationError("MPDOSimulator supports 1- and 2-qubit gates only")
        return mpdo

    def _apply_two_qubit_routed(
        self,
        mpdo: MatrixProductDensityOperator,
        matrix: np.ndarray,
        qubits: Sequence[int],
    ) -> None:
        a, b = qubits
        flipped = False
        if a > b:
            a, b = b, a
            flipped = True
        for site in range(b - 1, a, -1):
            self.total_discarded_weight += mpdo.apply_swap(site, self.max_bond_dim)
        gate = matrix
        if flipped:
            gate = matrix.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
        self.total_discarded_weight += mpdo.apply_two_qubit_gate(
            gate, a, self.max_bond_dim, self.truncation_threshold
        )
        for site in range(a + 1, b):
            self.total_discarded_weight += mpdo.apply_swap(site, self.max_bond_dim)

    # ------------------------------------------------------------------
    def fidelity(
        self,
        circuit: Circuit,
        output_state: StateLike = None,
        initial_state: MatrixProductDensityOperator | None = None,
    ) -> float:
        """Return ``⟨v| E_N(|ψ⟩⟨ψ|) |v⟩`` for a *product* output state ``|v⟩``."""
        n = circuit.num_qubits
        output_state = "0" * n if output_state is None else output_state
        resolved = resolve_product_state(output_state, n)
        if not isinstance(resolved, list):
            raise ValidationError("MPDOSimulator.fidelity needs a product output state")
        mpdo = self.run(circuit, initial_state)
        return mpdo.fidelity(resolved)
