"""Matrix decision diagrams (QMDD/TDD style) and their algebra.

A :class:`MatrixDD` represents a ``2**n x 2**n`` complex matrix as a decision
diagram: each level branches on one qubit's (row bit, column bit) pair, equal
sub-blocks are shared, and weights are pulled to the edges.  The operations
needed for noisy circuit simulation are implemented: conversion from/to dense
matrices, addition, matrix multiplication, adjoint, scaling, trace and an
embedding constructor for gates acting on a subset of qubits.

All operations route node creation through a shared :class:`UniqueTable`, so
structurally equal matrices end up as the *same* diagram — the property that
makes DD-based simulation memory-efficient for structured circuits.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.simulators.tdd.node import TERMINAL, DDEdge, DDNode, UniqueTable
from repro.utils.validation import ValidationError, check_power_of_two

__all__ = ["MatrixDD", "DDContext"]


class DDContext:
    """Shared unique table plus operation caches for DD computations."""

    def __init__(self) -> None:
        self.unique = UniqueTable()
        self.add_cache: Dict[tuple, Tuple[complex, DDNode]] = {}
        self.mul_cache: Dict[tuple, Tuple[complex, DDNode]] = {}

    def clear_caches(self) -> None:
        """Drop the operation caches (the unique table is kept)."""
        self.add_cache.clear()
        self.mul_cache.clear()


def _round_key(value: complex, decimals: int = 12) -> complex:
    return complex(round(value.real, decimals), round(value.imag, decimals))


class MatrixDD:
    """A decision-diagram representation of a square matrix on ``num_qubits`` qubits."""

    def __init__(self, num_qubits: int, edge: DDEdge, context: DDContext) -> None:
        self.num_qubits = int(num_qubits)
        self.edge = edge
        self.context = context

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_matrix(
        cls, matrix: np.ndarray, context: DDContext, num_qubits: int | None = None
    ) -> "MatrixDD":
        """Build a diagram from a dense matrix."""
        matrix = np.asarray(matrix, dtype=complex)
        n = check_power_of_two(matrix.shape[0], name="matrix dimension")
        if matrix.shape[0] != matrix.shape[1]:
            raise ValidationError("MatrixDD requires a square matrix")
        if num_qubits is not None and num_qubits != n:
            raise ValidationError(f"matrix acts on {n} qubits, declared {num_qubits}")
        edge = cls._build(matrix, 0, n, context)
        return cls(n, edge, context)

    @classmethod
    def _build(cls, block: np.ndarray, level: int, num_qubits: int, context: DDContext) -> DDEdge:
        if level == num_qubits:
            return DDEdge(complex(block.reshape(())), TERMINAL)
        half = block.shape[0] // 2
        children = []
        for row_bit in (0, 1):
            for col_bit in (0, 1):
                sub = block[row_bit * half:(row_bit + 1) * half, col_bit * half:(col_bit + 1) * half]
                children.append(cls._build(sub, level + 1, num_qubits, context))
        return context.unique.get_node(level, tuple(children))

    @classmethod
    def identity(cls, num_qubits: int, context: DDContext) -> "MatrixDD":
        """The identity matrix as a diagram (linear-size construction)."""
        edge = DDEdge(1.0, TERMINAL)
        for level in range(num_qubits - 1, -1, -1):
            zero = DDEdge(0.0, TERMINAL)
            edge = context.unique.get_node(level, (edge, zero, zero, DDEdge(edge.weight, edge.node)))
        return cls(num_qubits, edge, context)

    @classmethod
    def from_gate(
        cls,
        matrix: np.ndarray,
        qubits: Sequence[int],
        num_qubits: int,
        context: DDContext,
    ) -> "MatrixDD":
        """Embed a ``k``-qubit gate acting on ``qubits`` into an ``n``-qubit diagram.

        The construction never materialises the ``2**n`` dense matrix: levels
        outside ``qubits`` branch diagonally (identity structure), levels
        inside ``qubits`` branch into the corresponding sub-blocks of the gate.
        """
        matrix = np.asarray(matrix, dtype=complex)
        k = check_power_of_two(matrix.shape[0], name="gate dimension")
        qubits = [int(q) for q in qubits]
        if len(qubits) != k:
            raise ValidationError("gate arity does not match the qubit list")
        if len(set(qubits)) != k:
            raise ValidationError("duplicate qubits in gate embedding")
        for q in qubits:
            if not 0 <= q < num_qubits:
                raise ValidationError(f"qubit {q} out of range")

        # Reorder the gate's qubits so they appear in increasing global order.
        order = np.argsort(qubits)
        sorted_qubits = [qubits[i] for i in order]
        tensor = matrix.reshape([2] * (2 * k))
        perm = list(order) + [k + int(i) for i in order]
        tensor = np.transpose(tensor, perm)
        sorted_matrix = tensor.reshape(2**k, 2**k)

        gate_level_of = {q: i for i, q in enumerate(sorted_qubits)}

        def build(level: int, block: np.ndarray) -> DDEdge:
            if level == num_qubits:
                return DDEdge(complex(block.reshape(())), TERMINAL)
            if level in gate_level_of:
                half = block.shape[0] // 2
                children = []
                for row_bit in (0, 1):
                    for col_bit in (0, 1):
                        sub = block[
                            row_bit * half:(row_bit + 1) * half,
                            col_bit * half:(col_bit + 1) * half,
                        ]
                        children.append(build(level + 1, sub))
                return context.unique.get_node(level, tuple(children))
            child = build(level + 1, block)
            zero = DDEdge(0.0, TERMINAL)
            return context.unique.get_node(
                level, (child, zero, zero, DDEdge(child.weight, child.node))
            )

        return cls(num_qubits, build(0, sorted_matrix), context)

    # ------------------------------------------------------------------
    # Conversion and inspection
    # ------------------------------------------------------------------
    def to_matrix(self) -> np.ndarray:
        """Densify the diagram (small qubit counts only)."""
        if self.num_qubits > 12:
            raise ValidationError("refusing to densify a diagram with more than 12 qubits")

        def expand(edge: DDEdge, level: int) -> np.ndarray:
            if level == self.num_qubits:
                return np.array([[edge.weight]], dtype=complex)
            if edge.node.is_terminal:
                size = 2 ** (self.num_qubits - level)
                return np.zeros((size, size), dtype=complex) if edge.is_zero() else np.full(
                    (size, size), np.nan
                )
            blocks = [expand(child, level + 1) for child in edge.node.edges]
            top = np.hstack([blocks[0], blocks[1]])
            bottom = np.hstack([blocks[2], blocks[3]])
            return edge.weight * np.vstack([top, bottom])

        if self.edge.is_zero():
            dim = 2**self.num_qubits
            return np.zeros((dim, dim), dtype=complex)
        if self.edge.node.is_terminal:
            # A terminal root with non-zero weight means a 0-qubit scalar; for
            # n qubits it can only arise from the zero matrix handled above.
            raise ValidationError("malformed diagram: non-zero terminal root")
        return expand(self.edge, 0)

    def node_count(self) -> int:
        """Number of distinct nodes reachable from the root (diagram size)."""
        seen: set[int] = set()

        def walk(node: DDNode) -> None:
            if node.is_terminal or id(node) in seen:
                return
            seen.add(id(node))
            for child in node.edges:
                walk(child.node)

        walk(self.edge.node)
        return len(seen) + 1  # + terminal

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "MatrixDD") -> None:
        if other.num_qubits != self.num_qubits or other.context is not self.context:
            raise ValidationError("diagrams must share the qubit count and DD context")

    def scale(self, factor: complex) -> "MatrixDD":
        """Return ``factor * self``."""
        return MatrixDD(
            self.num_qubits, DDEdge(self.edge.weight * factor, self.edge.node), self.context
        )

    def add(self, other: "MatrixDD") -> "MatrixDD":
        """Return ``self + other``."""
        self._check_compatible(other)
        edge = self._add_edges(self.edge, other.edge, 0)
        return MatrixDD(self.num_qubits, edge, self.context)

    def _add_edges(self, a: DDEdge, b: DDEdge, level: int) -> DDEdge:
        if a.is_zero():
            return DDEdge(b.weight, b.node)
        if b.is_zero():
            return DDEdge(a.weight, a.node)
        if level == self.num_qubits:
            return DDEdge(a.weight + b.weight, TERMINAL)
        key = (
            id(a.node), id(b.node),
            _round_key(a.weight), _round_key(b.weight),
            level, "add",
        )
        cached = self.context.add_cache.get(key)
        if cached is not None:
            return DDEdge(cached[0], cached[1])
        children = tuple(
            self._add_edges(
                DDEdge(a.weight * child_a.weight, child_a.node),
                DDEdge(b.weight * child_b.weight, child_b.node),
                level + 1,
            )
            for child_a, child_b in zip(a.node.edges, b.node.edges)
        )
        result = self.context.unique.get_node(level, children)
        self.context.add_cache[key] = (result.weight, result.node)
        return result

    def multiply(self, other: "MatrixDD") -> "MatrixDD":
        """Return the matrix product ``self @ other``."""
        self._check_compatible(other)
        edge = self._multiply_edges(self.edge, other.edge, 0)
        return MatrixDD(self.num_qubits, edge, self.context)

    def _multiply_edges(self, a: DDEdge, b: DDEdge, level: int) -> DDEdge:
        if a.is_zero() or b.is_zero():
            return DDEdge(0.0, TERMINAL)
        if level == self.num_qubits:
            return DDEdge(a.weight * b.weight, TERMINAL)
        key = (id(a.node), id(b.node), level, "mul")
        cached = self.context.mul_cache.get(key)
        if cached is not None:
            return DDEdge(cached[0] * a.weight * b.weight, cached[1])
        # Children of the product: C[i][j] = Σ_k A[i][k] B[k][j].
        children = []
        for row_bit in (0, 1):
            for col_bit in (0, 1):
                acc = DDEdge(0.0, TERMINAL)
                for k in (0, 1):
                    left = a.node.edges[2 * row_bit + k]
                    right = b.node.edges[2 * k + col_bit]
                    term = self._multiply_edges(left, right, level + 1)
                    acc = self._add_edges(acc, term, level + 1)
                children.append(acc)
        result = self.context.unique.get_node(level, tuple(children))
        self.context.mul_cache[key] = (result.weight, result.node)
        return DDEdge(result.weight * a.weight * b.weight, result.node)

    def adjoint(self) -> "MatrixDD":
        """Return the conjugate transpose."""
        cache: Dict[int, DDEdge] = {}

        def walk(node: DDNode, level: int) -> DDEdge:
            if node.is_terminal:
                return DDEdge(1.0, TERMINAL)
            cached = cache.get(id(node))
            if cached is not None:
                return cached
            # Transpose swaps the (0,1) and (1,0) children; conjugate weights.
            order = (0, 2, 1, 3)
            children = []
            for idx in order:
                child = node.edges[idx]
                sub = walk(child.node, level + 1)
                children.append(DDEdge(np.conj(child.weight) * sub.weight, sub.node))
            edge = self.context.unique.get_node(level, tuple(children))
            cache[id(node)] = edge
            return edge

        if self.edge.node.is_terminal:
            return MatrixDD(self.num_qubits, DDEdge(np.conj(self.edge.weight), TERMINAL), self.context)
        inner = walk(self.edge.node, 0)
        return MatrixDD(
            self.num_qubits,
            DDEdge(np.conj(self.edge.weight) * inner.weight, inner.node),
            self.context,
        )

    def trace(self) -> complex:
        """Return the matrix trace."""
        cache: Dict[int, complex] = {}

        def walk(node: DDNode, level: int) -> complex:
            if level == self.num_qubits:
                return 1.0 + 0.0j
            cached = cache.get(id(node))
            if cached is not None:
                return cached
            total = 0.0 + 0.0j
            for bit in (0, 1):
                child = node.edges[3 * bit]  # (0,0) and (1,1) children
                if not child.is_zero():
                    total += child.weight * walk(child.node, level + 1)
            cache[id(node)] = total
            return total

        if self.edge.is_zero():
            return 0.0 + 0.0j
        return complex(self.edge.weight * walk(self.edge.node, 0))
