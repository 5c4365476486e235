"""Reference :class:`~repro.xp.namespace.ArrayNamespace`: plain numpy on the host.

Always available; the behavioural baseline every other namespace must match
bit-for-bit (``tests/xp`` runs the same conformance suite against all of
them).  ``asarray``/``to_host`` are zero-copy when the input is already a
host ndarray of the right dtype, so routing the CPU hot path through this
namespace costs nothing over calling numpy directly.
"""

from __future__ import annotations

import numpy as np

from repro.xp.namespace import ArrayNamespace

__all__ = ["NumpyNamespace"]


class NumpyNamespace(ArrayNamespace):
    """The host reference implementation (device ``cpu``)."""

    name = "numpy"
    device = "cpu"

    # creation / transfer
    def asarray(self, data, dtype=None):
        return np.asarray(data, dtype=dtype)

    def to_host(self, array) -> np.ndarray:
        return np.asarray(array)

    def to_scalar(self, array):
        return np.asarray(array).reshape(()).item()

    def zeros(self, shape, dtype=None):
        return np.zeros(shape, dtype=dtype or self.complex_dtype)

    def empty(self, shape, dtype=None):
        return np.empty(shape, dtype=dtype or self.complex_dtype)

    def full(self, shape, value, dtype=None):
        return np.full(shape, value, dtype=dtype)

    def is_device_array(self, value) -> bool:
        return isinstance(value, np.ndarray)

    def copyto(self, destination, source) -> None:
        np.copyto(destination, source)

    # shape manipulation
    def reshape(self, array, shape):
        return np.reshape(array, shape)

    def transpose(self, array, axes=None):
        return np.transpose(array, axes)

    def ascontiguousarray(self, array):
        return np.ascontiguousarray(array)

    def stack(self, arrays, axis=0):
        return np.stack(arrays, axis=axis)

    # contractions and elementwise math
    def tensordot(self, a, b, axes):
        return np.tensordot(a, b, axes=axes)

    def einsum(self, subscripts, *operands):
        return np.einsum(subscripts, *operands)

    def matmul(self, a, b):
        return a @ b

    def dot(self, a, b):
        return np.dot(a, b)

    def kron(self, a, b):
        return np.kron(a, b)

    def add(self, a, b):
        return a + b

    def conj(self, array):
        return np.conj(array)

    def abs(self, array):
        return np.abs(array)

    def sqrt(self, array):
        return np.sqrt(array)

    def sum(self, array, axis=None):
        return np.sum(array, axis=axis)

    def cumsum(self, array, axis=None):
        return np.cumsum(array, axis=axis)

    def vdot(self, a, b):
        return np.vdot(a, b)

    def idivide(self, array, divisor):
        array /= divisor
        return array

    def view_real(self, array):
        return array.view(self.real_dtype)

    # linear algebra
    def svd(self, array, full_matrices=True):
        return np.linalg.svd(array, full_matrices=full_matrices)

    def eigh(self, array):
        return np.linalg.eigh(array)
