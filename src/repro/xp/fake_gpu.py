"""``fake_gpu``: a NumPy-backed namespace that *enforces* transfer discipline.

Real accelerator namespaces (cupy/torch) cannot run on CPU-only CI, so
transfer-discipline bugs — host arrays leaking into device ops, implicit
``numpy`` coercion of device arrays, results consumed without an explicit
``to_host`` — would otherwise only surface on GPU machines.  This namespace
makes them fail everywhere: every array it produces is wrapped in
:class:`FakeDeviceArray`, a type numpy refuses to coerce, and every op raises
``TypeError`` when handed a raw host ``ndarray`` where a device array is
expected.

Because each op unwraps, runs the *same numpy kernel in the same order* as
:class:`~repro.xp.numpy_ns.NumpyNamespace`, and re-wraps, results are
bit-identical to the cpu namespace — which is exactly what the conformance
suite (``repro verify --device fake_gpu``) gates on.

Host index/mask arrays *are* accepted as subscripts (cupy semantics: indices
may live on the host), and Python scalars pass through freely.
"""

from __future__ import annotations

import numbers

import numpy as np

from repro.xp.namespace import ArrayNamespace

__all__ = ["FakeDeviceArray", "FakeGpuNamespace"]


class FakeDeviceArray:
    """An opaque handle to an array "on the fake device".

    Supports the device-side surface real GPU array types expose — shape /
    dtype introspection, reshape/transpose views, indexing with host index
    arrays — and refuses every implicit host interaction: ``numpy`` coercion
    (``__array__``), ufunc dispatch, iteration, and assignment from raw host
    arrays all raise ``TypeError``.
    """

    __slots__ = ("_data",)

    def __init__(self, data: np.ndarray):
        self._data = np.asarray(data)

    # -- introspection (device-side, no transfer) ------------------------
    @property
    def shape(self):
        return self._data.shape

    @property
    def dtype(self):
        return self._data.dtype

    @property
    def ndim(self):
        return self._data.ndim

    @property
    def size(self):
        return self._data.size

    def __len__(self):
        return len(self._data)

    def __repr__(self):
        return f"FakeDeviceArray(shape={self._data.shape}, dtype={self._data.dtype})"

    # -- device-side views / copies --------------------------------------
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return FakeDeviceArray(self._data.reshape(shape))

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return FakeDeviceArray(self._data.transpose(axes or None))

    def conj(self):
        return FakeDeviceArray(self._data.conj())

    def copy(self):
        return FakeDeviceArray(self._data.copy())

    def astype(self, dtype):
        return FakeDeviceArray(self._data.astype(dtype))

    # -- indexing (host indices allowed, host *values* are not) ----------
    def __getitem__(self, key):
        result = self._data[_unwrap_key(key)]
        return FakeDeviceArray(np.asarray(result))

    def __setitem__(self, key, value):
        if isinstance(value, FakeDeviceArray):
            value = value._data
        elif isinstance(value, np.ndarray):
            raise TypeError(
                "cannot assign a host numpy array into a FakeDeviceArray; "
                "transfer it first with xp.asarray(...)"
            )
        elif not isinstance(value, (numbers.Number, np.generic)):
            raise TypeError(f"cannot assign {type(value).__name__} into a FakeDeviceArray")
        self._data[_unwrap_key(key)] = value

    # -- implicit host interaction is a bug ------------------------------
    __array_ufunc__ = None  # ndarray <op> FakeDeviceArray -> TypeError

    def __array__(self, *args, **kwargs):
        raise TypeError(
            "implicit transfer of a FakeDeviceArray to the host; "
            "use xp.to_host(array) explicitly"
        )

    def __iter__(self):
        raise TypeError(
            "iterating a FakeDeviceArray would transfer element-by-element; "
            "use xp.to_host(array) explicitly"
        )

    def __bool__(self):
        raise TypeError(
            "truth value of a FakeDeviceArray requires an implicit sync; "
            "use xp.to_host(array) explicitly"
        )


def _unwrap_key(key):
    """Subscripts may mix slices, ints, host index arrays and device arrays."""
    if isinstance(key, tuple):
        return tuple(_unwrap_key(part) for part in key)
    if isinstance(key, FakeDeviceArray):
        return key._data
    return key


def _unwrap(value, op: str):
    """A device operand: FakeDeviceArray or scalar; raw host arrays raise."""
    if isinstance(value, FakeDeviceArray):
        return value._data
    if isinstance(value, np.ndarray):
        raise TypeError(
            f"fake_gpu.{op} received a host numpy array; "
            "transfer it to the device first with xp.asarray(...)"
        )
    if isinstance(value, (numbers.Number, np.generic)):
        return value
    raise TypeError(f"fake_gpu.{op} received {type(value).__name__}, not a device array")


class FakeGpuNamespace(ArrayNamespace):
    """NumPy-backed namespace with a distinct array type and explicit transfers."""

    name = "fake_gpu"
    device = "fake_gpu"

    # creation / transfer
    def asarray(self, data, dtype=None):
        if isinstance(data, FakeDeviceArray):  # already on the device (cupy semantics)
            if dtype is None or np.dtype(dtype) == data.dtype:
                return data
            return data.astype(dtype)
        return FakeDeviceArray(np.asarray(data, dtype=dtype))

    def to_host(self, array) -> np.ndarray:
        if not isinstance(array, FakeDeviceArray):
            raise TypeError(
                f"to_host expects a FakeDeviceArray, got {type(array).__name__} "
                "(host data never needs a device->host transfer)"
            )
        return np.array(array._data)

    def to_scalar(self, array):
        return _unwrap(array, "to_scalar") if np.isscalar(array) else np.asarray(
            _unwrap(array, "to_scalar")
        ).reshape(()).item()

    def zeros(self, shape, dtype=None):
        return FakeDeviceArray(np.zeros(shape, dtype=dtype or self.complex_dtype))

    def empty(self, shape, dtype=None):
        return FakeDeviceArray(np.empty(shape, dtype=dtype or self.complex_dtype))

    def full(self, shape, value, dtype=None):
        return FakeDeviceArray(np.full(shape, value, dtype=dtype))

    def is_device_array(self, value) -> bool:
        return isinstance(value, FakeDeviceArray)

    def copyto(self, destination, source) -> None:
        # copyto *is* a transfer op: the source may be host data (the engine
        # stages small Kraus tensors this way) or another device array.
        if not isinstance(destination, FakeDeviceArray):
            raise TypeError("copyto destination must be a device array")
        if isinstance(source, FakeDeviceArray):
            source = source._data
        np.copyto(destination._data, source)

    # shape manipulation
    def reshape(self, array, shape):
        return FakeDeviceArray(np.reshape(_unwrap(array, "reshape"), shape))

    def transpose(self, array, axes=None):
        return FakeDeviceArray(np.transpose(_unwrap(array, "transpose"), axes))

    def ascontiguousarray(self, array):
        return FakeDeviceArray(np.ascontiguousarray(_unwrap(array, "ascontiguousarray")))

    def stack(self, arrays, axis=0):
        parts = [_unwrap(array, "stack") for array in arrays]
        return FakeDeviceArray(np.stack(parts, axis=axis))

    # contractions and elementwise math
    def tensordot(self, a, b, axes):
        return FakeDeviceArray(
            np.tensordot(_unwrap(a, "tensordot"), _unwrap(b, "tensordot"), axes=axes)
        )

    def einsum(self, subscripts, *operands):
        parts = [_unwrap(operand, "einsum") for operand in operands]
        return FakeDeviceArray(np.asarray(np.einsum(subscripts, *parts)))

    def matmul(self, a, b):
        return FakeDeviceArray(_unwrap(a, "matmul") @ _unwrap(b, "matmul"))

    def dot(self, a, b):
        return FakeDeviceArray(np.dot(_unwrap(a, "dot"), _unwrap(b, "dot")))

    def kron(self, a, b):
        return FakeDeviceArray(np.kron(_unwrap(a, "kron"), _unwrap(b, "kron")))

    def add(self, a, b):
        return FakeDeviceArray(np.asarray(_unwrap(a, "add") + _unwrap(b, "add")))

    def conj(self, array):
        return FakeDeviceArray(np.conj(_unwrap(array, "conj")))

    def abs(self, array):
        return FakeDeviceArray(np.abs(_unwrap(array, "abs")))

    def sqrt(self, array):
        return FakeDeviceArray(np.sqrt(_unwrap(array, "sqrt")))

    def sum(self, array, axis=None):
        return FakeDeviceArray(np.asarray(np.sum(_unwrap(array, "sum"), axis=axis)))

    def cumsum(self, array, axis=None):
        return FakeDeviceArray(np.cumsum(_unwrap(array, "cumsum"), axis=axis))

    def vdot(self, a, b):
        return FakeDeviceArray(np.asarray(np.vdot(_unwrap(a, "vdot"), _unwrap(b, "vdot"))))

    def idivide(self, array, divisor):
        data = _unwrap(array, "idivide")
        data /= _unwrap(divisor, "idivide")
        return array

    def view_real(self, array):
        return FakeDeviceArray(_unwrap(array, "view_real").view(self.real_dtype))

    # linear algebra
    def svd(self, array, full_matrices=True):
        u, s, vh = np.linalg.svd(_unwrap(array, "svd"), full_matrices=full_matrices)
        return FakeDeviceArray(u), FakeDeviceArray(s), FakeDeviceArray(vh)

    def eigh(self, array):
        values, vectors = np.linalg.eigh(_unwrap(array, "eigh"))
        return FakeDeviceArray(values), FakeDeviceArray(vectors)
