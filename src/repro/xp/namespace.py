"""The ``ArrayNamespace`` protocol and the shape-keyed workspace buffer cache.

An :class:`ArrayNamespace` is the single dispatch point between the library's
algorithms and a device: every dense-math hot path receives one and calls its
ops instead of numpy's.  The protocol is deliberately small — exactly the ops
the hot paths use — so adding a device means implementing ~30 thin wrappers
(see :mod:`repro.xp.numpy_ns` for the reference, :mod:`repro.xp.fake_gpu` for
the transfer-discipline enforcer, and ``docs/xp.md`` for the how-to).

Transfer discipline
-------------------

Host ↔ device movement is always explicit:

* :meth:`ArrayNamespace.asarray` — host data → device array;
* :meth:`ArrayNamespace.to_host` — device array → host ``numpy.ndarray``;
* :meth:`ArrayNamespace.to_scalar` — 0-d device array → Python scalar.

Namespace ops accept and return *device* arrays only (plus Python scalars and
host index/mask arrays where numpy/cupy semantics allow them).  The
``fake_gpu`` namespace raises on any implicit coercion, so a hot path that
passes the ``fake_gpu`` conformance tests will not hide accidental syncs when
a real accelerator namespace is swapped in.

Random numbers are generated *host-side* from the seed and then transferred
(:meth:`ArrayNamespace.random_normal`), so sampled values are bit-identical
across devices — the property the conformance oracles
(``repro verify --device fake_gpu``) gate on.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

import numpy as _np

__all__ = ["ArrayNamespace", "Workspace"]


class Workspace:
    """A small LRU cache of reusable device buffers keyed by (tag, shape, dtype).

    The trajectory engine and the specialized contraction-plan replay request
    the same buffer shapes thousands of times per serving session (one
    ``(cap, 2**n)`` group-state scratch per noise channel per grouped pass,
    whose ``cap`` bounds the distinct Kraus histories held at once, one small
    tensor per bound Kraus value); allocating them once and reusing them is the gpuarray
    cache idiom from quantumsim's CUDA backend.  Keys carry an optional
    caller-supplied ``tag`` so two *live* buffers of the same shape (e.g. two
    Kraus substitution slots) never alias.

    Buffers are cached **per thread** (a :class:`repro.api.Session` dispatches
    work on thread pools, and two threads sharing a scratch buffer would race)
    and the per-thread cache is LRU-bounded by ``max_entries``.  Contents are
    undefined on reuse — callers must fully overwrite what they read, exactly
    as with ``numpy.empty``.
    """

    def __init__(self, allocate, max_entries: int = 32):
        self._allocate = allocate
        self.max_entries = int(max_entries)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def _buffers(self) -> OrderedDict:
        buffers = getattr(self._local, "buffers", None)
        if buffers is None:
            buffers = self._local.buffers = OrderedDict()
        return buffers

    def buffer(self, shape, dtype, tag: Hashable = None):
        """An uninitialised device buffer of ``shape``/``dtype`` (cached per thread)."""
        shape = tuple(int(dim) for dim in shape)
        key = (tag, shape, _np.dtype(dtype).str)
        buffers = self._buffers()
        cached = buffers.get(key)
        if cached is not None:
            buffers.move_to_end(key)
            with self._lock:
                self._hits += 1
            return cached
        fresh = self._allocate(shape, dtype)
        buffers[key] = fresh
        with self._lock:
            self._misses += 1
            while len(buffers) > self.max_entries:
                buffers.popitem(last=False)
                self._evictions += 1
        return fresh

    def stats(self) -> dict:
        """Aggregate counters across all threads (``hits``/``misses``/``evictions``)."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "entries": len(self._buffers()),
            }

    def clear(self) -> None:
        """Drop this thread's cached buffers and reset the shared counters."""
        with self._lock:
            self._buffers().clear()
            self._hits = self._misses = self._evictions = 0


class ArrayNamespace:
    """Base class wiring shared machinery (dtype policy, workspace cache).

    Subclasses implement the device-specific ops; the constructor pins the
    complex working precision (``complex128`` default, ``complex64`` opt-in
    for accelerators) and the paired real dtype used by norm/probability math.
    """

    #: Registry name of the namespace implementation (``numpy``, ``fake_gpu``, …).
    name = "abstract"
    #: Device string this namespace executes on (``cpu``, ``fake_gpu``, ``cuda``).
    device = "cpu"

    def __init__(self, dtype: Any = "complex128", workspace_entries: int = 32):
        self.complex_dtype = _np.dtype(dtype)
        if self.complex_dtype not in (_np.dtype(_np.complex64), _np.dtype(_np.complex128)):
            raise ValueError(f"dtype must be complex64 or complex128, got {dtype!r}")
        self.real_dtype = _np.dtype(
            _np.float32 if self.complex_dtype == _np.dtype(_np.complex64) else _np.float64
        )
        self._workspace = Workspace(self._allocate, max_entries=workspace_entries)

    # -- workspace buffer cache -----------------------------------------
    def _allocate(self, shape, dtype):
        return self.empty(shape, dtype=dtype)

    def workspace(self, shape, dtype=None, tag: Hashable = None):
        """A reusable uninitialised buffer from the per-thread LRU cache."""
        return self._workspace.buffer(shape, dtype or self.complex_dtype, tag=tag)

    def workspace_stats(self) -> dict:
        return self._workspace.stats()

    def workspace_clear(self) -> None:
        self._workspace.clear()

    # -- seeded randomness (host-side, then transferred) -----------------
    def random_normal(self, seed, shape, dtype=None):
        """Seeded standard-normal draws, bit-identical across devices.

        The values are always drawn on the host from
        ``numpy.random.default_rng(seed)`` (``seed`` may also be a live host
        Generator) and then transferred, so a given seed produces the same
        samples on every device — device RNGs never enter the results.
        """
        rng = seed if isinstance(seed, _np.random.Generator) else _np.random.default_rng(seed)
        draws = rng.standard_normal(shape)
        return self.asarray(draws.astype(dtype or self.real_dtype, copy=False))

    # -- protocol (implemented by subclasses) ----------------------------
    def _unimplemented(self, op: str):  # pragma: no cover - abstract guard
        raise NotImplementedError(f"{type(self).__name__} does not implement {op}")

    # creation / transfer
    def asarray(self, data, dtype=None):
        self._unimplemented("asarray")

    def to_host(self, array) -> _np.ndarray:
        self._unimplemented("to_host")

    def to_scalar(self, array):
        self._unimplemented("to_scalar")

    def zeros(self, shape, dtype=None):
        self._unimplemented("zeros")

    def empty(self, shape, dtype=None):
        self._unimplemented("empty")

    def full(self, shape, value, dtype=None):
        self._unimplemented("full")

    def is_device_array(self, value) -> bool:
        self._unimplemented("is_device_array")

    def copyto(self, destination, source) -> None:
        self._unimplemented("copyto")

    # shape manipulation
    def reshape(self, array, shape):
        self._unimplemented("reshape")

    def transpose(self, array, axes=None):
        self._unimplemented("transpose")

    def ascontiguousarray(self, array):
        self._unimplemented("ascontiguousarray")

    def stack(self, arrays, axis=0):
        self._unimplemented("stack")

    # contractions and elementwise math
    def tensordot(self, a, b, axes):
        self._unimplemented("tensordot")

    def einsum(self, subscripts, *operands):
        self._unimplemented("einsum")

    def matmul(self, a, b):
        self._unimplemented("matmul")

    def dot(self, a, b):
        """``numpy.dot``: the 2-D product behind ``tensordot`` (plan replay's kernel)."""
        self._unimplemented("dot")

    def kron(self, a, b):
        self._unimplemented("kron")

    def add(self, a, b):
        self._unimplemented("add")

    def conj(self, array):
        self._unimplemented("conj")

    def abs(self, array):
        self._unimplemented("abs")

    def sqrt(self, array):
        self._unimplemented("sqrt")

    def sum(self, array, axis=None):
        self._unimplemented("sum")

    def cumsum(self, array, axis=None):
        self._unimplemented("cumsum")

    def vdot(self, a, b):
        self._unimplemented("vdot")

    def idivide(self, array, divisor):
        """In-place ``array /= divisor`` (broadcasting); returns ``array``."""
        self._unimplemented("idivide")

    def view_real(self, array):
        """Reinterpret a complex array as reals with the last axis doubled.

        The zero-copy trick behind the engine's Born-weight einsum:
        ``|z|² = re² + im²`` summed over the doubled axis, with no conjugate
        temporaries.  numpy/cupy implement it as ``.view(real_dtype)``; torch
        as ``view_as_real`` + flatten.
        """
        self._unimplemented("view_real")

    # linear algebra
    def svd(self, array, full_matrices=True):
        self._unimplemented("svd")

    def eigh(self, array):
        self._unimplemented("eigh")
