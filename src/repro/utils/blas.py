"""One BLAS threading policy: row-batched replays run on a single BLAS thread.

The trajectory engine's grouped passes and the row-batched plan replay
(:meth:`repro.tensornetwork.plan.SpecializedPlan.execute_rows`) issue many
small stacked products.  Some of them cross OpenBLAS's threading threshold,
and on a host with few cores the extra BLAS thread then time-shares a core
with the caller: on a 2-vCPU host, a 1000-sample qaoa_9 estimate at p=0.1
took 0.31 s with OpenBLAS's default threads and 0.025 s with one, for the
same values.  :func:`single_blas_thread` pins the BLAS thread count to 1
for the duration of such a loop and restores it afterwards.  Single large
contractions (``ContractionPlan.execute``) are left alone and keep their
BLAS threads.

The thread count lives in numpy's bundled OpenBLAS
(``scipy_openblas_{set,get}_num_threads64_``, found through ctypes).  When
numpy links another BLAS, the manager does nothing.  The count is global to
the process, so the manager is reference-counted under a lock: the first of
several concurrent holders pins it, and the last one to leave restores it.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Tuple

import numpy as np

__all__ = ["blas_num_threads", "single_blas_thread"]


def _openblas() -> Tuple[Callable[[int], None], Callable[[], int]] | None:
    """``(set, get)`` of numpy's bundled OpenBLAS thread count, or None."""
    package = Path(np.__file__).parent
    candidates = sorted(package.parent.glob("numpy.libs/libscipy_openblas*"))
    candidates += sorted(package.glob(".dylibs/libscipy_openblas*"))
    for path in candidates:
        try:
            library = ctypes.CDLL(str(path))
            set_threads = library.scipy_openblas_set_num_threads64_
            get_threads = library.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return set_threads, get_threads
    return None


_OPENBLAS = _openblas()
_lock = threading.Lock()
_holders = 0
_saved = 1


def blas_num_threads() -> int | None:
    """The current BLAS thread count (None when it cannot be read)."""
    return None if _OPENBLAS is None else int(_OPENBLAS[1]())


@contextmanager
def single_blas_thread() -> Iterator[None]:
    """Run the body with one BLAS thread; restore the previous count after.

    Nested and concurrent holders share one pin: only the first sets the
    count and only the last restores it, also when the body raises.
    """
    global _holders, _saved
    if _OPENBLAS is None:
        yield
        return
    set_threads, get_threads = _OPENBLAS
    with _lock:
        if _holders == 0:
            _saved = get_threads()
            if _saved != 1:
                set_threads(1)
        _holders += 1
    try:
        yield
    finally:
        with _lock:
            _holders -= 1
            if _holders == 0 and _saved != 1:
                set_threads(_saved)
