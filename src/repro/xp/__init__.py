"""``repro.xp`` — the array-namespace seam between algorithms and devices.

Every dense-math hot path in the library (grouped trajectory passes,
contraction-plan replay, statevector/density-matrix evolution, PTM algebra)
reduces to ndarray ops: ``einsum``/``tensordot`` contractions, reshapes and a
little linear algebra on ``(batch, 2**n)`` arrays.  This package factors those
ops behind one dispatch point — an :class:`~repro.xp.namespace.ArrayNamespace`
— so the whole hot path can run on an accelerator without algorithm changes
(the pattern quantumsim's CUDA backend proves out: kernels swap in behind an
unchanged interface, with a buffer cache keyed by shape).

Three layers:

* :mod:`repro.xp.host` — a drop-in alias for ``numpy`` used by seam modules
  for *host-side* bookkeeping (RNG streams, index math, result buffers).
  Importing it instead of ``numpy`` keeps host math auditable and lets
  ``tools/check_xp_seam.py`` ban direct numpy imports wholesale.
* :class:`~repro.xp.namespace.ArrayNamespace` implementations — ``numpy``
  (reference, always available), ``fake_gpu`` (NumPy-backed but with a
  distinct array wrapper and mandatory explicit transfers, so host/device
  mixing bugs fail on CPU-only CI).  A real accelerator plugs in as a new
  implementation; ``"cuda"`` is reserved for one but none ships here.
* :func:`~repro.xp.registry.get_namespace` — device-string resolution
  (``"cpu" | "fake_gpu" | "cuda" | "auto"``) with a structured
  :class:`~repro.xp.registry.DeviceUnavailableError` instead of silent
  fallback, plus the seam-enforcement registry hot-path modules declare
  themselves in (:func:`~repro.xp.registry.declare_seam`).

Quickstart::

    from repro.xp import get_namespace

    xp = get_namespace("fake_gpu")
    a = xp.asarray([[1, 2], [3, 4]])        # explicit host -> device transfer
    b = xp.matmul(a, a)
    xp.to_host(b)                            # explicit device -> host transfer
"""

from repro.xp.namespace import ArrayNamespace, Workspace
from repro.xp.registry import (
    KNOWN_DEVICES,
    DeviceUnavailableError,
    available_devices,
    declare_seam,
    default_device,
    device_available,
    get_namespace,
    seam_modules,
)

__all__ = [
    "ArrayNamespace",
    "DeviceUnavailableError",
    "KNOWN_DEVICES",
    "Workspace",
    "available_devices",
    "declare_seam",
    "default_device",
    "device_available",
    "get_namespace",
    "seam_modules",
]
