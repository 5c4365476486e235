"""Device-string resolution, namespace discovery and the seam registry.

>>> from repro.xp import get_namespace
>>> get_namespace("cpu").name
'numpy'
>>> get_namespace("fake_gpu").device
'fake_gpu'

``get_namespace`` maps a device string to a cached
:class:`~repro.xp.namespace.ArrayNamespace` instance:

``"cpu"``
    The numpy reference namespace (always available).
``"fake_gpu"``
    NumPy-backed with a distinct array type and mandatory explicit
    transfers (always available; the CI vehicle for transfer discipline).
``"cuda"``
    Reserved for a real accelerator namespace.  None ships with this
    package, so it always raises a structured :class:`DeviceUnavailableError`
    — never a silent cpu fallback.  A new device implements
    :class:`~repro.xp.ArrayNamespace` and registers here.
``"auto"``
    The best available device: ``"cpu"`` today.
``None``
    The session default: the ``REPRO_DEVICE`` environment variable when set
    (how CI forces ``fake_gpu`` onto the device-capable backends), else
    ``"cpu"``.

Hot-path modules additionally *declare* themselves here
(:func:`declare_seam`), recording which namespace regime they run on:
``"host"`` modules route all math through :mod:`repro.xp.host`;
``"dispatch"`` modules accept a namespace and run device math through it.
``tools/check_xp_seam.py`` cross-checks the declarations against the import
graph so the seam cannot silently erode.
"""

from __future__ import annotations

import os
from typing import Dict

import numpy as _np

from repro.utils.validation import ValidationError
from repro.xp.namespace import ArrayNamespace

__all__ = [
    "KNOWN_DEVICES",
    "DeviceUnavailableError",
    "available_devices",
    "declare_seam",
    "default_device",
    "device_available",
    "get_namespace",
    "seam_modules",
]

#: Accepted ``device=`` strings (``auto`` resolves to ``cpu``).
KNOWN_DEVICES = ("cpu", "fake_gpu", "cuda", "auto")

#: Environment variable naming the session-default device (soft: applied only
#: to backends whose capabilities declare ``supports_device``).
DEVICE_ENV = "REPRO_DEVICE"


class DeviceUnavailableError(ValidationError):
    """A requested device exists in the registry but cannot run here.

    Raised by :func:`get_namespace` (and therefore by
    ``Session.compile(device=...)``) instead of silently falling back to the
    cpu namespace; ``device`` and ``reason`` are structured so serving-layer
    error responses can surface them.
    """

    def __init__(self, device: str, reason: str):
        self.device = device
        self.reason = reason
        super().__init__(f"device {device!r} is unavailable: {reason}")


_NAMESPACES: Dict[tuple, ArrayNamespace] = {}


def default_device() -> str:
    """The session-default device: ``$REPRO_DEVICE`` when set, else ``cpu``."""
    device = os.environ.get(DEVICE_ENV, "cpu").strip() or "cpu"
    if device not in KNOWN_DEVICES:
        raise ValidationError(
            f"{DEVICE_ENV}={device!r} is not a known device; "
            f"known: {', '.join(KNOWN_DEVICES)}"
        )
    return device


def available_devices() -> tuple:
    """The concrete devices usable here (``auto`` excluded; it is an alias)."""
    return ("cpu", "fake_gpu")


def device_available(device: str) -> bool:
    """Whether ``get_namespace(device)`` would succeed on this machine."""
    return device == "auto" or device in available_devices()


def get_namespace(device: str | None = None, dtype=None) -> ArrayNamespace:
    """The cached :class:`ArrayNamespace` for ``device`` at working ``dtype``.

    Raises :class:`~repro.utils.validation.ValidationError` for unknown device
    strings and :class:`DeviceUnavailableError` when the device is known but
    cannot run here (``"cuda"``, which has no namespace in this package).
    """
    if device is None:
        device = default_device()
    device = str(device)
    if device not in KNOWN_DEVICES:
        raise ValidationError(
            f"unknown device {device!r}; known: {', '.join(KNOWN_DEVICES)}"
        )
    if device == "auto":
        device = "cpu"
    dtype_key = _np.dtype(dtype or "complex128").str
    key = (device, dtype_key)
    cached = _NAMESPACES.get(key)
    if cached is not None:
        return cached
    namespace = _build_namespace(device, dtype_key)
    _NAMESPACES[key] = namespace
    return namespace


def _build_namespace(device: str, dtype: str) -> ArrayNamespace:
    if device == "cpu":
        from repro.xp.numpy_ns import NumpyNamespace

        return NumpyNamespace(dtype=dtype)
    if device == "fake_gpu":
        from repro.xp.fake_gpu import FakeGpuNamespace

        return FakeGpuNamespace(dtype=dtype)
    # device == "cuda"
    raise DeviceUnavailableError(
        "cuda",
        "no CUDA namespace ships with this package; implement "
        "repro.xp.ArrayNamespace and register it in repro.xp.registry",
    )


# ---------------------------------------------------------------------------
# Seam-enforcement registry
# ---------------------------------------------------------------------------

_SEAM_MODULES: Dict[str, str] = {}


def declare_seam(module: str, mode: str = "host") -> None:
    """Record that ``module`` routes its dense math through the xp seam.

    ``mode="host"`` — all math goes through the :mod:`repro.xp.host` alias
    (cpu-only today, auditable and lint-enforced).  ``mode="dispatch"`` — the
    module's hot paths additionally accept an :class:`ArrayNamespace` and run
    device math through it.  Called at import time by every module under the
    seam directories; ``tools/check_xp_seam.py`` fails CI when a seam module
    forgets to declare itself or imports numpy directly.
    """
    if mode not in ("host", "dispatch"):
        raise ValidationError(f"unknown seam mode {mode!r}; use 'host' or 'dispatch'")
    _SEAM_MODULES[str(module)] = mode


def seam_modules() -> Dict[str, str]:
    """A copy of the declared seam registry (module name -> mode)."""
    return dict(_SEAM_MODULES)
