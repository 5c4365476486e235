"""Backend registry: registration decorator and name-based resolution.

Backends self-register at import time::

    @register_backend("tn", noisy=True, exact=True)
    class TNBackend(SimulationBackend):
        ...

Call sites resolve them by name or capability::

    get_backend("tn").run(circuit)
    for name in available_backends(circuit):
        ...

``resolve_backends("all", circuit)`` expands the CLI's ``--backends`` flag.
"""

from __future__ import annotations

import inspect
from typing import Any, Dict, Iterable, List, Mapping, Type

from repro.backends.base import BackendCapabilities, SimulationBackend
from repro.circuits.circuit import Circuit
from repro.utils.validation import ValidationError

__all__ = [
    "register_backend",
    "get_backend",
    "adapter_options",
    "check_adapter_options",
    "backend_aliases",
    "backend_names",
    "available_backends",
    "resolve_backends",
    "capability_table",
]

_REGISTRY: Dict[str, Type[SimulationBackend]] = {}
_ALIASES: Dict[str, str] = {}


def register_backend(
    name: str,
    *,
    noisy: bool,
    exact: bool,
    stochastic: bool = False,
    max_qubits: int | None = None,
    needs_product_state: bool = False,
    aliases: Iterable[str] = (),
):
    """Class decorator registering a :class:`SimulationBackend` under ``name``."""

    def decorator(cls: Type[SimulationBackend]) -> Type[SimulationBackend]:
        if not (isinstance(cls, type) and issubclass(cls, SimulationBackend)):
            raise ValidationError(f"{cls!r} is not a SimulationBackend subclass")
        if name in _REGISTRY or name in _ALIASES:
            raise ValidationError(f"backend {name!r} is already registered")
        cls.name = name
        cls.capabilities = BackendCapabilities(
            noisy=noisy,
            exact=exact,
            stochastic=stochastic,
            max_qubits=max_qubits,
            needs_product_state=needs_product_state,
        )
        _REGISTRY[name] = cls
        for alias in aliases:
            if alias in _REGISTRY or alias in _ALIASES:
                raise ValidationError(f"backend alias {alias!r} is already taken")
            _ALIASES[alias] = name
        return cls

    return decorator


def _canonical(name: str) -> str:
    name = name.strip()
    return _ALIASES.get(name, name)


def _lookup(name: str) -> Type[SimulationBackend]:
    key = _canonical(name)
    if key not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ValidationError(f"unknown backend {name!r}; registered backends: {known}")
    return _REGISTRY[key]


def adapter_options(name: str) -> Dict[str, Any]:
    """The constructor options of backend ``name``, mapped to their defaults.

    Constructor options are the only way to configure an adapter; they are
    read from the adapter's ``__init__`` signature, so they cannot drift from
    the code.

    >>> from repro.backends.registry import adapter_options
    >>> adapter_options("dm")
    {'max_qubits': None}
    >>> adapter_options("statevector")
    {}
    """
    parameters = inspect.signature(_lookup(name)).parameters
    return {option: parameter.default for option, parameter in parameters.items()}


def check_adapter_options(name: str, options: Mapping[str, Any]) -> None:
    """Raise :class:`ValidationError` when ``options`` names an unknown adapter option.

    >>> from repro.backends.registry import check_adapter_options
    >>> check_adapter_options("tn", {"max_intermediate": 5})
    Traceback (most recent call last):
    ...
    repro.utils.validation.ValidationError: unknown tn option(s) 'max_intermediate'; \
the tn backend accepts: max_intermediate_size
    """
    accepted = adapter_options(name)
    unknown = sorted(set(options) - set(accepted))
    if unknown:
        canonical = _canonical(name)
        raise ValidationError(
            f"unknown {canonical} option(s) {', '.join(map(repr, unknown))}; "
            f"the {canonical} backend accepts: {', '.join(accepted) or 'no options'}"
        )


def get_backend(name: str, **options) -> SimulationBackend:
    """Instantiate the backend registered under ``name`` (aliases allowed).

    ``options`` are forwarded to the adapter constructor (e.g. ``max_qubits``
    for the density-matrix backend, ``max_nodes`` for TDD); a name the
    constructor does not accept raises :class:`ValidationError` (see
    :func:`adapter_options`).

    >>> from repro.backends import get_backend
    >>> get_backend("mm").name                # aliases resolve to canonical names
    'density_matrix'
    >>> get_backend("tdd", max_nodes=1000).max_nodes
    1000
    """
    backend_class = _lookup(name)
    if options:
        check_adapter_options(name, options)
    return backend_class(**options)


def backend_names() -> List[str]:
    """All registered backend names, sorted."""
    return sorted(_REGISTRY)


def backend_aliases() -> Dict[str, List[str]]:
    """Mapping of canonical backend name to its sorted aliases.

    >>> from repro.backends import backend_aliases
    >>> backend_aliases()["density_matrix"]
    ['dm', 'mm']
    """
    aliases: Dict[str, List[str]] = {name: [] for name in _REGISTRY}
    for alias, name in _ALIASES.items():
        aliases[name].append(alias)
    return {name: sorted(values) for name, values in aliases.items()}


def available_backends(circuit: Circuit) -> List[str]:
    """Names of every registered backend (at default configuration) able to simulate ``circuit``.

    >>> from repro.backends import available_backends
    >>> from repro.circuits.library import ghz_circuit
    >>> names = available_backends(ghz_circuit(3))     # noiseless, 3 qubits
    >>> "statevector" in names and "tn" in names
    True
    """
    names = []
    for name in backend_names():
        if get_backend(name).supports(circuit) is None:
            names.append(name)
    return names


def resolve_backends(spec: str | Iterable[str], circuit: Circuit | None = None) -> List[str]:
    """Expand a backend specification into a list of registered names.

    ``spec`` is ``"all"`` (every backend, filtered by ``circuit`` capability
    when a circuit is given), a comma-separated string, or an iterable of
    names.  Unknown names raise :class:`ValidationError`.

    >>> from repro.backends import resolve_backends
    >>> resolve_backends("mm, ours")
    ['density_matrix', 'approximation']
    """
    if isinstance(spec, str):
        if spec.strip().lower() == "all":
            return available_backends(circuit) if circuit is not None else backend_names()
        parts = [part for part in spec.split(",") if part.strip()]
    else:
        parts = list(spec)
    resolved = []
    for part in parts:
        key = _lookup(part).name
        if key not in resolved:
            resolved.append(key)
    return resolved


def capability_table() -> List[List[object]]:
    """Rows ``[name, noisy, exact, stochastic, max_qubits, product_only]``."""
    rows = []
    for name in backend_names():
        caps = _REGISTRY[name].capabilities
        rows.append(
            [
                name,
                "yes" if caps.noisy else "no",
                "yes" if caps.exact else "no",
                "yes" if caps.stochastic else "no",
                caps.max_qubits if caps.max_qubits is not None else "-",
                "yes" if caps.needs_product_state else "no",
            ]
        )
    return rows
