"""Noise resolution for the session layer.

:func:`apply_noise` turns the ``noise=...`` argument of
:func:`repro.api.simulate` / :meth:`repro.api.Session.run` into a concrete
noisy circuit using the paper's fault model (a channel appended after
randomly chosen gates).  It accepts

* ``None`` — the circuit is simulated as-is;
* a mapping ``{"channel": ..., "parameter": ..., "count": ..., "seed": ...}``
  naming one of the registered single-parameter channels or the
  calibration-style ``"superconducting"`` model.

Callers holding a custom :class:`~repro.noise.NoiseModel` inject it
themselves (``model.insert_random(circuit, count)``) and pass the resulting
noisy circuit directly.

The CLI's ``--channel/--parameter/--noises`` flags and the sweep subsystem's
noise axis both resolve through this module, so every layer injects noise
identically for identical seeds.
"""

from __future__ import annotations

import math
import numbers
from typing import Any, Mapping, NamedTuple

from repro.circuits.circuit import Circuit
from repro.noise import CHANNEL_FACTORIES, NoiseModel, SYCAMORE_LIKE_SPEC
from repro.utils.validation import ValidationError

__all__ = [
    "NOISE_CHANNELS", "NoiseSpec", "apply_noise", "canonical_noise", "noise_model", "validated_noise",
]

#: Channel names ``noise`` mappings may use: every single-parameter factory in
#: :data:`repro.noise.CHANNEL_FACTORIES` plus the superconducting model.
NOISE_CHANNELS = (*sorted(CHANNEL_FACTORIES), "superconducting")

_NOISE_KEYS = ("channel", "parameter", "count", "seed")


def noise_model(channel: str, parameter: float = 0.001, seed: int | None = None) -> NoiseModel:
    """Build the :class:`~repro.noise.NoiseModel` a channel name resolves to.

    >>> from repro.api.noise import noise_model
    >>> type(noise_model("depolarizing", 0.01, seed=3)).__name__
    'NoiseModel'
    """
    if channel == "superconducting":
        return NoiseModel(
            lambda arity, rng: SYCAMORE_LIKE_SPEC.gate_noise(arity, rng), seed=seed
        )
    if channel not in CHANNEL_FACTORIES:
        raise ValidationError(
            f"unknown noise channel {channel!r}; known: {', '.join(NOISE_CHANNELS)}"
        )
    return NoiseModel(CHANNEL_FACTORIES[channel](parameter), seed=seed)


class NoiseSpec(NamedTuple):
    """A validated noise mapping: what :func:`apply_noise` will inject."""

    channel: str
    parameter: float
    count: int
    #: The injection seed: the mapping's own ``"seed"``, else the caller's
    #: fallback (``None`` when neither is set).
    seed: int | None


def canonical_noise(noise: Any, seed: int | None = None) -> NoiseSpec | None:
    """Validate a ``noise=`` argument; ``None`` when it injects nothing.

    The one place a noise mapping is checked and defaulted: every malformed
    value raises :class:`~repro.utils.validation.ValidationError` (a count
    or seed that is not a whole number, a parameter that is not a finite
    real, an unknown channel or key), never a bare ``ValueError`` or a
    silent truncation.  ``seed`` is the fallback injection seed used when
    the mapping carries no ``"seed"`` of its own.

    >>> from repro.api.noise import canonical_noise
    >>> canonical_noise({"count": 2, "seed": 4})
    NoiseSpec(channel='depolarizing', parameter=0.001, count=2, seed=4)
    >>> canonical_noise({"count": 2}, seed=9).seed
    9
    >>> canonical_noise({"count": 0}) is None
    True
    """
    if noise is None:
        return None
    spec = validated_noise(noise, seed)
    return spec if spec.count else None


def validated_noise(noise: Any, seed: int | None = None) -> NoiseSpec:
    """The checks and defaults of :func:`canonical_noise`, keeping a zero count.

    >>> from repro.api.noise import validated_noise
    >>> validated_noise({"count": 0, "parameter": 0.02})
    NoiseSpec(channel='depolarizing', parameter=0.02, count=0, seed=None)
    """
    if isinstance(noise, NoiseModel):
        raise ValidationError(
            "a bare NoiseModel does not say how many noises to inject; call "
            "model.insert_random(circuit, count) and pass the noisy circuit, "
            "or pass a mapping with 'channel' and 'count'"
        )
    noise = _require_mapping(noise)
    unknown = sorted(set(noise) - set(_NOISE_KEYS))
    if unknown:
        raise ValidationError(
            f"unknown noise key(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(_NOISE_KEYS)}"
        )
    channel = noise.get("channel", "depolarizing")
    if not isinstance(channel, str) or channel not in NOISE_CHANNELS:
        raise ValidationError(
            f"unknown noise channel {channel!r}; known: {', '.join(NOISE_CHANNELS)}"
        )
    if "count" not in noise:
        # Defaulting to 0 would silently simulate the noiseless circuit.
        raise ValidationError("a noise mapping needs an explicit 'count'")
    count = _whole(noise["count"], "count")
    parameter = noise.get("parameter", 0.001)
    if (
        isinstance(parameter, bool)
        or not isinstance(parameter, numbers.Real)
        or not math.isfinite(parameter)
    ):
        raise ValidationError(f"noise 'parameter' must be a finite number, got {parameter!r}")
    # An explicit "seed": None means "unseeded" was *not* decided — fall back,
    # exactly as if the key were absent, so the session's resolved seed wins.
    injection_seed = noise.get("seed")
    injection_seed = seed if injection_seed is None else _whole(injection_seed, "seed")
    return NoiseSpec(channel, float(parameter), count, injection_seed)


def apply_noise(circuit: Circuit, noise: Any, seed: int | None = None) -> Circuit:
    """Return the noisy circuit ``noise`` describes (or ``circuit`` unchanged).

    ``seed`` is the fallback injection seed used when the noise mapping does
    not carry its own ``seed`` entry; the input circuit is never mutated.
    Malformed mappings raise as :func:`canonical_noise` documents.
    """
    spec = canonical_noise(noise, seed)
    if spec is None:
        return circuit
    model = noise_model(spec.channel, spec.parameter, seed=spec.seed)
    return model.insert_random(circuit, spec.count)


def _whole(value: Any, key: str) -> int:
    """A non-negative whole number from a noise mapping entry."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValidationError(f"noise {key!r} must be a non-negative integer, got {value!r}")
    return int(value)


def _require_mapping(value: Any) -> Mapping:
    if not isinstance(value, Mapping):
        raise ValidationError(
            f"noise must be None or a mapping with keys {', '.join(_NOISE_KEYS)}, "
            f"got {type(value).__name__}"
        )
    return value
