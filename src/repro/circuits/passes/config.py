"""Pass-pipeline configuration: what the caller asks for, what a backend allows.

Two small frozen dataclasses steer the optimizing pipeline that
:meth:`repro.api.Session.compile` runs before backend plan construction:

* :class:`PassConfig` — the *caller's* toggles (one per pass).  Resolved from
  the ``passes=`` argument of the session layer, which accepts ``True`` /
  ``False``, a mapping of individual flags, or an existing config.
* :class:`PassProfile` — the *backend's* safety contract, returned by
  :meth:`repro.backends.SimulationBackend.pass_profile`.  Channel merging
  runs only when both the caller's config and the backend's profile allow
  it, which only the exact superoperator backends do, because it changes
  the noise count Algorithm 1's level semantics and the trajectory
  sampler's RNG stream are defined over.

:class:`PassStats` is the pipeline's report card — what
:meth:`repro.api.Executable.describe` surfaces under ``"passes"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping

from repro.utils.validation import ValidationError

__all__ = ["PassConfig", "PassProfile", "PassStats"]


@dataclass(frozen=True)
class PassConfig:
    """Caller-side toggles of the compile-time optimizing passes."""

    #: Fuse runs of adjacent gates with compatible qubit support into one
    #: superoperator tensor (and drop blocks that fuse to the identity).
    fuse_gates: bool = True
    #: Fold deterministic noise (unitary channels) into gate tensors and
    #: merge adjacent same-support channels in PTM representation.
    fold_noise: bool = True
    #: Delete gate/noise sites outside the causal cone of the measured
    #: boundary states (and of observables, for expectation values).
    prune_lightcone: bool = True

    _FLAGS = ("fuse_gates", "fold_noise", "prune_lightcone")

    @classmethod
    def resolve(cls, value: Any) -> "PassConfig":
        """Normalise a ``passes=`` argument into a :class:`PassConfig`.

        ``True`` enables every pass, ``False`` disables them all, a mapping
        sets individual flags (unknown keys are rejected), and an existing
        config passes through unchanged.

        >>> PassConfig.resolve(False).enabled()
        False
        >>> PassConfig.resolve({"prune_lightcone": False}).fuse_gates
        True
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, bool):
            return cls(fuse_gates=value, fold_noise=value, prune_lightcone=value)
        if isinstance(value, Mapping):
            unknown = sorted(set(value) - set(cls._FLAGS))
            if unknown:
                raise ValidationError(
                    f"unknown pass flag(s) {', '.join(map(repr, unknown))}; "
                    f"allowed: {', '.join(cls._FLAGS)}"
                )
            return cls(**{key: bool(value[key]) for key in value})
        raise ValidationError(
            "passes must be a bool, a mapping of pass flags, or a PassConfig "
            f"(got {type(value).__name__})"
        )

    def enabled(self) -> bool:
        """True when at least one pass is switched on."""
        return self.fuse_gates or self.fold_noise or self.prune_lightcone

    def to_dict(self) -> Dict[str, bool]:
        """Plain-dict form (stored in ``Executable.describe()['passes']``)."""
        return {flag: getattr(self, flag) for flag in self._FLAGS}


@dataclass(frozen=True)
class PassProfile:
    """Backend-side contract: which transformations preserve *its* semantics.

    Gate fusion, folding unitary channels into gates, and boundary/lightcone
    pruning are exact for every backend (all the library's figures of merit
    are insensitive to global phase), so they need no veto.
    ``merge_channels`` composes adjacent same-support Kraus channels into one
    channel; that is exact for the superoperator backends but changes the
    noise count ``N`` that Algorithm 1's level budget and the trajectory
    sampler's per-channel RNG stream are defined over, so it defaults to off
    and is opted into per adapter.
    """

    merge_channels: bool = False


@dataclass(frozen=True)
class PassStats:
    """What the pipeline did to one circuit (reported via ``describe()``)."""

    gates_fused: int = 0
    channels_folded: int = 0
    sites_pruned: int = 0
    gates_before: int = 0
    gates_after: int = 0
    noises_before: int = 0
    noises_after: int = 0

    def changed(self) -> bool:
        """True when any pass modified the circuit."""
        return bool(self.gates_fused or self.channels_folded or self.sites_pruned)

    def to_dict(self) -> Dict[str, int]:
        """Plain-dict form for reports and snapshot tests."""
        return {
            "gates_fused": self.gates_fused,
            "channels_folded": self.channels_folded,
            "sites_pruned": self.sites_pruned,
            "gates_before": self.gates_before,
            "gates_after": self.gates_after,
            "noises_before": self.noises_before,
            "noises_after": self.noises_after,
        }
