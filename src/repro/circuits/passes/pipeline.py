"""The optimizing pass pipeline run by :meth:`repro.api.Session.compile`.

Order of the passes:

1. **noise folding** first — rewriting unitary channels as gates creates new
   fusion opportunities;
2. **gate fusion** — collapses gate runs (including freshly folded noise)
   into single superoperator tensors and drops identity blocks;
3. **boundary pruning** last — fusion can collapse a prefix into a single
   gate that fixes the input product state, which only then becomes
   removable.

Each pass runs when the caller's :class:`PassConfig` enables it.  Channel
merging additionally needs the backend's :class:`PassProfile`: it is the one
transformation that changes some backends' semantics (see
:mod:`repro.circuits.passes.config`).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.circuits.circuit import Circuit
from repro.circuits.passes.config import PassConfig, PassProfile, PassStats
from repro.circuits.passes.folding import fold_unitary_channels, merge_adjacent_channels
from repro.circuits.passes.fusion import fuse_gates
from repro.circuits.passes.pruning import prune_boundaries

__all__ = ["run_passes"]


def run_passes(
    circuit: Circuit,
    config: Optional[PassConfig] = None,
    profile: Optional[PassProfile] = None,
    input_state=None,
    output_state=None,
) -> Tuple[Circuit, PassStats]:
    """Optimize ``circuit`` and report what changed.

    Returns ``(optimized_circuit, stats)``; the input circuit is never
    mutated, and when every pass is disabled (or nothing applies) the
    original circuit object is returned unchanged so downstream fingerprint
    caches are unaffected.
    """
    config = PassConfig() if config is None else config
    profile = PassProfile() if profile is None else profile

    gates_before = circuit.gate_count()
    noises_before = circuit.noise_count()
    current = circuit
    channels_folded = 0
    gates_fused = 0
    sites_pruned = 0

    if config.fold_noise:
        current, folded = fold_unitary_channels(current)
        channels_folded += folded
    if config.fold_noise and profile.merge_channels:
        current, merged = merge_adjacent_channels(current)
        channels_folded += merged
    if config.fuse_gates:
        current, gates_fused = fuse_gates(current)
    if config.prune_lightcone:
        current, sites_pruned = prune_boundaries(
            current, input_state=input_state, output_state=output_state
        )

    stats = PassStats(
        gates_fused=gates_fused,
        channels_folded=channels_folded,
        sites_pruned=sites_pruned,
        gates_before=gates_before,
        gates_after=current.gate_count(),
        noises_before=noises_before,
        noises_after=current.noise_count(),
    )
    if not stats.changed():
        return circuit, stats
    return current, stats
