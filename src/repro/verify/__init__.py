"""Differential conformance subsystem: randomized workloads + metamorphic oracles.

``repro.verify`` turns the registry's "the backends agree on a handful of
hand-picked circuits" into a property: seeded random workloads drawn from
parametrised families run through every capable backend and are checked
against metamorphic oracles —

* cross-backend agreement within each backend's accuracy contract (exact
  tolerance, Theorem-1 error bound, or a ``z``-sigma stochastic interval);
* transpile invariance (gate fusion and native decomposition preserve the
  fidelity);
* noise-count monotonicity of the TVD from the noiseless value under stacked
  depolarizing noise;
* seed determinism of the stochastic backends across worker counts;
* Pauli-observable agreement between the dense and tensor-network engines;
* bind equivalence: ``compile(c).bind(p)`` is bit-identical to compiling the
  substituted circuit in an independent session with no plan cache;
* gradient agreement: the ``tn`` environment-sweep gradient equals parameter
  shift on the density-matrix reference within 1e-10.

Any failing case is shrunk to a minimal reproducing circuit
(:mod:`repro.verify.shrink`) and written out as a replayable JSON artifact
(:mod:`repro.verify.corpus`).  The CLI front door is ``repro verify``; the
workload families are also plain benchmark names (``brickwork_5``, …), so a
conformance grid is just another sweep spec
(:func:`repro.verify.conformance_spec`).
"""

from repro.verify.corpus import (
    circuit_from_dict,
    circuit_to_dict,
    load_artifact,
    replay_artifact,
    save_artifact,
)
from repro.verify.generators import (
    FAMILIES,
    Workload,
    generate_workloads,
    random_noise_config,
    random_pauli_observable,
)
from repro.verify.oracles import (
    DEFAULT_ORACLES,
    BindEquivalence,
    CrossBackendAgreement,
    GradientAgreement,
    NoiseMonotonicity,
    ObservableAgreement,
    Oracle,
    SeedDeterminism,
    TranspileInvariance,
    Violation,
    parametrize_circuit,
)
from repro.verify.runner import (
    ConformanceReport,
    ConformanceRunner,
    conformance_spec,
    run_conformance,
)
from repro.verify.shrink import compact_qubits, shrink_circuit

__all__ = [
    "FAMILIES",
    "Workload",
    "generate_workloads",
    "random_noise_config",
    "random_pauli_observable",
    "Oracle",
    "Violation",
    "CrossBackendAgreement",
    "GradientAgreement",
    "TranspileInvariance",
    "NoiseMonotonicity",
    "SeedDeterminism",
    "ObservableAgreement",
    "BindEquivalence",
    "parametrize_circuit",
    "DEFAULT_ORACLES",
    "shrink_circuit",
    "compact_qubits",
    "circuit_to_dict",
    "circuit_from_dict",
    "save_artifact",
    "load_artifact",
    "replay_artifact",
    "ConformanceRunner",
    "ConformanceReport",
    "run_conformance",
    "conformance_spec",
]
