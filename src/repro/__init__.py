"""repro — reproduction of "Approximation Algorithm for Noisy Quantum Circuit Simulation".

The package is organised around the paper's structure:

* :mod:`repro.circuits` — gate library, circuit IR and benchmark generators
  (QAOA, Hartree-Fock VQE, random supremacy circuits).
* :mod:`repro.noise` — Kraus channels, the noise-rate metric and the
  realistic superconducting decoherence model.
* :mod:`repro.tensornetwork` — the from-scratch tensor-network engine and the
  doubled-diagram builders of Section III.
* :mod:`repro.simulators` — accurate baselines (statevector, density matrix,
  tensor network, decision diagram) and the MPS approximate baseline; the
  quantum-trajectories baseline runs in :mod:`repro.backends`' batched engine.
* :mod:`repro.core` — the paper's contribution: the SVD decomposition of
  noise tensors and the level-``l`` approximation algorithm (Algorithm 1)
  with its Theorem-1 guarantees.
* :mod:`repro.analysis` — error metrics, sample-count formulas and report
  formatting used by the benchmark harness.

* :mod:`repro.backends` — the unified backend registry dispatching every
  simulator behind one contract, plus the batched trajectory engine.
* :mod:`repro.api` — the session layer: :func:`~repro.api.simulate` and
  :class:`~repro.api.Session` (blocking ``run`` / async ``submit`` over one
  shared process pool, and ``compile()`` returning a cached
  :class:`~repro.api.Executable` for repeated hot-path execution), the
  single typed entry point every higher layer (CLI, sweeps, benchmarks)
  shares.
* :mod:`repro.verify` — the differential conformance harness: seeded random
  workload families, cross-backend metamorphic oracles, failure shrinking
  and replayable artifacts (``repro verify`` on the command line).

Quickstart::

    from repro import simulate
    from repro.circuits.library import qaoa_circuit

    result = simulate(
        qaoa_circuit(9),
        noise={"channel": "depolarizing", "parameter": 0.001,
               "count": 10, "seed": 1},
        backend="approximation", level=1,
    )
    print(result.value, result.error_bound, result.config_hash)
"""

from repro.api import Executable, Session, SimulationResult, simulate
from repro.backends import (
    BackendResult,
    SimulationTask,
    available_backends,
    get_backend,
)
from repro.circuits import Circuit, Gate
from repro.core import ApproximateNoisySimulator, ApproximationResult
from repro.noise import KrausChannel, NoiseModel, depolarizing_channel, noise_rate
from repro.simulators import (
    DensityMatrixSimulator,
    MPSSimulator,
    StatevectorSimulator,
    TDDSimulator,
    TNSimulator,
)
from repro.verify import run_conformance

__version__ = "1.1.0"

__all__ = [
    # circuit/noise IR
    "Circuit",
    "Gate",
    "KrausChannel",
    "NoiseModel",
    "depolarizing_channel",
    "noise_rate",
    # session layer (the front door)
    "Executable",
    "Session",
    "SimulationResult",
    "simulate",
    # conformance harness
    "run_conformance",
    # backend layer
    "BackendResult",
    "SimulationTask",
    "available_backends",
    "get_backend",
    # the paper's algorithm and the seed-era simulator classes
    "ApproximateNoisySimulator",
    "ApproximationResult",
    "StatevectorSimulator",
    "DensityMatrixSimulator",
    "TNSimulator",
    "TDDSimulator",
    "MPSSimulator",
    "__version__",
]
