"""Simulation backends.

Accurate methods (the paper's Table II baselines):

* :class:`StatevectorSimulator` — dense noiseless simulation.
* :class:`DensityMatrixSimulator` — MM-based noisy simulation.
* :class:`TNSimulator` — tensor-network noisy simulation (Section III diagram).
* :class:`TDDSimulator` — decision-diagram noisy simulation.

Approximate methods:

* :class:`MPSSimulator` — matrix-product-state simulation with bond truncation.

The paper's own approximation algorithm lives in :mod:`repro.core`; the
quantum-trajectories baseline (MM and TN) runs in
:class:`repro.backends.BatchedTrajectoryEngine`, whose
:class:`TrajectoryResult` is re-exported here.

All of these simulators are also exposed through the unified backend registry
in :mod:`repro.backends`: ``get_backend(name).run(circuit, task)`` gives every
method the same fidelity API with capability metadata, and the stochastic
trajectory paths are executed by the batched parallel engine
(:class:`repro.backends.BatchedTrajectoryEngine`).  New code should prefer the
registry over importing simulator classes directly.
"""

from repro.simulators.density_matrix import (
    DensityMatrixSimulator,
    apply_channel_to_density,
    apply_matrix_to_density,
)
from repro.simulators.mpdo import MatrixProductDensityOperator, MPDOSimulator
from repro.simulators.mps import MatrixProductState, MPSSimulator
from repro.simulators.statevector import StatevectorSimulator, apply_matrix
from repro.simulators.tdd import TDDSimulator
from repro.simulators.tn_simulator import TNSimulator
from repro.simulators.trajectories import TrajectoryResult

__all__ = [
    "StatevectorSimulator",
    "apply_matrix",
    "DensityMatrixSimulator",
    "apply_matrix_to_density",
    "apply_channel_to_density",
    "TNSimulator",
    "TDDSimulator",
    "TrajectoryResult",
    "MPSSimulator",
    "MatrixProductState",
    "MPDOSimulator",
    "MatrixProductDensityOperator",
]
