"""Snapshot of the exported public API surface.

Guards the contract the README and docs promise: the top-level package, the
session layer and the backend layer export exactly these names.  A failure
here means the public surface changed — if that is intentional, update the
snapshot *and* the docs in the same commit.
"""

import repro
import repro.api
import repro.backends

TOP_LEVEL = {
    # circuit/noise IR
    "Circuit",
    "Gate",
    "KrausChannel",
    "NoiseModel",
    "depolarizing_channel",
    "noise_rate",
    # session layer
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
}

API = {
    "BoundExecutable",
    "Executable",
    "NOISE_CHANNELS",
    "PARAMETER_SHIFT_GATES",
    "PassConfig",
    "PassStats",
    "Session",
    "SimulationResult",
    "apply_noise",
    "ideal_output_state",
    "noise_model",
    "plan_cache_key",
    "simulate",
    "task_config_hash",
}

BACKENDS = {
    "BackendCapabilities",
    "BackendResult",
    "BackendUnsupportedError",
    "BatchedTrajectoryEngine",
    "SimulationBackend",
    "SimulationTask",
    "WorkerPoolError",
    "apply_matrix_batched",
    "available_backends",
    "backend_aliases",
    "backend_names",
    "capability_table",
    "get_backend",
    "register_backend",
    "resolve_backends",
}


def test_top_level_surface():
    assert set(repro.__all__) == TOP_LEVEL
    for name in TOP_LEVEL:
        assert hasattr(repro, name), f"repro.__all__ promises missing name {name!r}"


def test_api_surface():
    assert set(repro.api.__all__) == API
    for name in API:
        assert hasattr(repro.api, name)


def test_backends_surface():
    assert set(repro.backends.__all__) == BACKENDS
    for name in BACKENDS:
        assert hasattr(repro.backends, name)


def test_session_layer_reexported_at_top_level():
    # `from repro import simulate` and `from repro.api import simulate` are
    # the same object — no parallel implementations.
    assert repro.simulate is repro.api.simulate
    assert repro.Session is repro.api.Session
    assert repro.Executable is repro.api.Executable
    assert repro.get_backend is repro.backends.get_backend
