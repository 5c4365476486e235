"""Integration tests: all simulators must agree on the same noisy circuits.

This is the strongest internal consistency check in the repository: the
MM-based, TN-based, TDD-based and trajectory simulators plus the paper's
approximation algorithm are independent implementations sharing only the
circuit/noise IR, so agreement across them on random circuits validates each
of them.

The set of methods under test is resolved through the backend registry
(:mod:`repro.backends`) rather than a hand-wired list, so newly registered
backends are automatically covered.
"""

import numpy as np
import pytest

from repro.backends import (
    BatchedTrajectoryEngine,
    SimulationTask,
    available_backends,
    get_backend,
)
from repro.circuits.library import benchmark_circuit, random_circuit
from repro.core import ApproximateNoisySimulator
from repro.noise import NoiseModel, SYCAMORE_LIKE_SPEC, depolarizing_channel
from repro.simulators import DensityMatrixSimulator
from repro.utils import zero_state


def _make_noisy(name, noises, seed, p=0.01):
    ideal = benchmark_circuit(name, seed=seed)
    return NoiseModel(depolarizing_channel(p), seed=seed).insert_random(ideal, noises)


CASES = [
    ("qaoa_4", 3, 0),
    ("hf_4", 4, 1),
    ("inst_2x2_6", 3, 2),
    ("ghz_4", 2, 3),
    ("qft_3", 3, 4),
]

#: Exact noisy backends from the registry (reference: density_matrix).
EXACT_NOISY_BACKENDS = [
    name
    for name in available_backends(_make_noisy(*CASES[0]))
    if get_backend(name).capabilities.exact
]

#: Per-backend agreement tolerance against the density-matrix reference.
TOLERANCES = {"tn": 1e-9, "tdd": 1e-7}


class TestAccurateMethodsAgree:
    def test_registry_resolves_exact_methods(self):
        # The three accurate baselines of the paper's Table II must all be
        # applicable to the reference case.
        assert {"density_matrix", "tn", "tdd"} <= set(EXACT_NOISY_BACKENDS)

    @pytest.mark.parametrize("backend_name", sorted(set(EXACT_NOISY_BACKENDS) - {"density_matrix"}))
    @pytest.mark.parametrize("name,noises,seed", CASES)
    def test_exact_backends_agree_with_dm(self, name, noises, seed, backend_name):
        noisy = _make_noisy(name, noises, seed)
        f_dm = get_backend("density_matrix").run(noisy).value
        value = get_backend(backend_name).run(noisy).value
        assert value == pytest.approx(f_dm, abs=TOLERANCES.get(backend_name, 1e-7))

    @pytest.mark.parametrize("name,noises,seed", CASES)
    def test_approximation_at_full_level_is_exact(self, name, noises, seed):
        noisy = _make_noisy(name, noises, seed)
        f_dm = get_backend("density_matrix").run(noisy).value
        result = get_backend("approximation").run(
            noisy, SimulationTask(level=noisy.noise_count())
        )
        assert result.value == pytest.approx(f_dm, abs=1e-9)

    @pytest.mark.parametrize("name,noises,seed", CASES)
    def test_level1_within_bound(self, name, noises, seed):
        noisy = _make_noisy(name, noises, seed)
        f_dm = get_backend("density_matrix").run(noisy).value
        result = get_backend("approximation").run(noisy, SimulationTask(level=1))
        assert abs(result.value - f_dm) <= result.metadata["error_bound"] + 1e-9


class TestApproximateMethodsAgree:
    def test_trajectories_converge_to_exact(self):
        noisy = _make_noisy("qaoa_4", 4, 7, p=0.05)
        exact = get_backend("density_matrix").run(noisy).value
        result = BatchedTrajectoryEngine("statevector").estimate_fidelity(noisy, 3000, rng=7)
        assert result.estimate == pytest.approx(exact, abs=6 * result.standard_error + 1e-3)

    def test_stochastic_backends_within_confidence(self):
        noisy = _make_noisy("qaoa_4", 4, 7, p=0.05)
        exact = get_backend("density_matrix").run(noisy).value
        for name in available_backends(noisy):
            backend = get_backend(name)
            if not backend.capabilities.stochastic:
                continue
            result = backend.run(noisy, SimulationTask(num_samples=3000, seed=7))
            assert result.value == pytest.approx(
                exact, abs=6 * result.standard_error + 2e-3
            ), name

    def test_approximation_beats_level0_on_realistic_noise(self):
        ideal = benchmark_circuit("qaoa_4", seed=11)
        model = NoiseModel(lambda arity, rng: SYCAMORE_LIKE_SPEC.gate_noise(arity, rng), seed=11)
        noisy = model.insert_random(ideal, 6)
        exact = DensityMatrixSimulator().fidelity(noisy, zero_state(4))
        err0 = abs(ApproximateNoisySimulator(level=0).fidelity(noisy).value - exact)
        err1 = abs(ApproximateNoisySimulator(level=1).fidelity(noisy).value - exact)
        assert err1 <= err0 + 1e-12

    def test_random_circuit_all_methods(self):
        ideal = random_circuit(4, 20, rng=13)
        noisy = NoiseModel(depolarizing_channel(0.02), seed=13).insert_random(ideal, 5)
        f_dm = get_backend("density_matrix").run(noisy).value
        f_tn = get_backend("tn").run(noisy).value
        f_tdd = get_backend("tdd").run(noisy).value
        approx = get_backend("approximation").run(noisy, SimulationTask(level=2)).value
        traj = get_backend("trajectories").run(
            noisy, SimulationTask(num_samples=2000, seed=13)
        ).value
        assert f_tn == pytest.approx(f_dm, abs=1e-9)
        assert f_tdd == pytest.approx(f_dm, abs=1e-7)
        assert approx == pytest.approx(f_dm, abs=5e-4)
        assert traj == pytest.approx(f_dm, abs=0.02)
