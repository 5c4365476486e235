"""Figure 6 — approximation error vs noise rate.

Paper setup: the level-1 approximation error rises with the noise rate, shown
for the realistic superconducting fault model (left panel) and the
depolarizing model (right panel).

Reproduction scale: qaoa_4 with 4 noises; the realistic model's rate is swept
by scaling the device T1/T2 (noisier hardware), the depolarizing model by
sweeping p.  The exact reference is the density-matrix simulator.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import run_once, write_report
from repro.analysis import format_series
from repro.circuits.library import qaoa_circuit
from repro.core import ApproximateNoisySimulator
from repro.noise import NoiseModel, SYCAMORE_LIKE_SPEC, depolarizing_channel, noise_rate
from repro.simulators import DensityMatrixSimulator
from repro.utils import zero_state

NUM_NOISES = 4
DEPOLARIZING_PS = [0.001, 0.0025, 0.005, 0.0075, 0.01]
REALISTIC_SCALES = [1.0, 10.0, 25.0, 50.0, 100.0]

_series: dict = {"depolarizing": [], "realistic": []}


def _level1_error(channel, seed=41):
    ideal = qaoa_circuit(4, seed=13, native_gates=False)
    noisy = NoiseModel(channel, seed=seed).insert_random(ideal, NUM_NOISES)
    exact = DensityMatrixSimulator().fidelity(noisy, zero_state(4))
    approx = ApproximateNoisySimulator(level=1).fidelity(noisy)
    rates = [noise_rate(inst.operation) for inst in noisy.noise_instructions]
    return float(np.mean(rates)), abs(approx.value - exact)


@pytest.mark.parametrize("p", DEPOLARIZING_PS)
def test_fig6_depolarizing(benchmark, p):
    rate, error = run_once(benchmark, _level1_error, depolarizing_channel(p))
    _series["depolarizing"].append((rate, error))


@pytest.mark.parametrize("scale", REALISTIC_SCALES)
def test_fig6_realistic(benchmark, scale):
    spec = SYCAMORE_LIKE_SPEC.scaled(scale)
    channel_factory = lambda arity, rng: spec.gate_noise(arity, rng)  # noqa: E731
    rate, error = run_once(benchmark, _level1_error, channel_factory)
    _series["realistic"].append((rate, error))


def test_fig6_report(benchmark):
    if not _series["depolarizing"] or not _series["realistic"]:
        pytest.skip("run with --benchmark-only to populate the series")
    dep = sorted(_series["depolarizing"])
    real = sorted(_series["realistic"])
    text = "\n\n".join(
        [
            format_series(
                "Noise rate",
                [f"{rate:.2e}" for rate, _ in real],
                {"Error": [error for _, error in real]},
                title="Figure 6 (reproduction), left panel: realistic superconducting fault model",
            ),
            format_series(
                "Noise rate",
                [f"{rate:.2e}" for rate, _ in dep],
                {"Error": [error for _, error in dep]},
                title="Figure 6 (reproduction), right panel: depolarizing noise model",
            ),
        ]
    )
    run_once(benchmark, write_report, "fig6_noise_rate", text)

    # Qualitative claim: the error at the largest rate exceeds the error at the
    # smallest rate, for both noise models.
    assert dep[-1][1] >= dep[0][1]
    assert real[-1][1] >= real[0][1]
