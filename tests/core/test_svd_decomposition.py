"""Tests for the SVD decomposition of noise tensors (Fig. 3 / Lemma 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    decompose_matrix_representation,
    decompose_noise,
    lemma2_bound,
    matrix_representation,
)
from repro.noise import (
    KrausChannel,
    amplitude_damping_channel,
    bit_flip_channel,
    bit_phase_flip_channel,
    coherent_overrotation_channel,
    depolarizing_channel,
    generalized_amplitude_damping_channel,
    pauli_channel,
    phase_damping_channel,
    phase_flip_channel,
    thermal_relaxation_channel,
    two_qubit_depolarizing_channel,
)
from repro.utils.linalg import operator_norm
from repro.utils.validation import ValidationError

CHANNELS = [
    depolarizing_channel(0.01),
    depolarizing_channel(0.2),
    amplitude_damping_channel(0.1),
    phase_damping_channel(0.05),
    pauli_channel(0.01, 0.005, 0.02),
    thermal_relaxation_channel(15_000, 10_000, 25),
    coherent_overrotation_channel(0.05),
]

#: One instance of every channel the library builds.
LIBRARY_CHANNELS = [
    depolarizing_channel(0.01),
    bit_flip_channel(0.02),
    phase_flip_channel(0.03),
    bit_phase_flip_channel(0.04),
    pauli_channel(0.01, 0.005, 0.02),
    amplitude_damping_channel(0.1),
    generalized_amplitude_damping_channel(0.1, 0.2),
    phase_damping_channel(0.05),
    two_qubit_depolarizing_channel(0.05),
    *(coherent_overrotation_channel(0.05, axis) for axis in "xyz"),
    thermal_relaxation_channel(15_000, 10_000, 25),
]


class TestDecomposition:
    @pytest.mark.parametrize("channel", CHANNELS, ids=lambda c: c.name)
    def test_reconstruction(self, channel):
        decomposition = decompose_noise(channel)
        assert np.allclose(decomposition.reconstruct(), decomposition.matrix_rep, atol=1e-10)

    @pytest.mark.parametrize("channel", CHANNELS, ids=lambda c: c.name)
    def test_terms_are_kronecker_products(self, channel):
        decomposition = decompose_noise(channel)
        for i, (u, v) in enumerate(decomposition.terms):
            assert np.allclose(decomposition.term_matrix(i), np.kron(u, v))

    @pytest.mark.parametrize("channel", CHANNELS, ids=lambda c: c.name)
    def test_singular_values_sorted(self, channel):
        values = decompose_noise(channel).singular_values
        assert list(values) == sorted(values, reverse=True)

    @pytest.mark.parametrize("channel", CHANNELS, ids=lambda c: c.name)
    def test_lemma2_dominant_term_error(self, channel):
        """‖M_E − U_0⊗V_0‖ < 4·‖M_E − I‖ for every channel (Lemma 2)."""
        decomposition = decompose_noise(channel)
        assert decomposition.dominant_error() <= lemma2_bound(decomposition.noise_rate) + 1e-10

    def test_identity_channel_single_term(self):
        decomposition = decompose_noise(KrausChannel.identity(1))
        assert decomposition.num_terms == 1
        assert np.allclose(decomposition.term_matrix(0), np.eye(4))
        assert decomposition.residual_norm() == pytest.approx(0.0, abs=1e-12)

    def test_unitary_channel_single_term(self):
        decomposition = decompose_noise(coherent_overrotation_channel(0.3))
        assert decomposition.num_terms == 1

    def test_depolarizing_has_four_terms(self):
        decomposition = decompose_noise(depolarizing_channel(0.1))
        assert decomposition.num_terms == 4

    def test_dominant_term_close_to_identity_for_weak_noise(self):
        decomposition = decompose_noise(depolarizing_channel(1e-4))
        assert operator_norm(decomposition.term_matrix(0) - np.eye(4)) < 1e-3

    @pytest.mark.parametrize("channel", LIBRARY_CHANNELS, ids=lambda c: c.name)
    def test_lower_factor_is_the_conjugate_upper_factor(self, channel):
        """``d_i·V_i = conj(U_i)``: the realigned ``M_E`` is the Hermitian PSD Choi matrix."""
        decomposition = decompose_noise(channel)
        for (u, v), d in zip(decomposition.terms, decomposition.singular_values):
            assert np.max(np.abs(d * v - u.conj())) <= 1e-12

    def test_two_qubit_channel(self):
        decomposition = decompose_noise(two_qubit_depolarizing_channel(0.05))
        assert decomposition.matrix_rep.shape == (16, 16)
        assert np.allclose(decomposition.reconstruct(), decomposition.matrix_rep, atol=1e-9)
        assert decomposition.dominant_error() <= lemma2_bound(decomposition.noise_rate) + 1e-9

    def test_residual_norm_bounded_by_lemma2(self):
        """‖M̄_E‖ = ‖M_E − U_0⊗V_0‖ < 4p is the bound Algorithm 1's analysis uses."""
        for p in (1e-4, 1e-3, 1e-2):
            decomposition = decompose_noise(depolarizing_channel(p))
            assert decomposition.residual_norm() <= 4 * decomposition.noise_rate + 1e-10

    def test_invalid_dimension_rejected(self):
        with pytest.raises(ValidationError):
            decompose_matrix_representation(np.eye(6))

    @given(st.floats(min_value=1e-6, max_value=0.3, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_property_reconstruction_and_bound(self, p):
        decomposition = decompose_noise(depolarizing_channel(p))
        assert np.allclose(decomposition.reconstruct(), decomposition.matrix_rep, atol=1e-9)
        assert decomposition.dominant_error() <= 4 * decomposition.noise_rate + 1e-9

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_property_random_cptp_channels(self, seed):
        """Random CPTP channels (from Choi sampling) decompose and satisfy Lemma 2."""
        rng = np.random.default_rng(seed)
        # Build a random channel close to identity: identity Kraus plus a weak random one.
        eps = 0.05
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a = eps * a / operator_norm(a)
        # Complete to a CPTP set: K0 = sqrt(I - A†A), K1 = A.
        gram = np.eye(2) - a.conj().T @ a
        eigenvalues, eigenvectors = np.linalg.eigh(gram)
        k0 = eigenvectors @ np.diag(np.sqrt(np.clip(eigenvalues, 0, None))) @ eigenvectors.conj().T
        channel = KrausChannel([k0, a])
        decomposition = decompose_noise(channel)
        assert np.allclose(decomposition.reconstruct(), decomposition.matrix_rep, atol=1e-8)
        assert decomposition.dominant_error() <= lemma2_bound(decomposition.noise_rate) + 1e-8
