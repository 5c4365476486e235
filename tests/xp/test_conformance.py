"""Namespace conformance: every available device implements one contract.

Golden-vector checks (hand-computed expected values) pin the op semantics;
round-trip checks pin the transfer discipline; everything runs through the
``xp`` fixture so the same assertions gate numpy, fake_gpu and any real
accelerator namespace present on the machine.
"""

import numpy as np
import pytest


def host(xp, array):
    return xp.to_host(array)


class TestTransfers:
    def test_asarray_to_host_round_trip(self, xp):
        data = np.arange(6, dtype=np.complex128).reshape(2, 3) * (1 + 2j)
        assert np.array_equal(host(xp, xp.asarray(data)), data)

    def test_round_trip_preserves_dtype(self, xp):
        for dtype in (np.complex64, np.complex128, np.float64, np.int64):
            back = host(xp, xp.asarray(np.ones(3, dtype=dtype)))
            assert back.dtype == np.dtype(dtype)

    def test_asarray_casts_when_asked(self, xp):
        back = host(xp, xp.asarray(np.ones(3), dtype=np.complex64))
        assert back.dtype == np.complex64

    def test_to_host_returns_independent_copy_semantics(self, xp):
        # Mutating the host result must never corrupt later device reads
        # through the same handle on a real device; for the host namespace a
        # view is fine, so only the values contract is asserted here.
        device = xp.asarray(np.zeros(4))
        first = host(xp, device)
        assert np.array_equal(first, np.zeros(4))

    def test_to_scalar(self, xp):
        assert xp.to_scalar(xp.asarray(np.array(2.5))) == 2.5

    def test_copyto_transfers_host_source(self, xp):
        destination = xp.zeros((2, 2))
        source = np.array([[1, 2], [3, 4]], dtype=np.complex128)
        xp.copyto(destination, source)
        assert np.array_equal(host(xp, destination), source)

    def test_is_device_array(self, xp):
        assert xp.is_device_array(xp.asarray(np.ones(2)))
        assert not xp.is_device_array("nope")


class TestCreation:
    def test_zeros_defaults_to_complex_dtype(self, xp):
        array = xp.zeros((2, 3))
        assert array.shape == (2, 3) and array.dtype == xp.complex_dtype
        assert np.count_nonzero(host(xp, array)) == 0

    def test_empty_shape_and_dtype(self, xp):
        array = xp.empty((4,), dtype=np.float64)
        assert array.shape == (4,) and array.dtype == np.float64

    def test_full(self, xp):
        assert np.array_equal(
            host(xp, xp.full((2,), 3.0, dtype=np.float64)), np.full(2, 3.0)
        )


class TestGoldenVectors:
    def test_matmul_golden(self, xp):
        a = xp.asarray(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = xp.asarray(np.array([[5.0, 6.0], [7.0, 8.0]]))
        assert np.array_equal(
            host(xp, xp.matmul(a, b)), np.array([[19.0, 22.0], [43.0, 50.0]])
        )

    def test_dot_golden(self, xp):
        # Plan replay's kernel: a (rows, shared) by (shared, cols) product,
        # here a complex row vector against a column.
        a = xp.asarray(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = xp.asarray(np.array([[5.0, 6.0], [7.0, 8.0]]))
        assert np.array_equal(host(xp, xp.dot(a, b)), np.array([[19.0, 22.0], [43.0, 50.0]]))
        row = xp.asarray(np.array([[1.0 + 1j, 2.0, -1j]]))
        column = xp.asarray(np.array([[2.0], [1.0j], [3.0]]))
        assert np.array_equal(host(xp, xp.dot(row, column)), np.array([[2.0 + 1j]]))

    def test_einsum_trace_golden(self, xp):
        a = xp.asarray(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert host(xp, xp.einsum("ii->", a)) == pytest.approx(5.0)

    def test_einsum_batched_inner_product(self, xp):
        # The engine's Born-weight contraction shape: (batch, dim) x (batch, dim).
        lhs = np.arange(6, dtype=float).reshape(2, 3)
        rhs = np.ones((2, 3))
        out = host(xp, xp.einsum("bd,bd->b", xp.asarray(lhs), xp.asarray(rhs)))
        assert np.array_equal(out, np.array([3.0, 12.0]))

    def test_tensordot_golden(self, xp):
        a = xp.asarray(np.arange(4, dtype=float).reshape(2, 2))
        b = xp.asarray(np.arange(4, dtype=float).reshape(2, 2))
        out = host(xp, xp.tensordot(a, b, axes=([1], [0])))
        assert np.array_equal(out, np.array([[2.0, 3.0], [6.0, 11.0]]))

    def test_kron_golden(self, xp):
        x = xp.asarray(np.array([[0.0, 1.0], [1.0, 0.0]]))
        identity = xp.asarray(np.eye(2))
        assert np.array_equal(
            host(xp, xp.kron(x, identity)), np.kron([[0, 1], [1, 0]], np.eye(2))
        )

    def test_vdot_conjugates_first_argument(self, xp):
        a = xp.asarray(np.array([1j, 2.0]))
        b = xp.asarray(np.array([1j, 1.0]))
        assert complex(np.asarray(host(xp, xp.vdot(a, b)))) == pytest.approx(3.0 + 0j)

    def test_elementwise_golden(self, xp):
        a = xp.asarray(np.array([3.0 + 4.0j, -1.0]))
        assert np.allclose(host(xp, xp.abs(a)), [5.0, 1.0])
        assert np.allclose(host(xp, xp.conj(a)), [3.0 - 4.0j, -1.0])
        assert np.allclose(
            host(xp, xp.add(a, xp.asarray(np.array([1.0, 1.0])))), [4.0 + 4.0j, 0.0]
        )
        assert np.allclose(
            host(xp, xp.sqrt(xp.asarray(np.array([4.0, 9.0])))), [2.0, 3.0]
        )

    def test_sum_and_cumsum(self, xp):
        a = xp.asarray(np.arange(6, dtype=float).reshape(2, 3))
        assert float(np.asarray(host(xp, xp.sum(a)))) == 15.0
        assert np.array_equal(host(xp, xp.sum(a, axis=0)), [3.0, 5.0, 7.0])
        flat = xp.asarray(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(host(xp, xp.cumsum(flat)), [1.0, 3.0, 6.0])

    def test_view_real_doubles_last_axis(self, xp):
        a = xp.asarray(np.array([[1 + 2j, 3 + 4j]]), dtype=xp.complex_dtype)
        out = host(xp, xp.view_real(a))
        assert out.shape == (1, 4)
        assert np.array_equal(out, [[1.0, 2.0, 3.0, 4.0]])


class TestShapes:
    def test_reshape_transpose_round_trip(self, xp):
        data = np.arange(8, dtype=float).reshape(2, 4)
        array = xp.asarray(data)
        back = host(xp, xp.transpose(xp.reshape(array, (4, 2))))
        assert np.array_equal(back, data.reshape(4, 2).T)

    def test_transpose_with_axes(self, xp):
        data = np.arange(24, dtype=float).reshape(2, 3, 4)
        out = host(xp, xp.transpose(xp.asarray(data), (2, 0, 1)))
        assert np.array_equal(out, data.transpose(2, 0, 1))

    def test_stack(self, xp):
        stacked = host(xp, xp.stack([xp.asarray(np.ones(2)), xp.asarray(np.zeros(2))]))
        assert np.array_equal(stacked, [[1.0, 1.0], [0.0, 0.0]])

    def test_ascontiguousarray(self, xp):
        out = host(xp, xp.ascontiguousarray(xp.transpose(xp.asarray(np.eye(3)))))
        assert np.array_equal(out, np.eye(3))

    def test_idivide_in_place(self, xp):
        array = xp.asarray(np.array([2.0, 4.0]))
        result = xp.idivide(array, 2.0)
        assert np.array_equal(host(xp, result), [1.0, 2.0])


class TestLinalg:
    def test_svd_singular_values_golden(self, xp):
        matrix = xp.asarray(np.diag([3.0, 2.0]).astype(complex))
        _, s, _ = xp.svd(matrix)
        assert np.allclose(host(xp, s), [3.0, 2.0])

    def test_svd_reconstructs(self, xp):
        rng = np.random.default_rng(5)
        matrix = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, s, vh = xp.svd(xp.asarray(matrix), full_matrices=False)
        rebuilt = host(xp, u) @ np.diag(host(xp, s)) @ host(xp, vh)
        assert np.allclose(rebuilt, matrix)

    def test_eigh_golden(self, xp):
        pauli_x = xp.asarray(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        values, vectors = xp.eigh(pauli_x)
        assert np.allclose(host(xp, values), [-1.0, 1.0])
        assert np.allclose(np.abs(host(xp, vectors)), np.full((2, 2), np.sqrt(0.5)))
