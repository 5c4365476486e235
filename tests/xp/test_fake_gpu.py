"""Transfer discipline: fake_gpu must make host/device mixing bugs loud.

These are the failure modes that would only surface on a real accelerator —
host arrays leaking into device ops, implicit numpy coercion of device
arrays, results consumed without an explicit transfer.  fake_gpu turns each
into a ``TypeError`` on CPU-only CI.
"""

import numpy as np
import pytest

from repro.xp import get_namespace
from repro.xp.fake_gpu import FakeDeviceArray


@pytest.fixture
def xp():
    return get_namespace("fake_gpu")


class TestDisciplineViolations:
    def test_ops_reject_raw_host_arrays(self, xp):
        device = xp.asarray(np.ones((2, 2)))
        with pytest.raises(TypeError, match="host numpy array"):
            xp.matmul(device, np.ones((2, 2)))
        with pytest.raises(TypeError, match="host numpy array"):
            xp.einsum("ij->i", np.ones((2, 2)))
        with pytest.raises(TypeError, match="host numpy array"):
            xp.tensordot(np.ones((2, 2)), device, axes=([1], [0]))
        with pytest.raises(TypeError, match="host numpy array"):
            xp.dot(device, np.ones((2, 2)))

    def test_implicit_host_coercion_raises(self, xp):
        device = xp.asarray(np.ones(3))
        with pytest.raises(TypeError, match="implicit transfer"):
            np.asarray(device)
        with pytest.raises(TypeError, match="to_host"):
            iter(device)
        with pytest.raises(TypeError, match="to_host"):
            bool(device)

    def test_ufunc_dispatch_is_disabled(self, xp):
        device = xp.asarray(np.ones(3))
        with pytest.raises(TypeError):
            np.ones(3) + device

    def test_assigning_host_values_raises(self, xp):
        device = xp.asarray(np.zeros(4))
        with pytest.raises(TypeError, match="transfer it first"):
            device[1:3] = np.ones(2)

    def test_to_host_rejects_host_data(self, xp):
        with pytest.raises(TypeError, match="never needs"):
            xp.to_host(np.ones(2))


class TestCupySemantics:
    """What real device arrays *do* allow must stay allowed."""

    def test_host_index_arrays_are_legal_subscripts(self, xp):
        device = xp.asarray(np.arange(10, dtype=float))
        picked = device[np.array([1, 3, 5])]
        assert isinstance(picked, FakeDeviceArray)
        assert np.array_equal(xp.to_host(picked), [1.0, 3.0, 5.0])

    def test_host_mask_assignment_of_device_values(self, xp):
        device = xp.asarray(np.zeros(4))
        mask = np.array([True, False, True, False])
        device[mask] = xp.asarray(np.array([5.0, 6.0]))
        assert np.array_equal(xp.to_host(device), [5.0, 0.0, 6.0, 0.0])

    def test_python_scalars_pass_through(self, xp):
        device = xp.asarray(np.zeros(2))
        device[0] = 2.5
        assert xp.to_scalar(device[0]) == 2.5

    def test_asarray_of_device_array_is_no_copy(self, xp):
        device = xp.asarray(np.ones(3))
        assert xp.asarray(device) is device

    def test_explicit_copyto_is_the_transfer_op(self, xp):
        staged = xp.workspace((2,), dtype=np.complex128, tag="stage")
        xp.copyto(staged, np.array([1.0, 2.0], dtype=np.complex128))
        assert np.array_equal(xp.to_host(staged), [1.0, 2.0])


def test_ops_yield_wrapped_arrays(xp=None):
    xp = get_namespace("fake_gpu")
    result = xp.matmul(xp.asarray(np.eye(2)), xp.asarray(np.eye(2)))
    assert isinstance(result, FakeDeviceArray)
    assert isinstance(xp.reshape(result, (4,)), FakeDeviceArray)
