"""Registry behaviour: device resolution, env default, seam declarations."""

import pytest

from repro.utils.validation import ValidationError
from repro.xp import (
    DeviceUnavailableError,
    available_devices,
    declare_seam,
    default_device,
    device_available,
    get_namespace,
    seam_modules,
)


class TestResolution:
    def test_cpu_is_the_numpy_reference(self):
        xp = get_namespace("cpu")
        assert xp.name == "numpy" and xp.device == "cpu"

    def test_fake_gpu_always_available(self):
        assert device_available("fake_gpu")
        assert get_namespace("fake_gpu").device == "fake_gpu"

    def test_namespaces_are_cached(self):
        assert get_namespace("cpu") is get_namespace("cpu")

    def test_dtype_variants_are_distinct_instances(self):
        import numpy as np

        single = get_namespace("cpu", dtype="complex64")
        assert single is not get_namespace("cpu")
        assert single.complex_dtype == np.dtype(np.complex64)
        assert single.real_dtype == np.dtype(np.float32)

    def test_unknown_device_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="unknown device"):
            get_namespace("tpu")

    def test_available_devices_contains_the_builtins(self):
        devices = available_devices()
        assert "cpu" in devices and "fake_gpu" in devices

    def test_auto_resolves_to_a_concrete_device(self):
        assert get_namespace("auto") is get_namespace("cpu")

    def test_cuda_unavailable_is_structured(self):
        assert not device_available("cuda")
        assert "cuda" not in available_devices()
        with pytest.raises(DeviceUnavailableError) as excinfo:
            get_namespace("cuda")
        assert excinfo.value.device == "cuda"
        assert "repro.xp.ArrayNamespace" in excinfo.value.reason


class TestEnvDefault:
    def test_default_device_falls_back_to_cpu(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEVICE", raising=False)
        assert default_device() == "cpu"
        assert get_namespace(None).device == "cpu"

    def test_env_variable_selects_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEVICE", "fake_gpu")
        assert default_device() == "fake_gpu"
        assert get_namespace(None).device == "fake_gpu"

    def test_env_variable_is_validated(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEVICE", "warp_drive")
        with pytest.raises(ValidationError, match="REPRO_DEVICE"):
            default_device()


class TestSeamRegistry:
    def test_hot_path_modules_are_declared(self):
        declared = seam_modules()
        for module in (
            "repro.backends.engine",
            "repro.simulators.statevector",
            "repro.simulators.density_matrix",
            "repro.tensornetwork.plan",
            "repro.circuits.passes.ptm",
        ):
            assert module in declared, module

    def test_declared_modes_are_typed(self):
        modes = set(seam_modules().values())
        assert modes <= {"host", "dispatch"}

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValidationError, match="mode"):
            declare_seam("tests.bogus", mode="quantum")
