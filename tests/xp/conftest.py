"""Fixtures for the array-namespace conformance suite.

The ``xp`` fixture parametrizes each test over *every* available namespace
(``numpy`` and ``fake_gpu``; a future accelerator namespace joins through
``available_devices()``).  A test written against the fixture is therefore a
conformance contract — any future namespace must pass it as-is.
"""

import pytest

from repro.xp import available_devices, get_namespace

DEVICES = tuple(available_devices())


@pytest.fixture(params=DEVICES)
def xp(request):
    """One ArrayNamespace per available device (test id = device name)."""
    return get_namespace(request.param)
