"""The perfbench tracer patches entry points that exist, and restores them.

``perfbench/tracer.py`` wraps library functions by module and attribute
name.  A refactor that renames one of them must fail here rather than
silently break a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _slot(module_name, path):
    """``(owner, attribute)`` of one target; raises if it does not resolve."""
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    assert attr in vars(owner), f"{module_name}.{path} does not exist"
    return owner, attr


def test_targets_resolve_and_uninstall_restores_originals():
    tracer_module = _load_tracer()
    slots = [_slot(module_name, path) for module_name, path, *_ in tracer_module.TARGETS]
    originals = [vars(owner)[attr] for owner, attr in slots]

    tracer = tracer_module.Tracer().install()
    try:
        patched = [vars(owner)[attr] for owner, attr in slots]
    finally:
        tracer.uninstall()

    for (owner, attr), original, wrapped in zip(slots, originals, patched):
        assert wrapped is not original, f"{owner.__name__}.{attr} was not wrapped"
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} was not restored"
