"""The benchmark tracer's named targets exist in the library it traces."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_named_target_resolves():
    tracer = _load_tracer()
    t = tracer.Tracer()
    # resolves every binding without installing one; a missing METHODS
    # entry raises here
    bindings = t._bindings()
    assert bindings
    registered = set(t._fid)
    for metric, key in {**tracer.TIMED, **tracer.CALLS}.items():
        assert key in registered, f"{metric} traces {key}, which is not wrapped"
    bound = {(owner.__name__, name) for owner, name, _, _ in bindings}
    for _, cls_name, methods in tracer.METHODS:
        for meth in methods:
            assert (cls_name, meth) in bound
    # building the bindings changed no library attribute
    assert all(getattr(owner, name) is original for owner, name, original, _ in bindings)
