"""Every library function the benchmark tracer wraps still exists.

``perfbench/tracer.py`` wraps functions by ``(module, attribute)`` name,
so a rename or deletion in the library would otherwise show only when
the benchmark runs with tracing on.  The tracer file is loaded by path
and its wrappers are never installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
TARGETS = sorted(
    {target for targets in tracer.SPANS.values() for target in targets}
    | set(tracer.COUNTED.values())
)


def test_every_span_has_a_target():
    assert all(tracer.SPANS.values()) and TARGETS


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}:{a}" for m, a in TARGETS])
def test_target_resolves(module, attr):
    importlib.import_module(module)
    owner, name = tracer._resolve(module, attr)
    assert callable(getattr(owner, name))
