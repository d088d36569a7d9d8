"""The benchmark tracer's targets all exist in the package.

``bench/tracing.py`` rebinds the library functions it names in
``TARGETS`` by dotted path; a renamed or deleted one would only show when
the traced benchmark runs.  This loads the tracer by path and resolves
every target the way it does.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("path, span, _points", tracing.TARGETS, ids=[t[1] for t in tracing.TARGETS])
def test_target_resolves(path, span, _points):
    owner, attr, obj = tracing._resolve(path)
    assert getattr(owner, attr) is obj
    assert callable(obj)
