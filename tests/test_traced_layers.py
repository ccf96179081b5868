"""Every function the benchmark's tracer patches must exist in coxlift.

``bench/spans.py`` names the traced functions by module and qualified
name; a renamed or deleted function would only show up when a traced
benchmark run fails to patch it.  The file is loaded, not changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.LAYERS


TARGETS = [(layer, *target) for layer, targets in _layers().items() for target in targets]


@pytest.mark.parametrize("layer,module,qualname", TARGETS)
def test_traced_name_resolves(layer, module, qualname):
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    # the tracer patches a method in its own class's __dict__
    fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    assert callable(fn), f"{layer}: {module}.{qualname} is not callable"
