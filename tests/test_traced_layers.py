"""Every function the benchmark's tracer patches must exist in coxlift.

``bench/spans.py`` names the traced functions by module and qualified
name; a renamed or deleted function would only show up when a traced
benchmark run fails to patch it.  The file is loaded, not changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest
import sympy

from coxlift.abgroup import IntMatrix, smith_normal_form_full

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


TARGETS = [(layer, *target) for layer, targets in _spans().LAYERS.items() for target in targets]


@pytest.mark.parametrize("layer,module,qualname", TARGETS)
def test_traced_name_resolves(layer, module, qualname):
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    # the tracer patches a method in its own class's __dict__
    fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    assert callable(fn), f"{layer}: {module}.{qualname} is not callable"


@pytest.mark.parametrize("rows", [
    [[2, 0], [0, 3]],
    [[4, 6, 2], [6, 9, 3], [2, 8, 10]],
    [[3, 1, 0], [0, 4, 0]],
    [[6], [10], [15]],
])
def test_snf_tracer_reads_u_and_v(rows):
    """The tracer reads positions 1 and 2 of the SNF result as U and V for
    ``abgroup.snf.max_digits``; they must satisfy U*M*V = S."""
    mod = _spans()
    assert mod.LAYERS[mod.SNF_LAYER] == [("coxlift.abgroup", "smith_normal_form_full")]
    M = IntMatrix(rows)
    out = smith_normal_form_full(M)
    U, V = out[1:3]
    assert (U.rows, U.cols, V.rows, V.cols) == (M.rows, M.rows, M.cols, M.cols)
    product = sympy.Matrix(U.entries) * sympy.Matrix(M.entries) * sympy.Matrix(V.entries)
    assert product == sympy.Matrix(out[0].entries)
