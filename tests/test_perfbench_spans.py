"""The traced benchmark wraps eflcolor functions by module attribute name
(perfbench/spans.py); every name it lists must still exist, or a traced
run crashes before it measures anything."""

import importlib
import importlib.util
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_every_span_names_a_callable():
    spans = load_spans()
    assert spans
    for module, function in spans:
        target = importlib.import_module(f"eflcolor.{module}")
        assert callable(getattr(target, function, None)), (module, function)
