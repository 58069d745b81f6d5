"""The benchmark's traced run times each layer by wrapping module-level names
(``wnbench/spans.py``). A rename in the library would make ``--trace 1``
fail or time nothing, so every patch point must name its layer's library
function."""
import importlib.util
import sys
from pathlib import Path

from repro.core import alternatives, backtrace, msr, tracing

SPANS = Path(__file__).resolve().parents[1] / "wnbench" / "spans.py"
LAYER_FUNCTIONS = {
    "backtrace.backtrace": backtrace.backtrace,
    "alternatives.enumerate": alternatives.enumerate_sas,
    "tracing.trace": tracing.trace,
    "msr.collect_stats": msr.collect_stats,
}


def test_patch_points_name_the_layer_functions(monkeypatch):
    spec = importlib.util.spec_from_file_location("wnbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # for its dataclasses
    spec.loader.exec_module(spans)
    points = spans._patch_points()
    assert points
    for mod, attr, span, _ in points:
        assert hasattr(mod, attr), (mod.__name__, attr)
        assert getattr(mod, attr) is LAYER_FUNCTIONS[span], (mod.__name__, attr, span)
    assert {span for _, _, span, _ in points} == set(LAYER_FUNCTIONS)
