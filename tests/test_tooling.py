import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_functions_exist():
    # the benchmark tracer binds isoplab functions by name: a rename in the
    # package must fail here rather than in a benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{mod}.{name}" for mod, name, *_ in tracing.TARGETS
               if not callable(getattr(importlib.import_module("isoplab." + mod),
                                       name, None))]
    assert len(tracing.TARGETS) > 0
    assert missing == []
