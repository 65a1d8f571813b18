"""The benchmark tracer wraps library functions by module attribute; every
name it hooks must exist, or `perfbench` breaks only when it is run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_hook_resolves():
    hooks = _load_spans().HOOKS
    assert hooks
    missing = [(m, attr) for m, attr, _, _ in hooks
               if not callable(getattr(importlib.import_module(f"ptspectra.{m}"), attr, None))]
    assert missing == []
