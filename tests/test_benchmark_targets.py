"""The traced benchmark run wraps riskfuse functions by module attribute
name (perfbench/spans.py). A renamed or deleted function would only show up
in the slow benchmark self-tests, so check every name here."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_still_exists():
    spans = _load_spans()
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in spans.WRAPPED
               if not callable(getattr(module, attr, None))]
    missing += [f"riskfuse.pipeline.{attr}" for attr in spans.LOSS_BUILDERS
                if not callable(getattr(spans.pipeline, attr, None))]
    assert not missing, f"perfbench/spans.py wraps names riskfuse no longer has: {missing}"
