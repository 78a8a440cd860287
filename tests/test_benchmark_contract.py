"""The benchmark's tracer looks up package functions by name: each must exist."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.span_targets()
    assert all(targets.values()), [span for span, found in targets.items() if not found]
    missing = [f"{span}: {getattr(owner, '__name__', owner)}.{attr}"
               for span, found in targets.items() for owner, attr in found
               if not hasattr(owner, attr)]
    assert not missing
