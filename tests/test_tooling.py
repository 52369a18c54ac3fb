"""The benchmark's traced run looks engine functions up by name; a rename in
the engine must fail here rather than in `bench/run.py --trace 1`."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_traced_layer_functions_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{modname}.{fname}"
               for _, modname, names in spans.LAYER_FUNCTIONS
               for fname in names
               if not callable(getattr(importlib.import_module(modname), fname, None))]
    assert not missing
