"""Checks on the source tree itself.

The benchmark's traced run looks engine functions up by name; a rename in
the engine must fail here rather than in `bench/run.py --trace 1`.  The
engine guards its results with typed errors, never `assert`, so that no
check vanishes under `python -O`."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
PACKAGE = ROOT / "src" / "semistatic"


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_layer_functions_resolve():
    spans = _spans()
    missing = [f"{modname}.{fname}"
               for _, modname, names in spans.LAYER_FUNCTIONS
               for fname in names
               if not callable(getattr(importlib.import_module(modname), fname, None))]
    assert not missing


def test_package_import_loads_every_traced_module():
    """`Tracer.install` reads each traced module from `sys.modules`, so a fresh
    `import semistatic` must load all of them, however lazily their
    dependencies are imported."""
    modules = sorted({modname for _, modname, _ in _spans().LAYER_FUNCTIONS})
    runner = "import sys, semistatic; print(*[m for m in sys.argv[1:] if m not in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", runner, *modules], env=_env(),
                          capture_output=True, text=True, check=True, timeout=300)
    assert proc.stdout.split() == []


def test_engine_has_no_assert_statements():
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_selftest_passes_under_optimize():
    proc = subprocess.run([sys.executable, "-O", "-m", "semistatic.cli", "selftest"],
                          env=_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["passed"] is True
    assert report["checks"] and all(v is True for v in report["checks"].values())
