"""Checks on the source tree itself.

The benchmark's traced run looks engine functions up by name; a rename in
the engine must fail here rather than in `bench/run.py --trace 1`.  The
engine guards its results with typed errors, never `assert`, so that no
check vanishes under `python -O`.  LP rows are made in integers by
`lp.int_con`, and only `lp.py` turns rationals into a row, reads a row's
Fraction view or defines the shared `ZERO`.  Only `market.build_market` makes
a market, and what is derived from a market or its stock process is kept by
`market._kept` alone.  A market's pricing region is one traced vertex
enumeration, kept on the market, and the double-description kernel makes no
Fraction.  The first
`pricing-sets` answers at the benchmark's reference seed equal its reference
file.  The robust questions are asked of the maximal prior supports only,
picked by `robust._maximal`, and of one quasi-sure market, which
`RobustSpec` alone restricts to the union of the prior supports.  A pricing
set's caps are its market's quotes.  The package's modules import each
other at module top, in one direction, and a failed re-check is one error
type.  The constructors that skip input checks build only stops and
measures the engine made, a stopping time holds only its stop nodes, and a
measure keeps only its masses."""

import ast
import graphlib
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
    proc = subprocess.run([sys.executable, "-O", "-m", "semistatic", "selftest"],
                          env=_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["passed"] is True
    assert report["checks"] and all(v is True for v in report["checks"].values())


def test_only_the_lp_module_integerizes_rows():
    """Outside `lp.py` no module imports `con` (the package `__init__` only
    re-exports it), constructs a `Constraint` directly, or reads a row's
    Fraction view (`.coeffs`, or the numerator or denominator of `.rhs`):
    the builders emit integer rows with `int_con` from the integer forms
    the market holds."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "lp.py":
            continue
        where = path.relative_to(ROOT)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and path.name != "__init__.py" and \
                    (node.module or "").endswith("lp") and \
                    any(alias.name == "con" for alias in node.names):
                found.append(f"{where}:{node.lineno} imports con")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
                    node.func.id == "Constraint":
                found.append(f"{where}:{node.lineno} constructs a Constraint")
            elif isinstance(node, ast.Attribute) and (
                    node.attr == "coeffs" or node.attr in ("numerator", "denominator")
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "rhs"):
                found.append(f"{where}:{node.lineno} reads a row's Fraction view")
    assert found == []


def test_only_the_lp_module_defines_zero():
    """No module but `lp.py` assigns a module-level `ZERO`: every zero value,
    dual, weight or position the engine makes is the one shared `lp.ZERO`."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "lp.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            if any(isinstance(t, ast.Name) and t.id == "ZERO" for t in targets):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert found == []
    from semistatic import hedging, lp, measures, robust
    assert hedging.ZERO is measures.ZERO is robust.ZERO is lp.ZERO


def test_only_kept_writes_onto_objects():
    """Outside a `__post_init__` no module calls `object.__setattr__` or
    `setattr`, and outside `market._kept` none touches an object's
    `__dict__`: frozen objects are set up where they are made, and what is
    derived from a market or its stock process is kept by `_kept` alone."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        where = path.relative_to(ROOT)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {name: {id(node) for fn in ast.walk(tree)
                         if isinstance(fn, ast.FunctionDef) and fn.name == name
                         for node in ast.walk(fn)}
                  for name in ("__post_init__", "_kept")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in inside["__post_init__"] and (
                    isinstance(node.func, ast.Name) and node.func.id == "setattr"
                    or isinstance(node.func, ast.Attribute) and node.func.attr == "__setattr__"):
                found.append(f"{where}:{node.lineno} sets an attribute")
            elif isinstance(node, ast.Attribute) and node.attr == "__dict__" and not (
                    path.name == "market.py" and id(node) in inside["_kept"]):
                found.append(f"{where}:{node.lineno} reads or writes __dict__")
    assert found == []


def test_only_build_market_makes_a_market():
    """`MarketSpec(...)` is called in `market.build_market` alone: every
    other market is derived from one by `dataclasses.replace`, so it carries
    every field, the bundled claims and the file's priors included."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name == "build_market"
                  and path.name == "market.py" for node in ast.walk(fn)}
        found += [f"{path.relative_to(ROOT)}:{node.lineno} makes a MarketSpec"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in inside
                  and isinstance(node.func, ast.Name) and node.func.id == "MarketSpec"]
    assert found == []


def test_only_the_market_quotes_cap_a_pricing_set():
    """`PricingSetSpec` holds only its market and support floor: caps passed
    as `g_cap`/`h_cap` re-quote the market, so no module of the package or
    of the tests reads `.g_cap` or `.h_cap`."""
    from dataclasses import fields

    from semistatic import PricingSetSpec

    assert [f.name for f in fields(PricingSetSpec)] == ["market", "support_floor"]
    found = []
    for path in sorted([*PACKAGE.rglob("*.py"), *(ROOT / "tests").glob("*.py")]):
        found += [f"{path.relative_to(ROOT)}:{node.lineno} reads .{node.attr}"
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, ast.Attribute) and node.attr in ("g_cap", "h_cap")]
    assert found == []


def test_restrictions_are_markets_not_parameters():
    """Outside `market.py` no function takes a parameter named `support`,
    `carrier`, `pointwise_leaves`, `g_prices` or `h_prices`: a question on
    fewer leaves or at other quotes is asked of another market
    (`MarketSpec.on_support`, `MarketSpec.with_options`)."""
    banned = {"support", "carrier", "pointwise_leaves", "g_prices", "h_prices"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "market.py":
            continue
        where = path.relative_to(ROOT)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = {x.arg for x in [*a.posonlyargs, *a.args, *a.kwonlyargs,
                                         a.vararg, a.kwarg] if x is not None}
                found += [f"{where}:{node.lineno} takes {name}"
                          for name in sorted(names & banned)]
    assert found == []


def test_each_pricing_region_enumerates_once(monkeypatch):
    """`polytope.vertices` is swapped wherever a `semistatic` module bound
    it, as the traced run does: the first pricing region of a fresh market
    calls it exactly once, so the traced `polytope.vertices.calls` counts
    enumerations, and no enumeration runs outside that span.  The region's
    vertices are kept on the market (`closure_vertices`), so a second region
    and `closure_vertices` itself make no call; the measures of a closure
    polytope are never kept and make exactly one."""
    import semistatic
    from semistatic import load_fixture, polytope
    from semistatic.cli import emit_region
    from semistatic.measures import (
        PricingSetSpec,
        closure_polytope,
        closure_vertices,
        polytope_vertices_as_measures,
    )

    p2 = load_fixture("P2")
    calls = []
    orig = polytope.vertices

    def counted(poly):
        calls.append(poly)
        return orig(poly)

    for name, mod in list(sys.modules.items()):
        if name == "semistatic" or name.startswith("semistatic."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, counted)
    assert semistatic.vertices is counted

    region = emit_region(p2, ["u1", "d1"])
    assert len(calls) == 1
    assert emit_region(p2, ["u1", "d1"]) == region
    closure_vertices(PricingSetSpec(p2))
    assert len(calls) == 1
    poly = closure_polytope(PricingSetSpec(p2))
    polytope_vertices_as_measures(poly, p2.tree)
    assert calls[1:] == [poly]


def test_first_pricing_set_answers_equal_the_benchmark_reference(monkeypatch):
    """The first 700 `pricing-sets` ops that `bench/workloads.py` builds at
    the reference seed (100 markets, each with one op of the seven kinds)
    re-check and give `bench/reference.json`'s answers, so a vertex list, a
    region, a verdict, a price or a minimax value that moves fails here
    before the benchmark runs.  The bench files are read, never written."""
    import itertools
    from collections import Counter

    import semistatic

    reference = json.loads((ROOT / "bench" / "reference.json").read_text(encoding="utf-8"))
    want = reference["answers"]["pricing-sets"][:700]
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    stream = workloads.PricingSets(semistatic, str(ROOT), reference["seed"]).ops()
    got, kinds, problems = [], Counter(), []
    for op in itertools.islice(stream, len(want)):
        answer, wrong, failure = op.check(op.call())
        got.append(answer)
        kinds[op.kind] += 1
        problems += [f"#{op.index} {op.kind}: {msg}" for msg in wrong + [failure] if msg]
    assert problems == []
    assert got == want
    assert len(kinds) == 7 and set(kinds.values()) == {100}


def test_double_description_makes_no_fraction():
    """The double-description kernel runs on integers alone: `_dd_cone`
    names no `Fraction` (the vertices' Fractions are made in `vertices`)."""
    tree = ast.parse((PACKAGE / "polytope.py").read_text(encoding="utf-8"))
    kernel = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "_dd_cone")
    found = [node.lineno for node in ast.walk(kernel)
             if isinstance(node, ast.Name) and node.id == "Fraction"
             or isinstance(node, ast.Attribute) and node.attr == "Fraction"]
    assert found == []


def test_robust_asks_only_the_maximal_supports():
    """In `robust.py` every loop that solves a slack or hedge LP per support
    (`max_slack`, `hedge_primal`, its `hedge` closure, `_dominating_slack`)
    ranges over `_maximal(...)`, and no `dict.fromkeys` dedupes supports: a
    support inside an earlier one is skipped by the one helper, not per
    loop."""
    solvers = {"max_slack", "hedge_primal", "hedge", "_dominating_slack"}

    def calls(nodes):
        return {node.func.id for tree in nodes for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}

    def is_maximal(node):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
            node.func.id == "_maximal"

    path = PACKAGE / "robust.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.For):
            loops = [(node.iter, node.body)]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            body = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
            loops = [(gen.iter, body) for gen in node.generators]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and \
                node.func.attr == "fromkeys" and "support" in ast.unparse(node):
            found.append(f"robust.py:{node.lineno} dedupes supports with dict.fromkeys")
            continue
        else:
            continue
        found += [f"robust.py:{node.lineno} solves per support outside _maximal"
                  for it, body in loops if calls(body) & solvers and not is_maximal(it)]
    assert found == []


def _callers(function):
    """Where the package calls `function`, by name or as a module attribute:
    `module.function`, or `module.Class.method` inside a class."""
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        scopes = []
        for node in module.body:
            if isinstance(node, ast.ClassDef):
                scopes += [(f"{node.name}.{getattr(f, 'name', '<class>')}", f) for f in node.body]
            else:
                scopes.append((getattr(node, "name", "<module>"), node))
        for name, scope in scopes:
            for node in ast.walk(scope):
                if isinstance(node, ast.Call) and function in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    callers.add(f"{path.stem}.{name}")
    return callers


def test_only_max_slack_runs_the_stop_cut_loop():
    """`measures.solve_with_stop_cuts` is `max_slack`'s loop: no other
    function or method of the package calls it, by name or as a module
    attribute.  The reference `hedging.dual_optimum` solves one enumerated
    LP instead."""
    assert _callers("solve_with_stop_cuts") == {"measures.max_slack"}


def test_only_the_robust_spec_restricts_to_the_union_support():
    """`union_support` is called in `RobustSpec.__post_init__` alone: the
    quasi-sure market is decided once, when a spec is made, and every robust
    question and re-check reads `spec.market` instead of restricting the
    market again."""
    assert _callers("union_support") == {"robust.RobustSpec.__post_init__"}


def test_unchecked_constructors_build_only_what_the_engine_made():
    """`StoppingTime._built` skips the path re-check and `Measure._built` the
    leaf-name and `rat` checks, so each is called only where the engine
    builds the object itself: the enumerated, deterministic and greedy stops
    in `stopping`, the measures read off an LP solution or a vertex in
    `measures` and `hedging`, and the attaining mixture of
    `robust.minimax_check`.  Every other stop or measure, user input
    included, goes through the validating constructor."""
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        for scope in module.body:
            for node in ast.walk(scope):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                        and node.func.attr in ("_built", "__new__"):
                    receiver = getattr(node.func.value, "id", "?")
                    where = f"{path.stem}.{getattr(scope, 'name', '<module>')}"
                    callers.add(f"{receiver}.{node.func.attr} in {where}")
    assert callers == {
        "StoppingTime._built in stopping.stop_everywhere_at",
        "StoppingTime._built in stopping.enumerate_stopping_times",
        "StoppingTime._built in stopping._greedy_stop",
        "Measure._built in measures._measure_of",
        "Measure._built in hedging._leaf_dual",
        "Measure._built in robust.minimax_check",
        "cls.__new__ in stopping.StoppingTime",
        "cls.__new__ in measures.Measure",
    }


def test_a_stopping_time_holds_only_its_stop_nodes():
    """`StoppingTime` keeps its tree and stop nodes and nothing per leaf, and
    no engine module names a leaf-to-stop map (`_stop_at`) or a per-leaf read
    of one (`stop_node`, `value_at`): `stopping.at_stop` is the one engine
    function that reads a stop leaf by leaf."""
    from semistatic import StoppingTime

    assert StoppingTime.__slots__ == ("tree", "stop_nodes")
    banned = {"_stop_at", "stop_node", "value_at"}
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr in banned
             or isinstance(node, ast.Name) and node.id in banned]
    assert found == []


def test_a_measure_keeps_only_its_masses():
    """`Measure` holds its weights and its masses memo and nothing else: no
    engine module names an envelope store (`_envelopes`) or calls a kept
    envelope (`.envelope(`), and `market._kept` keeps no structure rows,
    which are built per LP."""
    from semistatic import Measure

    assert Measure.__slots__ == ("tree", "den", "num", "weights", "_mass")
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "_envelopes"
             or isinstance(node, ast.Name) and node.id == "_envelopes"
             or isinstance(node, ast.Call) and (
                 isinstance(node.func, ast.Attribute) and node.func.attr == "envelope"
                 or isinstance(node.func, ast.Name) and node.func.id == "_kept"
                 and any(isinstance(key, ast.Constant) and key.value == "structure"
                         for arg in node.args[1:2] for key in ast.walk(arg)))]
    assert found == []


def test_modules_import_down_one_acyclic_stack():
    """No module of the package imports a sibling inside a function, and the
    modules' top-level imports of each other form no cycle (the
    `TYPE_CHECKING` block, which is not run, is exempt): a module needs only
    the ones below it.  `ftap`, which the hedging dualities build on, does
    not import `hedging`.  `FixtureError` and `AuditFailure` subclass the one
    re-check error, `lp.VerificationFailure`, which `lp` alone defines."""
    from semistatic import lp
    from semistatic.fixtures import FixtureError
    from semistatic.utility import AuditFailure

    modules = {path.stem for path in PACKAGE.glob("*.py")}
    graph, nested, defined = {}, [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        graph[path.stem] = {
            node.module or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names} & modules
        nested += [f"{path.relative_to(ROOT)}:{node.lineno}"
                   for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                   for node in ast.walk(fn)
                   if isinstance(node, ast.ImportFrom) and node.level]
        defined += [path.stem for node in tree.body if isinstance(node, ast.ClassDef)
                    and node.name in ("VerificationFailure", "LpVerificationError")]
    assert nested == [] and defined == ["lp"]
    list(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError
    ftap = ast.parse((PACKAGE / "ftap.py").read_text(encoding="utf-8"))
    assert not [node for node in ast.walk(ftap) if isinstance(node, ast.ImportFrom)
                and node.module == "hedging"]
    assert issubclass(FixtureError, lp.VerificationFailure)
    assert issubclass(AuditFailure, lp.VerificationFailure)
