"""Spans around the engine's public functions, for the traced run.

`Tracer.install` wraps each function in LAYER_FUNCTIONS both in its defining
module and in every `semistatic` module (and the package itself) that bound it
by name or holds it in a module-level dispatch table, so that, for example,
`measures.solve`, `ftap.solve`, `hedging.solve` and `robust.solve` all record
`lp.solve` spans and nesting is seen wherever the call comes from.  A span is recorded only while an
operation is current; it keeps name, start, end, parent span and operation
id in memory, and `layer_metrics` derives counts, inclusive and self times
from them after the run.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter

# (layer, module, functions): the public functions the per-layer metrics name
LAYER_FUNCTIONS = [
    ("lp", "semistatic.lp", ["solve", "verify_solution", "verify_farkas", "verify_ray"]),
    ("ftap", "semistatic.ftap", ["check_sna", "check_na"]),
    ("measures", "semistatic.measures",
     ["max_slack", "closure_polytope", "membership", "solve_with_stop_cuts"]),
    ("stopping", "semistatic.stopping",
     ["enumerate_stopping_times", "snell_value", "snell_optimal_stop"]),
    ("polytope", "semistatic.polytope", ["vertices"]),
    ("hedging", "semistatic.hedging", ["hedge_primal", "dual_optimum", "duality_gap_report"]),
    ("robust", "semistatic.robust",
     ["check_sna_robust", "dominating_measure", "sub_hedge_robust", "minimax_check"]),
    ("market", "semistatic.market", ["build_market", "portfolio_value"]),
    ("cli", "semistatic.cli", ["main"]),
    ("utility", "semistatic.utility", ["duality_audit"]),
]


def cert_bits(sol) -> int:
    """Largest numerator/denominator bit length in an LP certificate."""
    nums = list(sol.values.values()) + list(sol.duals)
    for extra in (sol.farkas, sol.ray, sol.feasible_point):
        if extra:
            nums += list(extra.values()) if isinstance(extra, dict) else list(extra)
    return max((max(x.numerator.bit_length(), x.denominator.bit_length()) for x in nums),
               default=0)


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, start, end, parent id, op]
        self.lp = {}  # span id -> (rows, cols, status, cert bits)
        self.counts = defaultdict(int)
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = [next(tracer._ids), name, perf_counter(), 0.0,
                    stack[-1] if stack else None, op]
            tracer.spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            tracer._after(name, span[0], args, result)
            return result

        return traced

    def _after(self, name, span_id, args, result):
        if name == "lp.solve":
            problem = args[0]
            self.lp[span_id] = (len(problem.constraints), len(problem.variables),
                                result.status, cert_bits(result))
        elif name == "stopping.enumerate_stopping_times":
            self.counts["stopping.taus_enumerated"] += len(result)
        elif name == "polytope.vertices":
            self.counts["polytope.vertices.out"] += len(result)

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "semistatic" or n.startswith("semistatic.")]
        for layer, modname, names in LAYER_FUNCTIONS:
            home = sys.modules[modname]
            for fname in names:
                orig = getattr(home, fname)
                traced = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    table = vars(mod)
                    for attr, value in list(table.items()):
                        if value is orig:
                            self._swap(table, attr, traced)
                        elif isinstance(value, dict):  # dispatch tables, e.g. cli._PRICE_OPS
                            for key, entry in list(value.items()):
                                if entry is orig:
                                    self._swap(value, key, traced)

    def _swap(self, table, key, value):
        self._undo.append((table, key, table[key]))
        table[key] = value

    def uninstall(self):
        for table, key, orig in reversed(self._undo):
            table[key] = orig
        self._undo.clear()


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-layer counts and times from the recorded spans.

    `.s` is inclusive busy time, summed over outermost spans of the name (a
    recursive call is not counted twice); `.self_s` subtracts the time
    covered by direct child spans."""
    spans = tracer.spans
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s[4] is not None:
            child_time[s[4]] += s[3] - s[2]

    def nested_in_same(s):
        p = s[4]
        while p is not None:
            if by_id[p][1] == s[1]:
                return True
            p = by_id[p][4]
        return False

    calls = defaultdict(int)
    incl = defaultdict(float)
    self_t = defaultdict(float)
    longest = defaultdict(float)
    for s in spans:
        d = s[3] - s[2]
        calls[s[1]] += 1
        self_t[s[1]] += d - child_time[s[0]]
        longest[s[1]] = max(longest[s[1]], d)
        if not nested_in_same(s):
            incl[s[1]] += d

    # LP solves issued by a cut loop beyond the first one per loop call
    loops = ("measures.solve_with_stop_cuts", "hedging.dual_optimum")
    loop_solves = defaultdict(int)
    for s in spans:
        if s[1] != "lp.solve":
            continue
        p = s[4]
        while p is not None and by_id[p][1] not in loops:
            p = by_id[p][4]
        if p is not None:
            loop_solves[p] += 1
    cut_rounds = sum(max(0, k - 1) for k in loop_solves.values())

    lp = tracer.lp.values()
    per_op = max(n_ops, 1)
    out = {
        "lp.solve.calls": calls["lp.solve"],
        "lp.solve.s": incl["lp.solve"],
        "lp.solve.self_s": self_t["lp.solve"],
        "lp.solve.max_s": longest["lp.solve"],
        "lp.solve.self_s_per_call": self_t["lp.solve"] / max(calls["lp.solve"], 1),
        "lp.rows.max": max((x[0] for x in lp), default=0),
        "lp.cols.max": max((x[1] for x in lp), default=0),
        "lp.cert_bits.max": max((x[3] for x in lp), default=0),
        "lp.verify.s": sum(incl[f"lp.{n}"] for n in
                           ("verify_solution", "verify_farkas", "verify_ray")),
        "lp.solves_per_op": calls["lp.solve"] / per_op,
        "ftap.check_sna.s": incl["ftap.check_sna"],
        "ftap.check_na.calls": calls["ftap.check_na"],
        "ftap.check_na.s": incl["ftap.check_na"],
        "measures.max_slack.calls": calls["measures.max_slack"],
        "measures.max_slack.s": incl["measures.max_slack"],
        "hedging.max_slack_per_op": calls["measures.max_slack"] / per_op,
        "measures.cut_rounds": cut_rounds,
        "measures.closure_polytope.calls": calls["measures.closure_polytope"],
        "measures.closure_polytope.s": incl["measures.closure_polytope"],
        "measures.membership.calls": calls["measures.membership"],
        "measures.membership.s": incl["measures.membership"],
        "stopping.enumerate_stopping_times.calls": calls["stopping.enumerate_stopping_times"],
        "stopping.enumerate_stopping_times.s": incl["stopping.enumerate_stopping_times"],
        "stopping.taus_enumerated": tracer.counts["stopping.taus_enumerated"],
        "stopping.snell_value.calls": calls["stopping.snell_value"],
        "stopping.snell_value.s": incl["stopping.snell_value"],
        "stopping.snell_optimal_stop.calls": calls["stopping.snell_optimal_stop"],
        "polytope.vertices.calls": calls["polytope.vertices"],
        "polytope.vertices.s": incl["polytope.vertices"],
        "polytope.vertices.out": tracer.counts["polytope.vertices.out"],
        "robust.check_sna_robust.s": incl["robust.check_sna_robust"],
        "robust.dominating_measure.s": incl["robust.dominating_measure"],
        "robust.sub_hedge_robust.s": incl["robust.sub_hedge_robust"],
        "robust.minimax_check.s": incl["robust.minimax_check"],
        "market.build_market.calls": calls["market.build_market"],
        "market.build_market.s": incl["market.build_market"],
        "market.portfolio_value.calls": calls["market.portfolio_value"],
        "market.portfolio_value.s": incl["market.portfolio_value"],
        "cli.main.s": incl["cli.main"],
        "utility.duality_audit.s": incl["utility.duality_audit"],
    }
    for name in ("hedge_primal", "dual_optimum", "duality_gap_report"):
        out[f"hedging.{name}.calls"] = calls[f"hedging.{name}"]
        out[f"hedging.{name}.s"] = incl[f"hedging.{name}"]
    return out


def slowest_solves(tracer: Tracer, k: int = 5):
    """The k longest LP solves: (seconds, rows, cols, status, bits, op)."""
    solves = [s for s in tracer.spans if s[1] == "lp.solve"]
    solves.sort(key=lambda s: s[2] - s[3])
    return [(s[3] - s[2], *tracer.lp.get(s[0], (0, 0, "raised", 0)), s[5])
            for s in solves[:k]]
