"""The four benchmark workloads: seeded operation streams with their checks.

Each workload yields `Op`s lazily from its seed.  `Op.call` is the timed part:
one engine call (or one fresh-interpreter CLI command), returning its outcome;
outcomes the engine documents as typed answers (e.g. `HypothesisFailure`) are
caught inside the call and returned as values.  `Op.check` runs untimed and
re-checks the outcome with the benchmark's own evaluation, returning
`(answer, wrong, failure)`: `answer` is the op's unique exact output (compared
against `reference.json` at the reference seed), `wrong` lists answers or
certificates that are incorrect, and `failure` names a documented-behaviour
mismatch (such as a CLI exit code) that is not a wrong answer.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import itertools
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import gen

F = Fraction


@dataclass
class Op:
    kind: str
    index: int  # market (or CLI cycle) index in the seeded stream
    call: Callable[[], object]
    check: Callable[[object], tuple]
    meta: dict = field(default_factory=dict)


def rs(x) -> str:
    return gen.rat_text(x) if isinstance(x, Fraction) else str(x)


def measure_of_vertex(ss, tree, vert):
    return ss.Measure(tree, {k[2:-1]: v for k, v in vert.items() if k.startswith("w[") and v})


def arbitrage_problems(ss, market, verdict, support):
    """An arbitrage certificate must be worth >= 0 on the support and > 0
    somewhere, evaluated at the (shifted) quotes it was found at."""
    shifted = market.with_options(g_prices=verdict.shifted_g, h_prices=verdict.shifted_h)
    values = [ss.portfolio_value(shifted, verdict.portfolio, l) for l in support]
    if all(v >= 0 for v in values) and any(v > 0 for v in values):
        return []
    return ["arbitrage portfolio does not re-verify"]


def meta_of(tree):
    """Tree size, printed with the slowest LP solves."""
    return {"leaves": len(tree.leaves), "stops": tree.count_stops()}


def hedge_problems(ss, result):
    problems = []
    if result.gap != 0:
        problems.append(f"nonzero gap {rs(result.gap)}")
    if not ss.duality_gap_report(result)["verified"]:
        problems.append("duality_gap_report does not verify")
    return problems


class Workload:
    name = ""
    cal_ops = 1  # ops between two host-speed calibrations
    tail_pct = 50  # percentile reported as latency_tail_ms
    trace_ops = 1  # ops replayed by the traced run
    # op kind -> the exact documented-behaviour mismatch that the engine is
    # known to show at this commit: reported on every run by command, but not
    # counted as a failed op, so that `failed` does not scale with how many
    # ops fit in the window; any other outcome of such an op still fails
    known_defects: dict = {}

    def __init__(self, ss, root: str, seed: int):
        self.ss = ss
        self.root = root
        self.seed = seed

    def markets(self, catalog, strict=False):
        """Markets on the catalog's shapes, cycled, with data from the seed."""
        rng = random.Random(self.seed)
        for i in itertools.count():
            yield rng, gen.random_market(rng, catalog[i % len(catalog)], strict=strict)

    def ops(self):
        raise NotImplementedError

    def warm_up(self) -> None:
        pass

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

class Verdicts(Workload):
    """`check_sna` on the acceptance-criterion-2 distribution: depth-3 trees
    take the lazy-cut path, depth <= 2 the enumeration path, and failed slack
    LPs fall back to the (sometimes very degenerate) cone LP of `check_na`."""

    name = "verdicts"
    catalog = gen.shape_catalog(250)
    cal_ops = 25
    tail_pct = 95
    trace_ops = 2 * len(catalog)

    def warm_up(self):
        self.ss.check_sna(self.ss.load_fixture("T2"))

    def inputs(self):
        for _, (tree, S, Q, f, g, h, sna) in self.markets(self.catalog):
            yield {"doc": gen.market_doc(tree, S, f, g, h), "sna": sna, "meta": meta_of(tree)}

    def ops(self):
        ss = self.ss
        for i, x in enumerate(self.inputs()):
            market = ss.build_market(x["doc"])
            yield Op("check_sna", i, lambda m=market: ss.check_sna(m),
                     lambda v, m=market, sna=x["sna"]: self._check(m, v, sna), x["meta"])

    def _check(self, market, v, sna):
        ss = self.ss
        wrong = []
        if v.verdict == ss.NO_ARBITRAGE:
            if not ss.membership(v.pricing, ss.PricingSetSpec.strict_emm(market), strict=True):
                wrong.append("pricing measure fails strict membership")
        elif v.portfolio is not None:
            wrong += arbitrage_problems(ss, market, v, market.support_leaves())
        elif v.slack is None or v.slack.strictly_positive:
            wrong.append(f"{v.verdict} without a certificate")
        if sna and v.verdict != ss.NO_ARBITRAGE:
            wrong.append(f"{v.verdict} on a market that is strictly arbitrage-free by construction")
        return v.verdict, wrong, None


# ---------------------------------------------------------------------------
# hedging
# ---------------------------------------------------------------------------

class Hedging(Workload):
    """The four hedging prices on markets that are strictly arbitrage-free by
    construction: mid-size primal and dual LPs, the SNA slack LP repeated per
    op, and the per-stop scan of `super_hedge_indivisible`."""

    name = "hedging"
    catalog = gen.shape_catalog(40)
    cal_ops = 8
    tail_pct = 90
    trace_ops = sum(3 + (shape.n_h <= 1) for shape in catalog)  # one catalog cycle

    def warm_up(self):
        t2 = self.ss.load_fixture("T2")
        self.ss.sub_hedge_european(t2, t2.claims["put5_eu"])

    def inputs(self):
        for rng, (tree, S, Q, f, g, h, _) in self.markets(self.catalog, strict=True):
            psi = gen.random_claim(rng, tree)
            phi = gen.random_process(rng, tree)
            yield {"doc": gen.market_doc(tree, S, f, g, h), "psi": psi, "phi": phi,
                   "e_psi": gen.expect(Q, psi), "snell_phi": gen.snell_root(tree, Q, phi),
                   "meta": meta_of(tree)}

    def ops(self):
        ss = self.ss
        for i, x in enumerate(self.inputs()):
            market = ss.build_market(x["doc"])
            claim = ss.TerminalClaim(market.tree, x["psi"])
            process = ss.AdaptedProcess(market.tree, x["phi"])
            e_psi, snell_phi = x["e_psi"], x["snell_phi"]
            state = {}
            kinds = [
                ("sub_eu", lambda m=market, c=claim: ss.sub_hedge_european(m, c),
                 lambda p, e=e_psi: p <= e),
                ("sub_am", lambda m=market, c=process: ss.sub_hedge_american(m, c),
                 lambda p, e=snell_phi: p <= e),
                ("super_div", lambda m=market, c=claim: ss.super_hedge_divisible(m, c),
                 lambda p, e=e_psi: p >= e),
            ]
            if len(market.h) <= 1:
                kinds.append(("super_indiv",
                              lambda m=market, c=claim: ss.super_hedge_indivisible(m, c),
                              lambda p, e=e_psi, st=state: p >= e and p >= st.get("super_div", p)))
            for kind, call, bound in kinds:
                yield Op(kind, i, call,
                         lambda r, k=kind, b=bound, st=state: self._check(r, k, b, st), x["meta"])

    def _check(self, result, kind, bound, state):
        wrong = hedge_problems(self.ss, result)
        if not bound(result.price):
            wrong.append(f"{kind} price {rs(result.price)} breaks the ordering against "
                         "the reference measure")
        state[kind] = result.price
        return rs(result.price), wrong, None


# ---------------------------------------------------------------------------
# pricing-sets
# ---------------------------------------------------------------------------

class PricingSets(Workload):
    """Pricing-set geometry and the robust (two nested priors) and minimax
    operations on depth <= 2 markets: many tiny LPs, where per-solve set-up
    and certificate verification outweigh pivoting."""

    name = "pricing-sets"
    catalog = gen.shape_catalog(60, max_depth=2)
    cal_ops = 42
    tail_pct = 99
    trace_ops = 7 * len(catalog)  # one catalog cycle

    def warm_up(self):
        self.ss.emit_region(self.ss.load_fixture("P2"), ["u1", "d1"])

    def inputs(self):
        for rng, (tree, S, Q, f, g, h, _) in self.markets(self.catalog):
            yield {
                "doc": gen.market_doc(tree, S, f, g, h[:1]),
                "priors": gen.nested_priors(rng, tree),
                "psi": gen.random_claim(rng, tree),
                "phi": gen.random_process(rng, tree),
                "hull": [gen.random_measure(rng, tree, full_support=rng.random() < 0.7)
                         for _ in range(rng.choice([1, 2, 2, 3]))],
                "hs": [gen.random_process(rng, tree) for _ in range(rng.randint(1, 2))],
                "meta": meta_of(tree),
            }

    def ops(self):
        ss = self.ss
        p2 = ss.load_fixture("P2")
        for i, x in enumerate(self.inputs()):
            market = ss.build_market(x["doc"])
            mt = market.tree
            tree = gen.Tree([(n["id"], n["parent"], n["time"]) for n in x["doc"]["nodes"]])
            hs = x["hs"]
            spec = ss.RobustSpec(market, ss.PriorSet(tuple(ss.Measure(mt, P)
                                                           for P in x["priors"])))
            claim = ss.TerminalClaim(mt, x["psi"])
            process = ss.AdaptedProcess(mt, x["phi"])
            verts = [ss.Measure(mt, R) for R in x["hull"]]
            h_procs = [ss.AdaptedProcess(mt, y) for y in hs]
            state = {}
            meta = x["meta"]

            def geometry(market=market):
                pset = ss.PricingSetSpec(market)
                poly = ss.closure_polytope(pset)
                measures = [measure_of_vertex(ss, market.tree, v) for v in ss.vertices(poly)]
                return measures, [bool(ss.membership(Q_, pset, strict=False)) for Q_ in measures]

            def dominate(spec=spec):
                out = []
                for P in spec.priors:
                    try:
                        out.append(ss.dominating_measure(spec, P))
                    except (ss.robust.RobustError, ss.VerificationFailure,
                            ss.HypothesisFailure) as exc:
                        out.append(type(exc).__name__)
                return out

            def robust_price(spec, claim):
                try:
                    return ss.sub_hedge_robust(spec, claim)
                except ss.HypothesisFailure:
                    return "HypothesisFailure"

            yield from (
                Op("geometry", i, geometry, self._check_geometry, meta),
                Op("region", i, lambda: ss.emit_region(p2, ["u1", "d1"]),
                   self._check_region, meta),
                Op("robust_check", i, lambda spec=spec: ss.check_sna_robust(spec),
                   lambda v, spec=spec, st=state: self._check_robust(spec, v, st), meta),
                Op("dominate", i, dominate,
                   lambda r, spec=spec, st=state: self._check_dominate(spec, r, st), meta),
                Op("robust_price_eu", i, lambda spec=spec, c=claim: robust_price(spec, c),
                   self._check_robust_price, meta),
                Op("robust_price_am", i, lambda spec=spec, c=process: robust_price(spec, c),
                   self._check_robust_price, meta),
                Op("minimax", i, lambda v=verts, hp=h_procs: ss.minimax_check(v, hp),
                   lambda r, tree=tree, hs=hs: self._check_minimax(tree, hs, r), meta),
            )

    def _check_geometry(self, out):
        measures, members = out
        wrong = [] if all(members) else ["a vertex fails closure membership"]
        key = sorted(tuple(sorted((l, rs(w)) for l, w in Q_.weights.items())) for Q_ in measures)
        return f"{len(measures)} vertices {gen.digest(key)[:16]}", wrong, None

    def _check_region(self, polygon):
        # criterion 1: the objective 3/4 p + 5 q - 5/4 is <= 0 on the region
        # and attains 0 at a vertex
        obj = [F(3, 4) * pt["u1"] + 5 * pt["d1"] - F(5, 4) for pt in polygon]
        wrong = [] if obj and max(obj) == 0 else ["P2 region breaks the criterion-1 identity"]
        return ";".join(f"{rs(pt['u1'])},{rs(pt['d1'])}" for pt in polygon), wrong, None

    def _check_robust(self, spec, v, state):
        ss = self.ss
        state["verdict"] = v.verdict
        wrong = []
        m = spec.market
        if v.verdict == ss.NO_ARBITRAGE:
            if not ss.membership(v.pricing, ss.PricingSetSpec(m), strict=True):
                wrong.append("robust witness fails strict membership")
        elif v.portfolio is not None:
            union = [l for l in m.tree.leaves if l in ss.union_support(spec.priors)]
            wrong += arbitrage_problems(ss, m, v, union)
        return v.verdict, wrong, None

    def _check_dominate(self, spec, results, state):
        ss = self.ss
        wrong = []
        refused = any(isinstance(r, str) for r in results)
        if refused == (state.get("verdict") == ss.NO_ARBITRAGE):
            wrong.append("domination disagrees with the robust verdict")
        for P, r in zip(spec.priors, results):
            if isinstance(r, str):
                continue
            caps_ok = all(a < b for a, b in zip(r.g_tilde, spec.market.g_prices)) and \
                all(a < b for a, b in zip(r.h_tilde, spec.market.h_prices))
            pset = ss.PricingSetSpec(spec.market, g_cap=r.g_tilde, h_cap=r.h_tilde)
            if not (P.support() <= r.Q.support() and caps_ok
                    and ss.membership(r.Q, pset, strict=False)):
                wrong.append("dominating measure does not re-verify")
        return ",".join(r if isinstance(r, str) else "ok" for r in results), wrong, None

    def _check_robust_price(self, r):
        if isinstance(r, str):
            return r, [], None
        if r.price == self.ss.INFINITE_PRICE:
            return "+inf", [], None
        return rs(r.price), hedge_problems(self.ss, r), None

    def _check_minimax(self, tree, hs, r):
        wrong = []
        if not r.lhs == r.mid == r.rhs:
            wrong.append("minimax values differ")
        own = sum((gen.snell_root(tree, r.attaining.weights, x) for x in hs), F(0))
        if own != r.rhs:
            wrong.append("attaining measure does not reproduce the minimax value")
        return rs(r.rhs), wrong, None


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

CLI_RUNNER = "import sys; from semistatic.cli import main; sys.exit(main())"
CLI_CYCLES = 4  # market-file sets written at set-up; cycles reuse them round-robin
CLI_SHAPES = {
    "verdict": gen.shape_catalog(CLI_CYCLES),
    # one American option, so that `robust minimax` applies
    "strict": gen.shape_catalog(CLI_CYCLES, max_depth=2, n_h=1),
    "jobs": gen.shape_catalog(4 * CLI_CYCLES, max_depth=2),
}


class Cli(Workload):
    """Fresh-interpreter CLI commands on fixtures and generated market files,
    including one `--jobs 2` batch beside the same batch at `--jobs 1`, and
    the documented refusal and bad-input cases with their exit codes."""

    name = "cli"
    tail_pct = 75
    trace_ops = 44  # two command cycles
    # the README documents exit 2 for `price` on a market with arbitrage
    known_defects = {"refuse_price_arb": "exit 1 with a traceback, documented 2"}

    def __init__(self, ss, root, seed, in_process=False):
        super().__init__(ss, root, seed)
        self.in_process = in_process
        self.work = os.path.join(root, "bench", ".work", f"cli-{os.getpid()}")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.cycles = []

    def write_files(self) -> None:
        """Generate and write every market file a run uses."""
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        rng = random.Random(self.seed)
        self.cycles = []
        for c in range(CLI_CYCLES):
            files = {}

            def put(name, doc):
                path = os.path.join(self.work, f"c{c}-{name}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
                files[name] = path

            tree, S, Q, f, g, h, _ = gen.random_market(rng, CLI_SHAPES["verdict"][c])
            put("verdict", gen.market_doc(tree, S, f, g, h))
            tree, S, Q, f, g, h, _ = gen.random_market(rng, CLI_SHAPES["strict"][c],
                                                       strict=True)
            psi = gen.random_claim(rng, tree)
            phi = gen.random_process(rng, tree)
            claims = {"psi": ("european", psi), "phi": ("american", phi)}
            priors = gen.nested_priors(rng, tree)
            strict = gen.market_doc(tree, S, f, g, h, claims=claims, priors=priors)
            put("strict", strict)
            bounds = {"psi": gen.expect(Q, psi), "phi": gen.snell_root(tree, Q, phi)}
            # a buy-only claim paying 1 everywhere, quoted at 1/2: an arbitrage
            arb = json.loads(json.dumps(strict))
            arb["european_buy_only"].append(
                {"payoff": {l: "1" for l in tree.leaves}, "price": "1/2"})
            put("arb", arb)
            bad = json.loads(json.dumps(strict))
            bad["nodes"][-1]["parent"] = "missing"
            put("badtree", bad)
            flt = json.loads(json.dumps(strict))
            flt["nodes"][0]["S"] = [1.5]
            put("float", flt)
            batch = []
            for k in range(4):
                tree, S, Q, f, g, h, _ = gen.random_market(
                    rng, CLI_SHAPES["jobs"][4 * c + k], strict=True)
                psi_k = gen.random_claim(rng, tree)
                put(f"job{k}", gen.market_doc(tree, S, f, g, h,
                                              claims={"psi": ("european", psi_k)}))
                batch.append(gen.expect(Q, psi_k))
            self.cycles.append((files, bounds, batch))

    def warm_up(self):
        self._run(["fixture", "B1"])

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(os.path.dirname(self.work))

    def _run(self, argv):
        """One CLI command: (exit code, stdout, stderr)."""
        if not self.in_process:
            proc = subprocess.run([sys.executable, "-c", CLI_RUNNER, *argv], env=self.env,
                                  capture_output=True, text=True, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.ss.cli.main(argv)
            except Exception as exc:  # an uncaught exception exits 1 with a traceback
                err.write(f"Traceback (most recent call last):\n{type(exc).__name__}: {exc}\n")
                code = 1
        return code, out.getvalue(), err.getvalue()

    def ops(self):
        c = 0
        while True:
            files, bounds, batch = self.cycles[c % len(self.cycles)]
            jobs = [a for k in range(4) for a in ("--market", files[f"job{k}"])]
            P = files
            plan = [
                # (kind, argv, documented exit code or None for verdict-dependent, check)
                ("check", ["check-arbitrage", "--market", P["verdict"]], None, "verdict"),
                ("check_strict", ["check-arbitrage", "--market", P["verdict"], "--strict"],
                 None, "verdict"),
                ("check_strict_sna", ["check-arbitrage", "--market", P["strict"], "--strict"],
                 0, "verdict"),
                ("check_arb", ["check-arbitrage", "--market", P["arb"]], 2, "verdict"),
                ("price_sub_eu", ["price", "sub-eu", "--market", P["strict"], "--claim", "psi"],
                 0, ("le", bounds["psi"])),
                ("price_sub_am", ["price", "sub-am", "--market", P["strict"], "--claim", "phi"],
                 0, ("le", bounds["phi"])),
                ("price_super_div", ["price", "super-div", "--market", P["strict"],
                                     "--claim", "psi"], 0, ("ge", bounds["psi"])),
                ("price_super_indiv", ["price", "super-indiv", "--market", P["strict"],
                                       "--claim", "psi"], 0, ("ge", bounds["psi"])),
                ("region", ["fixture", "P2", "--region", "u1,d1"], 0, "region"),
                ("robust_check", ["robust", "check", "--market", P["strict"]], 0, "verdict"),
                ("robust_price", ["robust", "price", "--market", P["strict"], "--claim", "psi"],
                 0, ("le", bounds["psi"])),
                ("robust_dominate", ["robust", "dominate", "--market", P["strict"],
                                     "--prior-index", "1"], 0, "dominate"),
                ("robust_minimax", ["robust", "minimax", "--market", P["strict"]], 0, "minimax"),
                ("utility_audit", ["utility", "audit", "--market", "B1",
                                   "--utility", "power:0.5"], 0, "utility"),
                ("selftest", ["selftest"], 0, "selftest"),
                ("price_jobs2", ["price", "super-div", "--jobs", "2", *jobs, "--claim", "psi"],
                 0, ("batch", batch)),
                ("price_jobs1", ["price", "super-div", "--jobs", "1", *jobs, "--claim", "psi"],
                 0, ("batch", batch)),
                ("robust_check_arb", ["robust", "check", "--market", P["arb"]], 2, "verdict"),
                # documented refusals and bad input
                ("refuse_price_arb", ["price", "sub-eu", "--market", P["arb"], "--claim", "psi"],
                 2, None),
                ("bad_tree", ["check-arbitrage", "--market", P["badtree"]], 1, None),
                ("bad_float", ["price", "sub-eu", "--market", P["float"], "--claim", "psi"],
                 1, None),
                ("bad_usage", ["price", "no-such-op", "--market", "B1"], 1, None),
            ]
            for kind, argv, code, how in plan:
                yield Op(kind, c, lambda a=argv: self._run(a),
                         lambda out, a=argv, e=code, h=how: self._check(a, e, h, out),
                         {"command": " ".join(os.path.basename(x) for x in argv)})
            c += 1

    def _check(self, argv, expected, how, out):
        code, stdout, stderr = out
        wrong = []
        failure = None
        report = {}
        if stdout.strip().startswith("{"):
            report = json.loads(stdout)
        if how == "verdict" and code in (0, 2):
            if (report.get("verdict") == "NO_ARBITRAGE") != (code == 0):
                wrong.append(f"exit code {code} disagrees with verdict {report.get('verdict')}")
            if expected is None:  # either verdict is a documented outcome
                expected = code
        if expected is None or code != expected:
            tb = " with a traceback" if "Traceback" in stderr else ""
            failure = f"exit {code}{tb}, documented {'0 or 2' if expected is None else expected}"
        # the documented code: a mismatch is already a failure, not a new answer
        answer = f"exit {code if expected is None else expected}"
        if how == "verdict":
            return f"{answer} {report.get('verdict')}", wrong, failure
        if code != 0 or how is None:
            return answer, wrong, failure
        if isinstance(how, tuple):
            rel, bound = how
            results = report["results"] if "results" in report else [report]
            prices = [gen.F(x["price"]) for x in results]
            verified = all(x["certificate"]["verified"] for x in results)
            if rel == "batch":
                ok = all(p >= b for p, b in zip(prices, bound)) and len(prices) == len(bound)
            else:
                ok = prices[0] <= bound if rel == "le" else prices[0] >= bound
            if not (ok and verified):
                wrong.append("price breaks the reference-measure bound or fails its certificate")
            answer += " " + ",".join(rs(p) for p in prices)
        elif how == "minimax":
            values = report["values"]
            if len(set(values)) != 1:
                wrong.append("minimax values differ")
            answer += " " + values[0]
        elif how == "region":
            answer += " " + ";".join(f"{p['u1']},{p['d1']}" for p in report["region"])
        elif how in ("utility", "selftest"):
            if not report.get("passed"):
                wrong.append(f"{how} did not pass")
        return answer, wrong, failure
